// The benchmark's four workloads.  Each runs whole rounds of the same
// seeded operations for the requested host time, checks the outputs, and
// fills a Result with the end-to-end metrics (untraced) or the per-layer
// metrics (traced).  See perfbench/README.md for what each one stresses.
#pragma once

#include "report.hpp"

namespace perfbench {

[[nodiscard]] Result run_paper_steady(const Options& opts);
[[nodiscard]] Result run_chaos_sweep(const Options& opts);
[[nodiscard]] Result run_failover_durable(const Options& opts);
[[nodiscard]] Result run_parallel_shards(const Options& opts);

}  // namespace perfbench
