// One chaos seed, assembled by the benchmark from the chaos module's public
// pieces (schedule, workload, FaultPlan, OracleMonitor) exactly as
// chaos::run_seed assembles it, so that the benchmark can (a) time set-up
// apart from simulation, (b) read response-time samples, and (c) advance a
// crash-restart seed in short run_for slices to observe failover and rejoin
// from outside.  Windowed running leaves the trace digest unchanged; the
// chaos workloads check that by re-running sampled seeds through
// chaos::run_seed and comparing digests.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/harness.hpp"
#include "probe.hpp"
#include "report.hpp"

namespace perfbench {

struct ChaosOutcome {
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  std::uint64_t violations = 0;
  std::uint64_t oracle_checks = 0;
  std::size_t admitted = 0;
  Counters counters;
  std::vector<double> responses;  ///< client write response times, virtual ms
  double staleness_ms = 0.0;      ///< average over objects of max primary-backup distance
  Hops hops;                      ///< empty unless telemetry was on
  double setup_s = 0.0;       ///< host time: schedule, service, admission, plan, monitor
  double setup_done_s = 0.0;  ///< host time from process start to the end of set-up
  double run_s = 0.0;             ///< host time: run_for + finish
  std::uint64_t run_allocations = 0;
  std::size_t queue_depth = 0;      ///< pending simulator events at the end
  std::size_t cpu_tasks = 0;        ///< periodic tasks on the primary's CPU
  std::size_t payload_bytes = 0;    ///< mean admitted object size

  // Filled by observed (windowed) crash-restart runs only.
  bool crash_restart = false;
  bool primary_crashed = false;
  double failover_ms = -1.0;  ///< crash of acting primary -> first write at successor
  double rejoin_ms = -1.0;    ///< restart -> restarted replica holds primary's versions
  double recover_image_bytes = 0.0;  ///< WAL + checkpoint bytes of replica 0 at the end
  std::vector<std::string> check_failures;  ///< end-state checks that failed
  /// Live replicas that still differed from the acting primary after all
  /// clients stopped and the service settled (reported, not counted as a
  /// failure; see end_state_checks).
  std::vector<std::string> unconverged;

  void drop_samples() {
    responses = {};
    hops = {};
  }

  /// An operation (a seed) fails on an oracle violation, a rejoin that
  /// never converged, or a failed end-state check.
  [[nodiscard]] bool failed() const {
    return violations > 0 || (crash_restart && rejoin_ms < 0.0) || !check_failures.empty();
  }
};

/// Run `seed` under `opts` (opts.shards must be 1).  With `observe`, a
/// crash-restart seed is advanced in 1 ms slices from its crash until
/// failover and rejoin are seen, and the end-state checks run afterwards.
[[nodiscard]] ChaosOutcome run_chaos_seed(std::uint64_t seed, const rtpb::chaos::ChaosOptions& opts,
                                          bool observe);

}  // namespace perfbench
