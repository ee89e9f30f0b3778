// parallel_scale — the parallel execution engine's scaling baseline.
//
// Runs the SAME 64-group PartitionedCluster workload at 1, 2, 4 and 8
// worker threads and records two kinds of metric into BENCH_parallel.json:
//
//   * deterministic counters (suffix `_deterministic`): per-group trace
//     digests must be identical at every thread count, and the window /
//     event / frontier-record totals are pure functions of the seed.
//     These are what tools/bench_report gates with --stable-only — they
//     are bit-stable across machines, unlike wall-clock.
//   * wall-clock scaling (wall_ms_t*, speedup_t4): each is the median of
//     5 timed runs after one warm-up run at that thread count, and the
//     JSON's "host" object records the hardware threads, compiler and
//     build type they were taken with.  Informational on any machine,
//     asserted >= 2x at 4 threads only when the host actually has >= 4
//     hardware threads (CI perf runners do; laptops may not).
//
// The digest oracle is the load-bearing check: a data race or a
// non-deterministic barrier schedule in src/psim shows up here as a
// digest mismatch long before it corrupts an experiment.
//
// Usage: parallel_scale [output.json]   (default BENCH_parallel.json)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/harness.hpp"
#include "psim/partitioned.hpp"

namespace {

using namespace rtpb;

constexpr std::uint32_t kGroups = 64;
constexpr int kObjectsPerGroup = 4;
constexpr Duration kDuration = seconds(5);
constexpr std::size_t kTimedRuns = 5;

core::ObjectSpec light_spec(core::ObjectId id) {
  core::ObjectSpec spec;
  spec.id = id;
  spec.client_period = millis(10);
  spec.client_exec = micros(1);
  spec.update_exec = micros(1);
  spec.size_bytes = 64;
  // The backup window δ_iB − δ_iP sets the update period (~half of it):
  // 100ms keeps UPDATE traffic flowing every ~50ms so the frontier plane
  // actually works during the run, not just at registration.
  spec.delta_primary = millis(200);
  spec.delta_backup = spec.delta_primary + millis(100);
  return spec;
}

struct RunOutcome {
  std::vector<std::uint64_t> digests;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t frontier_published = 0;
  double wall_ms = 0.0;
};

RunOutcome run_at(std::size_t threads) {
  psim::PartitionedClusterParams params;
  params.seed = 42;
  params.group_count = kGroups;
  psim::PartitionedCluster cluster(params);
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    cluster.service(g).simulator().trace().enable();
  }
  cluster.start();
  core::ObjectId next = 1;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    for (int i = 0; i < kObjectsPerGroup; ++i) {
      if (!cluster.register_object_in(g, light_spec(next++)).ok()) {
        std::fprintf(stderr, "FAIL: group %u rejected light object %u\n", g, next - 1);
        std::exit(1);
      }
    }
  }
  const psim::DriverStats stats = cluster.run_for(kDuration, threads);
  cluster.finish();

  RunOutcome out;
  out.digests = cluster.digests();
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    out.events += cluster.service(g).simulator().fired_events();
  }
  out.windows = stats.windows;
  out.frontier_published = cluster.frontier_records_published();
  out.wall_ms = stats.wall_ms;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  bench::banner("parallel scale-out",
                "64 shard groups advance in lock-stepped lookahead windows; "
                "digests are thread-count invariant and 4 threads give >= 2x");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("-- %u groups x %d objects, %lld ms simulated, host threads %u --\n", kGroups,
              kObjectsPerGroup, static_cast<long long>(kDuration.nanos() / 1'000'000), hw);

  const std::size_t kThreadCounts[] = {1, 2, 4, 8};
  RunOutcome base;
  bool digests_match = true;
  const auto check = [&](const RunOutcome& r) {
    if (r.digests != base.digests || r.events != base.events ||
        r.frontier_published != base.frontier_published) {
      digests_match = false;
    }
  };
  double wall_ms[4] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    // The warm-up run pays for first-touch page faults and cold caches;
    // only the timed runs after it count.
    const RunOutcome warm = run_at(kThreadCounts[i]);
    if (i == 0) base = warm;
    check(warm);
    std::vector<double> walls;
    for (std::size_t run = 0; run < kTimedRuns; ++run) {
      const RunOutcome r = run_at(kThreadCounts[i]);
      check(r);
      walls.push_back(r.wall_ms);
    }
    std::sort(walls.begin(), walls.end());
    wall_ms[i] = walls[kTimedRuns / 2];
    std::printf("  threads %zu: %8.1f ms wall (median of %zu, range %.1f-%.1f)  %llu events  "
                "%llu windows  speedup %.2fx\n",
                kThreadCounts[i], wall_ms[i], kTimedRuns, walls.front(), walls.back(),
                static_cast<unsigned long long>(warm.events),
                static_cast<unsigned long long>(warm.windows),
                wall_ms[i] > 0 ? wall_ms[0] / wall_ms[i] : 0.0);
  }

  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: per-group digests or event counts changed with the thread "
                 "count — the conservative engine must be bit-reproducible\n");
    return 1;
  }
  const double speedup4 = wall_ms[2] > 0 ? wall_ms[0] / wall_ms[2] : 0.0;
  if (hw >= 4 && speedup4 < 2.0) {
    std::fprintf(stderr,
                 "FAIL: 4 threads gave only %.2fx over 1 thread on a %u-way host "
                 "(want >= 2x on the 64-group workload)\n",
                 speedup4, hw);
    return 1;
  }
  if (hw < 4) {
    std::printf("  (host has %u hardware threads: speedup gate skipped, digests still checked)\n",
                hw);
  }

  bench::JsonMetrics out("parallel");
  out.add_host("hardware_threads", std::to_string(hw));
#if defined(__clang__)
  out.add_host("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  out.add_host("compiler", "gcc " __VERSION__);
#endif
  out.add_host("build_type", RTPB_BUILD_TYPE);
  out.add_host("wall_ms", "median of " + std::to_string(kTimedRuns) +
                             " timed runs after 1 warm-up, per thread count");
  out.add("groups_deterministic", static_cast<double>(kGroups));
  out.add("windows_deterministic", static_cast<double>(base.windows));
  out.add("events_total_deterministic", static_cast<double>(base.events));
  out.add("frontier_records_deterministic", static_cast<double>(base.frontier_published));
  out.add("digest_match_deterministic", digests_match ? 1.0 : 0.0);
  out.add("wall_ms_t1", wall_ms[0]);
  out.add("wall_ms_t2", wall_ms[1]);
  out.add("wall_ms_t4", wall_ms[2]);
  out.add("wall_ms_t8", wall_ms[3]);
  out.add("speedup_t4", speedup4);
  out.write(out_path);
  return 0;
}
