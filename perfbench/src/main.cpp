// rtpb_perfbench / rtpb_perfbench_traced: one run of one benchmark workload.
//
//   rtpb_perfbench --workload NAME --seed N --seconds S
//       [--sabotage no-failover|torn-write] [--doctor]
//   rtpb_perfbench_traced --workload NAME --seed N --seconds S [--trace-out FILE]
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout.  Exit status 0 when the run completed (the JSON says whether its
// checks held), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_steady|chaos_sweep|failover_durable|parallel_shards\n"
               "          --seed N --seconds S [--trace-out FILE]\n"
               "          [--sabotage no-failover|torn-write] [--doctor]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  opts.trace = perfbench::alloc_hook_linked();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = next();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(next(), nullptr);
    } else if (arg == "--trace-out") {
      opts.trace_out = next();
    } else if (arg == "--sabotage") {
      opts.sabotage = next();
    } else if (arg == "--doctor") {
      opts.doctor = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (opts.seconds <= 0.0 ||
      (opts.sabotage != "none" && opts.sabotage != "no-failover" && opts.sabotage != "torn-write")) {
    usage(argv[0]);
    return 2;
  }
  // Chaos runs cause checksum failures and dead links on purpose.
  rtpb::Logger::instance().set_level(rtpb::LogLevel::kError);

  perfbench::Result result;
  if (opts.workload == "paper_steady") {
    result = perfbench::run_paper_steady(opts);
  } else if (opts.workload == "chaos_sweep") {
    result = perfbench::run_chaos_sweep(opts);
  } else if (opts.workload == "failover_durable") {
    result = perfbench::run_failover_durable(opts);
  } else if (opts.workload == "parallel_shards") {
    result = perfbench::run_parallel_shards(opts);
  } else {
    usage(argv[0]);
    return 2;
  }
  result.print(opts.workload, opts.trace);
  return 0;
}
