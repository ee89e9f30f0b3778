#!/usr/bin/env python3
"""Run one workload of the RTPB benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles src/ from
source, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload for S host seconds:
--trace 0 runs the uninstrumented driver and prints the end-to-end
metrics, --trace 1 runs the traced driver and prints the per-layer metrics
(its spans go to <build dir>/traces/).  The last line of stdout is one JSON
object; build output goes to stderr.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_steady", "chaos_sweep", "failover_durable", "parallel_shards")
RUN_TIMEOUT_S = 170


def build(build_dir):
    # Configure until a build system exists (a failed configure leaves a
    # cache but no Makefile behind).
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "rtpb_perfbench",
                    "rtpb_perfbench_traced"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sabotage", choices=("no-failover", "torn-write"),
                        help="oracle self-test: plant a bug the checks must catch")
    parser.add_argument("--doctor", action="store_true",
                        help="self-test: feed the run-level checks a doctored count")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    binary = "rtpb_perfbench_traced" if args.trace else "rtpb_perfbench"
    cmd = [os.path.join(build_dir, binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    if args.doctor:
        cmd.append("--doctor")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
