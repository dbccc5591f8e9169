"""Runs one benchmark workload and prints its result.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload image-rows --seed 0 --seconds 10 --trace 0

Builds the program first when needed (see build.py), then runs one JVM.
Every line it prints is human-readable except the last, which is the JSON
result: {"correct", "attempted", "failed", "metrics"}. It exits non-zero,
printing no result, when the build or the run fails.
"""
import argparse
import json
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

WORKLOADS = ("image-rows", "echo-search", "nursery-quality")
RUN_TIMEOUT_S = 170  # one run, after the build


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="permutes the rows; 0 keeps the generated order")
    ap.add_argument("--data-seed", type=int,
                    help="seed of the planted data (default: that of MetanomeLite.load, "
                         "whose digest is committed)")
    ap.add_argument("--seconds", type=float, default=10.0, help="measure passes for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    start_ns = time.time_ns()
    cmd = build.java_cmd("repro.perfbench.Bench", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--start-epoch-ns", str(start_ns),
        "--out-dir", str(build.BUILD), "--expected", str(build.HERE / "expected.json"),
        *(["--data-seed", str(a.data_seed)] if a.data_seed is not None else [])])
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=build.java_env(), stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: run failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
