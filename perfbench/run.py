#!/usr/bin/env python3
"""Build and run the live-points benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign-4cfg --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The driver program (perfbench/lpperf.cc) is built with CMake against
the repository's lp library into the build directory ($CARGO_TARGET_DIR,
default .bench_build). The libraries the replay workloads load are
built once per build of the driver ("prepare") and kept there too.
Each workload runs in its own process; its last stdout line is one
JSON object with correct / attempted / failed / metrics. The exit code
is nonzero when the build fails or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["campaign-4cfg", "cell-delta", "build-delta"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_driver():
    """Configure (once) and build lpperf; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "lpperf", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
        return None
    return os.path.join(out, "lpperf")


def prepared(binary, workload):
    """Directory holding the workload's libraries, built if stale."""
    d = os.path.join(build_dir(), "prepared", workload)
    st = os.stat(binary)
    stamp = "%d %d\n" % (st.st_mtime_ns, st.st_size)
    marker = os.path.join(d, "prepared.stamp")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == stamp:
                return d
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    subprocess.run([binary, "prepare", "--workload", workload, "--dir", d],
                   stdout=sys.stderr, cwd=ROOT, check=True,
                   timeout=RUN_TIMEOUT_S)
    with open(marker, "w") as f:
        f.write(stamp)
    return d


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines, result)."""
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", prepared(binary, workload),
           "--out", os.path.join(build_dir(), "results")] + list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return p.returncode, lines, result


def self_test(binary):
    """A planted mismatch must surface as failed > 0 and exit 1."""
    code, lines, result = run_workload(binary, "cell-delta", 1, 1, 0,
                                       ["--plant-mismatch"])
    print("\n".join(lines[:-1]))
    ok = code == 1 and result is not None and result["failed"] > 0 \
        and not result["correct"]
    print("self-test: planted mismatch %s (exit %d, failed %s of %s)" % (
        "detected" if ok else "NOT detected", code,
        result and result["failed"], result and result["attempted"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    binary = build_driver()
    if binary is None:
        log("run.py: building the benchmark failed")
        return 2
    if args.self_test:
        return self_test(binary)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        code, lines, result = run_workload(binary, name, args.seed,
                                           args.seconds, args.trace)
        if result is None:
            print("\n".join(lines))
            log("run.py: workload %s produced no result (exit %d)"
                % (name, code))
            return 2
        worst = max(worst, code)
        if len(names) == 1:
            print("\n".join(lines), flush=True)
            return code
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][name + "/" + metric] = v
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError) as e:
        log("run.py: %s" % e)
        sys.exit(2)
