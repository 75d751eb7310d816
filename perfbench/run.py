#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

Run from the repository root. The middleware (../src) and the driver are
built in Release into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The driver's last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it records seed, commit, source digest, build
type, compiler and core count, and in untraced runs the wall-clock rates.
Traced runs write a Chrome trace and the per-layer table into
.perfbench_out/.

--smoke runs every workload (or the one named) at seconds-scale sizes and
checks the result shape against BENCHMARK.json: the benchmark's own test.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("submit_churn", "city_finder", "live_world")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; False on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        log("perfbench: no middleware sources at %s" % SRC)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", out, "--target", "perfbench_driver",
                      "-j", jobs]):
        return None
    return os.path.join(out, "perfbench_driver")


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over src/ and perfbench/ (paths and bytes): identifies the
    measured code where no git metadata is available."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_driver(binary, workload, seed, seconds, trace, smoke=False,
               capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", os.path.join(ROOT, ".perfbench_out"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if smoke:
        cmd.append("--smoke")
    if capture:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def smoke(binary, workloads):
    """Seconds-scale pass over each workload, checked against the
    metric names and units in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in workloads:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            proc = run_driver(binary, workload, 1, 1, trace, smoke=True,
                              capture=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (proc.returncode == 0 and result["correct"] is True and
                    result["failed"] == 0 and result["attempted"] >= 1 and
                    got == want)
            if not trace:
                good = good and all(v["value"] > 0
                                    for v in result["metrics"].values())
            log("smoke %-12s trace=%d %s" % (workload, trace,
                                              "ok" if good else "FAILED"))
            if not good:
                log(proc.stderr[-2000:])
            ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-scale self-test of every workload")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2
    if args.smoke:
        return 0 if smoke(binary, [args.workload] if args.workload
                          else WORKLOADS) else 1
    return run_driver(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1).returncode


if __name__ == "__main__":
    sys.exit(main())
