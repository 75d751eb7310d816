#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--out set.json]
    python3 perfbench/steady.py --compare first.json second.json

The first form runs one workload --runs times, each with its own seed and
BENCHMARK.json's run_seconds, and prints every end-to-end metric's median,
quartiles (statistics.quantiles, n=4) and spread = (Q3 - Q1) / median
against the metric's bound, plus the share of failed operations. The
wall-clock rates each run records next to its result are summarized the
same way, without a bound. --out keeps the per-run values so two sets
can be compared.

The second form compares two saved sets: each metric's second median may
be worse than the first by at most the metric's bound, and the failed
share must be identical. Every end-to-end metric's median is held to its
bound; every spread but setup_s's too. setup_s is one cold set-up per
process, so its spread is printed but only its median is bounded. Exit
code 0 when every test holds.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build-and-run module)


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(workload, runs, first_seed, seconds):
    binary = run.build()
    if binary is None:
        sys.exit("build failed")
    results = []
    for seed in range(first_seed, first_seed + runs):
        proc = run.run_driver(binary, workload, seed, seconds, False,
                              capture=True)
        lines = proc.stdout.strip().splitlines() if proc.stdout else ["{}"]
        result = json.loads(lines[-1])
        result["seed"] = seed
        if len(lines) > 1:
            result["rates"] = json.loads(lines[-2]).get("run", {}).get(
                "rates", {})
        results.append(result)
        metrics = {k: round(v["value"], 4)
                   for k, v in result.get("metrics", {}).items()}
        print("seed %d: correct=%s failed=%s/%s %s" % (
            seed, result.get("correct"), result.get("failed"),
            result.get("attempted"), metrics), flush=True)
    return {"workload": workload, "seconds": seconds, "runs": results}


def summarize(data, spec):
    ok = True
    runs = data["runs"]
    print("\n%s: %d runs of %s s" % (data["workload"], len(runs),
                                     data["seconds"]))
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if m["name"] == "setup_s":
            print("  %-14s median %-14.6g Q1 %-14.6g Q3 %-14.6g spread %6.3f "
                  "(not bounded; median only)" % (m["name"], med, q1, q3,
                                                  spread))
            continue
        good = spread <= m["bound"]
        ok = ok and good
        print("  %-14s median %-14.6g Q1 %-14.6g Q3 %-14.6g spread %6.3f "
              "bound %.2f (%s) %s" % (
                  m["name"], med, q1, q3, spread, m["bound"],
                  "%.2f of bound" % (spread / m["bound"]),
                  "ok" if good else "FAIL"))
    for name in sorted(runs[0].get("rates", {})):
        values = [r["rates"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print("  %-16s median %-14.6g Q1 %-14.6g Q3 %-14.6g spread %6.3f "
              "(no bound)" % (name, med, q1, q3, (q3 - q1) / med))
    shares = {r["failed"] / r["attempted"] for r in runs}
    correct = all(r["correct"] for r in runs)
    print("  failed share %s, all correct: %s" % (sorted(shares), correct))
    return ok and correct and len(shares) == 1


def compare(first, second, spec):
    ok = True
    print("%s: first %d runs, second %d runs" % (
        first["workload"], len(first["runs"]), len(second["runs"])))
    for m in spec["end_to_end"]:
        a = statistics.median(r["metrics"][m["name"]]["value"]
                              for r in first["runs"])
        b = statistics.median(r["metrics"][m["name"]]["value"]
                              for r in second["runs"])
        worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
        good = worse <= m["bound"]
        ok = ok and good
        print("  %-14s %-14.6g -> %-14.6g worse by %+.3f (bound %.2f) %s" % (
            m["name"], a, b, worse, m["bound"], "ok" if good else "FAIL"))
    share = lambda d: {r["failed"] / r["attempted"] for r in d["runs"]}
    same = share(first) == share(second) and len(share(first)) == 1
    print("  failed share %s vs %s %s" % (sorted(share(first)),
                                          sorted(share(second)),
                                          "ok" if same else "FAIL"))
    return ok and same


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(sets[0], sets[1], spec) else 1
    if args.workload is None:
        ap.error("--workload or --compare is required")
    data = collect(args.workload, args.runs, args.first_seed,
                   args.seconds or spec["run_seconds"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    return 0 if summarize(data, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
