#!/usr/bin/env python3
"""Steadiness helper: run every workload repeatedly and report the spread.

    python3 pipebench/steady.py [--runs 10] [--trace]

Run from the repository root. Round i (1, 2, ...) runs every workload of
BENCHMARK.json once with seed i and its run_seconds through
pipebench/run.py, alternating the workload order from round to round so
neither always runs on a machine the other has just warmed. For every metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median. An end-to-end metric whose
spread exceeds its bound in BENCHMARK.json is flagged "OVER"; one above
a third of its bound is flagged "wide". setup_s is exempt: its median,
not its spread, is held to its bound. The bounds are set from these
figures.

--trace adds one traced run per workload per round and prints the
per-layer medians plus, per phase, the tracing overhead (median of the
traced phase time minus the untraced time of the same calls in the same
run) and the share of the untraced time the layer spans miss. A median
share above 15% is flagged "OVER": the layers then miss part of what the
Framework calls cost.

`--runs 1 --trace` runs both workloads once each way and prints every
metric. Exit code 1 when a run fails, a check fails, a run's metrics
differ from the names in BENCHMARK.json, the failed-operation share
differs between runs, a spread is over its bound, or (--trace) the layers
miss more than 15% of a phase.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Largest share of an untraced phase time its layer spans may miss.
COVERAGE_TOLERANCE = 0.15
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med if med else float("inf")
    return statistics.median(values), q1, q3, share


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true",
                    help="also make traced runs and report overhead")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expected = {False: set(bounds),
                True: {m["name"] for m in bench["per_layer"]}}

    values = {(w, t): {} for w in names for t in (False, True)}
    fail_shares = {w: set() for w in names}
    bad = False
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            for trace in ([False, True] if args.trace else [False]):
                seed = i + 1
                start = time.monotonic()
                rc, res = run_once(w, seed, seconds, trace)
                wall = time.monotonic() - start
                tag = f"{w} seed {seed} trace {int(trace)}"
                if rc != 0 or res is None or not res.get("correct"):
                    print(f"FAILED RUN: {tag} (exit {rc})", flush=True)
                    bad = True
                    continue
                if set(res["metrics"]) != expected[trace]:
                    print(f"METRIC SET MISMATCH: {tag}: "
                          f"{sorted(set(res['metrics']) ^ expected[trace])}",
                          flush=True)
                    bad = True
                fail_shares[w].add(res["failed"] / res["attempted"])
                for name, m in res["metrics"].items():
                    values[(w, trace)].setdefault(name, []).append(m["value"])
                summary = ", ".join(
                    f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()
                    if n in bounds)
                print(f"# {tag} ({wall:.0f} s): {summary}", flush=True)

    print()
    print(f"{'workload':<16} {'metric':<30} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  flag")
    for w in names:
        for trace in (False, True):
            for name, vals in values[(w, trace)].items():
                med, q1, q3, share = spread(vals)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and not trace:
                    if name == "setup_s":
                        # Its median, not its spread, is held to the bound.
                        flag = "median only"
                    elif share > bound:
                        flag = "OVER"
                        bad = True
                    elif share > bound / 3:
                        flag = "wide"
                print(f"{w:<16} {name:<30} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{share:8.4f} {bound if bound is not None else '':>6}"
                      f"  {flag}")
        if args.trace:
            for phase in ("train", "flow", "baseline"):
                got = values[(w, True)]
                traced = got.get(f"traced.{phase}_s")
                plain = got.get(f"untraced.{phase}_s")
                missed = got.get(f"unaccounted.{phase}_ms")
                if not (traced and plain and missed):
                    continue
                over = statistics.median(
                    [t - u for t, u in zip(traced, plain)])
                # Share of the untraced time the layer spans miss.
                gap = statistics.median(
                    [(u - (t - m / 1e3)) / u
                     for t, u, m in zip(traced, plain, missed)])
                flag = ""
                if gap > COVERAGE_TOLERANCE:
                    flag = "OVER"
                    bad = True
                print(f"{w:<16} {phase:<9} overhead {over:9.4f} s, layers "
                      f"miss {gap * 100:+.2f}% of untraced (medians)  {flag}")
        if len(fail_shares[w]) > 1:
            print(f"{w}: failed-operation share differs between runs: "
                  f"{sorted(fail_shares[w])}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
