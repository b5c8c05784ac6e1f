#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of one commit.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 5 [--workloads a,b] [--out FILE]

For each workload it makes ``2 x runs`` runs of the command in
``BENCHMARK.json``, alternating set A and set B, each run with its own
``--seed``.  It then prints, for every end-to-end metric and workload, both
sets' medians and quartiles (``statistics.quantiles(n=4)``), the shift of
B's median against A's, the spread (quartile distance over median) of all
runs together, and whether both stay within the metric's bound: the shift
in either direction, the spread on every metric but ``setup_s``.  The
spread of ``setup_s`` is printed but not gated: a run's set-up time is the
start of a ~0.2 s interpreter, whose run-to-run spread on a shared 2-vCPU
host reached 32%; it is held to its bound by the shift of its median
only.  The failed share of attempted operations must be equal in both
sets.  ``--out`` keeps every run's result as JSON.  Exits 1 if a check or
a bound fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    cmd = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summarize(bench, results):
    """Rows of (workload, metric, text, ok) for two sets of results."""
    rows = []
    for workload, sets in results.items():
        shares = {
            name: {r["failed"] / r["attempted"] for r in runs}
            for name, runs in sets.items()
        }
        same_share = len(shares["A"] | shares["B"]) == 1
        ok_runs = all(r["correct"] for runs in sets.values() for r in runs)
        rows.append(
            (
                workload,
                "checks",
                f"correct in every run: {ok_runs}; failed share "
                f"{sorted(shares['A'] | shares['B'])}",
                ok_runs and same_share,
            )
        )
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            shift = (med_b - med_a) / med_a
            both = spread(a + b)
            ok = abs(shift) <= bound and (name == "setup_s" or both <= bound)
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            rows.append(
                (
                    workload,
                    name,
                    f"A {med_a:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                    f"B {med_b:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                    f"shift {100 * shift:+.1f}%  spread {100 * both:.1f}%  "
                    f"bound {100 * bound:.0f}%",
                    ok,
                )
            )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=None, help="write every result here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    results = {n: {"A": [], "B": []} for n in names}
    for i in range(args.runs):
        for n in names:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for which in order:
                seed = 1 + i if which == "A" else 101 + i
                res = run_once(bench["command"], n, seed, bench["run_seconds"])
                res["seed"] = seed
                results[n][which].append(res)
                print(f"{n} set {which} seed {seed}: {json.dumps(res['metrics'])}",
                      flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    rows = summarize(bench, results)
    for workload, name, text, ok in rows:
        print(f"{'ok  ' if ok else 'FAIL'} {workload:17} {name:12} {text}")
    return 0 if all(ok for *_, ok in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
