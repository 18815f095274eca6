"""Repeat benchmark runs and print each metric's spread against its bound.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --runs 10 [--sets 2] [--trace 1]

Runs ``perfbench/run.py`` once per seed (seeds 1 to ``--runs``), one
run at a time and ``run_seconds`` long, for each workload of
``BENCHMARK.json``.  For every end-to-end metric it prints the median,
the quartiles and the spread (distance between the quartiles as a
share of the median, from ``statistics.quantiles(values, n=4)``) next
to the metric's bound; a spread above a third of the bound is marked.
It also checks that the share of failed operations is the same in
every run.  With ``--sets 2`` the same seeds run twice: the second
median may not be worse than the first by more than the bound, and
with ``--trace 1`` every per-layer count must repeat exactly for each
seed.  Raw results go to ``perfbench/out/repeat-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  WRONG ANSWERS, {workload} seed {seed}:\n{proc.stderr}")
    return result


def spread(values):
    """Median, quartiles, and quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(sets, metrics, direction):
    for name, spec in metrics.items():
        rows = []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            rows.append(spread(values))
        bound = spec.get("bound")
        for k, (med, q1, q3, sp) in enumerate(rows):
            flag = ""
            if bound is not None and sp > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:28s} set {k + 1}: median {med:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {sp:7.2%}"
                  + (f" bound {bound:.0%}" if bound is not None else "")
                  + flag)
        if bound is not None and len(rows) == 2:
            first, second = rows[0][0], rows[1][0]
            worse = (second - first) / first if direction[name] == "lower" \
                else (first - second) / first
            print(f"  {name:28s} second median worse by {worse:7.2%}"
                  + ("  <-- beyond the bound" if worse > bound else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[group]}
    direction = {m["name"]: m["better"] for m in spec[group]}
    seeds = range(1, args.runs + 1)
    raw = {}
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in seeds:
                t0 = time.perf_counter()
                runs.append(one_run(workload, seed, seconds, args.trace))
                print(f"{workload} set {k + 1} seed {seed}: "
                      f"{time.perf_counter() - t0:.1f} s wall", flush=True)
            sets.append(runs)
        raw[workload] = sets
        print(f"{workload}:")
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in sets for r in runs}
        print(f"  failed share: {' '.join(map(str, sorted(shares)))}"
              + ("" if len(shares) == 1 else "  <-- differs between runs"))
        if not all(r["correct"] for runs in sets for r in runs):
            print("  some runs gave wrong answers")
        if args.trace:
            counted = [n for n, m in metrics.items() if m["unit"] == "count"]
            if len(sets) == 2:
                same = all(a["metrics"][n] == b["metrics"][n]
                           for a, b in zip(*sets) for n in counted)
                print("  per-layer counts " + ("repeat exactly per seed"
                                               if same else
                                               "DIFFER between the sets"))
            timed = {n: m for n, m in metrics.items() if n not in counted}
            report(sets, timed, direction)
        else:
            report(sets, metrics, direction)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
