"""Benchmark of the girth and arrowing verifiers of ``partite``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload system_girth --seed 1 \
        --seconds 33 --trace 0

One process, no threads.  The workload's inputs are built from the
seed; then the client asks the workload's queries one at a time, in a
closed loop, and checks each answer (see ``workloads`` and
``answers``).  A pass asks every query once; passes repeat while the
next one is expected to end within ``--seconds``.  With ``--trace 0``
the end-to-end metrics are printed, with ``--trace 1`` the per-layer
metrics of traced passes (``spans``), interleaved with untraced passes
to measure the tracing overhead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_ROUNDS = 5
SETUP_GAP_SECONDS = 0.5


def metric_units(group: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of
    ``BENCHMARK.json``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


PINNED_ENV = {
    # no count or order may depend on the per-process string hash
    "PYTHONHASHSEED": "0",
    # every set-up round compiles the package from source, as the first
    # import from a fresh checkout does: no bytecode is written, and none
    # left by earlier runs of the tests is read
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONPYCACHEPREFIX": str(OUT / "no-bytecode"),
}


def pin_environment():
    """Re-execute with ``PINNED_ENV`` unless it is already in place."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _own_module(name: str) -> bool:
    return name == "partite" or name.startswith("partite.") \
        or name == "oracles"


class SetUp:
    """Rounds of importing the package and building the inputs.

    ``SETUP_ROUNDS`` rounds run before the first query; the passes use
    the modules and queries of the last of them.  More rounds run
    after every pass (:meth:`more`), so that the median round samples
    the whole run and not only its first seconds: the machine's speed
    drifts over seconds and minutes.  Each round drops the package's
    modules and imports them afresh.  A full garbage collection before
    each round, outside the timer, keeps a round from paying for the
    modules and inputs dropped by the one before, and freezing what
    survives keeps the round's own collections from scanning the
    benchmark's heap, as in a fresh process.  The checks' own oracles
    are imported outside the timed part.
    """

    def __init__(self, build, seed: int):
        self.build = build
        self.seed = seed
        self.times: list[float] = []
        self.seconds = 0.0          # wall time of the rounds after passes
        for _ in range(SETUP_ROUNDS):
            self.pt, self.oracles, self.queries = self._round()

    def _round(self):
        gc.collect()
        gc.freeze()
        try:
            return self._timed_round()
        finally:
            gc.unfreeze()

    def _timed_round(self):
        for name in [m for m in sys.modules if _own_module(m)]:
            del sys.modules[name]
        t0 = time.perf_counter()
        pt = importlib.import_module("partite")
        import_s = time.perf_counter() - t0
        if Path(pt.__file__).resolve().parent != ROOT / "src" / "partite":
            raise SystemExit(f"partite imported from {pt.__file__}, "
                             f"not from this checkout")
        oracles = importlib.import_module("oracles")
        t0 = time.perf_counter()
        queries = self.build(pt, oracles, random.Random(self.seed))
        self.times.append(import_s + time.perf_counter() - t0)
        return pt, oracles, queries

    def more(self):
        """Rounds for ``SETUP_GAP_SECONDS``, then the modules the passes
        use are put back."""
        kept = {n: m for n, m in sys.modules.items() if _own_module(n)}
        start = time.perf_counter()
        while True:
            self._round()
            if time.perf_counter() - start >= SETUP_GAP_SECONDS:
                break
        for name in [m for m in sys.modules if _own_module(m)]:
            del sys.modules[name]
        sys.modules.update(kept)
        self.seconds += time.perf_counter() - start

    def median(self) -> float:
        return statistics.median(self.times)


class Client:
    """Asks the queries of a pass one at a time and checks the answers."""

    def __init__(self, queries):
        self.queries = queries
        self.first: dict[int, object] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.check_s = 0.0

    def run_pass(self, tracer=None) -> dict[str, float]:
        """One pass; returns the summed query times by kind of answer.

        Only the calls are timed; the checks run between them.  A full
        garbage collection before each call keeps a query from paying
        for the garbage of the one before, whatever the seeded order.
        """
        sums = {"pass_s": 0.0, "holds_s": 0.0, "witness_s": 0.0}
        for i, q in enumerate(self.queries):
            self.attempted += 1
            gc.collect()
            t0 = time.perf_counter_ns()
            try:
                answer = q.call() if tracer is None else tracer.query(q.call)
            except Exception as exc:     # a failed operation, counted
                self.failed += 1
                self.errors[q.name] = f"{type(exc).__name__}: {exc}"[:200]
                continue
            finally:
                seconds = (time.perf_counter_ns() - t0) / 1e9
                sums["pass_s"] += seconds
            kind = q.classify(answer)
            if kind != workloads.SEARCH:
                sums[f"{kind}_s"] += seconds
            self.check(i, q, answer)
        return sums

    def check(self, i, q, answer):
        """Full checks on the first answer, equality on later ones."""
        t0 = time.perf_counter()
        try:
            self._check(i, q, answer)
        finally:
            self.check_s += time.perf_counter() - t0

    def _check(self, i, q, answer):
        if i in self.first:
            if answer != self.first[i]:
                self.problems.append(f"{q.name}: answer changed between "
                                     f"passes")
            return
        self.first[i] = answer
        found = q.check(answer)
        if not found and q.deep_check is not None:
            found = q.deep_check(answer)
        self.problems += [f"{q.name}: {p}" for p in found]


def run_passes(client, set_up, seconds: float, trace: bool):
    """Whole passes while the next is expected to end within ``seconds``.

    After each pass come more set-up rounds (``SetUp.more``).  They and
    the time spent checking answers are left out of the window, so the
    number of passes does not depend on how long the first pass's
    cross-checks take.  A traced run starts with an untraced warm-up
    pass, then alternates traced and untraced passes and makes at least
    one of each.  Returns (query time sums, tracer or None) per pass.
    """
    start = time.perf_counter()
    results = []
    while True:
        if trace and len(results) % 2 == 1:
            tracer = spans.Tracer(set_up.pt)
            tracer.install()
            try:
                results.append((client.run_pass(tracer), tracer))
            finally:
                tracer.uninstall()
        else:
            results.append((client.run_pass(), None))
        set_up.more()
        spent = time.perf_counter() - start - client.check_s - set_up.seconds
        if len(results) >= 1 + 2 * trace \
                and spent + results[-1][0]["pass_s"] > seconds:
            return results


def traced_setup(build, pt, oracles, seed: int):
    """One more build of the inputs, traced, for the work set-up does."""
    tracer = spans.Tracer(pt)
    tracer.install()
    try:
        tracer.query(lambda: build(pt, oracles, random.Random(seed)))
    finally:
        tracer.uninstall()
    return tracer


def layer_metrics(names, tracer, setup_tracer, traced_pass_s,
                  untraced_pass_s):
    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    counts = tracer.counts
    nodes = counts.get("arrowing.nodes", 0)
    search_s = self_s["arrowing.search"]
    checks = counts.get("copies.tidy_checks", 0)
    found = counts.get("copies.cycles_found", 0)
    values = {}
    for name in names:
        layer, _, what = name.rpartition(".")
        if what == "self_s" and layer in self_s:
            values[name] = self_s[layer]
        elif what == "calls" and layer in calls:
            values[name] = calls[layer]
    values.update({
        "core.copies.found": counts.get("core.copies.found", 0),
        "setup.core.copies.self_s":
            setup_tracer.layer_self_s()["core.copies"],
        "setup.core.copies.found":
            setup_tracer.counts.get("core.copies.found", 0),
        "copies.tidy_checks": checks,
        "copies.cycles_found": found,
        "copies.cycles_yield": found / checks if checks else 0.0,
        "pretrain.big_cycles_found": counts.get("pretrain.big_cycles_found",
                                                0),
        "arrowing.nodes": nodes,
        "arrowing.nodes_per_s": nodes / search_s if search_s else 0.0,
        "bench.unattributed_s": self_s["bench.query"],
        "trace.pass_s": traced_pass_s,
        "trace.untraced_pass_s": untraced_pass_s,
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
        "trace.spans": len(tracer.fn),
    })
    return values


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    if not (ROOT / "src" / "partite" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print("perfbench: no src/partite or tests/oracles.py next to the "
              "benchmark; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    build = workloads.WORKLOADS[args.workload]
    set_up = SetUp(build, args.seed)
    pt = set_up.pt
    client = Client(set_up.queries)
    results = run_passes(client, set_up, args.seconds, bool(args.trace))
    untraced = [sums for sums, tracer in results if tracer is None]
    if args.trace:
        untraced = untraced[1:]         # the warm-up pass
        setup_tracer = traced_setup(build, pt, set_up.oracles, args.seed)
        traced = sorted(((sums["pass_s"], i, tracer)
                         for i, (sums, tracer) in enumerate(results)
                         if tracer is not None))
        traced_s, _, tracer = traced[(len(traced) - 1) // 2]
        counts = [(t.counts, t.layer_calls()) for _, _, t in traced]
        if any(c != counts[0] for c in counts):
            client.problems.append("per-layer counts differ between passes")
        units = metric_units("per_layer")
        values = layer_metrics(units, tracer, setup_tracer, traced_s,
                               statistics.median(s["pass_s"]
                                                 for s in untraced))
        if tracer.missing:
            print("not in the package, so not traced: "
                  + ", ".join(tracer.missing))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    else:
        values = {k: statistics.median(s[k] for s in untraced)
                  for k in ("pass_s", "holds_s", "witness_s")}
        values["setup_s"] = set_up.median()
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        units = metric_units("end_to_end")
    metrics = {}
    for name in units:
        metrics[name] = {"value": values[name], "unit": units[name]}
        print(f"{name:32s} {values[name]:>14.6g} {units[name]}")
    print("passes (s): " + " ".join(
        f"{sums['pass_s']:.3f}{'t' if tracer else ''}"
        for sums, tracer in results))
    print("set-up rounds (ms): " + " ".join(f"{t * 1e3:.0f}"
                                            for t in set_up.times))
    print(f"checks {client.check_s:.1f} s, set-up rounds after passes "
          f"{set_up.seconds:.1f} s")
    print(f"attempted {client.attempted}, failed {client.failed}")
    for name, err in sorted(client.errors.items()):
        print(f"failed: {name}: {err}")
    for p in client.problems:
        print(f"WRONG: {p}", file=sys.stderr)
    print(json.dumps({"correct": not client.problems,
                      "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
