"""Span tracing of the package's layers, from outside the package.

A :class:`Tracer` replaces the public functions of each layer with
wrappers that record a span per call: the function, its parent span,
start and end.  A function is replaced at every module that binds it,
because modules call each other through their own globals (``pretrain``
calls its own binding of ``core.shortest_edge_cycle``; ``copies`` calls
``is_tidy`` through its module globals).  Self time of a span is its
duration minus the durations of its child spans; a layer's self time
sums the self times of its spans.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# layer -> (module, public functions); the layers are the modules
LAYERS = {
    "core.girth": ("core", ("shortest_edge_cycle", "girth_exceeds")),
    "core.linear": ("core", ("is_linear",)),
    "core.copies": ("core", ("enumerate_copies", "find_isomorphism",
                             "are_isomorphic")),
    "copies.girth": ("copies", ("girth_of_system_witness",
                                "girth_of_system_exceeds")),
    "copies.cycles": ("copies", ("enumerate_copy_cycles", "is_tidy",
                                 "is_semitidy")),
    "copies.masters": ("copies", ("master_copies", "has_master",
                                  "find_master_copy")),
    "pretrain.girth": ("pretrain", ("frak_Girth_witness", "frak_Girth_exceeds",
                                    "is_linear_pretrain")),
    "pretrain.big_cycles": ("pretrain", ("enumerate_big_cycles",)),
    "pretrain.supremes": ("pretrain", ("supreme_copies", "has_supreme",
                                       "find_supreme_copy")),
    "pretrain.wagon_girth": ("pretrain", ("frak_girth_pretrain_witness",
                                          "frak_girth_pretrain_exceeds")),
    "pretrain.subpretrain": ("pretrain", ("subpretrain",)),
    "train.seq_girth": ("train", ("frak_girth_seq_witness",
                                  "frak_girth_seq_exceeds")),
    "train.validate": ("train", ("validate_quasitrain",)),
    "arrowing.search": ("arrowing", ("edge_arrows", "vertex_arrows",
                                     "hj_line_property")),
    "arrowing.pipeline": ("arrowing", ("min_product_ramsey",
                                       "min_hj_exponent")),
}
ROOT = "bench.query"          # the benchmark's own span around each query
MODULES = ("", ".core", ".copies", ".pretrain", ".train", ".arrowing")


def _len(result) -> int:
    return len(result)


def _explored(result) -> int:
    return result.explored


def _hj_explored(result) -> int:
    return result[2]


# function -> (counter, amount charged per returned result)
COUNTERS = {
    "enumerate_copies": ("core.copies.found", _len),
    "enumerate_copy_cycles": ("copies.cycles_found", _len),
    "is_tidy": ("copies.tidy_checks", lambda _: 1),
    "enumerate_big_cycles": ("pretrain.big_cycles_found", _len),
    "edge_arrows": ("arrowing.nodes", _explored),
    "vertex_arrows": ("arrowing.nodes", _explored),
    "hj_line_property": ("arrowing.nodes", _hj_explored),
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.layers = [ROOT] + list(LAYERS)
        self.functions: list[str] = [ROOT]
        self.layer_of_fn: list[int] = [0]
        self.self_ns = [0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.counts: dict[str, int] = {}
        # one entry per span
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # open spans: (span index, layer, time spent in children)
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _enter(self, fn_id: int) -> int:
        ix = len(self.fn)
        layer = self.layer_of_fn[fn_id]
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[1] != layer:
            self.calls[layer] += 1
        self.fn.append(fn_id)
        self.parent.append(parent[0] if parent else -1)
        self.end.append(0)
        self._stack.append([ix, layer, 0])
        self.start.append(time.perf_counter_ns())
        return ix

    def _exit(self, ix: int) -> None:
        t = time.perf_counter_ns()
        self.end[ix] = t
        _, layer, child_ns = self._stack.pop()
        dur = t - self.start[ix]
        self.self_ns[layer] += dur - child_ns
        if self._stack:
            self._stack[-1][2] += dur

    def query(self, call):
        """Run one query inside a root span and return its answer."""
        ix = self._enter(0)
        try:
            return call()
        finally:
            self._exit(ix)

    def _wrap(self, func, fn_id: int, counter):
        enter, exit_ = self._enter, self._exit
        counts = self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            ix = enter(fn_id)
            try:
                result = func(*args, **kwargs)
            finally:
                exit_(ix)
            if counter is not None:
                name, amount = counter
                counts[name] = counts.get(name, 0) + amount(result)
            return result
        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at every module binding it."""
        modules = [sys.modules[self.package.__name__ + m] for m in MODULES]
        targets: dict[int, object] = {}
        for layer, (module, names) in LAYERS.items():
            home = sys.modules[f"{self.package.__name__}.{module}"]
            for name in names:
                func = getattr(home, name, None)
                if func is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                if name not in self.functions:
                    self.functions.append(name)
                    self.layer_of_fn.append(self.layers.index(layer))
                fn_id = self.functions.index(name)
                targets[id(func)] = self._wrap(func, fn_id,
                                               COUNTERS.get(name))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        return {layer: ns / 1e9 for layer, ns in zip(self.layers,
                                                     self.self_ns)}

    def layer_calls(self) -> dict[str, int]:
        return dict(zip(self.layers, self.calls))

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as out:
            for ix in range(len(self.fn)):
                fn_id = self.fn[ix]
                out.write(json.dumps({
                    "id": ix, "parent": self.parent[ix],
                    "layer": self.layers[self.layer_of_fn[fn_id]],
                    "fn": self.functions[fn_id],
                    "start_ns": self.start[ix], "end_ns": self.end[ix],
                }) + "\n")
