"""Exhaustive arrowing oracles and minimal-parameter searches.

The central question has the shape: given colorable *items* (edges of a
host, vertices, or abstract words) and *groups* of items (the edge sets
of distinguished copies, combinatorial lines, ...), does every
r-coloring of the items leave some group monochromatic?  A coloring
with no monochromatic group is called *bad* here; arrowing holds iff no
bad coloring exists.

The search runs twice on a failure: a first pass with a
pruning-friendly item order decides the question, and only if a bad
coloring exists a second pass in canonical item order finds the
lexicographically least one, which is the witness contract of the whole
package.  Groups without items are monochromatic under every coloring,
so their presence makes arrowing trivially true.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Hypergraph, complete_multipartite, enumerate_copies
from .copies import Copy, CopySystem, _require_copies_in_host
from .errors import Budget, BudgetExceeded, InvalidArgument

DEFAULT_BUDGET = Budget()

_MIXED = -2
_UNSET = -1


@dataclass(frozen=True)
class ArrowResult:
    """Outcome of an arrowing question.

    ``witness`` is a full bad coloring (a tuple of color numbers aligned
    with the canonical item order) when arrowing fails, else ``None``;
    it is always the lexicographically least bad coloring.  ``explored``
    counts explored partial colorings across both passes.
    """

    arrows: bool
    r: int
    witness: tuple[int, ...] | None
    explored: int


class _Found(Exception):
    """A bad coloring was found; args[0] carries it."""


class _Searcher:
    """One DFS pass over partial colorings in a fixed item order.

    Group state: ``color[g]`` is the common color seen so far, ``_UNSET``
    before the first colored item, ``_MIXED`` once two colors meet.
    A group completed in a single color proves the current prefix can
    never extend to a bad coloring; all groups mixed proves every
    completion is bad, so the all-zero completion (the least one) is
    emitted.  Colors are tried ascending, capped at one above the number
    already used; the lexicographically least bad coloring always has
    first occurrences of colors in increasing order (permuting colors
    preserves badness), so the cap never skips it.
    """

    def __init__(self, n_items: int, groups: Sequence[tuple[int, ...]],
                 r: int, order: Sequence[int], budget: Budget, spent: int):
        self.n_items = n_items
        self.groups = groups
        self.r = r
        self.order = order
        self.budget = budget
        self.explored = spent
        self.member_of: list[list[int]] = [[] for _ in range(n_items)]
        for gi, g in enumerate(groups):
            for item in g:
                self.member_of[item].append(gi)
        self.size = [len(g) for g in groups]
        self.colored = [0] * len(groups)
        self.color = [_UNSET] * len(groups)
        self.alive = len(groups)
        self.coloring = [_UNSET] * n_items

    def run(self) -> tuple[int, ...] | None:
        """The least bad coloring along the order, or None."""
        if any(not g for g in self.groups):
            return None
        try:
            self._step(0, 0)
        except _Found as hit:
            return hit.args[0]
        return None

    def _fill_rest(self, depth: int) -> tuple[int, ...]:
        out = list(self.coloring)
        for pos in range(depth, self.n_items):
            out[self.order[pos]] = 0
        return tuple(out)

    def _step(self, depth: int, used: int) -> None:
        if self.alive == 0:
            raise _Found(self._fill_rest(depth))
        if depth == self.n_items:
            # alive > 0 at full depth means some group ended monochromatic
            return
        item = self.order[depth]
        for c in range(min(self.r, used + 1)):
            self.explored += 1
            self.budget.check_nodes(self.explored)
            self.coloring[item] = c
            log: list[tuple[int, int]] = []
            dead_end = False
            for gi in self.member_of[item]:
                prev = self.color[gi]
                if prev == _MIXED:
                    continue
                log.append((gi, prev))
                self.colored[gi] += 1
                if prev == _UNSET:
                    self.color[gi] = c
                elif prev != c:
                    self.color[gi] = _MIXED
                    self.alive -= 1
                if self.color[gi] != _MIXED \
                        and self.colored[gi] == self.size[gi]:
                    dead_end = True
            if not dead_end:
                self._step(depth + 1, max(used, c + 1))
            for gi, prev in log:
                self.colored[gi] -= 1
                if self.color[gi] == _MIXED and prev != _MIXED:
                    self.alive += 1
                self.color[gi] = prev
            self.coloring[item] = _UNSET


def _decide_and_witness(n_items: int, groups: Sequence[tuple[int, ...]],
                        r: int, budget: Budget,
                        ) -> tuple[bool, tuple[int, ...] | None, int]:
    """Two-pass search: decide arrowing, then fetch the least witness.

    The deciding pass colors items in order of descending group
    membership (stronger pruning); the witness pass, run only when a
    bad coloring exists, uses the canonical item order so the witness
    is the lexicographically least bad coloring overall.
    """
    if r < 1:
        raise InvalidArgument(f"number of colors must be positive, got {r}")
    membership = [0] * n_items
    for g in groups:
        for item in g:
            membership[item] += 1
    fast_order = sorted(range(n_items), key=lambda i: (-membership[i], i))
    fast = _Searcher(n_items, groups, r, fast_order, budget, 0)
    bad = fast.run()
    if bad is None:
        return True, None, fast.explored
    canonical = _Searcher(n_items, groups, r, range(n_items), budget,
                          fast.explored)
    least = canonical.run()
    if least is None:
        raise AssertionError("a bad coloring vanished between passes")
    return False, least, canonical.explored


# ---------------------------------------------------------------------------
# public oracles


def edge_arrows(system: CopySystem, r: int,
                budget: Budget | None = None) -> ArrowResult:
    """Does every r-coloring of the host's edges leave a monochromatic copy?

    A copy is monochromatic when all of its edges received the same
    color; copies without edges are monochromatic vacuously.  Witness
    colorings align with the host's canonical edge order.  A copy that
    does not lie in the host raises ``InvalidArgument``.
    """
    budget = budget or DEFAULT_BUDGET
    _require_copies_in_host(system)
    host = system.host
    index = {e: i for i, e in enumerate(host.edge_sets)}
    groups = [tuple(sorted(index[e] for e in c.edge_sets))
              for c in system.copies]
    ok, witness, explored = _decide_and_witness(
        host.num_edges, groups, r, budget)
    return ArrowResult(ok, r, witness, explored)


def vertex_arrows(system: CopySystem, r: int,
                  budget: Budget | None = None) -> ArrowResult:
    """Vertex-coloring analogue: some copy ends with all vertices alike."""
    budget = budget or DEFAULT_BUDGET
    _require_copies_in_host(system)
    host = system.host
    index = {v: i for i, v in enumerate(host.vertices)}
    groups = [tuple(sorted(index[v] for v in c.vertices))
              for c in system.copies]
    ok, witness, explored = _decide_and_witness(
        host.num_vertices, groups, r, budget)
    return ArrowResult(ok, r, witness, explored)


# ---------------------------------------------------------------------------
# combinatorial words, lines and the line property


def enumerate_words(t: int, n: int) -> list[tuple[int, ...]]:
    """All words of length n over the alphabet {0,...,t-1}, in lex order."""
    return list(itertools.product(range(t), repeat=n))


def word_index(word: Sequence[int], t: int) -> int:
    ix = 0
    for a in word:
        ix = ix * t + a
    return ix


@dataclass(frozen=True)
class Line:
    """A combinatorial line: constant coordinates with fixed letters and
    a nonempty set of moving coordinates advancing through the alphabet
    in unison."""

    n: int
    constants: tuple[tuple[int, int], ...]  # (position, letter)
    moving: tuple[int, ...]                 # positions, nonempty

    def word(self, letter: int) -> tuple[int, ...]:
        out = [letter] * self.n
        for pos, a in self.constants:
            out[pos] = a
        return tuple(out)

    def words(self, t: int) -> list[tuple[int, ...]]:
        return [self.word(a) for a in range(t)]


def enumerate_lines(t: int, n: int) -> list[Line]:
    """All combinatorial lines of the cube {0..t-1}^n, deterministically.

    A line is encoded by choosing, per coordinate, either a constant
    letter or "moving"; at least one coordinate must move.
    """
    lines: list[Line] = []
    for mask in range(1, 1 << n):
        moving = tuple(i for i in range(n) if mask >> i & 1)
        fixed = [i for i in range(n) if not (mask >> i & 1)]
        for letters in itertools.product(range(t), repeat=len(fixed)):
            lines.append(Line(n, tuple(zip(fixed, letters)), moving))
    lines.sort(key=lambda L: (L.constants, L.moving))
    return lines


def hj_line_property(t: int, n: int, r: int, budget: Budget,
                     ) -> tuple[bool, tuple[int, ...] | None, int]:
    """Does every r-coloring of the n-cube over t letters contain a
    monochromatic combinatorial line?"""
    groups = [tuple(word_index(w, t) for w in L.words(t))
              for L in enumerate_lines(t, n)]
    return _decide_and_witness(t ** n, groups, r, budget)


def min_hj_exponent(F: Hypergraph, r: int, cap: int = 12,
                    budget: Budget | None = None) -> int:
    """Least n such that r-colorings of E(F)^n always contain a
    monochromatic combinatorial line, up to the cap."""
    budget = budget or DEFAULT_BUDGET
    t = F.num_edges
    if t < 1:
        raise InvalidArgument(
            "the line property needs at least one edge in the pattern")
    if r < 1:
        raise InvalidArgument(f"number of colors must be positive, got {r}")
    for n in range(1, cap + 1):
        ok, _, _ = hj_line_property(t, n, r, budget)
        if ok:
            return n
    raise BudgetExceeded(
        f"no exponent up to {cap} gives the line property for "
        f"{t} letters and {r} colors", spent=cap, budget=cap)


def min_product_ramsey(f: Mapping, m: int, r: int, cap: int = 16,
                       budget: Budget | None = None) -> int:
    """Least class size M making the complete f-partite host arrow the
    complete f-partite pattern with classes of size m, for r colors.

    The host over classes of size M carries all class-respecting
    not-necessarily-induced copies of the pattern; arrowing is verified
    exhaustively for every candidate M, ascending.
    """
    budget = budget or DEFAULT_BUDGET
    if m < max(f.values(), default=0):
        raise InvalidArgument(
            "pattern class size is below the per-edge class demand")
    pattern = complete_multipartite(f, m)
    for M in range(m, cap + 1):
        host = complete_multipartite(f, M)
        embeddings = enumerate_copies(host, pattern, mode="fpartite",
                                      induced=False)
        system = CopySystem(host, tuple(
            Copy(emb.image_key[0], emb.image_key[1]) for emb in embeddings))
        if edge_arrows(system, r, budget).arrows:
            return M
    raise BudgetExceeded(
        f"no class size up to {cap} arrows the pattern for {r} colors",
        spent=cap, budget=cap)
