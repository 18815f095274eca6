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
from .copies import CopySystem, _require_copies_in_host, copy_of_embedding
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


def _least_bad(n_items: int, groups: Sequence[tuple[int, ...]], r: int,
               order: Sequence[int], budget: Budget, explored: int,
               ) -> tuple[tuple[int, ...] | None, int]:
    """One DFS pass over partial colorings in a fixed item order.

    Returns the least bad coloring along the order, or None, and the
    count of explored partial colorings, carried on from ``explored``.

    Group state: ``color[g]`` is the common color seen so far, ``_UNSET``
    before the first colored item, ``_MIXED`` once two colors meet.
    A group completed in a single color proves the current prefix can
    never extend to a bad coloring; all groups mixed proves every
    completion is bad, so the all-zero completion (the least one) is
    emitted.  Colors are tried ascending, capped at one above the number
    already used; the lexicographically least bad coloring always has
    first occurrences of colors in increasing order (permuting colors
    preserves badness), so the cap never skips it.

    The walk keeps, for each depth down to the current one, the next
    color to try there, the number of colors used above it and the
    undo log of the color it holds now, as (group, previous color)
    pairs.
    """
    if any(not g for g in groups):
        return None, explored
    n = n_items
    alive = len(groups)
    if alive == 0:
        return (0,) * n, explored
    member_of: list[list[int]] = [[] for _ in range(n)]
    for gi, g in enumerate(groups):
        for item in g:
            member_of[item].append(gi)
    size = [len(g) for g in groups]
    colored = [0] * len(groups)
    color = [_UNSET] * len(groups)
    coloring = [_UNSET] * n
    check_nodes = budget.check_nodes
    next_color = [0] * n
    used = [0] * n
    logs: list = [None] * n
    depth = 0 if n else -1
    while depth >= 0:
        item = order[depth]
        log = logs[depth]
        if log is not None:
            for gi, prev in log:
                colored[gi] -= 1
                if color[gi] == _MIXED and prev != _MIXED:
                    alive += 1
                color[gi] = prev
            coloring[item] = _UNSET
        c, u = next_color[depth], used[depth]
        if c > u or c == r:  # c reached min(r, u + 1): depth done
            depth -= 1
            continue
        next_color[depth] = c + 1
        explored += 1
        check_nodes(explored)
        coloring[item] = c
        logs[depth] = log = []
        dead_end = False
        for gi in member_of[item]:
            prev = color[gi]
            if prev == _MIXED:
                continue
            log.append((gi, prev))
            colored[gi] += 1
            if prev == _UNSET:
                color[gi] = c
            elif prev != c:
                color[gi] = _MIXED
                alive -= 1
            if color[gi] != _MIXED and colored[gi] == size[gi]:
                dead_end = True
        if dead_end:
            continue
        if alive == 0:
            for pos in range(depth + 1, n):
                coloring[order[pos]] = 0
            return tuple(coloring), explored
        # alive > 0 at full depth means some group ended monochromatic
        if depth + 1 < n:
            depth += 1
            next_color[depth] = 0
            used[depth] = max(u, c + 1)
            logs[depth] = None
    return None, explored


def _decide_and_witness(n_items: int, groups: Sequence[tuple[int, ...]],
                        r: int, budget: Budget,
                        ) -> tuple[bool, tuple[int, ...] | None, int]:
    """Two-pass search: decide arrowing, then fetch the least witness.

    The deciding pass colors items in order of descending group
    membership (stronger pruning); the witness pass, run only when a
    bad coloring exists, uses the canonical item order so the witness
    is the lexicographically least bad coloring overall.
    """
    if not isinstance(r, int) or isinstance(r, bool):
        raise InvalidArgument(f"number of colors must be an int, got {r!r}")
    if r < 1:
        raise InvalidArgument(f"number of colors must be positive, got {r}")
    membership = [0] * n_items
    for g in groups:
        for item in g:
            membership[item] += 1
    fast_order = sorted(range(n_items), key=lambda i: (-membership[i], i))
    bad, explored = _least_bad(n_items, groups, r, fast_order, budget, 0)
    if bad is None:
        return True, None, explored
    least, explored = _least_bad(n_items, groups, r, range(n_items), budget,
                                 explored)
    if least is None:
        raise AssertionError("a bad coloring vanished between passes")
    return False, least, explored


# ---------------------------------------------------------------------------
# public oracles


def _copy_arrows(system: CopySystem, r: int, budget: Budget | None,
                 on_edges: bool) -> ArrowResult:
    """Arrowing over the host's edges (``on_edges``) or vertices, each
    copy's group being its own edges or vertices.

    A copy's edges are looked up as frozensets built here from
    ``c.edges``, so no copy caches its ``edge_sets``: a system may hold
    thousands of copies, and the search needs only their item indices.
    """
    budget = budget or DEFAULT_BUDGET
    _require_copies_in_host(system)
    host_items = system.host.edge_sets if on_edges else system.host.vertices
    index = {x: i for i, x in enumerate(host_items)}
    groups = [tuple(sorted(index[x] for x in (map(frozenset, c.edges)
                                              if on_edges else c.vertices)))
              for c in system.copies]
    ok, witness, explored = _decide_and_witness(
        len(host_items), groups, r, budget)
    return ArrowResult(ok, r, witness, explored)


def edge_arrows(system: CopySystem, r: int,
                budget: Budget | None = None) -> ArrowResult:
    """Does every r-coloring of the host's edges leave a monochromatic copy?

    A copy is monochromatic when all of its edges received the same
    color; copies without edges are monochromatic vacuously.  Witness
    colorings align with the host's canonical edge order.  A copy that
    does not lie in the host raises ``InvalidArgument``.
    """
    return _copy_arrows(system, r, budget, True)


def vertex_arrows(system: CopySystem, r: int,
                  budget: Budget | None = None) -> ArrowResult:
    """Vertex-coloring analogue: some copy ends with all vertices alike."""
    return _copy_arrows(system, r, budget, False)


# ---------------------------------------------------------------------------
# combinatorial words, lines and the line property


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


def hj_line_property(t: int, n: int, r: int,
                     budget: Budget | None = None,
                     ) -> tuple[bool, tuple[int, ...] | None, int]:
    """Does every r-coloring of the n-cube over t letters contain a
    monochromatic combinatorial line?

    ``t`` and ``n`` are nonnegative ints; anything else raises
    ``InvalidArgument``, as does a number of colors ``r`` that is not a
    positive int.
    """
    budget = budget or DEFAULT_BUDGET
    for name, x in (("alphabet size t", t), ("dimension n", n)):
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise InvalidArgument(
                f"the {name} must be a nonnegative int, got {x!r}")
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
    if not isinstance(m, int) or isinstance(m, bool):
        raise InvalidArgument(f"pattern class size must be an int, got {m!r}")
    if m < max(f.values(), default=0):
        raise InvalidArgument(
            "pattern class size is below the per-edge class demand")
    pattern = complete_multipartite(f, m)
    for M in range(m, cap + 1):
        host = complete_multipartite(f, M)
        embeddings = enumerate_copies(host, pattern, mode="fpartite")
        system = CopySystem(host, tuple(map(copy_of_embedding, embeddings)))
        if edge_arrows(system, r, budget).arrows:
            return M
    raise BudgetExceeded(
        f"no class size up to {cap} arrows the pattern for {r} colors",
        spent=cap, budget=cap)
