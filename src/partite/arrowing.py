"""Exhaustive arrowing oracles and minimal-parameter searches.

The central question has the shape: given colorable *items* (edges of a
host, vertices, or abstract words) and *groups* of items (the edge sets
of distinguished copies, combinatorial lines, ...), does every
r-coloring of the items leave some group monochromatic?  A coloring
with no monochromatic group is called *bad* here; arrowing holds iff no
bad coloring exists.

A first pass with a pruning-friendly item order decides the question.
If a bad coloring exists, a second pass in canonical item order finds
the lexicographically least one, which is the witness contract of the
whole package.  When every item lies in equally many groups, the
pruning-friendly order is the canonical one, so the first pass has
already found that witness and the second does not run.  Groups without
items are monochromatic under every coloring, so their presence makes
arrowing trivially true.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Hypergraph, complete_multipartite, enumerate_copies
from .copies import CopySystem, _require_copies_in_host, copy_of_embedding
from .errors import Budget, BudgetExceeded, InvalidArgument, _require_int

DEFAULT_BUDGET = Budget()

_MIXED = -2
_UNSET = -1


@dataclass(frozen=True)
class ArrowResult:
    """Outcome of an arrowing question.

    ``witness`` is a full bad coloring (a tuple of color numbers aligned
    with the canonical item order) when arrowing fails, else ``None``;
    it is always the lexicographically least bad coloring.  ``explored``
    counts explored partial colorings across the passes actually run:
    the deciding pass, plus the canonical witness pass when arrowing
    fails and the deciding order is not the canonical one.
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

    The walk keeps, for each depth down to the current one, one above
    the color its item holds (0 before the first try) and the number of
    colors used above it.  Undo needs no log: ``colored[g]`` counts the
    colored items of a group that is not mixed, ``mixed_at[g]`` is the
    depth whose color made g mixed (-1 while it is not) and
    ``mixed_from[g]`` its color before that.  Undoing a depth walks its
    item's groups again: a group mixed at this depth gets its color
    back, one not mixed loses a colored item (and is unset again at
    none), and one mixed above this depth is skipped, as the forward
    step skips it.
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
    mixed_at = [-1] * len(groups)
    mixed_from = [_UNSET] * len(groups)
    check_nodes = budget.check_nodes
    next_color = [0] * n
    used = [0] * n
    depth = 0 if n else -1
    while depth >= 0:
        members = member_of[order[depth]]
        c = next_color[depth]
        if c:  # undo the color c - 1 held here
            for gi in members:
                at = mixed_at[gi]
                if at == depth:
                    mixed_at[gi] = -1
                    color[gi] = mixed_from[gi]
                    alive += 1
                elif at < 0:
                    k = colored[gi] - 1
                    colored[gi] = k
                    if not k:
                        color[gi] = _UNSET
        u = used[depth]
        if c > u or c == r:  # c reached min(r, u + 1): depth done
            depth -= 1
            continue
        next_color[depth] = c + 1
        explored += 1
        check_nodes(explored)
        dead_end = False
        for gi in members:
            prev = color[gi]
            if prev == c or prev == _UNSET:
                color[gi] = c
                k = colored[gi] + 1
                colored[gi] = k
                if k == size[gi]:
                    dead_end = True
            elif prev != _MIXED:
                color[gi] = _MIXED
                mixed_at[gi] = depth
                mixed_from[gi] = prev
                alive -= 1
        if dead_end:
            continue
        if alive == 0:
            coloring = [0] * n
            for pos in range(depth + 1):
                coloring[order[pos]] = next_color[pos] - 1
            return tuple(coloring), explored
        # alive > 0 at full depth means some group ended monochromatic
        if depth + 1 < n:
            depth += 1
            next_color[depth] = 0
            used[depth] = max(u, c + 1)
    return None, explored


def _require_colors(r) -> None:
    _require_int("number of colors", r)
    if r < 1:
        raise InvalidArgument(f"number of colors must be positive, got {r}")


def _decide_and_witness(n_items: int, groups: Sequence[tuple[int, ...]],
                        r: int, budget: Budget,
                        ) -> tuple[bool, tuple[int, ...] | None, int]:
    """Decide arrowing and, when it fails, fetch the least witness.

    The deciding pass colors items in order of descending group
    membership (stronger pruning).  When a bad coloring exists, a
    second pass in the canonical item order finds the lexicographically
    least one.  When every item lies in equally many groups, the
    deciding order is the canonical one and its answer is already the
    least witness, so the second pass is not run.
    """
    _require_colors(r)
    membership = [0] * n_items
    for g in groups:
        for item in g:
            membership[item] += 1
    fast_order = sorted(range(n_items), key=lambda i: (-membership[i], i))
    bad, explored = _least_bad(n_items, groups, r, fast_order, budget, 0)
    if bad is None:
        return True, None, explored
    if fast_order == list(range(n_items)):
        return False, bad, explored
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
    _require_copies_in_host(system.host, system.copies)
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
    _require_colors(r)
    _require_int("the cap", cap)
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
    _require_colors(r)
    _require_int("pattern class size", m)
    _require_int("the cap", cap)
    for demand in f.values():
        _require_int("a class demand", demand)
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
