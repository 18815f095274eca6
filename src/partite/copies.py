"""Systems of copies and their cycle structure.

A *system of copies* is a pair (H, ℱ) of a host hypergraph and a set of
subhypergraphs, the *real copies*.  Every edge e of the host contributes
a further degenerate copy, the *edge copy* with vertex set e and single
edge e; the *members* of the system are the real copies together with
all edge copies.

A *cycle of copies* is an alternating cyclic sequence

    F_1 q_1 F_2 q_2 ... F_n q_n        (n >= 2)

of members and *connectors*, where cyclically consecutive copies are
distinct, the connectors are distinct, and each connector q_i is either
a vertex lying in both neighbouring copies or an edge belonging to
both.  The numerical invariants (length, order, the pair ``h``), the
tidiness conditions, master copies, and the resulting girth notion for
systems all live here.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .core import (Edge, Hypergraph, Vertex, _canonical_cyclic, _ints_only,
                   _sort_edges, are_isomorphic, canonical_edge, ekey,
                   is_linear, sort_vertices, validate, vkey)
from .errors import InvalidArgument, PreconditionViolation, _require_int

# ---------------------------------------------------------------------------
# copies


@dataclass(frozen=True)
class Copy:
    """A subhypergraph of some host, identified by its vertex and edge sets.

    Copies are compared by value: two copies with the same vertices and
    the same edges are the same copy regardless of how they were made.
    Isolated vertices are part of the identity.
    """

    vertices: tuple
    edges: tuple[Edge, ...]

    def __post_init__(self):
        vset = set(self.vertices)
        vs = sort_vertices(vset)
        es = _sort_edges(set(map(canonical_edge, self.edges)))
        for e in es:
            if not vset.issuperset(e):
                raise InvalidArgument(
                    f"copy edge {e!r} is not within the copy's vertices")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)

    @classmethod
    def from_hypergraph(cls, F: Hypergraph) -> "Copy":
        return cls(F.vertices, F.edges)

    @classmethod
    def of_edge(cls, e: Iterable[Vertex]) -> "Copy":
        """The edge copy: vertex set e, single edge e."""
        e = tuple(e)
        return cls(e, (e,))

    @cached_property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    @cached_property
    def edge_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(e) for e in self.edges)

    @cached_property
    def edge_family(self) -> frozenset:
        return frozenset(self.edge_sets)

    @cached_property
    def key(self) -> tuple:
        return (tuple(vkey(v) for v in self.vertices),
                tuple(ekey(e) for e in self.edges))

    @property
    def is_edge_shaped(self) -> bool:
        """True when the copy has exactly one edge covering all vertices."""
        return len(self.edges) == 1 and len(self.edges[0]) == len(self.vertices)

    def as_hypergraph(self, k: int | None = None) -> Hypergraph:
        return Hypergraph(self.vertices, self.edges, k=k)

    def non_isolated(self, v: Vertex) -> bool:
        return any(v in e for e in self.edge_sets)


def copy_of_embedding(emb) -> Copy:
    return Copy(emb.image_vertices, emb.image_edges)


# ---------------------------------------------------------------------------
# connectors and cycles of copies


@dataclass(frozen=True)
class Connector:
    """A vertex or an edge joining two consecutive copies of a cycle.

    The pretrain layer reuses the type with a third kind, ``"wagon"``,
    whose value is a wagon id of the system under consideration.
    """

    kind: str  # "vertex", "edge" or "wagon"
    value: Any

    def __post_init__(self):
        if self.kind == "edge":
            object.__setattr__(self, "value", canonical_edge(self.value))
        elif self.kind == "wagon":
            if not isinstance(self.value, int):
                raise InvalidArgument(
                    f"wagon connector value must be a wagon id, "
                    f"got {self.value!r}")
        elif self.kind != "vertex":
            raise InvalidArgument(f"unknown connector kind {self.kind!r}")

    @property
    def is_vertex(self) -> bool:
        return self.kind == "vertex"

    @property
    def is_edge(self) -> bool:
        return self.kind == "edge"

    @property
    def is_wagon(self) -> bool:
        return self.kind == "wagon"

    @cached_property
    def key(self) -> tuple:
        if self.is_vertex:
            return (0, vkey(self.value))
        if self.is_edge:
            return (1, ekey(self.value))
        return (2, self.value)


def vertex_connector(v: Vertex) -> Connector:
    return Connector("vertex", v)


def edge_connector(e: Iterable[Vertex]) -> Connector:
    return Connector("edge", tuple(e))


Step = tuple[Copy, Connector]


@dataclass(frozen=True)
class CycleOfCopies:
    """An alternating cyclic sequence of copies and connectors.

    The constructor normalises the presentation to the lexicographically
    least rotation or reflection, so equal cycles written from different
    starting points compare equal.  Structural validity against a host
    system is checked separately by :func:`check_copy_cycle`.  Cycles
    of the closing walks skip the normalisation (:meth:`_canonical`):
    they number copies and connectors in key order, so their least int
    rotation is already the least rotation here.
    """

    steps: tuple[Step, ...]

    def __post_init__(self):
        self._check_steps()
        object.__setattr__(self, "steps", _canonical_cyclic(
            list(self.steps), lambda p: (p[0].key, p[1].key)))

    @classmethod
    def _canonical(cls, steps: tuple[Step, ...]) -> "CycleOfCopies":
        """The cycle of ``steps``, trusted to be in canonical form."""
        cycle = object.__new__(cls)
        object.__setattr__(cycle, "steps", steps)
        cycle._check_steps()
        return cycle

    def _check_steps(self) -> None:
        """What both constructors require of the steps."""
        if len(self.steps) < 2:
            raise InvalidArgument(
                f"a cycle of copies has length at least 2, "
                f"got {len(self.steps)}")

    @property
    def length(self) -> int:
        return len(self.steps)

    @cached_property
    def copies(self) -> tuple[Copy, ...]:
        return tuple(c for c, _ in self.steps)

    @cached_property
    def connectors(self) -> tuple[Connector, ...]:
        return tuple(q for _, q in self.steps)

    def is_pure_index(self, i: int) -> bool:
        """The connectors before and after copy i+1 have the same kind.

        Index i refers to the copy of ``steps[i]``, flanked by the
        connectors of steps i-1 and i (cyclically).
        """
        n = self.length
        return (self.connectors[(i - 1) % n].kind
                == self.connectors[i % n].kind)

    @cached_property
    def order(self) -> int:
        """Number of pure indices plus half the number of mixed ones."""
        pure = sum(1 for i in range(self.length) if self.is_pure_index(i))
        mixed = self.length - pure
        if mixed % 2:
            raise AssertionError("mixed indices always come in even number")
        return pure + mixed // 2

    @cached_property
    def h(self) -> tuple[int, int]:
        """The pair (order, length), compared lexicographically."""
        return (self.order, self.length)

    @cached_property
    def vertex_connector_positions(self) -> tuple[int, ...]:
        return tuple(i for i, q in enumerate(self.connectors) if q.is_vertex)

    def meeting_positions(self, f: frozenset) -> tuple[int, ...]:
        """Positions whose vertex connector lies in the edge ``f``."""
        return tuple(i for i in self.vertex_connector_positions
                     if self.connectors[i].value in f)


# ---------------------------------------------------------------------------
# systems of copies


def _sort_copies(cs: Iterable[Copy]) -> tuple[Copy, ...]:
    """The copies in canonical order, that of ``Copy.key``.

    When every vertex is exactly an ``int`` the vertex and edge tuples
    are compared natively, which gives the same order (see
    :func:`partite.core.sort_vertices`) without building ``Copy.key``.
    """
    cs = list(cs)
    if _ints_only(itertools.chain.from_iterable(c.vertices for c in cs)):
        return tuple(sorted(cs, key=attrgetter("vertices", "edges")))
    return tuple(sorted(cs, key=lambda c: c.key))


class _Members:
    """Membership shared by systems of copies, pretrain copies and
    quasitrain copies.

    ``copies`` is deduplicated and put in canonical order.  The members
    are the listed copies together with every edge copy of the host.
    Realness is a matter of shape: a listed copy consisting of a single
    edge and nothing else counts as an edge copy, not a real one.
    """

    def __post_init__(self):
        # deduplicated in the given order, which is often sorted already
        object.__setattr__(self, "copies",
                           _sort_copies(dict.fromkeys(self.copies)))

    @cached_property
    def real_set(self) -> frozenset:
        return frozenset(c for c in self.copies if not c.is_edge_shaped)

    @cached_property
    def members(self) -> tuple[Copy, ...]:
        seen: dict[Copy, None] = dict.fromkeys(self.copies)
        for e in self.host.edges:
            seen.setdefault(Copy.of_edge(e))
        return _sort_copies(seen)

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def is_real(self, c: Copy) -> bool:
        return c in self.real_set

    def is_member(self, c: Copy) -> bool:
        return c in self.member_set

    @cached_property
    def _joined(self) -> dict[Connector, set]:
        """The host edges, as sets, lending each link as ``_link(e)``."""
        out: dict[Connector, set] = {}
        for e, f in zip(self.host.edges, self.host.edge_sets):
            out.setdefault(self._link(e), set()).add(f)
        return out


@dataclass(frozen=True)
class CopySystem(_Members):
    """A host hypergraph together with its copies.

    Every edge copy of the host is a member.  ``pattern`` optionally
    records the hypergraph the copies are copies of; validation then
    checks each listed copy is isomorphic to it.
    """

    host: Hypergraph
    copies: tuple[Copy, ...]
    pattern: Hypergraph | None = None

    _cycle = CycleOfCopies   # the cycles through the members

    def _link(self, e: Edge) -> Connector:
        """What ``e`` lends the members holding it: its edge connector."""
        return edge_connector(e)


def _copy_problems(host: Hypergraph, copies: Iterable[Copy]) -> list[str]:
    """One problem for each copy with vertices outside the host and one
    for each copy with edges outside it."""
    problems = []
    for c in copies:
        if not host.vertex_set.issuperset(c.vertices):
            problems.append(
                f"copy on {c.vertices!r} has vertices outside the host")
        if not host.edge_family.issuperset(map(frozenset, c.edges)):
            problems.append(
                f"copy on {c.vertices!r} has edges outside the host")
    return problems


def _require_copies_in_host(host: Hypergraph, copies: Iterable[Copy]) -> None:
    problems = _copy_problems(host, copies)
    if problems:
        raise InvalidArgument("; ".join(problems))


def validate_system(system: CopySystem) -> list[str]:
    """Structural problems of a system of copies; empty list when fine."""
    problems = validate(system.host)
    for c in system.copies:
        problems += _copy_problems(system.host, (c,))
        if system.pattern is not None:
            if not are_isomorphic(c.as_hypergraph(k=system.pattern.k),
                                  system.pattern):
                problems.append(
                    f"copy on {c.vertices!r} is not isomorphic to the pattern")
    return problems


def check_copy_cycle(system, cycle: CycleOfCopies) -> list[str]:
    """Violations of the cycle conditions, empty when valid.

    The clause list of every system, so of big cycles too: every copy
    is a member, cyclically consecutive copies differ, the connectors
    are distinct, and each connector joins its two neighbours
    (:func:`_joins`).
    """
    problems: list[str] = []
    n = cycle.length
    for c in cycle.copies:
        if not system.is_member(c):
            problems.append(
                f"copy on {c.vertices!r} is neither a real copy nor an "
                f"edge copy of the system")
    for i in range(n):
        if cycle.copies[i] == cycle.copies[(i + 1) % n]:
            problems.append(
                f"consecutive copies at positions {i} and {(i + 1) % n} "
                f"coincide")
    if len(set(cycle.connectors)) != n:
        problems.append("connectors are not distinct")
    for i, q in enumerate(cycle.connectors):
        a, b = cycle.copies[i], cycle.copies[(i + 1) % n]
        if not (_joins(system, q, a) and _joins(system, q, b)):
            problems.append(
                f"{q.kind} connector {q.value!r} at position {i} does not "
                f"join both neighbouring copies")
    return problems


def _joins(system, q: Connector, c: Copy) -> bool:
    """Whether ``q`` joins the copy ``c``: a vertex connector by lying in
    it, any other by being the link ``system._link(f)`` of an edge f."""
    if q.is_vertex:
        return q.value in c.vertex_set
    return not system._joined.get(q, frozenset()).isdisjoint(c.edge_family)


def _joined_by(system, q: Connector):
    """Host edges, as sets, whose edge copies ``q`` joins (:func:`_joins`)."""
    if q.is_vertex:
        H = system.host
        return {H.edge_sets[k] for k in H.incident_edges.get(q.value, ())}
    return system._joined.get(q, frozenset())


# ---------------------------------------------------------------------------
# clean intersections


def clean_intersection_violation(system: CopySystem,
                                 ) -> tuple[Copy, Copy] | None:
    """First pair of real copies whose intersection is not clean.

    A pair is clean when some edge of the one and some edge of the
    other intersect in exactly the vertex intersection of the two
    copies.  The quantifier is read literally, so copies without edges
    fail against any other copy.
    """
    cs = system.copies
    for a, b in itertools.combinations(cs, 2):
        cut = a.vertex_set & b.vertex_set
        if not any((ea & eb) == cut
                   for ea in a.edge_sets for eb in b.edge_sets):
            return (a, b)
    return None


def has_clean_intersections(system: CopySystem) -> bool:
    """Pairwise intersections of real copies are intersections of edges."""
    return clean_intersection_violation(system) is None


def clean_intersections_linear_form(system: CopySystem) -> bool:
    """Equivalent three-clause test, valid for linear hosts.

    (a) if two copies share at least two vertices, the shared set is a
    common edge of both; (b) if they share exactly one vertex, that
    vertex is non-isolated in both; (c) both copies have an edge.
    Used as an independent cross-check of the direct quantifier form.
    """
    if not is_linear(system.host):
        raise PreconditionViolation(
            "the three-clause form applies to linear hosts only")
    for a, b in itertools.combinations(system.copies, 2):
        if not (a.edges and b.edges):
            return False
        cut = a.vertex_set & b.vertex_set
        if len(cut) >= 2:
            if cut not in a.edge_family or cut not in b.edge_family:
                return False
        elif len(cut) == 1:
            (x,) = cut
            if not (a.non_isolated(x) and b.non_isolated(x)):
                return False
    return True


# ---------------------------------------------------------------------------
# tidiness


def is_tidy(system: CopySystem, cycle: CycleOfCopies) -> bool:
    """No vertex connector inside an edge connector, and every host edge
    meets the vertex connectors in at most two cyclically adjacent
    positions."""
    verts = [q.value for q in cycle.connectors if q.is_vertex]
    for q in cycle.connectors:
        if q.is_edge:
            fs = frozenset(q.value)
            if any(v in fs for v in verts):
                return False
    n = cycle.length
    for f in system.host.edge_sets:
        if not _adjacent_coverable(cycle.meeting_positions(f), n):
            return False
    return True


def _adjacent_coverable(positions: Sequence[int], n: int) -> bool:
    """positions ⊆ {i, i+1} for some i, cyclically."""
    if len(positions) <= 1:
        return True
    if len(positions) > 2:
        return False
    a, b = positions
    return (b - a) % n == 1 or (a - b) % n == 1


def is_semitidy(system: CopySystem, cycle: CycleOfCopies) -> bool:
    """The relaxation of tidiness that evaluation of system girth may
    equivalently use.

    An edge connector may contain at most one vertex connector, and only
    one sitting at a cyclically neighbouring position; host edges that
    are not connectors are constrained as in tidiness.
    """
    n = cycle.length
    connector_edges = {frozenset(q.value)
                       for q in cycle.connectors if q.is_edge}
    for i, q in enumerate(cycle.connectors):
        if not q.is_edge:
            continue
        hit = cycle.meeting_positions(frozenset(q.value))
        if len(hit) > 1:
            return False
        if hit and hit[0] not in ((i - 1) % n, (i + 1) % n):
            return False
    for f in system.host.edge_sets:
        if f in connector_edges:
            continue
        if not _adjacent_coverable(cycle.meeting_positions(f), n):
            return False
    return True


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class CycleClass:
    """Outcome of :func:`classify_cycle` and of
    :func:`partite.pretrain.classify_big_cycle`.

    For a cycle of copies ``status`` is one of ``"invalid"``,
    ``"untidy"``, ``"semitidy"``, ``"tidy"``; ``"semitidy"`` means
    semitidy but not tidy; tidiness implies semitidiness, which the
    classifier double-checks.  For a big cycle it is ``"invalid"``,
    ``"unacceptable"`` or ``"acceptable"``.  ``reasons`` names the
    violated clauses of an invalid or unacceptable cycle.
    """

    status: str
    reasons: tuple[str, ...] = ()


def classify_cycle(system: CopySystem, cycle: CycleOfCopies) -> CycleClass:
    problems = check_copy_cycle(system, cycle)
    if problems:
        return CycleClass("invalid", tuple(problems))
    tidy = is_tidy(system, cycle)
    semi = is_semitidy(system, cycle)
    if tidy and not semi:
        raise AssertionError("a tidy cycle must be semitidy")
    if tidy:
        return CycleClass("tidy")
    if semi:
        return CycleClass("semitidy")
    return CycleClass("untidy")


# ---------------------------------------------------------------------------
# master copies


def master_copies(system: CopySystem, cycle: CycleOfCopies,
                  ) -> tuple[tuple[Copy, Mapping[int, Edge]], ...]:
    """All master copies of the cycle with an exemplifying edge family.

    A copy F* occurring in the cycle is a master when every occurrence
    of a different copy can be replaced by an edge copy of some edge of
    F* so that the result is again a cycle of copies (same connectors).
    For each master the lexicographically least exemplifying family is
    returned, keyed by the replaced positions.  The cycle must be valid
    for the system.
    """
    return tuple(_masters(system, cycle))


def has_master(system: CopySystem, cycle: CycleOfCopies) -> bool:
    return next(_masters(system, cycle), None) is not None


def find_master_copy(system: CopySystem, cycle: CycleOfCopies,
                     ) -> tuple[Copy, Mapping[int, Edge]] | None:
    """First master copy with its collapse family, or None.

    The cycle must be valid for the system.  Candidates are tried in
    canonical copy order and the search stops at the first master, so
    the result is the first entry of :func:`master_copies`.
    """
    return next(_masters(system, cycle), None)


def _masters(system: CopySystem, cycle: CycleOfCopies) -> Iterator:
    """The masters of a valid cycle, lazily; an invalid cycle raises."""
    problems = check_copy_cycle(system, cycle)
    if problems:
        raise InvalidArgument("not a cycle of copies: " + "; ".join(problems))
    return _stars(system, cycle, _master)


def _stars(system, cycle: CycleOfCopies, collapse) -> Iterator:
    """``collapse(system, cycle, star)`` for each distinct copy of the
    cycle in canonical copy order where it is not None; lazy, unchecked."""
    for star in _sort_copies(set(cycle.copies)):
        got = collapse(system, cycle, star)
        if got is not None:
            yield got


def _master(system: CopySystem, cycle: CycleOfCopies,
            star: Copy) -> tuple[Copy, dict[int, Edge]] | None:
    """``star`` and its least family replacing the other copies, or None."""
    got = _least_collapse(
        system, cycle, star,
        lambda i: [(f, (Copy.of_edge(f),), ())
                   for f in _joined_edges(system, cycle, star, i)])
    return None if got is None else (star, got[0])


def _joined_edges(system, cycle: CycleOfCopies, star: Copy,
                  i: int) -> list[Edge]:
    """The edges of ``star`` that both connectors flanking position i
    join: the rule of :func:`_joins` for the edge copies of host edges."""
    left, right = (_joined_by(system, q)
                   for q in (cycle.connectors[i - 1], cycle.connectors[i]))
    return [e for e, f in zip(star.edges, star.edge_sets)
            if f in left and f in right]


def _least_collapse(system, cycle: CycleOfCopies, star: Copy,
                    options_at) -> tuple[dict, CycleOfCopies] | None:
    """The least collapse of every non-star copy of the cycle, or None.

    ``options_at(i)`` lists, in order of preference, the ways to
    replace the copy at position i: triples of a label, the run of
    copies taking its place and the connectors introduced between them.
    It is asked in cyclic order, up to the first position with none.
    The backtracking runs over the replaced positions in cyclic order,
    with one option iterator per position; cyclically consecutive
    copies of the collapse must differ and the introduced connectors
    must be new.  ``first[i]`` and ``last[i]`` hold the first and last
    copy at position i after the collapse, ``None`` while it is
    undecided.  The collapse, spliced as a ``system._cycle``, must pass
    :func:`check_copy_cycle`, the clause list of every system.  Returns
    the chosen labels keyed by position together with the collapse.
    """
    n = cycle.length
    positions, options = [], []
    for i, c in enumerate(cycle.copies):
        if c != star:
            opts = options_at(i)
            if not opts:
                return None
            positions.append(i)
            options.append(opts)
    if not positions:
        # every copy of the cycle equals star; consecutive copies would
        # coincide, so such a cycle cannot exist in the first place
        return None

    taken = set(cycle.connectors)
    first = [star if c == star else None for c in cycle.copies]
    last = first[:]
    untried = [iter(opts) for opts in options]
    chosen: list[tuple] = []
    while len(chosen) < len(positions):
        at = len(chosen)
        i = positions[at]
        for label, run, links in untried[at]:
            if (last[(i - 1) % n] == run[0] or first[(i + 1) % n] == run[-1]
                    or not taken.isdisjoint(links)):
                continue
            chosen.append((label, run, links))
            first[i], last[i] = run[0], run[-1]
            taken.update(links)
            break
        else:
            # every option here failed: start it afresh and take back
            # the choice at the position before
            if not chosen:
                return None
            untried[at] = iter(options[at])
            _, _, links = chosen.pop()
            prev = positions[at - 1]
            first[prev] = last[prev] = None
            taken.difference_update(links)

    by_position = dict(zip(positions, chosen))
    steps: list[Step] = []
    for i, (c, q) in enumerate(cycle.steps):
        if i in by_position:
            _, run, links = by_position[i]
            steps += zip(run, links + (q,))
        else:
            steps.append((c, q))
    replaced = system._cycle(tuple(steps))
    # paranoia: the collapse must be a genuine cycle
    if check_copy_cycle(system, replaced):
        return None
    return {i: got[0] for i, got in by_position.items()}, replaced


# ---------------------------------------------------------------------------
# cycle enumeration and the girth of a system


def normalize_girth_bound(bound) -> tuple[int, int]:
    """Accept an integer g (meaning the pair (g, 2g)) or a pair (g, n)
    of integers; anything else, a bool too, raises ``InvalidArgument``."""
    if isinstance(bound, int) and not isinstance(bound, bool):
        if bound < 1:
            raise InvalidArgument(f"girth bound must be positive, got {bound}")
        return (bound, 2 * bound)
    if not (isinstance(bound, (tuple, list)) and len(bound) == 2
            and all(isinstance(x, int) and not isinstance(x, bool)
                    for x in bound)):
        raise InvalidArgument(
            f"a girth bound is an int or a pair of ints, got {bound!r}")
    g, n = bound
    if g < 1 or n < 2:
        raise InvalidArgument(f"girth bound {bound!r} out of range")
    return (int(g), int(n))


def _max_cycle_length(bound: tuple[int, int]) -> int:
    g, n = bound
    # cycles of order below g may be as long as 2(g-1); cycles of order
    # exactly g count only up to length n
    return max(2 * (g - 1), min(n, 2 * g))


def _closing_walks(system, keep, bound: tuple[int, int],
                   max_len: int) -> tuple[CycleOfCopies, ...]:
    """Every cycle with h at most ``bound`` that a closing walk through
    the members of ``system`` makes and ``keep`` accepts, once each,
    ordered by h and then lexicographically.

    A walk starts at some member, goes on only to members of index at
    least the start, never stays at a member and never reuses a
    connector; it has at most ``max_len`` steps.  Members, indexed by
    their vertices and the links ``system._link(e)`` of their edges,
    join through what they share.  Connector ids follow
    ``Connector.key`` as member indices follow ``Copy.key``, so the
    least rotation of a walk's (member, connector id) steps is its
    cycle's canonical form.  ``moves[i]`` holds, in order, a (member,
    connector id) pair for each connector out of member i.  The walk
    runs on an explicit stack: ``tried[d]`` counts the moves tried out
    of ``walk[d]``, and ``twice[d]`` is twice the order that the copies
    strictly inside ``walk[:d + 1]`` add.  A start with fewer than two
    connectors to members above it closes nothing and is skipped.

    A walk back to its start after at least two steps closes a cycle.
    Its h comes from the kinds of its connectors before any cycle is
    built, and a walk over the bound is dropped.  Of the two directions
    only the walk leaving its start by the lesser connector is taken,
    which is the canonical form when the start occurs once; a cycle
    through its start twice is taken from its least rotation only.  So
    each cycle is built once, by ``system._cycle._canonical``, and
    ``keep`` is asked about it once.

    A copy whose two flanking connectors are placed adds a fixed 1
    (pure) or 1/2 (mixed) to the order, and the two copies at the ends
    of the walk add at least 1/2 each.  A walk is not extended once
    that lower bound exceeds the order g of ``bound = (g, n)``.
    """
    members = system.members
    twice_g = 2 * bound[0]
    holders: dict[Connector, list[int]] = {}
    shared: dict[tuple[int, int], list[Connector]] = {}
    for i, c in enumerate(members):
        for q in {*map(vertex_connector, c.vertices),
                  *map(system._link, c.edges)}:
            for j in holders.setdefault(q, []):
                shared.setdefault((j, i), []).append(q)
            holders[q].append(i)
    connectors = sorted((q for q, hs in holders.items() if len(hs) > 1),
                        key=attrgetter("key"))
    ids = {q: k for k, q in enumerate(connectors)}
    joints: dict[tuple[int, int], tuple[int, ...]] = {}
    moves: list[list[tuple[int, int]]] = [[] for _ in members]
    for i, j in sorted(shared):
        got = tuple(sorted(ids[q] for q in shared[i, j]))
        joints[i, j] = joints[j, i] = got
        moves[i] += ((j, q) for q in got)
        moves[j] += ((i, q) for q in got)
    kinds = [q.kind for q in connectors]

    used: set[int] = set()
    found: list[tuple] = []
    for first in range(len(members)):
        start = bisect_left(moves[first], (first, -1))
        if len({q for _, q in moves[first][start:]}) < 2:
            continue
        walk, qs, twice, tried = [first], [], [0], [start]
        while walk:
            out = moves[walk[-1]] if len(walk) < max_len else ()
            k = tried[-1]
            while k < len(out):
                j, q = out[k]
                k += 1
                if q in used:
                    continue
                now = twice[-1] + (
                    (2 if kinds[qs[-1]] == kinds[q] else 1) if qs else 0)
                if now + 2 <= twice_g:
                    break
            else:
                walk.pop()
                tried.pop()
                twice.pop()
                if qs:
                    used.remove(qs.pop())
                continue
            tried[-1] = k
            walk.append(j)
            qs.append(q)
            used.add(q)
            twice.append(now)
            tried.append(bisect_left(moves[j], (first, -1)))
            # close back to the first member, left by the lesser connector
            for r in joints.get((j, first), ()):
                if r < qs[0] or r in used:
                    continue
                order = (now + (2 if kinds[r] == kinds[qs[0]] else 1)
                         + (2 if kinds[qs[-1]] == kinds[r] else 1)) // 2
                if (order, len(walk)) > bound:
                    continue
                # the steps are pairs of ints, their own sort keys
                steps = tuple(zip(walk, qs + [r]))
                if (walk.count(first) > 1
                        and _canonical_cyclic(steps, tuple) != steps):
                    continue
                cyc = system._cycle._canonical(tuple(
                    (members[i], connectors[c]) for i, c in steps))
                if keep(cyc):
                    found.append(((order, len(walk)), steps, cyc))
    return tuple(cyc for _, _, cyc in sorted(found))


def enumerate_copy_cycles(system: CopySystem, bound,
                          notion: str = "tidy") -> tuple[CycleOfCopies, ...]:
    """All cycles with h at most ``bound`` satisfying the notion.

    ``notion`` is one of ``"tidy"``, ``"semitidy"``, ``"all"``.  Results
    are deduplicated up to rotation and reflection and ordered by h,
    then lexicographically; the search is exhaustive within the length
    limit implied by the bound, so the output is complete.
    """
    if notion not in ("tidy", "semitidy", "all"):
        raise InvalidArgument(f"unknown cycle notion {notion!r}")
    gb = normalize_girth_bound(bound)

    def keep(cyc: CycleOfCopies) -> bool:
        if notion == "tidy":
            return is_tidy(system, cyc)
        return notion == "all" or is_semitidy(system, cyc)

    return _closing_walks(system, keep, gb, _max_cycle_length(gb))


def girth_of_system_witness(system: CopySystem, bound,
                            notion: str = "tidy") -> CycleOfCopies | None:
    """The least cycle witnessing failure of the girth bound, or None.

    The girth of the system exceeds ``bound`` when every tidy cycle with
    h at most the bound has a master copy; the witness returned here is
    the first masterless cycle in (h, lexicographic) order.  Passing
    ``notion="semitidy"`` evaluates the equivalent semitidy criterion.
    The notion is only defined over linear hosts.  A copy that does not
    lie in the host, or any other notion, raises ``InvalidArgument``.
    """
    if notion not in ("tidy", "semitidy"):
        raise InvalidArgument(
            f"the girth of a system reads tidy or semitidy cycles, "
            f"got notion {notion!r}")
    _require_copies_in_host(system.host, system.copies)
    if not is_linear(system.host):
        raise PreconditionViolation(
            "the girth of a system is defined for linear hosts only")
    for cyc in enumerate_copy_cycles(system, bound, notion=notion):
        if not has_master(system, cyc):
            return cyc
    return None


def girth_of_system_exceeds(system: CopySystem, bound,
                            notion: str = "tidy") -> bool:
    return girth_of_system_witness(system, bound, notion=notion) is None


def semitidy_equivalence_check(system: CopySystem, g: int) -> bool:
    """Tidy-based and semitidy-based girth decisions agree at level g.

    Exhaustively evaluates both readings of the threshold; a mismatch
    would expose an implementation bug, never a property of the input.
    """
    _require_int("the bound of the equivalence check", g)
    return (girth_of_system_exceeds(system, g, notion="tidy")
            == girth_of_system_exceeds(system, g, notion="semitidy"))
