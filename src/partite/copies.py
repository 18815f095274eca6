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
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from .core import (Edge, Hypergraph, Vertex, _canonical_cyclic,
                   canonical_edge, ekey, sort_vertices, vkey)
from .errors import InvalidArgument, PreconditionViolation

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
        vs = sort_vertices(set(self.vertices))
        es = sorted({canonical_edge(e) for e in self.edges}, key=ekey)
        vset = set(vs)
        for e in es:
            if not vset.issuperset(e):
                raise InvalidArgument(
                    f"copy edge {e!r} is not within the copy's vertices")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(es))

    @classmethod
    def from_hypergraph(cls, F: Hypergraph) -> "Copy":
        return cls(F.vertices, F.edges)

    @classmethod
    def of_edge(cls, e: Iterable[Vertex]) -> "Copy":
        """The edge copy: vertex set e, single edge e."""
        ce = canonical_edge(e)
        return cls(ce, (ce,))

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

    def as_hypergraph(self, k: int | None = None,
                      ordered: bool = False) -> Hypergraph:
        return Hypergraph(self.vertices, self.edges, k=k, ordered=ordered)

    def non_isolated(self, v: Vertex) -> bool:
        return any(v in e for e in self.edge_sets)


def copy_of_embedding(emb) -> Copy:
    vs, es = emb.image_key
    return Copy(vs, es)


# ---------------------------------------------------------------------------
# systems of copies


class _Members:
    """Membership shared by systems of copies, pretrain copies and
    quasitrain copies.

    ``copies`` is deduplicated and put in canonical order.  The members
    are the listed copies together with every edge copy of the host,
    unless the system has an ``extended`` flag and it is off.  Realness
    is a matter of shape: a listed copy consisting of a single edge and
    nothing else counts as an edge copy, not a real one.
    """

    def __post_init__(self):
        cs = sorted(set(self.copies), key=lambda c: c.key)
        object.__setattr__(self, "copies", tuple(cs))

    @cached_property
    def real_set(self) -> frozenset:
        return frozenset(c for c in self.copies if not c.is_edge_shaped)

    @cached_property
    def members(self) -> tuple[Copy, ...]:
        if not getattr(self, "extended", True):
            return self.copies
        seen: dict[Copy, None] = dict.fromkeys(self.copies)
        for e in self.host.edges:
            seen.setdefault(Copy.of_edge(e))
        return tuple(sorted(seen, key=lambda c: c.key))

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def is_real(self, c: Copy) -> bool:
        return c in self.real_set

    def is_member(self, c: Copy) -> bool:
        return c in self.member_set


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


def _copy_problems(host: Hypergraph, copies: Iterable[Copy]) -> list[str]:
    """One problem for each copy with vertices outside the host and one
    for each copy with edges outside it."""
    problems = []
    for c in copies:
        if not host.vertex_set.issuperset(c.vertices):
            problems.append(
                f"copy on {c.vertices!r} has vertices outside the host")
        if not host.edge_family.issuperset(c.edge_sets):
            problems.append(
                f"copy on {c.vertices!r} has edges outside the host")
    return problems


def _require_copies_in_host(system: _Members) -> None:
    problems = _copy_problems(system.host, system.copies)
    if problems:
        raise InvalidArgument("; ".join(problems))


def validate_system(system: CopySystem) -> list[str]:
    """Structural problems of a system of copies; empty list when fine."""
    from .core import are_isomorphic, validate
    problems = validate(system.host)
    for c in system.copies:
        problems += _copy_problems(system.host, (c,))
        if system.pattern is not None:
            if not are_isomorphic(c.as_hypergraph(k=system.pattern.k),
                                  system.pattern):
                problems.append(
                    f"copy on {c.vertices!r} is not isomorphic to the pattern")
    return problems


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
    from .core import is_linear
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


def _canonical_steps(steps: Sequence[Step]) -> tuple[Step, ...]:
    return _canonical_cyclic(list(steps), lambda p: (p[0].key, p[1].key))


@dataclass(frozen=True)
class CycleOfCopies:
    """An alternating cyclic sequence of copies and connectors.

    The constructor normalises the presentation to the lexicographically
    least rotation or reflection, so equal cycles written from different
    starting points compare equal.  Structural validity against a host
    system is checked separately by :func:`check_copy_cycle`.
    """

    steps: tuple[Step, ...]

    def __post_init__(self):
        if len(self.steps) < 2:
            raise InvalidArgument(
                f"a cycle of copies has length at least 2, "
                f"got {len(self.steps)}")
        object.__setattr__(self, "steps", _canonical_steps(self.steps))

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


def check_copy_cycle(system: CopySystem, cycle: CycleOfCopies) -> list[str]:
    """Violations of the cycle-of-copies conditions, empty when valid.

    Checks that every copy is a member of the system, cyclic
    distinctness of consecutive copies, distinctness of the connectors,
    and that each connector joins its two neighbours (a vertex
    connector lies in both copies, an edge connector is an edge of
    both, and no other kind of connector joins copies).
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
    for i in range(n):
        q = cycle.connectors[i]
        a, b = cycle.copies[i], cycle.copies[(i + 1) % n]
        if q.is_vertex:
            if not (q.value in a.vertex_set and q.value in b.vertex_set):
                problems.append(
                    f"vertex connector {q.value!r} at position {i} does "
                    f"not lie in both neighbouring copies")
        elif q.is_edge:
            fs = frozenset(q.value)
            if not (fs in a.edge_family and fs in b.edge_family):
                problems.append(
                    f"edge connector {q.value!r} at position {i} is not "
                    f"an edge of both neighbouring copies")
        else:
            problems.append(
                f"{q.kind} connector {q.value!r} at position {i} is "
                f"neither a vertex nor an edge")
    return problems


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
    """Outcome of :func:`classify_cycle`.

    ``status`` is one of ``"invalid"``, ``"untidy"``, ``"semitidy"``,
    ``"tidy"``; for invalid cycles ``reasons`` lists the violated
    clauses.  ``"semitidy"`` means semitidy but not tidy; tidiness
    implies semitidiness, which the classifier double-checks.
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
    returned, keyed by the replaced positions.
    """
    out: list[tuple[Copy, Mapping[int, Edge]]] = []
    candidates = sorted(set(cycle.copies), key=lambda c: c.key)
    for star in candidates:
        family = _exemplifying_family(system, cycle, star)
        if family is not None:
            out.append((star, family))
    return tuple(out)


def has_master(system: CopySystem, cycle: CycleOfCopies) -> bool:
    return bool(master_copies(system, cycle))


def find_master_copy(system: CopySystem, cycle: CycleOfCopies,
                     ) -> tuple[Copy, Mapping[int, Edge]] | None:
    """First master copy with its collapse family, or None.

    The cycle must be valid for the system; candidates are tried in
    canonical copy order and the collapse family is the least one, so
    the result is deterministic.
    """
    problems = check_copy_cycle(system, cycle)
    if problems:
        raise InvalidArgument("not a cycle of copies: " + "; ".join(problems))
    masters = master_copies(system, cycle)
    return masters[0] if masters else None


def _exemplifying_family(system: CopySystem, cycle: CycleOfCopies,
                         star: Copy) -> dict[int, Edge] | None:
    """Least family replacing all non-star copies, or None."""
    n = cycle.length

    def options_at(i: int) -> list:
        flanks = (cycle.connectors[(i - 1) % n], cycle.connectors[i])
        return [(f, (Copy.of_edge(f),), ())
                for f, fs in zip(star.edges, star.edge_sets)
                if all(q.value in fs if q.is_vertex
                       else frozenset(q.value) == fs for q in flanks)]

    got = _least_collapse(cycle, star, options_at, CycleOfCopies,
                          lambda c: check_copy_cycle(system, c))
    return None if got is None else got[0]


def _least_collapse(cycle: CycleOfCopies, star: Copy, options_at,
                    make, check) -> tuple[dict, CycleOfCopies] | None:
    """The least collapse of every non-star copy of the cycle, or None.

    ``options_at(i)`` lists, in order of preference, the ways to
    replace the copy at position i: triples of a label, the run of
    copies taking its place and the connectors introduced between them.
    The backtracking runs over the replaced positions in cyclic order;
    cyclically consecutive copies of the collapse must differ and the
    introduced connectors must be new.  The collapse, spliced with
    ``make``, must pass ``check`` with no problem.  Returns the chosen
    labels keyed by position together with the collapse.
    """
    n = cycle.length
    positions = [i for i in range(n) if cycle.copies[i] != star]
    if not positions:
        # every copy of the cycle equals star; consecutive copies would
        # coincide, so such a cycle cannot exist in the first place
        return None
    options = []
    for i in positions:
        opts = options_at(i)
        if not opts:
            return None
        options.append(opts)

    taken = set(cycle.connectors)
    chosen: dict[int, tuple] = {}

    def end(i: int, side: int) -> Copy | None:
        """The first (side 0) or last (side -1) copy at position i after
        the collapse; None while the position is undecided."""
        if cycle.copies[i] == star:
            return star
        got = chosen.get(i)
        return None if got is None else got[1][side]

    def pick(at: int) -> bool:
        if at == len(positions):
            return True
        i = positions[at]
        for label, run, links in options[at]:
            if (end((i - 1) % n, -1) == run[0]
                    or end((i + 1) % n, 0) == run[-1]
                    or not taken.isdisjoint(links)):
                continue
            chosen[i] = (label, run, links)
            taken.update(links)
            if pick(at + 1):
                return True
            taken.difference_update(links)
            del chosen[i]
        return False

    if not pick(0):
        return None
    steps: list[Step] = []
    for i, (c, q) in enumerate(cycle.steps):
        if i in chosen:
            _, run, links = chosen[i]
            steps += zip(run, links + (q,))
        else:
            steps.append((c, q))
    replaced = make(tuple(steps))
    # paranoia: the collapse must be a genuine cycle
    if check(replaced):
        return None
    return {i: got[0] for i, got in chosen.items()}, replaced


# ---------------------------------------------------------------------------
# cycle enumeration and the girth of a system


def normalize_girth_bound(bound) -> tuple[int, int]:
    """Accept an integer g (meaning the pair (g, 2g)) or a pair (g, n)."""
    if isinstance(bound, int):
        if bound < 1:
            raise InvalidArgument(f"girth bound must be positive, got {bound}")
        return (bound, 2 * bound)
    g, n = bound
    if g < 1 or n < 2:
        raise InvalidArgument(f"girth bound {bound!r} out of range")
    return (int(g), int(n))


def _max_cycle_length(bound: tuple[int, int]) -> int:
    g, n = bound
    # cycles of order below g may be as long as 2(g-1); cycles of order
    # exactly g count only up to length n
    return max(2 * (g - 1), min(n, 2 * g))


def _closing_walks(members: Sequence[Copy], links, make, keep,
                   max_len: int) -> tuple[CycleOfCopies, ...]:
    """Every cycle that a closing walk through ``members`` makes and
    ``keep`` accepts, once each, ordered by h and then lexicographically.

    A walk starts at some member, goes on only to members of index at
    least the start, never stays at a member and never reuses a
    connector; it has at most ``max_len`` steps.  The connectors
    between two members are their shared vertices followed by
    ``links(a, b)``.  A walk back to its start after at least two steps
    is made into a cycle by ``make``, which canonicalises it; ``keep``
    is asked once for each cycle not found before.
    """
    found: set[CycleOfCopies] = set()
    joint_cache: dict[tuple[int, int], tuple[Connector, ...]] = {}

    def joints(i: int, j: int) -> tuple[Connector, ...]:
        key = (i, j) if i <= j else (j, i)
        got = joint_cache.get(key)
        if got is None:
            a, b = members[key[0]], members[key[1]]
            qs = [vertex_connector(v)
                  for v in sort_vertices(a.vertex_set & b.vertex_set)]
            qs += links(a, b)
            got = tuple(qs)
            joint_cache[key] = got
        return got

    def search(seq: list[tuple[int, Connector | None]]):
        """seq holds (member index, connector after it); the last
        connector is None until the cycle closes."""
        depth = len(seq)
        first = seq[0][0]
        last = seq[-1][0]
        used = {q for _, q in seq if q is not None}
        if depth >= 2 and last != first:
            # try to close the cycle back to the first member
            for q in joints(last, first):
                if q in used:
                    continue
                steps = tuple((members[i], qq) for i, qq in seq[:-1]) + (
                    (members[last], q),)
                cyc = make(steps)
                if cyc not in found and keep(cyc):
                    found.add(cyc)
        if depth == max_len:
            return
        for j in range(first, len(members)):
            if j == last:
                continue
            for q in joints(last, j):
                if q in used:
                    continue
                seq[-1] = (last, q)
                seq.append((j, None))
                search(seq)
                seq.pop()
                seq[-1] = (last, None)

    for start in range(len(members)):
        search([(start, None)])

    return tuple(sorted(
        found, key=lambda c: (c.h, tuple((cp.key, q.key) for cp, q in c.steps))))


def _shared_edges(a: Copy, b: Copy) -> list[Connector]:
    return [edge_connector(tuple(sorted(e, key=vkey)))
            for e in sorted(a.edge_family & b.edge_family, key=ekey)]


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
        if cyc.h > gb:
            return False
        if notion == "tidy":
            return is_tidy(system, cyc)
        return notion == "all" or is_semitidy(system, cyc)

    return _closing_walks(system.members, _shared_edges, CycleOfCopies,
                          keep, _max_cycle_length(gb))


def girth_of_system_witness(system: CopySystem, bound,
                            notion: str = "tidy") -> CycleOfCopies | None:
    """The least cycle witnessing failure of the girth bound, or None.

    The girth of the system exceeds ``bound`` when every tidy cycle with
    h at most the bound has a master copy; the witness returned here is
    the first masterless cycle in (h, lexicographic) order.  Passing
    ``notion="semitidy"`` evaluates the equivalent semitidy criterion.
    The notion is only defined over linear hosts.  A copy that does not
    lie in the host raises ``InvalidArgument``.
    """
    from .core import is_linear
    _require_copies_in_host(system)
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
    if not isinstance(g, int):
        raise InvalidArgument("the equivalence check takes a scalar bound")
    return (girth_of_system_exceeds(system, g, notion="tidy")
            == girth_of_system_exceeds(system, g, notion="semitidy"))
