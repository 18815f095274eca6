"""Pretrains, their extensions, and the girth notion for wagon structure.

A *pretrain* is a hypergraph together with an equivalence relation on its
edge set.  The subhypergraph spanned by an equivalence class, without
isolated vertices, is a *wagon*.  Wagons are the unit of structure every
operation here cares about: subpretrains inherit the relation, extensions
grow every wagon while preserving how wagons meet, and derivations
transport wagon structure down from a coarser carrier.

Cycles through a system of pretrain copies connect consecutive copies by
vertices or by whole wagons; such *big cycles* have the same length/order
bookkeeping as cycles of copies, an admissibility notion (acceptability)
in place of semitidiness, and *supreme copies* in place of master copies.
A copy is supreme when every other copy of the cycle can be collapsed to
a piece of it: a single edge, or two edges bridged by the wagon they
share.  The girth of a system of pretrains exceeds g when the underlying
pretrain is linear and every acceptable big cycle of order at most g has
a supreme copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from .core import (Edge, Hypergraph, Vertex, _canonical_cyclic,
                   canonical_edge, ekey, is_linear, is_strongly_induced,
                   require_valid, shortest_edge_cycle, sort_vertices, vkey)
from .copies import (Connector, Copy, CycleOfCopies, _adjacent_coverable,
                     _closing_walks, _copy_problems, _least_collapse,
                     _Members, _require_copies_in_host)
from .errors import InvalidArgument, PreconditionViolation

# ---------------------------------------------------------------------------
# pretrains and wagons


@dataclass(frozen=True)
class Wagon:
    """One equivalence class of edges, spanned without isolated vertices.

    ``vertices`` is in host vertex order (significant for the ordered
    constructions), ``edges`` in host edge order.
    """

    id: int
    vertices: tuple
    edges: tuple[Edge, ...]

    @cached_property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    @cached_property
    def edge_family(self) -> frozenset:
        return frozenset(frozenset(e) for e in self.edges)

    def as_hypergraph(self, ordered: bool = True) -> Hypergraph:
        return Hypergraph(self.vertices, self.edges, ordered=ordered)


@dataclass(frozen=True)
class Pretrain:
    """A hypergraph with an equivalence relation on its edge set.

    ``wagon_ids`` assigns one wagon id per edge, parallel to
    ``hypergraph.edges``.  Arbitrary hashable labels are accepted and
    normalised at construction to consecutive integers in first-edge
    order, so wagon ids are stable under re-presentation.  ``provenance``
    optionally links each wagon to the wagon of another pretrain it was
    derived from; it is set by :func:`derive` and left ``None`` elsewhere.
    """

    hypergraph: Hypergraph
    wagon_ids: tuple[int, ...]
    provenance: tuple[int, ...] | None = None

    def __post_init__(self):
        require_valid(self.hypergraph)
        ids = tuple(self.wagon_ids)
        if len(ids) != self.hypergraph.num_edges:
            raise InvalidArgument(
                f"need one wagon id per edge: {self.hypergraph.num_edges} "
                f"edges, {len(ids)} ids")
        relabel: dict[Any, int] = {}
        for w in ids:
            if w not in relabel:
                relabel[w] = len(relabel)
        object.__setattr__(self, "wagon_ids",
                           tuple(relabel[w] for w in ids))
        if self.provenance is not None:
            prov = tuple(self.provenance)
            if len(prov) != len(relabel):
                raise InvalidArgument(
                    "provenance must name one source wagon per wagon")
            object.__setattr__(self, "provenance", prov)

    @classmethod
    def singletons(cls, H: Hypergraph) -> "Pretrain":
        """Every edge is its own wagon."""
        return cls(H, tuple(range(H.num_edges)))

    @classmethod
    def single(cls, H: Hypergraph) -> "Pretrain":
        """All edges form one wagon."""
        return cls(H, tuple(0 for _ in H.edges))

    @classmethod
    def from_labels(cls, H: Hypergraph,
                    label_of: Mapping[Any, Any]) -> "Pretrain":
        """Build from an edge -> label mapping (keys up to reordering)."""
        table = {frozenset(e): lab for e, lab in label_of.items()}
        ids = []
        for e in H.edges:
            fs = frozenset(e)
            if fs not in table:
                raise InvalidArgument(f"edge {e!r} has no wagon label")
            ids.append(table[fs])
        return cls(H, tuple(ids))

    @classmethod
    def from_classes(cls, H: Hypergraph,
                     classes: Iterable[Iterable[Iterable[Vertex]]],
                     ) -> "Pretrain":
        """Build from an explicit partition of the edge set."""
        table: dict[frozenset, int] = {}
        for i, cl in enumerate(classes):
            for e in cl:
                fs = frozenset(e)
                if fs in table:
                    raise InvalidArgument(
                        f"edge {sort_vertices(fs)!r} occurs in two classes")
                table[fs] = i
        if len(table) != H.num_edges:
            raise InvalidArgument(
                "the classes do not partition the edge set")
        return cls.from_labels(H, table)

    # -- wagon views ---------------------------------------------------

    @property
    def num_wagons(self) -> int:
        return len(set(self.wagon_ids))

    @cached_property
    def _wagon_of_edge(self) -> Mapping[frozenset, int]:
        return {frozenset(e): w
                for e, w in zip(self.hypergraph.edges, self.wagon_ids)}

    def wagon_of(self, e: Iterable[Vertex]) -> int:
        fs = frozenset(e)
        got = self._wagon_of_edge.get(fs)
        if got is None:
            raise InvalidArgument(
                f"{sort_vertices(fs)!r} is not an edge of the pretrain")
        return got

    @cached_property
    def wagons(self) -> tuple[Wagon, ...]:
        fibers: dict[int, list[Edge]] = {}
        for e, w in zip(self.hypergraph.edges, self.wagon_ids):
            fibers.setdefault(w, []).append(e)
        out = []
        for w in sorted(fibers):
            es = tuple(fibers[w])
            covered = set().union(*map(set, es))
            vs = tuple(v for v in self.hypergraph.vertices if v in covered)
            out.append(Wagon(w, vs, es))
        return tuple(out)

    def wagon(self, wid: int) -> Wagon:
        if not 0 <= wid < len(self.wagons):
            raise InvalidArgument(f"no wagon with id {wid}")
        return self.wagons[wid]

    @property
    def fibers(self) -> tuple[tuple[Edge, ...], ...]:
        return tuple(w.edges for w in self.wagons)


def is_subpretrain(sub: Pretrain, sup: Pretrain) -> bool:
    """``sub`` is a subhypergraph whose relation is the restriction.

    Two edges of the subpretrain must be equivalent exactly when they
    are equivalent in the superpretrain; this pins the relation of a
    subpretrain down to its vertex and edge sets.
    """
    if not sub.hypergraph.is_subhypergraph_of(sup.hypergraph):
        return False
    image: dict[int, int] = {}
    for e in sub.hypergraph.edges:
        a, b = sub.wagon_of(e), sup.wagon_of(e)
        if image.setdefault(a, b) != b:
            return False
    return len(set(image.values())) == len(image)


def subpretrain(P: Pretrain, vertices: Iterable[Vertex],
                edges: Iterable[Iterable[Vertex]] | None = None) -> Pretrain:
    """The subpretrain on the given vertices and edges of ``P``.

    When ``edges`` is omitted every edge inside the vertex set is kept.
    The inherited relation is the restriction; wagon ids renumber in
    first-edge order.
    """
    vs = frozenset(vertices)
    foreign = vs - P.hypergraph.vertex_set
    if foreign:
        raise InvalidArgument(
            f"vertices {sort_vertices(foreign)!r} are not in the pretrain")
    if edges is None:
        es = tuple(e for e in P.hypergraph.edges if vs.issuperset(e))
    else:
        es = tuple(canonical_edge(e) for e in edges)
        for e in es:
            if frozenset(e) not in P.hypergraph.edge_family:
                raise InvalidArgument(f"{e!r} is not an edge of the pretrain")
            if not vs.issuperset(e):
                raise InvalidArgument(
                    f"edge {e!r} is not inside the chosen vertices")
    sub = Hypergraph(tuple(v for v in P.hypergraph.vertices if v in vs),
                     es, k=P.hypergraph.k, ordered=P.hypergraph.ordered)
    return Pretrain(sub, tuple(P.wagon_of(e) for e in sub.edges))


# ---------------------------------------------------------------------------
# linearity and the wagon girth of a single pretrain


def is_linear_pretrain(P: Pretrain) -> bool:
    """The hypergraph is linear and wagons pairwise share at most one vertex."""
    if not is_linear(P.hypergraph):
        return False
    return all(len(a.vertex_set & b.vertex_set) <= 1
               for a, b in itertools.combinations(P.wagons, 2))


def _canonical_wagon_cycle(pairs: Sequence[tuple[int, Vertex]]) -> tuple:
    return _canonical_cyclic(list(pairs), lambda p: (p[0], vkey(p[1])))


def _wagon_cycle(vertices: Sequence[Vertex], wagons: Iterable[Wagon],
                 g: int) -> tuple | None:
    """A shortest cycle of length at most ``g >= 2`` in the hypergraph on
    ``vertices`` whose edges are the vertex sets of ``wagons``, as
    canonical (wagon id, vertex) pairs, or ``None``."""
    # two wagons spanning the same vertex set are already a 2-cycle, but
    # would collapse into one edge of the hypergraph of wagon vertex sets
    by_set: dict[frozenset, int] = {}
    for w in wagons:
        prev = by_set.setdefault(w.vertex_set, w.id)
        if prev != w.id:
            a, b = sort_vertices(w.vertex_set)[:2]
            return _canonical_wagon_cycle([(prev, a), (w.id, b)])
    if len(by_set) < 2:
        return None
    found = shortest_edge_cycle(Hypergraph(vertices, tuple(by_set)), g)
    if found is None:
        return None
    return _canonical_wagon_cycle(
        [(by_set[frozenset(e)], v) for e, v in found])


def frak_girth_pretrain_witness(P: Pretrain, g: int) -> tuple | None:
    """A shortest wagon cycle of length at most ``g``, or ``None``.

    Cycles live in the hypergraph whose edges are the wagon vertex
    sets, of whatever sizes: a cyclic sequence of distinct wagons joined
    by distinct vertices.  The wagon girth of the pretrain exceeds ``g``
    exactly when there is no such cycle; witnesses are canonical tuples
    of (wagon id, vertex) pairs.  Defined over linear hypergraphs only.
    """
    if not is_linear(P.hypergraph):
        raise PreconditionViolation(
            "the wagon girth of a pretrain is defined over linear "
            "hypergraphs only")
    if g < 0:
        raise InvalidArgument(f"girth bound must be nonnegative, got {g}")
    if g < 2:
        return None
    return _wagon_cycle(P.hypergraph.vertices, P.wagons, g)


def frak_girth_pretrain_exceeds(P: Pretrain, g: int) -> bool:
    """No wagon cycle of length between 2 and ``g`` exists.

    Exceeding 2 is exactly :func:`is_linear_pretrain` for linear
    hypergraphs; a single wagon exceeds every bound.
    """
    return frak_girth_pretrain_witness(P, g) is None


# ---------------------------------------------------------------------------
# extensions


def contraction_map(base: Pretrain, ext: Pretrain) -> dict[int, int | None]:
    """For each wagon of ``ext``, the wagon of ``base`` it contracts to.

    A wagon contracts when it has an edge in the subpretrain, and then
    the target is unique; wagons with no such edge vanish and map to
    ``None``.
    """
    if not is_subpretrain(base, ext):
        raise InvalidArgument(
            "contraction relates a pretrain to one of its subpretrains")
    fam = base.hypergraph.edge_family
    out: dict[int, int | None] = {}
    for w in ext.wagons:
        hits = {base.wagon_of(e) for e in w.edges if frozenset(e) in fam}
        if len(hits) > 1:
            raise AssertionError(
                "a wagon contracts to at most one wagon of a subpretrain")
        out[w.id] = hits.pop() if hits else None
    return out


def is_extension(base: Pretrain, ext: Pretrain) -> bool:
    """``ext`` extends ``base``: same isolated vertices, every wagon
    contracts, and contraction preserves pairwise wagon intersections."""
    if not is_subpretrain(base, ext):
        raise InvalidArgument(
            "extension is a relation between a pretrain and one of its "
            "subpretrains")
    if (set(base.hypergraph.isolated_vertices())
            != set(ext.hypergraph.isolated_vertices())):
        return False
    contr = contraction_map(base, ext)
    if any(t is None for t in contr.values()):
        return False
    for wa, wb in itertools.combinations(ext.wagons, 2):
        fa = base.wagon(contr[wa.id])
        fb = base.wagon(contr[wb.id])
        if wa.vertex_set & wb.vertex_set != fa.vertex_set & fb.vertex_set:
            return False
    return True


def is_tame_extension(base: Pretrain, ext: Pretrain) -> bool:
    """An extension with ``base`` strongly induced and wagon-local edges.

    On top of being an extension, every vertex of the base inside a
    wagon of the extension must already lie in the contracted wagon;
    equivalently, each extension edge meets the base only where the
    base has an equivalent edge through the same vertex.
    """
    if not is_extension(base, ext):
        return False
    if not is_strongly_induced(base.hypergraph, ext.hypergraph):
        return False
    bvs = base.hypergraph.vertex_set
    contr = contraction_map(base, ext)
    for w in ext.wagons:
        if not (w.vertex_set & bvs) <= base.wagon(contr[w.id]).vertex_set:
            return False
    return True


# ---------------------------------------------------------------------------
# ordered patterns and the two extension constructions


def are_order_isomorphic(A: Hypergraph, B: Hypergraph) -> bool:
    return _order_aligned(A, B) is not None


def _order_aligned(A: Hypergraph, B: Hypergraph) -> dict | None:
    """The position-respecting vertex bijection when it is an isomorphism."""
    if A.num_vertices != B.num_vertices or A.num_edges != B.num_edges:
        return None
    m = dict(zip(A.vertices, B.vertices))
    if {frozenset(m[v] for v in e) for e in A.edges} != set(B.edge_family):
        return None
    return m


def ordered_pair_problems(X: Hypergraph, W: Hypergraph) -> list[str]:
    """Violations of ``(X, W)`` being an ordered hypergraph pair."""
    problems = []
    if not W.is_subhypergraph_of(X):
        problems.append("the second component is not a subhypergraph "
                        "of the first")
        return problems
    ws = W.vertex_set
    if W.vertices != tuple(v for v in X.vertices if v in ws):
        problems.append("the subhypergraph does not carry the induced order")
    return problems


def ordered_pairs_isomorphic(X: Hypergraph, W: Hypergraph,
                             X2: Hypergraph, W2: Hypergraph) -> bool:
    """The unique order isomorphism of the first components, when it
    exists, maps the second components onto each other."""
    for pair in ((X, W), (X2, W2)):
        problems = ordered_pair_problems(*pair)
        if problems:
            raise InvalidArgument("; ".join(problems))
    m = _order_aligned(X, X2)
    if m is None:
        return False
    if {m[v] for v in W.vertices} != W2.vertex_set:
        return False
    return {frozenset(m[v] for v in e) for e in W.edges} == set(W2.edge_family)


def _union_pattern(wagons: Sequence[Wagon], k: int | None) -> Hypergraph:
    """The ordered disjoint union of the wagons, labelled (wagon id, v)."""
    vs = tuple((w.id, v) for w in wagons for v in w.vertices)
    es = tuple(tuple((w.id, v) for v in e) for w in wagons for e in w.edges)
    return Hypergraph(vs, es, k=k, ordered=True)


@dataclass(frozen=True)
class Assimilation:
    """Result of :func:`wagon_assimilation`.

    ``pretrain`` is the extension, ``standard_copy`` the input sitting
    inside it, ``pattern`` the common shape of the output wagons (the
    ordered disjoint union of the input's wagons), and ``note`` flags
    the degenerate edgeless case.
    """

    pretrain: Pretrain
    standard_copy: Copy
    pattern: Hypergraph
    note: str | None = None


def wagon_assimilation(P: Pretrain) -> Assimilation:
    """Extend ``P`` so all wagons become copies of their disjoint union.

    Every wagon receives fresh disjoint copies of all the other wagons;
    the new vertices of a wagon sit directly before its first original
    vertex (the copies of earlier wagons) and directly after its last
    one (the copies of later wagons), so each grown wagon induces
    exactly the order of the union pattern while the input keeps its
    own order.  Fresh vertices are labelled
    ``("wagon", host id, slot id, pattern vertex)``.
    """
    H = P.hypergraph
    if not H.ordered:
        raise PreconditionViolation(
            "wagon assimilation is defined for ordered pretrains")
    wagons = P.wagons
    std = Copy(H.vertices, H.edges)
    pattern = _union_pattern(wagons, H.k)
    if not wagons:
        return Assimilation(P, std, pattern,
                            note="the pretrain has no wagons; unchanged")
    if len(wagons) == 1:
        return Assimilation(P, std, pattern)

    rank = H.vertex_rank
    pattern_rank = pattern.vertex_rank
    first = {w.id: min(rank[v] for v in w.vertices) for w in wagons}
    last = {w.id: max(rank[v] for v in w.vertices) for w in wagons}

    keyed: list[tuple[tuple, Vertex]] = [
        ((rank[v], 0, 0, 0), v) for v in H.vertices]
    label_of: dict[frozenset, int] = {
        frozenset(e): w for e, w in zip(H.edges, P.wagon_ids)}
    edges: list[tuple] = list(H.edges)
    for host in wagons:
        for slot in wagons:
            if slot.id == host.id:
                continue
            side = -1 if slot.id < host.id else 1
            anchor = first[host.id] if side < 0 else last[host.id]
            for v in slot.vertices:
                keyed.append(((anchor, side, host.id,
                               pattern_rank[(slot.id, v)]),
                              ("wagon", host.id, slot.id, v)))
            for e in slot.edges:
                fe = tuple(("wagon", host.id, slot.id, v) for v in e)
                edges.append(fe)
                label_of[frozenset(fe)] = host.id

    keyed.sort(key=lambda p: p[0])
    grown = Hypergraph(tuple(v for _, v in keyed), tuple(edges),
                       k=H.k, ordered=True)
    return Assimilation(Pretrain.from_labels(grown, label_of), std, pattern)


def semidirect_extend(P: Pretrain, X: Hypergraph,
                      W: Hypergraph) -> Pretrain:
    """Grow every wagon of ``P`` into a copy of ``X`` around its ``W``.

    ``(X, W)`` must be an ordered hypergraph pair without isolated
    vertices and every wagon of ``P`` order-isomorphic to ``W``; each
    wagon is then completed to a copy of ``X`` by fresh vertices so that
    the grown wagon and the original form a pair isomorphic to
    ``(X, W)``.  New vertices of one wagon sit inside the gap of the
    wagon's order that the pattern dictates; across wagons they are
    ordered by (wagon id, pattern position).
    """
    problems = ordered_pair_problems(X, W)
    if problems:
        raise InvalidArgument("; ".join(problems))
    if X.isolated_vertices() or W.isolated_vertices():
        raise InvalidArgument(
            "the pattern pair must not have isolated vertices")
    H = P.hypergraph
    if not H.ordered:
        raise PreconditionViolation(
            "the semidirect extension is defined for ordered pretrains")
    aligned: dict[int, dict] = {}
    for w in P.wagons:
        m = _order_aligned(W, w.as_hypergraph())
        if m is None:
            raise InvalidArgument(
                f"wagon {w.id} is not order-isomorphic to the pattern "
                f"subhypergraph")
        aligned[w.id] = m

    rank = H.vertex_rank
    wset = W.vertex_set
    # the gap of each new pattern vertex: the nearest pattern vertex of W
    # preceding it in the order of X (None when there is none)
    gap_anchor: dict[Vertex, Vertex | None] = {}
    seen: Vertex | None = None
    for x in X.vertices:
        if x in wset:
            seen = x
        else:
            gap_anchor[x] = seen

    keyed: list[tuple[tuple, Vertex]] = [
        ((rank[v], 0, 0, 0), v) for v in H.vertices]
    label_of: dict[frozenset, Any] = {
        frozenset(e): w for e, w in zip(H.edges, P.wagon_ids)}
    edges: list[tuple] = list(H.edges)
    x_rank = X.vertex_rank
    for w in P.wagons:
        img = dict(aligned[w.id])
        for x in X.vertices:
            if x in wset:
                continue
            anchor = gap_anchor[x]
            a = rank[img[anchor]] if anchor is not None else -1
            img[x] = ("ext", w.id, x)
            keyed.append(((a, 1, w.id, x_rank[x]), img[x]))
        for e in X.edges:
            fe = tuple(img[x] for x in e)
            edges.append(fe)
            label_of[frozenset(fe)] = w.id

    keyed.sort(key=lambda p: p[0])
    k = H.k
    if P.wagons and k is not None and any(len(e) != k for e in X.edges):
        k = None   # the pattern brings edges of other sizes
    grown = Hypergraph(tuple(v for _, v in keyed), tuple(edges),
                       k=k, ordered=True)
    return Pretrain.from_labels(grown, label_of)


# ---------------------------------------------------------------------------
# living carriers and derived structure


def _covering_edge(N: Hypergraph, e: Edge) -> frozenset | None:
    for i in N.incident_edges.get(e[0], ()):
        if N.edge_sets[i] >= frozenset(e):
            return N.edge_sets[i]
    return None


def _check_living(N: Hypergraph, H: Hypergraph) -> None:
    require_valid(H)
    if N.vertex_set != H.vertex_set:
        raise PreconditionViolation(
            "a living hypergraph shares the vertex set of its carrier")
    if not is_linear(N):
        raise PreconditionViolation("the carrier must be linear")
    for e in H.edges:
        if _covering_edge(N, e) is None:
            raise PreconditionViolation(
                f"living clause (i) fails: edge {e!r} is covered by no "
                f"carrier edge")
    fam = H.edge_sets
    for f in N.edge_sets:
        inside = [x for x in f if any(x in e and e <= f for e in fam)]
        if len(inside) != len(f):
            x = sorted(set(f) - set(inside), key=vkey)[0]
            raise PreconditionViolation(
                f"living clause (ii) fails: vertex {x!r} is isolated in "
                f"the subhypergraph induced by a carrier edge")


def derive(source: "Pretrain | PretrainCopySystem",
           H: Hypergraph) -> "Pretrain | PretrainCopySystem":
    """Pull the wagon structure of the carrier down to ``H``.

    ``H`` must be living in the carrier hypergraph: every edge of ``H``
    is covered by a (then unique) carrier edge and every carrier edge
    induces a subhypergraph of ``H`` without isolated vertices.  Edges
    of ``H`` are equivalent when their covering edges are; each derived
    wagon records the carrier wagon it comes from in ``provenance``.
    For a system, every copy M derives the copy with the same vertices
    and all edges of ``H`` inside edges of M.
    """
    base = source.base if isinstance(source, PretrainCopySystem) else source
    N = base.hypergraph
    _check_living(N, H)
    labels = tuple(base.wagon_of(_covering_edge(N, e)) for e in H.edges)
    seen: list[int] = []
    for lab in labels:
        if lab not in seen:
            seen.append(lab)
    derived = Pretrain(H, labels, provenance=tuple(seen))
    if not isinstance(source, PretrainCopySystem):
        return derived
    cover = {e: frozenset(_covering_edge(N, e)) for e in H.edges}
    copies = tuple(
        Copy(M.vertices, tuple(e for e in H.edges
                               if cover[e] in M.edge_family))
        for M in source.copies)
    return PretrainCopySystem(derived, copies, extended=source.extended)


# ---------------------------------------------------------------------------
# systems of pretrain copies


@dataclass(frozen=True)
class PretrainCopySystem(_Members):
    """A base pretrain with subpretrain copies.

    Copies are plain vertex/edge sets; their wagon structure is the
    restriction of the base relation, which determines it completely.
    When ``extended`` is set (the default) the edge copies of the host
    take part in big cycles alongside the listed copies.
    """

    base: Pretrain
    copies: tuple[Copy, ...]
    extended: bool = True

    @property
    def host(self) -> Hypergraph:
        return self.base.hypergraph

    @cached_property
    def _wagons_meeting(self) -> Mapping[Copy, frozenset]:
        return {c: frozenset(self.base.wagon_of(e) for e in c.edges)
                for c in self.members}


def validate_pretrain_system(system: PretrainCopySystem) -> list[str]:
    """Structural problems of a system of pretrain copies."""
    from .core import validate
    return validate(system.host) + _copy_problems(system.host, system.copies)


# ---------------------------------------------------------------------------
# big cycles


def wagon_connector(wid: int) -> Connector:
    return Connector("wagon", wid)


@dataclass(frozen=True)
class BigCycle(CycleOfCopies):
    """A cyclic sequence of copies joined by vertices or wagons.

    Same canonical presentation, length, order and h as cycles of
    copies; the connectors are vertices or wagon ids of the base
    pretrain, never edges.
    """

    def __post_init__(self):
        super().__post_init__()
        for _, q in self.steps:
            if q.is_edge:
                raise InvalidArgument(
                    "big cycles connect copies through vertices and "
                    "wagons, not edges")

    @cached_property
    def wagon_connector_positions(self) -> tuple[int, ...]:
        return tuple(i for i, q in enumerate(self.connectors) if q.is_wagon)


def check_big_cycle(system: PretrainCopySystem,
                    cycle: BigCycle) -> list[str]:
    """Violations of the big-cycle conditions, empty when valid.

    Dangling references -- copies outside the host, unknown wagon ids,
    foreign vertices -- are errors rather than violations and raise.
    """
    base = system.base
    H = base.hypergraph
    for c in cycle.copies:
        if not (c.vertex_set <= H.vertex_set
                and c.edge_family <= H.edge_family):
            raise InvalidArgument(
                f"copy on {c.vertices!r} does not lie in the host")
    for q in cycle.connectors:
        if q.is_vertex and q.value not in H.vertex_set:
            raise InvalidArgument(
                f"vertex connector {q.value!r} is not a host vertex")
        if q.is_wagon and not 0 <= q.value < base.num_wagons:
            raise InvalidArgument(f"unknown wagon id {q.value}")
    problems: list[str] = []
    n = cycle.length
    for c in cycle.copies:
        if not system.is_member(c):
            problems.append(
                f"(B1) copy on {c.vertices!r} is not in the family")
    for i in range(n):
        if cycle.copies[i] == cycle.copies[(i + 1) % n]:
            problems.append(
                f"(B1) consecutive copies at positions {i} and "
                f"{(i + 1) % n} coincide")
    if len(set(cycle.connectors)) != n:
        problems.append("(B2) connectors are not distinct")
    for i in range(n):
        q = cycle.connectors[i]
        a, b = cycle.copies[i], cycle.copies[(i + 1) % n]
        if q.is_vertex:
            if not (q.value in a.vertex_set and q.value in b.vertex_set):
                problems.append(
                    f"(B3) vertex connector {q.value!r} at position {i} "
                    f"does not lie in both neighbouring copies")
        else:
            fam = base.wagon(q.value).edge_family
            if not (fam & a.edge_family and fam & b.edge_family):
                problems.append(
                    f"(B4) wagon connector {q.value} at position {i} "
                    f"shares no edge with both neighbouring copies")
    return problems


def _acceptability_problems(system: PretrainCopySystem,
                            cycle: BigCycle) -> list[str]:
    base = system.base
    n = cycle.length
    problems: list[str] = []
    if cycle.order == 1 and not any(system.is_real(c)
                                    for c in cycle.copies):
        problems.append("(A1) the cycle has order one and no real copy")
    for i in cycle.wagon_connector_positions:
        w = base.wagon(cycle.connectors[i].value)
        hit = set(cycle.meeting_positions(w.vertex_set))
        flanks = {(i - 1) % n, (i + 1) % n}
        if not hit <= flanks:
            problems.append(
                f"(A2) a vertex connector away from position {i} lies in "
                f"the wagon connector there")
        elif len(hit) == 2:
            pair = {cycle.connectors[(i - 1) % n].value,
                    cycle.connectors[(i + 1) % n].value}
            if any(pair <= f for f in base.hypergraph.edge_sets):
                problems.append(
                    f"(A2) a host edge covers both vertex connectors "
                    f"flanking the wagon connector at position {i}")
    present = {cycle.connectors[i].value
               for i in cycle.wagon_connector_positions}
    for w in base.wagons:
        if w.id in present:
            continue
        hit = cycle.meeting_positions(w.vertex_set)
        if not _adjacent_coverable(hit, n):
            problems.append(
                f"(A3) wagon {w.id} is absent from the cycle but meets "
                f"vertex connectors at non-adjacent positions")
    return problems


@dataclass(frozen=True)
class BigCycleClass:
    """Outcome of :func:`classify_big_cycle`.

    ``status`` is ``"invalid"``, ``"unacceptable"`` or ``"acceptable"``;
    ``reasons`` names the violated clauses for the first two.
    """

    status: str
    reasons: tuple[str, ...] = ()


def classify_big_cycle(system: PretrainCopySystem,
                       cycle: BigCycle) -> BigCycleClass:
    problems = check_big_cycle(system, cycle)
    if problems:
        return BigCycleClass("invalid", tuple(problems))
    problems = _acceptability_problems(system, cycle)
    if problems:
        return BigCycleClass("unacceptable", tuple(problems))
    return BigCycleClass("acceptable")


# ---------------------------------------------------------------------------
# pieces and supreme copies


@dataclass(frozen=True)
class Piece:
    """A collapse target: one edge, or two edges bridged by their wagon.

    Short pieces stand for a single edge copy; a long piece
    ``f1 - wagon - f2`` stands for two edge copies joined by the wagon
    containing both edges.  The order of the edges is the order of
    attachment and is significant.
    """

    edges: tuple[Edge, ...]
    wagon: int | None = None

    def __post_init__(self):
        es = tuple(canonical_edge(e) for e in self.edges)
        object.__setattr__(self, "edges", es)
        if len(es) == 1:
            if self.wagon is not None:
                raise InvalidArgument("a short piece has no wagon")
        elif len(es) == 2:
            if es[0] == es[1]:
                raise InvalidArgument(
                    "the edges of a long piece must differ")
            if not isinstance(self.wagon, int):
                raise InvalidArgument("a long piece names its wagon")
        else:
            raise InvalidArgument("a piece has one or two edges")

    @property
    def is_short(self) -> bool:
        return len(self.edges) == 1

    @property
    def is_long(self) -> bool:
        return len(self.edges) == 2

    @cached_property
    def key(self) -> tuple:
        if self.is_short:
            return (0, ekey(self.edges[0]))
        return (1, ekey(self.edges[0]), self.wagon, ekey(self.edges[1]))


def short_piece(f: Iterable[Vertex]) -> Piece:
    return Piece((tuple(f),))


def long_piece(f1: Iterable[Vertex], wagon: int,
               f2: Iterable[Vertex]) -> Piece:
    return Piece((tuple(f1), tuple(f2)), wagon)


@dataclass(frozen=True, eq=False)
class SupremeWitness:
    """A supreme copy with its piece family and the collapsed cycle."""

    copy: Copy
    pieces: Mapping[int, Piece]
    replacement: BigCycle


def _flank_fits(base: Pretrain, q: Connector, f: Edge) -> bool:
    if q.is_vertex:
        return q.value in f
    return base.wagon_of(f) == q.value


def _piece_options(system: PretrainCopySystem, cycle: BigCycle,
                   star: Copy, i: int) -> list[tuple]:
    """The pieces of ``star`` that may replace the copy at position i,
    in canonical piece order, as options of the collapse backtracker."""
    base = system.base
    n = cycle.length
    left = cycle.connectors[(i - 1) % n]
    right = cycle.connectors[i]
    out = [short_piece(f) for f in star.edges
           if _flank_fits(base, left, f) and _flank_fits(base, right, f)]
    if left.is_vertex and right.is_vertex:
        pair = {left.value, right.value}
        # a long piece is admissible only where no host edge covers both
        # flanking vertices
        if not any(pair <= f for f in base.hypergraph.edge_sets):
            for f1 in star.edges:
                if left.value not in f1:
                    continue
                w = base.wagon_of(f1)
                for f2 in star.edges:
                    if (f2 != f1 and right.value in f2
                            and base.wagon_of(f2) == w):
                        out.append(long_piece(f1, w, f2))
    return [(p, tuple(map(Copy.of_edge, p.edges)),
             (wagon_connector(p.wagon),) if p.is_long else ())
            for p in sorted(out, key=lambda p: p.key)]


def _piece_family(system: PretrainCopySystem, cycle: BigCycle,
                  star: Copy) -> SupremeWitness | None:
    """Least family of pieces collapsing all non-star copies, or None."""
    got = _least_collapse(cycle, star,
                          lambda i: _piece_options(system, cycle, star, i),
                          BigCycle, lambda c: check_big_cycle(system, c))
    return None if got is None else SupremeWitness(star, *got)


def supreme_copies(system: PretrainCopySystem,
                   cycle: BigCycle) -> tuple[SupremeWitness, ...]:
    """All supreme copies of the cycle, each with its least piece family.

    A real copy occurring in the cycle is supreme when every occurrence
    of a different copy can be collapsed to one of its pieces so that
    the result is again a big cycle; long pieces are admitted only
    between two vertex connectors not covered by a common host edge.
    """
    out = []
    candidates = sorted({c for c in cycle.copies if system.is_real(c)},
                        key=lambda c: c.key)
    for star in candidates:
        got = _piece_family(system, cycle, star)
        if got is not None:
            out.append(got)
    return tuple(out)


def has_supreme(system: PretrainCopySystem, cycle: BigCycle) -> bool:
    return bool(supreme_copies(system, cycle))


def find_supreme_copy(system: PretrainCopySystem,
                      cycle: BigCycle) -> SupremeWitness | None:
    """First supreme copy in canonical order, or None.

    The cycle must be acceptable; candidates are real copies occurring
    in it, tried in canonical copy order with pieces in canonical piece
    order, so the result is deterministic.
    """
    got = classify_big_cycle(system, cycle)
    if got.status != "acceptable":
        raise PreconditionViolation(
            "supreme copies are sought in acceptable cycles only; "
            "this one is " + got.status)
    found = supreme_copies(system, cycle)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# scattered systems


def is_scattered(outer: PretrainCopySystem,
                 inner: "Iterable[Copy] | PretrainCopySystem") -> bool:
    """Each outer copy splits into tame extensions of its inner copies.

    Every inner copy must lie in exactly one outer copy.  An outer copy
    decomposes into parts that are closed under connectivity and under
    wagons (a wagon may glue several components into one part); the
    decomposition is scattered when every part touches exactly one
    inner copy and is a tame extension of it.
    """
    base = outer.base
    if isinstance(inner, PretrainCopySystem):
        if inner.base != base:
            raise InvalidArgument(
                "inner and outer systems must share their base pretrain")
        inner_copies: tuple[Copy, ...] = inner.copies
    else:
        inner_copies = tuple(sorted(set(inner), key=lambda c: c.key))
    assigned: dict[Copy, list[Copy]] = {G: [] for G in outer.copies}
    for F in inner_copies:
        hosts = [G for G in outer.copies
                 if F.vertex_set <= G.vertex_set
                 and F.edge_family <= G.edge_family]
        if len(hosts) != 1:
            raise InvalidArgument(
                f"inner copy on {F.vertices!r} lies in {len(hosts)} outer "
                f"copies instead of exactly one")
        assigned[hosts[0]].append(F)

    for G, members in assigned.items():
        gsub = subpretrain(base, G.vertices, G.edges)
        root: dict[Vertex, Vertex] = {v: v for v in G.vertices}

        def find(v: Vertex) -> Vertex:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for block in itertools.chain(
                G.edges, (w.vertices for w in gsub.wagons)):
            vs = tuple(block)
            for u in vs[1:]:
                ru, r0 = find(u), find(vs[0])
                if ru != r0:
                    root[ru] = r0
        touch: dict[Vertex, set[int]] = {}
        for idx, F in enumerate(members):
            for v in F.vertices:
                touch.setdefault(find(v), set()).add(idx)
        comps = {find(v) for v in G.vertices}
        if any(len(touch.get(r, ())) != 1 for r in comps):
            return False
        for idx, F in enumerate(members):
            block = {v for v in G.vertices if idx in touch[find(v)]}
            block_edges = tuple(e for e in G.edges if block.issuperset(e))
            ext = subpretrain(base, block, block_edges)
            if not is_tame_extension(
                    subpretrain(base, F.vertices, F.edges), ext):
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration and the girth of a system of pretrains


def enumerate_big_cycles(system: PretrainCopySystem, g: int,
                         max_length: int | None = None,
                         notion: str = "acceptable",
                         ) -> tuple[BigCycle, ...]:
    """All big cycles of order at most ``g`` satisfying the notion.

    ``notion`` is ``"acceptable"`` or ``"valid"``.  The length is capped
    at ``2 * g`` unless ``max_length`` overrides it; results are
    deduplicated up to rotation and reflection and sorted by h, then
    lexicographically.
    """
    if notion not in ("acceptable", "valid"):
        raise InvalidArgument(f"unknown big-cycle notion {notion!r}")
    if g < 0:
        raise InvalidArgument(f"girth bound must be nonnegative, got {g}")
    max_len = 2 * g if max_length is None else max_length
    if g < 1 or max_len < 2:
        return ()
    meeting = system._wagons_meeting
    return _closing_walks(
        system.members,
        lambda a, b: [wagon_connector(w)
                      for w in sorted(meeting[a] & meeting[b])],
        BigCycle,
        lambda cyc: cyc.order <= g and (
            notion == "valid" or not _acceptability_problems(system, cyc)),
        max_len)


@dataclass(frozen=True)
class FrakGirthFailure:
    """Why the girth of a system of pretrains fails to exceed a bound.

    Exactly one of ``cycle`` (an acceptable big cycle without a supreme
    copy) and ``wagon_cycle`` (a short wagon cycle of a non-linear base)
    accompanies the reason, except when non-linearity lies in the
    underlying hypergraph itself.
    """

    reason: str
    cycle: BigCycle | None = None
    wagon_cycle: tuple | None = None


def frak_Girth_witness(system: PretrainCopySystem,
                       g: int) -> FrakGirthFailure | None:
    """The first failure of the girth bound, or None when it is exceeded.

    Linearity of the base pretrain is part of the predicate, so a
    non-linear base fails immediately; otherwise all acceptable big
    cycles of order at most ``g`` (length at most ``2g``) must have a
    supreme copy.  A copy that does not lie in the host raises
    ``InvalidArgument``.
    """
    _require_copies_in_host(system)
    if g < 0:
        raise InvalidArgument(f"girth bound must be nonnegative, got {g}")
    base = system.base
    if not is_linear(base.hypergraph):
        return FrakGirthFailure("the underlying hypergraph is not linear")
    if not is_linear_pretrain(base):
        return FrakGirthFailure(
            "two wagons share more than one vertex",
            wagon_cycle=frak_girth_pretrain_witness(base, 2))
    for cyc in enumerate_big_cycles(system, g, notion="acceptable"):
        if not has_supreme(system, cyc):
            return FrakGirthFailure(
                "an acceptable big cycle has no supreme copy", cycle=cyc)
    return None


def frak_Girth_exceeds(system: PretrainCopySystem, g: int) -> bool:
    """Every acceptable big cycle of order at most ``g`` has a supreme
    copy, over a linear base pretrain."""
    return frak_Girth_witness(system, g) is None
