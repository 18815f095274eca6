"""Hypergraphs and the basic structural predicates.

This module is the data layer of the package.  It provides immutable
hypergraph values, whose edges may have any sizes, partite structure,
embeddings, girth computation by exhaustive cycle search, strong
inducedness, and the brute-force copy enumerator that the construction
layer builds on.

Conventions
-----------
Vertices are arbitrary hashable values; the package only ever compares
them by a canonical sort key (:func:`vkey`), so mixed vertex types are
fine.  Edges are stored as tuples sorted by that key, and the edge list
itself is sorted, so two hypergraphs with the same vertex sequence and
the same edge sets are equal as values.

A *cycle* in a hypergraph is an alternating sequence

    e_1 v_1 e_2 v_2 ... e_n v_n        (n >= 2)

of edges and vertices such that the edges are distinct, the vertices are
distinct, and v_i lies in the intersection of e_i and e_{i+1}, indices
cyclic.  The girth of H exceeds g when H contains no n-cycle for any
n between 2 and g.  Girth above 2 is exactly linearity: no two edges
share more than one vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InvalidArgument, PreconditionViolation

Vertex = Any
Edge = tuple  # canonically sorted tuple of vertices


# ---------------------------------------------------------------------------
# canonical ordering of arbitrary vertex values


def vkey(v: Vertex):
    """Total order key for vertices of mixed type.

    Integers sort first, then strings, then tuples (recursively by their
    members' keys); anything else falls back to its type name and repr.
    The key is what every canonical ordering in the package uses, so
    determinism of all outputs reduces to determinism of this function.
    """
    if isinstance(v, bool):
        # bool is a subclass of int; pin it down so True/1 don't collide
        return (0, int(v), 1)
    if isinstance(v, int):
        return (0, v, 0)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(vkey(u) for u in v))
    return (3, type(v).__name__, repr(v))


def ekey(edge: Iterable[Vertex]):
    """Sort key for an edge given as an iterable of vertices."""
    return tuple(vkey(v) for v in edge)


def canonical_edge(edge: Iterable[Vertex]) -> Edge:
    """The canonical (sorted, duplicate-checked) tuple form of an edge."""
    vs = sorted(edge, key=vkey)
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise InvalidArgument(f"edge {vs!r} repeats the vertex {a!r}")
    return tuple(vs)


def sort_vertices(vs: Iterable[Vertex]) -> tuple:
    return tuple(sorted(vs, key=vkey))


# ---------------------------------------------------------------------------
# partite structure


@dataclass(frozen=True)
class PartiteStructure:
    """A vertex partition indexed by an arbitrary finite index set.

    ``indices`` lists the index set in canonical order, ``classes[i]``
    is the vertex class of ``indices[i]`` (a tuple; its internal order is
    the restriction of the host's vertex order when the host is ordered),
    and ``sizes[i]`` is the number of vertices each edge must meet in
    that class.  A k-partite k-uniform structure has all sizes equal
    to one.
    """

    indices: tuple
    classes: tuple[tuple, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.indices) == len(self.classes) == len(self.sizes)):
            raise InvalidArgument("indices, classes and sizes must align")
        if len(set(self.indices)) != len(self.indices):
            raise InvalidArgument("partite index set has duplicates")

    @cached_property
    def index_of(self) -> Mapping[Vertex, Any]:
        """Vertex -> index lookup across all classes."""
        out: dict[Vertex, Any] = {}
        for idx, cls in zip(self.indices, self.classes):
            for v in cls:
                if v in out:
                    raise InvalidArgument(
                        f"vertex {v!r} occurs in two partite classes")
                out[v] = idx
        return out

    @cached_property
    def class_by_index(self) -> Mapping[Any, tuple]:
        return dict(zip(self.indices, self.classes))

    @cached_property
    def size_by_index(self) -> Mapping[Any, int]:
        return dict(zip(self.indices, self.sizes))

    def vertex_class(self, index) -> tuple:
        try:
            return self.class_by_index[index]
        except KeyError:
            raise InvalidArgument(f"unknown partite index {index!r}") from None

    def union_of(self, A: Iterable) -> frozenset:
        """The union of the classes indexed by ``A``."""
        out: set = set()
        for i in A:
            out.update(self.vertex_class(i))
        return frozenset(out)

    @property
    def uniform_unit(self) -> bool:
        """True when every edge meets every class exactly once."""
        return all(s == 1 for s in self.sizes)


def make_partition(classes: Mapping[Any, Iterable[Vertex]],
                   sizes: Mapping[Any, int] | None = None) -> PartiteStructure:
    """Build a :class:`PartiteStructure` from an index -> class mapping.

    When ``sizes`` is omitted every class gets size one (the k-partite
    k-uniform case).
    """
    idx = tuple(sorted(classes, key=vkey))
    cls = tuple(tuple(classes[i]) for i in idx)
    if sizes is None:
        sz = tuple(1 for _ in idx)
    else:
        sz = tuple(int(sizes[i]) for i in idx)
    return PartiteStructure(idx, cls, sz)


# ---------------------------------------------------------------------------
# hypergraphs


@dataclass(frozen=True)
class Hypergraph:
    """An immutable hypergraph with optional extras.

    Edges may have any sizes of at least two, so one type carries both
    uniform hypergraphs and families of vertex sets such as the vertex
    sets of wagons.

    ``vertices`` is a tuple; when ``ordered`` is true its order *is* the
    linear order of the hypergraph and is significant for equality.
    ``edges`` is normalised at construction: each edge becomes a sorted
    tuple, the edge list is sorted and de-duplicated.  ``k`` may be given
    explicitly (required to pin down uniformity when there are no edges)
    and is otherwise inferred when all edges share one size; mixed
    sizes leave it unset.  ``partite`` attaches
    a :class:`PartiteStructure` when the hypergraph carries one.
    """

    vertices: tuple
    edges: tuple[Edge, ...]
    k: int | None = None
    ordered: bool = False
    partite: PartiteStructure | None = None

    def __post_init__(self):
        vs = tuple(self.vertices)
        if len(set(vs)) != len(vs):
            raise InvalidArgument("vertex list contains duplicates")
        es = sorted({canonical_edge(e) for e in self.edges}, key=ekey)
        k = self.k
        if k is None and es:
            sizes = {len(e) for e in es}
            if len(sizes) == 1:
                k = sizes.pop()
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(es))
        object.__setattr__(self, "k", k)

    # -- cached views ------------------------------------------------------

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
    def incident_edges(self) -> Mapping[Vertex, tuple[int, ...]]:
        """Vertex -> indices into ``edges`` of the edges through it."""
        out: dict[Vertex, list[int]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            for v in e:
                out[v].append(i)
        return {v: tuple(ix) for v, ix in out.items()}

    @cached_property
    def vertex_rank(self) -> Mapping[Vertex, int]:
        """Position of each vertex in the vertex tuple (the linear order)."""
        return {v: i for i, v in enumerate(self.vertices)}

    def degree(self, v: Vertex) -> int:
        return len(self.incident_edges[v])

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, e: Iterable[Vertex]) -> bool:
        return frozenset(e) in self.edge_family

    def isolated_vertices(self) -> tuple:
        return tuple(v for v in self.vertices if not self.incident_edges[v])

    # -- derived hypergraphs ----------------------------------------------

    def induced(self, X: Iterable[Vertex]) -> "Hypergraph":
        """The subhypergraph induced on the vertex set ``X``.

        Keeps the edges entirely inside ``X``; vertex order, orderedness
        and (restricted) partite structure are inherited.
        """
        Xs = frozenset(X)
        missing = Xs - self.vertex_set
        if missing:
            raise InvalidArgument(
                f"induced set contains foreign vertices {sorted(missing, key=vkey)!r}")
        vs = tuple(v for v in self.vertices if v in Xs)
        es = tuple(e for e in self.edges if Xs.issuperset(e))
        part = None
        if self.partite is not None:
            part = PartiteStructure(
                self.partite.indices,
                tuple(tuple(v for v in cls if v in Xs)
                      for cls in self.partite.classes),
                self.partite.sizes)
        return Hypergraph(vs, es, k=self.k, ordered=self.ordered, partite=part)

    def restrict_edges(self, edges: Iterable[Iterable[Vertex]]) -> "Hypergraph":
        """Same vertices, only the given edges (which must be present)."""
        fam = {canonical_edge(e) for e in edges}
        for e in fam:
            if frozenset(e) not in self.edge_family:
                raise InvalidArgument(f"{e!r} is not an edge of the hypergraph")
        return Hypergraph(self.vertices, tuple(fam), k=self.k,
                          ordered=self.ordered, partite=self.partite)

    def relabel(self, mapping: Mapping[Vertex, Vertex]) -> "Hypergraph":
        """Apply an injective vertex relabelling."""
        img = [mapping.get(v, v) for v in self.vertices]
        if len(set(img)) != len(img):
            raise InvalidArgument("relabelling is not injective")
        part = None
        if self.partite is not None:
            part = PartiteStructure(
                self.partite.indices,
                tuple(tuple(mapping.get(v, v) for v in cls)
                      for cls in self.partite.classes),
                self.partite.sizes)
        return Hypergraph(
            tuple(img),
            tuple(tuple(mapping.get(v, v) for v in e) for e in self.edges),
            k=self.k, ordered=self.ordered, partite=part)

    def is_subhypergraph_of(self, other: "Hypergraph") -> bool:
        return (self.vertex_set <= other.vertex_set
                and self.edge_family <= other.edge_family)


# ---------------------------------------------------------------------------
# validation


def validate(obj) -> list[str]:
    """Collect structural problems with ``obj``; an empty list means valid.

    Understands hypergraphs (uniformity, edge containment, partite
    consistency).  Embeddings and higher-level objects have their own
    validators next to their types.
    """
    problems: list[str] = []
    if isinstance(obj, Hypergraph):
        vset = obj.vertex_set
        for e in obj.edges:
            if not vset.issuperset(e):
                problems.append(f"edge {e!r} leaves the vertex set")
            if obj.k is not None and len(e) != obj.k:
                problems.append(
                    f"edge {e!r} has {len(e)} vertices, expected {obj.k}")
            if len(e) < 2:
                problems.append(f"edge {e!r} has fewer than two vertices")
        if obj.partite is not None:
            problems.extend(_validate_partition(obj))
        return problems
    raise InvalidArgument(f"cannot validate a {type(obj).__name__}")


def _validate_partition(H: Hypergraph) -> list[str]:
    problems: list[str] = []
    part = H.partite
    try:
        index_of = part.index_of
    except InvalidArgument as exc:
        return [str(exc)]
    covered = set(index_of)
    if covered != H.vertex_set:
        extra = covered - H.vertex_set
        missing = H.vertex_set - covered
        if extra:
            problems.append(
                f"partite classes mention foreign vertices "
                f"{sort_vertices(extra)!r}")
        if missing:
            problems.append(
                f"vertices {sort_vertices(missing)!r} lie in no partite class")
        return problems
    want = part.size_by_index
    for e in H.edges:
        counts: dict[Any, int] = {i: 0 for i in part.indices}
        for v in e:
            counts[index_of[v]] += 1
        for i in part.indices:
            if counts[i] != want[i]:
                problems.append(
                    f"edge {e!r} meets class {i!r} in {counts[i]} vertices, "
                    f"expected {want[i]}")
    return problems


def require_valid(obj) -> None:
    problems = validate(obj)
    if problems:
        raise InvalidArgument("; ".join(problems))


# ---------------------------------------------------------------------------
# cycles and girth


def _canonical_cyclic(pairs: Sequence[tuple], key: Callable) -> tuple:
    """Lex-least representative of a cyclic alternating sequence.

    ``pairs`` lists (station, connector) steps of a cyclic walk; the
    representative is chosen among all rotations of the sequence and of
    its reversal.  Reversal of e_1 v_1 ... e_n v_n traverses the same
    cycle as e_n v_{n-1} e_{n-1} v_{n-2} ... e_2 v_1 e_1 v_n.
    """
    n = len(pairs)
    stations = [p[0] for p in pairs]
    connectors = [p[1] for p in pairs]
    reversed_pairs = [
        (stations[(n - j) % n], connectors[(n - j - 1) % n]) for j in range(n)
    ]
    candidates = []
    for seq in (list(pairs), reversed_pairs):
        for r in range(n):
            rotated = tuple(seq[(r + j) % n] for j in range(n))
            candidates.append(rotated)
    return min(candidates, key=lambda c: tuple(key(p) for p in c))


def canonical_cycle(pairs: Sequence[tuple[Edge, Vertex]]) -> tuple:
    """Canonical form of an edge/vertex alternating cycle."""
    normalised = [(canonical_edge(e), v) for e, v in pairs]
    return _canonical_cyclic(normalised, lambda p: (ekey(p[0]), vkey(p[1])))


def check_cycle(obj: Hypergraph,
                pairs: Sequence[tuple[Iterable[Vertex], Vertex]]) -> list[str]:
    """Report violations of the cycle conditions for an alleged cycle."""
    problems: list[str] = []
    n = len(pairs)
    if n < 2:
        problems.append(f"a cycle has length at least 2, got {n}")
        return problems
    edges = [frozenset(e) for e, _ in pairs]
    verts = [v for _, v in pairs]
    fam = obj.edge_family
    for e in edges:
        if e not in fam:
            problems.append(f"{sort_vertices(e)!r} is not an edge")
    if len(set(edges)) != n:
        problems.append("edges of the cycle are not distinct")
    if len(set(verts)) != n:
        problems.append("vertices of the cycle are not distinct")
    for i in range(n):
        if verts[i] not in edges[i] or verts[i] not in edges[(i + 1) % n]:
            problems.append(
                f"vertex {verts[i]!r} at position {i} does not join its "
                f"two neighbouring edges")
    return problems


def shortest_edge_cycle(obj: Hypergraph, bound: int) -> tuple | None:
    """Find a shortest cycle of length at most ``bound``, or ``None``.

    Cycles are searched in increasing length starting at 2, so the result
    is a shortest cycle of the hypergraph whenever one of length at most
    ``bound`` exists.  The returned witness is in canonical form (lex
    least over rotation and reflection); the search itself is a
    deterministic depth-first walk anchored at the canonically least
    edge of the cycle.
    """
    if bound < 2:
        raise InvalidArgument(f"cycle length bound must be at least 2, got {bound}")
    edge_sets = obj.edge_sets
    incident = obj.incident_edges
    for n in range(2, bound + 1):
        witness = _find_cycle_of_length(edge_sets, incident, n)
        if witness is not None:
            pairs = [(tuple(sorted(edge_sets[ei], key=vkey)), v)
                     for ei, v in witness]
            return canonical_cycle(pairs)
    return None


def _find_cycle_of_length(edge_sets: Sequence[frozenset],
                          incident: Mapping[Vertex, tuple[int, ...]],
                          n: int) -> list | None:
    """Depth-first search for an n-cycle; edges indexed, anchor minimal."""
    m = len(edge_sets)

    def extend(anchor: int, path_edges: list[int],
               path_verts: list[Vertex]) -> list | None:
        depth = len(path_edges)
        current = edge_sets[path_edges[-1]]
        if depth == n:
            # close the cycle: the last vertex joins edge n and edge 1
            closing = current & edge_sets[anchor]
            for v in sorted(closing, key=vkey):
                if v not in path_verts:
                    verts = path_verts + [v]
                    return [(path_edges[i], verts[i]) for i in range(n)]
            return None
        for v in sorted(current, key=vkey):
            if v in path_verts:
                continue
            for nxt in incident[v]:
                # the anchor is the least edge index of the cycle
                if nxt <= anchor or nxt in path_edges:
                    continue
                found = extend(anchor, path_edges + [nxt], path_verts + [v])
                if found is not None:
                    return found
        return None

    for anchor in range(m):
        found = extend(anchor, [anchor], [])
        if found is not None:
            return found
    return None


def girth_exceeds(obj: Hypergraph, g: int) -> bool:
    """True when the girth of ``obj`` exceeds ``g`` (no n-cycle, 2<=n<=g).

    ``g`` below 2 is vacuously true for well-formed input; negative
    bounds are rejected.
    """
    if g < 0:
        raise InvalidArgument(f"girth bound must be nonnegative, got {g}")
    if g < 2:
        return True
    return shortest_edge_cycle(obj, g) is None


def is_linear(obj: Hypergraph) -> bool:
    """No two distinct edges share more than one vertex."""
    edge_sets = obj.edge_sets
    # pairwise check through shared vertices; quadratic only in local degree
    incident: dict[Vertex, list[int]] = {}
    for i, e in enumerate(edge_sets):
        for v in e:
            for j in incident.get(v, ()):
                if len(e & edge_sets[j]) >= 2:
                    return False
            incident.setdefault(v, []).append(i)
    return True


# ---------------------------------------------------------------------------
# strong inducedness


def is_induced_subhypergraph(F: Hypergraph, H: Hypergraph) -> bool:
    """F is a subhypergraph of H whose edge set is all of H inside V(F)."""
    if not F.is_subhypergraph_of(H):
        return False
    vs = F.vertex_set
    for e in H.edge_sets:
        if e <= vs and e not in F.edge_family:
            return False
    return True


def is_strongly_induced(F: Hypergraph, H: Hypergraph) -> bool:
    """Every edge of H meets V(F) inside a single edge of F.

    The condition quantifies over all edges of the host: for each edge e
    of H there must be an edge f of F with  e ∩ V(F) ⊆ f.  It implies
    inducedness, and for edgeless F it forces H to have no edge meeting
    V(F) at all (except that an edgeless H always qualifies).
    """
    if not F.is_subhypergraph_of(H):
        raise InvalidArgument(
            "strong inducedness is a property of subhypergraphs; "
            "the first argument is not contained in the second")
    vs = F.vertex_set
    fedges = F.edge_sets
    for e in H.edge_sets:
        cut = e & vs
        # note the edgeless cases are covered by the quantifier itself:
        # an edgeless F fails against any host edge (no f exists), and
        # an edgeless H passes vacuously
        if not any(cut <= f for f in fedges):
            return False
    return True


# ---------------------------------------------------------------------------
# embeddings and copy enumeration


@dataclass(frozen=True)
class Embedding:
    """An injective vertex map carrying a pattern into a host.

    ``pairs`` lists (pattern vertex, host vertex) with pattern vertices
    in canonical order.
    """

    source: Hypergraph
    target: Hypergraph
    pairs: tuple[tuple[Vertex, Vertex], ...]

    @cached_property
    def mapping(self) -> Mapping[Vertex, Vertex]:
        return dict(self.pairs)

    def __call__(self, v: Vertex) -> Vertex:
        return self.mapping[v]

    @cached_property
    def image_vertices(self) -> frozenset:
        return frozenset(w for _, w in self.pairs)

    @cached_property
    def image_edges(self) -> frozenset:
        m = self.mapping
        return frozenset(frozenset(m[v] for v in e) for e in self.source.edges)

    @cached_property
    def image_key(self) -> tuple:
        """Hashable identity of the image subhypergraph."""
        return (tuple(sorted(self.image_vertices, key=vkey)),
                tuple(sorted((tuple(sorted(e, key=vkey)) for e in self.image_edges),
                             key=ekey)))

    def image_hypergraph(self) -> Hypergraph:
        vs, es = self.image_key
        return Hypergraph(vs, es, k=self.source.k)


_MODES = ("nni", "induced", "partite", "fpartite")


def enumerate_copies(H: Hypergraph, F: Hypergraph, mode: str = "induced",
                     *, induced: bool | None = None,
                     respect_order: bool = False,
                     distinct_images: bool = True,
                     limit: int | None = None) -> tuple[Embedding, ...]:
    """All copies of the pattern ``F`` inside the host ``H``.

    Modes
    -----
    ``nni``
        injective maps sending edges onto edges (not necessarily
        induced subhypergraphs),
    ``induced``
        additionally every host edge inside the image is the image of a
        pattern edge,
    ``partite``
        both hypergraphs carry unit partite structure over the same
        index set and the map preserves classes; not necessarily
        induced unless ``induced=True``,
    ``fpartite``
        class preserving for general partite structure (classwise sizes
        agree); not necessarily induced unless ``induced=True``.

    ``respect_order`` restricts to maps that are monotone with respect
    to the vertex orders of pattern and host.  ``distinct_images`` keeps
    one embedding per image subhypergraph (the canonical notion of a
    *copy*); turn it off to count embeddings instead.  Results come in a
    deterministic order.
    """
    if mode not in _MODES:
        raise InvalidArgument(f"unknown copy mode {mode!r}")
    want_induced = (mode == "induced") if induced is None else induced
    class_of_F: Mapping[Vertex, Any] | None = None
    class_of_H: Mapping[Vertex, Any] | None = None
    if mode in ("partite", "fpartite"):
        if F.partite is None or H.partite is None:
            raise PreconditionViolation(
                f"mode {mode!r} needs partite structure on both hypergraphs")
        if set(F.partite.indices) != set(H.partite.indices):
            raise PreconditionViolation(
                "pattern and host have different partite index sets")
        if mode == "partite" and not (F.partite.uniform_unit
                                      and H.partite.uniform_unit):
            raise PreconditionViolation(
                "mode 'partite' expects every edge to meet every class once")
        class_of_F = F.partite.index_of
        class_of_H = H.partite.index_of
    if respect_order and (len(F.vertices) > len(H.vertices)):
        return ()

    # order the pattern vertices: high degree first for pruning, isolated
    # vertices last; ties broken canonically for determinism
    pattern = sorted(
        F.vertices,
        key=lambda v: (-F.degree(v), vkey(v)))
    pos_in_pattern = {v: i for i, v in enumerate(pattern)}

    # pattern edges become checkable as soon as their last vertex is placed
    edge_ready: list[list[Edge]] = [[] for _ in pattern]
    for e in F.edges:
        last = max(pos_in_pattern[v] for v in e)
        edge_ready[last].append(e)

    H_fam = H.edge_family
    F_rank = F.vertex_rank
    H_rank = H.vertex_rank
    host_order = list(H.vertices) if respect_order else \
        sorted(H.vertices, key=vkey)

    out: list[Embedding] = []
    seen_images: set[tuple] = set()

    def admissible(fv: Vertex, hv: Vertex, assignment: dict) -> bool:
        if class_of_F is not None and class_of_F[fv] != class_of_H[hv]:
            return False
        if H.degree(hv) < F.degree(fv):
            return False
        if respect_order:
            r = H_rank[hv]
            for u, w in assignment.items():
                if (F_rank[u] < F_rank[fv]) != (H_rank[w] < r):
                    return False
        return True

    def place(i: int, assignment: dict, used: set) -> bool:
        """Returns True when the enumeration should stop (limit hit)."""
        if i == len(pattern):
            return emit(assignment)
        fv = pattern[i]
        for hv in host_order:
            if hv in used or not admissible(fv, hv, assignment):
                continue
            assignment[fv] = hv
            used.add(hv)
            ok = True
            for e in edge_ready[i]:
                if frozenset(assignment[v] for v in e) not in H_fam:
                    ok = False
                    break
            if ok and place(i + 1, assignment, used):
                return True
            del assignment[fv]
            used.remove(hv)
        return False

    def emit(assignment: dict) -> bool:
        emb = Embedding(
            source=F, target=H,
            pairs=tuple(sorted(assignment.items(), key=lambda p: vkey(p[0]))))
        if want_induced:
            img = emb.image_vertices
            img_edges = emb.image_edges
            for e in H.edge_sets:
                if e <= img and e not in img_edges:
                    return False
        if distinct_images:
            key = emb.image_key
            if key in seen_images:
                return False
            seen_images.add(key)
        out.append(emb)
        return limit is not None and len(out) >= limit

    place(0, {}, set())
    return tuple(out)


def find_isomorphism(F: Hypergraph, G: Hypergraph,
                     respect_order: bool = False) -> Embedding | None:
    """An isomorphism F -> G, or ``None``.  Isolated vertices count."""
    if (F.num_vertices != G.num_vertices or F.num_edges != G.num_edges):
        return None
    copies = enumerate_copies(G, F, mode="induced",
                              respect_order=respect_order,
                              distinct_images=False, limit=1)
    for emb in copies:
        if len(emb.image_vertices) == G.num_vertices \
                and emb.image_edges == set(G.edge_sets):
            return emb
    return None


def are_isomorphic(F: Hypergraph, G: Hypergraph) -> bool:
    return find_isomorphism(F, G) is not None


# ---------------------------------------------------------------------------
# partite predicates


def is_partite_subhypergraph(F: Hypergraph, H: Hypergraph) -> bool:
    """Subhypergraph with classwise vertex containment."""
    if F.partite is None or H.partite is None:
        raise PreconditionViolation("both hypergraphs need partite structure")
    if not F.is_subhypergraph_of(H):
        return False
    ioF, ioH = F.partite.index_of, H.partite.index_of
    return all(ioF[v] == ioH[v] for v in F.vertices)


def is_A_intersecting(F: Hypergraph, A: Iterable) -> bool:
    """Any two distinct edges intersect inside the classes indexed by A."""
    if F.partite is None:
        raise PreconditionViolation("A-intersecting needs partite structure")
    VA = F.partite.union_of(A)
    es = F.edge_sets
    for i, e in enumerate(es):
        for f in es[i + 1:]:
            if not (e & f) <= VA:
                return False
    return True


# ---------------------------------------------------------------------------
# small constructors used throughout the package


def complete_graph(n: int, labels: Sequence[Vertex] | None = None) -> Hypergraph:
    vs = tuple(labels) if labels is not None else tuple(range(n))
    if len(vs) != n:
        raise InvalidArgument("label count does not match n")
    return Hypergraph(vs, tuple(itertools.combinations(vs, 2)), k=2)


def complete_uniform(n: int, k: int) -> Hypergraph:
    vs = tuple(range(n))
    return Hypergraph(vs, tuple(itertools.combinations(vs, k)), k=k)


def complete_multipartite(f: Mapping[Any, int], m: int) -> Hypergraph:
    """Complete f-partite hypergraph with classes of size ``m``.

    Vertices are pairs (index, j); the edges are all sets meeting the
    class of index i in exactly f(i) vertices.
    """
    idx = sorted(f, key=vkey)
    classes = {i: tuple((i, j) for j in range(m)) for i in idx}
    for i in idx:
        if f[i] < 0:
            raise InvalidArgument("class sizes must be nonnegative")
        if f[i] > m:
            raise InvalidArgument(
                f"cannot pick {f[i]} vertices from a class of size {m}")
    per_class = [list(itertools.combinations(classes[i], f[i])) for i in idx]
    edges = [tuple(itertools.chain.from_iterable(choice))
             for choice in itertools.product(*per_class)]
    vs = tuple(itertools.chain.from_iterable(classes[i] for i in idx))
    k = sum(f.values())
    return Hypergraph(vs, edges, k=k,
                      partite=make_partition(classes, f))
