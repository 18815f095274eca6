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
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InvalidArgument, PreconditionViolation, _require_int

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

    An exact ``int`` v, the common case, is tested first.  Its key
    ``(0, v, 0)`` orders exactly as v does, which is why the sort
    helpers (:func:`sort_vertices`) may sort such vertices natively.
    """
    if type(v) is int:
        return (0, v, 0)
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


_INT = frozenset((int,))


def _ints_only(vs: Iterable[Vertex]) -> bool:
    """True when every vertex is exactly an ``int`` (no bool, no other
    subclass of int)."""
    return _INT.issuperset(map(type, vs))


def sort_vertices(vs: Iterable[Vertex]) -> tuple:
    """The vertices in canonical (:func:`vkey`) order.

    When every vertex is exactly an ``int`` the list is sorted natively:
    ``vkey`` maps such a vertex v to ``(0, v, 0)``, which orders exactly
    as the integers do, so the order is the same and no key is built.
    A ``bool`` or any other subclass of int goes through ``vkey``.
    """
    out = list(vs)
    if len(out) > 1:
        if _INT.issuperset(map(type, out)):
            out.sort()
        else:
            out.sort(key=vkey)
    return tuple(out)


def _sort_edges(es: Iterable[Edge]) -> tuple[Edge, ...]:
    """Edges given as canonical tuples, in canonical (:func:`ekey`)
    order; natively, as with :func:`sort_vertices`, when every vertex
    is exactly an ``int``."""
    out = list(es)
    if len(out) > 1:
        if _INT.issuperset(map(type, itertools.chain.from_iterable(out))):
            out.sort()
        else:
            out.sort(key=ekey)
    return tuple(out)


def canonical_edge(edge: Iterable[Vertex]) -> Edge:
    """The canonical (sorted, duplicate-checked) tuple form of an edge."""
    vs = sort_vertices(edge)
    if len(set(vs)) != len(vs):
        for a, b in zip(vs, vs[1:]):
            if a == b:
                raise InvalidArgument(
                    f"edge {list(vs)!r} repeats the vertex {a!r}")
    return vs


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
    idx = sort_vertices(classes)
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
        es = _sort_edges(set(map(canonical_edge, self.edges)))
        k = self.k
        if k is None and es:
            sizes = {len(e) for e in es}
            if len(sizes) == 1:
                k = sizes.pop()
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
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

    def isolated_vertices(self) -> tuple:
        return tuple(v for v in self.vertices if not self.incident_edges[v])

    # -- derived hypergraphs ----------------------------------------------

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
    cycle as e_n v_{n-1} e_{n-1} v_{n-2} ... e_2 v_1 e_1 v_n.  The least
    rotation starts at a least step, so only the rotations starting at
    one are compared: O(n) keys and O(n) per tie of the least step.
    """
    n = len(pairs)
    stations = [p[0] for p in pairs]
    connectors = [p[1] for p in pairs]
    reversed_pairs = [
        (stations[(n - j) % n], connectors[(n - j - 1) % n]) for j in range(n)
    ]
    seqs = (list(pairs), reversed_pairs)
    keys = [[key(p) for p in seq] for seq in seqs]
    least = min(min(k) for k in keys)
    # ties go to the first candidate in the order listed, as with min
    _, s, r = min((k[r:] + k[:r], s, r)
                  for s, k in enumerate(keys) for r in range(n)
                  if k[r] == least)
    return tuple(seqs[s][r:] + seqs[s][:r])


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

    The witness is the lex-least canonical cycle of the shortest length:
    among all cycles of the least length n <= ``bound``, each taken in
    its canonical form (lex least over rotation and reflection under the
    key (``ekey`` of the edge, ``vkey`` of the vertex)), the least one.
    A faster search must keep this contract.

    Cycles are sought by length, from 2 up.  For each length the search
    is a depth-first walk on an explicit stack, so no bound is too long
    for it.  It anchors the cycle at its least edge index and tries the
    vertices of each edge in canonical order and the edges through a
    vertex by index, so the first cycle it closes is the witness.
    """
    _require_int("cycle length bound", bound)
    if bound < 2:
        raise InvalidArgument(f"cycle length bound must be at least 2, got {bound}")
    edges = obj.edges
    incident = obj.incident_edges
    # the moves out of edge i, in trial order: (vertex left by, next edge)
    moves = [[(v, f) for v in e for f in incident[v] if f != i]
             for i, e in enumerate(edges)]
    for n in range(2, bound + 1):
        witness = _find_cycle_of_length(obj, moves, n)
        if witness is not None:
            return canonical_cycle([(edges[ei], v) for ei, v in witness])
    return None


def _find_cycle_of_length(obj: Hypergraph, moves: Sequence[list],
                          n: int) -> list | None:
    """The first n-cycle of a depth-first walk, as (edge index, vertex)
    pairs, or ``None``.

    The walk starts at each edge in turn, the anchor, and only steps to
    edges of larger index, so the anchor is the least edge index of the
    cycle.  ``path`` holds the edges of the walk, ``verts[j]`` the vertex
    that joins ``path[j]`` to ``path[j + 1]`` and ``tried[j]`` how many
    of the moves out of ``path[j]`` were tried.  At length n the walk
    closes on the first unused vertex of its last edge, in canonical
    order, that lies in the anchor.
    """
    edges = obj.edges
    edge_sets = obj.edge_sets
    on_path = [False] * len(edges)
    for anchor in range(len(edges)):
        anchor_set = edge_sets[anchor]
        path = [anchor]
        verts: list[Vertex] = []
        tried = [0]
        used: set = set()
        on_path[anchor] = True
        while path:
            e = path[-1]
            if len(path) < n:
                out = moves[e]
                k = tried[-1]
                while k < len(out):
                    v, f = out[k]
                    k += 1
                    if f > anchor and not on_path[f] and v not in used:
                        tried[-1] = k
                        path.append(f)
                        verts.append(v)
                        tried.append(0)
                        used.add(v)
                        on_path[f] = True
                        break
                else:
                    on_path[path.pop()] = False
                    tried.pop()
                    if verts:
                        used.discard(verts.pop())
                continue
            for v in edges[e]:
                if v in anchor_set and v not in used:
                    return list(zip(path, verts + [v]))
            on_path[path.pop()] = False
            tried.pop()
            used.discard(verts.pop())
    return None


def _require_girth_bound(g) -> None:
    _require_int("girth bound", g)
    if g < 0:
        raise InvalidArgument(f"girth bound must be nonnegative, got {g}")


def girth_exceeds(obj: Hypergraph, g: int) -> bool:
    """True when the girth of ``obj`` exceeds ``g`` (no n-cycle, 2<=n<=g).

    ``g`` below 2 is vacuously true for well-formed input; negative
    bounds and bounds that are not ints are rejected.
    """
    _require_girth_bound(g)
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
        return (sort_vertices(self.image_vertices),
                _sort_edges(map(sort_vertices, self.image_edges)))


_MODES = ("nni", "induced", "fpartite")


def enumerate_copies(H: Hypergraph, F: Hypergraph, mode: str = "induced",
                     *, respect_order: bool = False,
                     distinct_images: bool = True) -> tuple[Embedding, ...]:
    """All copies of the pattern ``F`` inside the host ``H``.

    Modes
    -----
    ``nni``
        injective maps sending edges onto edges (not necessarily
        induced subhypergraphs),
    ``induced``
        additionally every host edge inside the image is the image of a
        pattern edge,
    ``fpartite``
        both hypergraphs carry partite structure over the same index
        set and the map preserves classes; not necessarily induced.

    ``respect_order`` restricts to maps that are monotone with respect
    to the vertex orders of pattern and host.  ``distinct_images`` keeps
    one embedding per image subhypergraph (the canonical notion of a
    *copy*); turn it off to count embeddings instead.  Results come in a
    deterministic order.

    A pattern vertex that shares an edge with a vertex placed before it
    takes its candidates only from the host neighbours of that vertex's
    image, in host order: any other host vertex would fail later on the
    shared edge.  So a sparse host costs no full scan per placement,
    and the embeddings come in the order of a full scan of the host.
    """
    maps = _embeddings(H, F, mode, respect_order)
    if distinct_images:
        # the vertex and edge sets identify an image as image_key does
        first: dict[tuple, tuple] = {}
        for pairs, image in maps:
            first.setdefault(image, pairs)
        return tuple(Embedding(F, H, pairs) for pairs in first.values())
    return tuple(Embedding(F, H, pairs) for pairs, _ in maps)


def _embeddings(H: Hypergraph, F: Hypergraph, mode: str,
                respect_order: bool) -> Iterator[tuple[tuple, tuple]]:
    """The embeddings of ``enumerate_copies``, in its deterministic order,
    each as its ``pairs`` and its image's vertex and edge sets.

    Pattern vertices are placed one at a time, high degree first.  The
    candidates for pattern vertex ``i`` are ``cands[i]``: the whole
    host in host order, or, when ``anchor[i]`` is the first position
    before ``i`` sharing an edge with it, the host neighbours of that
    position's image in host order, each list built once per call.  The
    walk keeps in ``tried[i]`` the index of the next candidate to try,
    so it backtracks on an explicit stack.  A pattern edge is checked
    as soon as its last vertex is placed, and the induced condition,
    over the host edges through the image, once the map is complete.
    """
    if mode not in _MODES:
        raise InvalidArgument(f"unknown copy mode {mode!r}")
    want_induced = mode == "induced"
    class_of_F: Mapping[Vertex, Any] | None = None
    class_of_H: Mapping[Vertex, Any] | None = None
    if mode == "fpartite":
        if F.partite is None or H.partite is None:
            raise PreconditionViolation(
                f"mode {mode!r} needs partite structure on both hypergraphs")
        if set(F.partite.indices) != set(H.partite.indices):
            raise PreconditionViolation(
                "pattern and host have different partite index sets")
        class_of_F = F.partite.index_of
        class_of_H = H.partite.index_of
    if respect_order and (len(F.vertices) > len(H.vertices)):
        return

    # order the pattern vertices: high degree first for pruning, isolated
    # vertices last; ties broken canonically for determinism
    pattern = sorted(
        F.vertices,
        key=lambda v: (-F.degree(v), vkey(v)))
    pos_in_pattern = {v: i for i, v in enumerate(pattern)}
    # the pattern vertices of each embedding's pairs, in canonical order
    canon = sort_vertices(pattern)

    # pattern edges become checkable as soon as their last vertex is
    # placed; anchor[i] is the first position sharing an edge with
    # position i, or n when none before i does
    n = len(pattern)
    edge_ready: list[list[Edge]] = [[] for _ in pattern]
    anchor = [n] * n
    for e in F.edges:
        at = sorted(pos_in_pattern[v] for v in e)
        edge_ready[at[-1]].append(e)
        for j in at[1:]:
            anchor[j] = min(anchor[j], at[0])

    H_fam = H.edge_family
    H_sets = H.edge_sets
    F_rank = F.vertex_rank
    H_rank = H.vertex_rank
    incident = H.incident_edges
    host_order = H.vertices if respect_order else sort_vertices(H.vertices)
    host_pos = H_rank if respect_order else \
        {v: i for i, v in enumerate(host_order)}
    neighbours: dict[Vertex, list] = {}
    # an empty host edge lies inside every image but meets no vertex
    empty = (frozenset(),) if frozenset() in H_fam else ()

    assignment: dict[Vertex, Vertex] = {}
    used: set = set()
    cands: list[Sequence[Vertex]] = [host_order] * n
    tried = [0] * (n + 1)
    i = 0
    while i >= 0:
        if i == n:
            i -= 1
            img = frozenset(used)
            img_edges = frozenset(frozenset(assignment[v] for v in e)
                                  for e in F.edges)
            if want_induced:
                near = (H_sets[x] for v in img for x in incident[v])
                if any(e <= img and e not in img_edges
                       for e in itertools.chain(empty, near)):
                    continue
            yield tuple((v, assignment[v]) for v in canon), (img, img_edges)
            continue
        fv = pattern[i]
        if fv in assignment:
            used.remove(assignment.pop(fv))
        fdeg = F.degree(fv)
        hosts = cands[i]
        k = tried[i]
        while k < len(hosts):
            hv = hosts[k]
            k += 1
            if hv in used:
                continue
            if class_of_F is not None and class_of_F[fv] != class_of_H[hv]:
                continue
            if len(incident[hv]) < fdeg:
                continue
            if respect_order:
                fr, hr = F_rank[fv], H_rank[hv]
                if any((F_rank[u] < fr) != (H_rank[w] < hr)
                       for u, w in assignment.items()):
                    continue
            assignment[fv] = hv
            if all(frozenset(assignment[v] for v in e) in H_fam
                   for e in edge_ready[i]):
                used.add(hv)
                tried[i] = k
                i += 1
                tried[i] = 0
                if i < n and anchor[i] < n:
                    cands[i] = _host_neighbours(
                        H, assignment[pattern[anchor[i]]], host_pos,
                        neighbours)
                break
            del assignment[fv]
        else:
            i -= 1


def _host_neighbours(H: Hypergraph, hv: Vertex, host_pos: Mapping,
                     memo: dict) -> list:
    """The vertices sharing an edge with ``hv``, by ``host_pos``, built
    once per ``memo``."""
    got = memo.get(hv)
    if got is None:
        ws = {w for x in H.incident_edges[hv] for w in H.edges[x]}
        ws.discard(hv)
        got = memo[hv] = sorted(ws, key=host_pos.__getitem__)
    return got


def find_isomorphism(F: Hypergraph, G: Hypergraph) -> Embedding | None:
    """An isomorphism F -> G, or ``None``.  Isolated vertices count."""
    if (F.num_vertices != G.num_vertices or F.num_edges != G.num_edges):
        return None
    found = next(_embeddings(G, F, "induced", False), None)
    if found is None:
        return None
    pairs, (img, img_edges) = found
    if len(img) == G.num_vertices and img_edges == G.edge_family:
        return Embedding(F, G, pairs)
    return None


def are_isomorphic(F: Hypergraph, G: Hypergraph) -> bool:
    return find_isomorphism(F, G) is not None


# ---------------------------------------------------------------------------
# partite predicates


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
    _require_int("the class size m", m)
    idx = sort_vertices(f)
    classes = {i: tuple((i, j) for j in range(m)) for i in idx}
    for i in idx:
        _require_int("a class demand", f[i])
        if f[i] < 0:
            raise InvalidArgument("class sizes must be nonnegative")
        if f[i] > m:
            raise InvalidArgument(
                f"cannot pick {f[i]} vertices from a class of size {m}")
    k = sum(f.values())
    if k < 2:
        raise InvalidArgument(
            f"edges need at least two vertices, the class sizes sum to {k}")
    per_class = [list(itertools.combinations(classes[i], f[i])) for i in idx]
    edges = [tuple(itertools.chain.from_iterable(choice))
             for choice in itertools.product(*per_class)]
    vs = tuple(itertools.chain.from_iterable(classes[i] for i in idx))
    return Hypergraph(vs, edges, k=k,
                      partite=make_partition(classes, f))
