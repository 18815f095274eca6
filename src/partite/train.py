"""Quasitrains and trains: a whole chain of wagon structures at once.

A *quasitrain* layers nested equivalence relations on the edge set of a
hypergraph, from the discrete relation at level zero up to a single
class at the top; the wagons of level mu are the wagons of the pretrain
read at that level.  A *train* additionally lives on a partite
hypergraph and carries a parameter confining where distinct wagons of
one level may meet inside a common wagon of the next: only within the
vertex classes the parameter names for that step.

Girth bounds come in sequences here, one bound per level.  The sequence
girth of a quasitrain requires, inside every wagon of level mu, the
wagons of the level below to form a system of vertex sets without short
cycles; the sequence girth of a system of copies delegates level by
level to the girth of systems of pretrains.  The remaining operations
wrap structural surgery: the unique lift of a level-one extension,
fresh-vertex disjoint unions, and the verifier for revisions, which
re-grade a partite-uniform train into more levels with tiny parameter
entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

from .core import (Edge, Hypergraph, PartiteStructure, Vertex, is_linear,
                   require_valid, sort_vertices)
from .copies import Copy, _copy_problems, _Members
from .errors import InvalidArgument, PreconditionViolation
from .pretrain import (FrakGirthFailure, Pretrain, PretrainCopySystem, Wagon,
                       _canonical_wagon_cycle, _wagon_cycle, contraction_map,
                       frak_Girth_witness, is_extension, is_subpretrain,
                       semidirect_extend, subpretrain, wagon_assimilation)

# ---------------------------------------------------------------------------
# sequences of girth bounds


@dataclass(frozen=True)
class GirthSequence:
    """A finite word of girth bounds, each at least two.

    Words form a monoid under concatenation; the empty word is allowed
    and has infimum infinity.  ``power`` builds the constant word of a
    given length, the usual shorthand for "the same bound at every
    level".
    """

    entries: tuple[int, ...] = ()

    def __post_init__(self):
        es = tuple(int(g) for g in self.entries)
        for g in es:
            if g < 2:
                raise InvalidArgument(f"girth bounds start at two, got {g}")
        object.__setattr__(self, "entries", es)

    @classmethod
    def power(cls, g: int, m: int) -> "GirthSequence":
        if m < 0:
            raise InvalidArgument(f"word length must be nonnegative, got {m}")
        return cls((g,) * m)

    def concat(self, other) -> "GirthSequence":
        return GirthSequence(self.entries + girth_sequence(other).entries)

    def __add__(self, other) -> "GirthSequence":
        return self.concat(other)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    @property
    def inf(self):
        return min(self.entries) if self.entries else math.inf

    @property
    def is_nondecreasing(self) -> bool:
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))


def girth_sequence(obj) -> GirthSequence:
    """Coerce an iterable of bounds, passing sequences through."""
    if isinstance(obj, GirthSequence):
        return obj
    if isinstance(obj, int):
        raise InvalidArgument(
            "a girth sequence is built from an iterable of bounds; wrap a "
            "single bound in a tuple")
    return GirthSequence(tuple(obj))


# ---------------------------------------------------------------------------
# quasitrains


def _normalize_ids(ids: Iterable) -> tuple[int, ...]:
    relabel: dict[Any, int] = {}
    return tuple(relabel.setdefault(w, len(relabel)) for w in ids)


@dataclass(frozen=True)
class Quasitrain:
    """A hypergraph with a chain of nested edge partitions.

    ``chain[mu]`` assigns one wagon id per edge, parallel to
    ``hypergraph.edges`` and normalised like pretrain wagon ids; the
    height is ``len(chain) - 1`` and must be at least one.  The
    constructor pins only the shape.  Whether the chain really is a
    quasitrain chain (single edges at level zero, every level refining
    the next, one class on top) is the business of
    :func:`validate_quasitrain`, so that broken chains can be built
    and reported on.
    """

    hypergraph: Hypergraph
    chain: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        require_valid(self.hypergraph)
        rows = tuple(tuple(row) for row in self.chain)
        if len(rows) < 2:
            raise InvalidArgument(
                "a quasitrain carries at least two levels of wagon ids")
        ne = self.hypergraph.num_edges
        for mu, row in enumerate(rows):
            if len(row) != ne:
                raise InvalidArgument(
                    f"level {mu} needs one wagon id per edge: {ne} edges, "
                    f"{len(row)} ids")
        object.__setattr__(self, "chain",
                           tuple(_normalize_ids(row) for row in rows))

    # -- the two low-height correspondences ------------------------------

    @classmethod
    def of_hypergraph(cls, H: Hypergraph) -> "Quasitrain":
        """The height-one quasitrain associated with a hypergraph."""
        n = H.num_edges
        return cls(H, (tuple(range(n)), (0,) * n))

    @classmethod
    def of_pretrain(cls, P: Pretrain) -> "Quasitrain":
        """The height-two quasitrain associated with a pretrain."""
        n = P.hypergraph.num_edges
        return cls(P.hypergraph, (tuple(range(n)), P.wagon_ids, (0,) * n))

    def to_hypergraph(self) -> Hypergraph:
        if self.height != 1:
            raise InvalidArgument(
                f"only height-one quasitrains read back as hypergraphs; "
                f"this one has height {self.height}")
        return self.hypergraph

    def to_pretrain(self) -> Pretrain:
        if self.height != 2:
            raise InvalidArgument(
                f"only height-two quasitrains read back as pretrains; "
                f"this one has height {self.height}")
        return self.level(1)

    # -- level views -----------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.chain) - 1

    @cached_property
    def levels(self) -> tuple[Pretrain, ...]:
        """The pretrain read at each level of the chain."""
        return tuple(Pretrain(self.hypergraph, row) for row in self.chain)

    def level(self, mu: int) -> Pretrain:
        if not 0 <= mu <= self.height:
            raise InvalidArgument(
                f"levels run from 0 to {self.height}, got {mu}")
        return self.levels[mu]

    def wagons_at(self, mu: int) -> tuple[Wagon, ...]:
        return self.level(mu).wagons


def _classes(row: Sequence[int]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for j, w in enumerate(row):
        out.setdefault(w, []).append(j)
    return out


def validate_quasitrain(Q: Quasitrain) -> list[str]:
    """Clause-by-clause problems with the chain; empty means valid."""
    problems: list[str] = []
    edges = Q.hypergraph.edges
    for w, js in _classes(Q.chain[0]).items():
        if len(js) > 1:
            problems.append(
                f"chain clause (i) fails: edges {edges[js[0]]!r} and "
                f"{edges[js[1]]!r} share a wagon at level 0")
    for mu in range(Q.height):
        nxt = Q.chain[mu + 1]
        for w, js in _classes(Q.chain[mu]).items():
            if len({nxt[j] for j in js}) > 1:
                a = js[0]
                b = next(j for j in js if nxt[j] != nxt[a])
                problems.append(
                    f"chain clause (ii) fails: edges {edges[a]!r} and "
                    f"{edges[b]!r} are equivalent at level {mu} but not "
                    f"at level {mu + 1}")
    top = len(set(Q.chain[-1]))
    if top > 1:
        problems.append(
            f"chain clause (iii) fails: level {Q.height} splits into "
            f"{top} classes instead of one")
    return problems


def _require_quasitrain(Q: Quasitrain) -> None:
    problems = validate_quasitrain(Q)
    if problems:
        raise PreconditionViolation("; ".join(problems))


def _chain_of(obj: "Quasitrain | Train") -> Quasitrain:
    return obj.quasitrain if isinstance(obj, Train) else obj


def is_subquasitrain(sub: Quasitrain, sup: Quasitrain) -> bool:
    """Subhypergraph whose relation at every level is the restriction."""
    if sub.height != sup.height:
        return False
    return all(is_subpretrain(sub.level(mu), sup.level(mu))
               for mu in range(sub.height + 1))


def subquasitrain(Q: Quasitrain, vertices: Iterable[Vertex],
                  edges: Iterable[Iterable[Vertex]] | None = None,
                  ) -> Quasitrain:
    """The subquasitrain on the given vertices and edges of ``Q``.

    Every level inherits by restriction; when ``edges`` is omitted all
    edges inside the vertex set are kept.
    """
    sub = subpretrain(Q.level(0), vertices, edges).hypergraph
    rows = tuple(tuple(Q.level(mu).wagon_of(e) for e in sub.edges)
                 for mu in range(Q.height + 1))
    return Quasitrain(sub, rows)


# ---------------------------------------------------------------------------
# trains


@dataclass(frozen=True)
class Train:
    """A quasitrain over a partite hypergraph with a meeting parameter.

    ``parameter[mu - 1]`` names the vertex classes inside which two
    distinct wagons of level ``mu - 1`` may meet when they share the
    level-``mu`` wagon.  The host must carry a partite structure and
    the parameter must name its indices; whether the confinement
    actually holds is reported by :func:`validate_train`.
    """

    quasitrain: Quasitrain
    parameter: tuple[frozenset, ...]

    def __post_init__(self):
        part = self.quasitrain.hypergraph.partite
        if part is None:
            raise InvalidArgument(
                "a train needs a partite structure on its hypergraph")
        par = tuple(frozenset(A) for A in self.parameter)
        if len(par) != self.quasitrain.height:
            raise InvalidArgument(
                f"need one parameter entry per level: height "
                f"{self.quasitrain.height}, {len(par)} entries")
        known = set(part.indices)
        for A in par:
            if not A <= known:
                raise InvalidArgument(
                    f"parameter names unknown partite indices "
                    f"{sort_vertices(A - known)!r}")
        object.__setattr__(self, "parameter", par)

    @classmethod
    def of_hypergraph(cls, H: Hypergraph, A: Iterable) -> "Train":
        """Height-one train; valid exactly when ``H`` is A-intersecting."""
        return cls(Quasitrain.of_hypergraph(H), (frozenset(A),))

    @classmethod
    def of_pretrain(cls, P: Pretrain, A1: Iterable,
                    A2: Iterable) -> "Train":
        """Height-two train over a pretrain's wagon structure."""
        return cls(Quasitrain.of_pretrain(P),
                   (frozenset(A1), frozenset(A2)))

    @property
    def hypergraph(self) -> Hypergraph:
        return self.quasitrain.hypergraph

    @property
    def partite(self) -> PartiteStructure:
        return self.quasitrain.hypergraph.partite

    @property
    def height(self) -> int:
        return self.quasitrain.height

    def level(self, mu: int) -> Pretrain:
        return self.quasitrain.level(mu)


def validate_train(T: Train) -> list[str]:
    """Clause-precise problems; empty means ``T`` is a train.

    Chain problems are reported first and short-circuit the meeting
    clause, which has no reading over a broken chain.  Meeting problems
    name the level and the vertices at which two wagons of the level
    below meet outside the allowed classes.
    """
    Q = T.quasitrain
    problems = validate_quasitrain(Q)
    if problems:
        return problems
    part = T.partite
    for mu in range(1, Q.height + 1):
        allowed = part.union_of(T.parameter[mu - 1])
        hi_of_low = dict(zip(Q.chain[mu - 1], Q.chain[mu]))
        by_hi: dict[int, list[Wagon]] = {}
        for w in Q.level(mu - 1).wagons:
            by_hi.setdefault(hi_of_low[w.id], []).append(w)
        for ws in by_hi.values():
            for a, b in itertools.combinations(ws, 2):
                meet = a.vertex_set & b.vertex_set
                if not meet <= allowed:
                    problems.append(
                        f"train clause (ii) fails at level {mu}: wagons "
                        f"{a.id} and {b.id} of the level below meet at "
                        f"{sort_vertices(meet - allowed)!r} outside the "
                        f"allowed classes")
    return problems


# ---------------------------------------------------------------------------
# the sequence girth of a quasitrain


@dataclass(frozen=True)
class SeqGirthFailure:
    """Where the sequence girth of a quasitrain fails.

    ``level`` is the level whose bound is violated, ``wagon`` the id of
    the wagon at that level housing the violation, and ``cycle`` the
    offending cycle of next-lower wagons as canonical (wagon id,
    vertex) pairs; ids refer to the whole level below, not to the
    housing wagon.  A wagon whose own edges break linearity shows up
    as a two-cycle of lower wagons meeting twice.
    """

    level: int
    wagon: int
    cycle: tuple


def frak_girth_seq_witness(Q: "Quasitrain | Train",
                           bounds) -> SeqGirthFailure | None:
    """First level and wagon where the chain of girth bounds fails.

    Level ``mu`` requires, inside every one of its wagons, the wagons
    of level ``mu - 1`` to form a system of vertex sets without cycles
    of length up to the ``mu``-th bound; a wagon that is not even
    linear fails its level outright.  Levels are scanned from the
    bottom and wagons in id order, so the witness is deterministic.
    """
    Q = _chain_of(Q)
    gs = girth_sequence(bounds)
    if len(gs) != Q.height:
        raise InvalidArgument(
            f"need one bound per level: height {Q.height}, "
            f"{len(gs)} bounds")
    _require_quasitrain(Q)
    for mu in range(1, Q.height + 1):
        low = Q.level(mu - 1)
        for W in Q.level(mu).wagons:
            # the chain is nested, so these lower wagons lie inside W
            lows = [low.wagon(i)
                    for i in dict.fromkeys(map(low.wagon_of, W.edges))]
            if not is_linear(W.as_hypergraph()):
                # scanning bottom-up guarantees the offending pair of
                # edges straddles two lower wagons
                pair = next(
                    ((a, b) for a, b in itertools.combinations(lows, 2)
                     if len(a.vertex_set & b.vertex_set) >= 2), None)
                if pair is None:
                    raise AssertionError(
                        "a non-linear wagon at the first failing level "
                        "spans two lower wagons meeting twice")
                a, b = pair
                x, y = sort_vertices(a.vertex_set & b.vertex_set)[:2]
                return SeqGirthFailure(mu, W.id, _canonical_wagon_cycle(
                    [(a.id, x), (b.id, y)]))
            got = _wagon_cycle(W.vertices, lows, gs[mu - 1])
            if got is not None:
                return SeqGirthFailure(mu, W.id, got)
    return None


def frak_girth_seq_exceeds(Q: "Quasitrain | Train", bounds) -> bool:
    """No level houses a wagon cycle within its bound."""
    return frak_girth_seq_witness(Q, bounds) is None


# ---------------------------------------------------------------------------
# lifting a level-one extension through the chain


def lift_one_extension(F: "Quasitrain | Train", ext: Pretrain) -> Quasitrain:
    """The unique quasitrain over ``ext`` having ``F`` inside.

    ``ext`` must extend the level-one pretrain of ``F``.  Level zero of
    the output stays discrete, level one is ``ext`` itself, and two
    edges are equivalent at a higher level exactly when their level-one
    wagons contract to wagons of ``F`` whose edges are equivalent
    there.  Every level of the output extends the matching level of
    ``F``; the chain is the only one restricting to ``F``'s.
    """
    F = _chain_of(F)
    _require_quasitrain(F)
    base1 = F.level(1)
    try:
        ok = is_extension(base1, ext)
    except InvalidArgument as exc:
        raise InvalidArgument(
            f"the lift starts from an extension of the level-one "
            f"pretrain: {exc}") from None
    if not ok:
        raise InvalidArgument(
            "the given pretrain does not extend the level-one pretrain")
    H = ext.hypergraph
    contr = contraction_map(base1, ext)
    rep: dict[int, Edge] = {
        wid: base1.wagon(tgt).edges[0] for wid, tgt in contr.items()}
    rows = [tuple(range(H.num_edges)), ext.wagon_ids]
    for mu in range(2, F.height + 1):
        lvl = F.level(mu)
        rows.append(tuple(lvl.wagon_of(rep[w]) for w in ext.wagon_ids))
    out = Quasitrain(H, tuple(rows))
    for mu in range(1, F.height + 1):
        if not is_extension(F.level(mu), out.level(mu)):
            raise AssertionError(
                "every level of a lifted quasitrain extends the matching "
                "level of the input")
    return out


@dataclass(frozen=True)
class QuasitrainAssimilation:
    """Result of :func:`assimilate_level_one`.

    The fields mirror :class:`partite.pretrain.Assimilation` one floor
    up: the lifted quasitrain, the input sitting inside it, the common
    shape of the grown level-one wagons, and the degenerate-case note.
    """

    quasitrain: Quasitrain
    standard_copy: Copy
    pattern: Hypergraph
    note: str | None = None


def assimilate_level_one(Q: "Quasitrain | Train") -> QuasitrainAssimilation:
    """Assimilate the level-one wagons and lift the chain along.

    Every level-one wagon grows into a copy of the ordered disjoint
    union of all of them; levels above one come along through the
    unique lift.
    """
    Q = _chain_of(Q)
    _require_quasitrain(Q)
    got = wagon_assimilation(Q.level(1))
    return QuasitrainAssimilation(lift_one_extension(Q, got.pretrain),
                                  got.standard_copy, got.pattern,
                                  note=got.note)


def semidirect_extend_quasitrain(Q: "Quasitrain | Train", X: Hypergraph,
                                 W: Hypergraph) -> Quasitrain:
    """Grow every level-one wagon into a copy of ``X`` around its ``W``.

    The pretrain semidirect extension runs at level one and the chain
    above comes along through the unique lift; see
    :func:`partite.pretrain.semidirect_extend` for the pattern rules.
    """
    Q = _chain_of(Q)
    _require_quasitrain(Q)
    return lift_one_extension(Q, semidirect_extend(Q.level(1), X, W))


# ---------------------------------------------------------------------------
# disjoint unions


def disjoint_union_with_copies(items: "Iterable[Quasitrain | Train]",
                               ) -> tuple:
    """Fresh-vertex union plus the standard copy of every item.

    Vertices of the j-th item turn into pairs (j, v), so the returned
    copies record where each input landed; see :func:`disjoint_union`
    for the union itself.
    """
    parts = tuple(items)
    if not parts:
        raise InvalidArgument("the union of no quasitrains is undefined")
    trainness = [isinstance(p, Train) for p in parts]
    if any(trainness) and not all(trainness):
        raise InvalidArgument(
            "mixing trains with bare quasitrains leaves the parameter of "
            "the union unclear; convert explicitly")
    chains = [_chain_of(p) for p in parts]
    m = chains[0].height
    for j, q in enumerate(chains):
        if q.height != m:
            raise InvalidArgument(
                f"heights differ: item 0 has {m}, item {j} has {q.height}")
        if not q.hypergraph.ordered:
            raise PreconditionViolation(
                "disjoint unions are formed over ordered quasitrains")
        _require_quasitrain(q)
    if all(trainness):
        par = parts[0].parameter
        for j, t in enumerate(parts):
            if t.parameter != par:
                raise InvalidArgument(
                    f"parameters differ: item 0 has "
                    f"{tuple(map(sort_vertices, par))!r}, item {j} has "
                    f"{tuple(map(sort_vertices, t.parameter))!r}")

    shapes = {(q.hypergraph.partite.indices, q.hypergraph.partite.sizes)
              if q.hypergraph.partite is not None else None for q in chains}
    if len(shapes) > 1:
        raise InvalidArgument(
            "the items carry incompatible partite structures")
    shape = shapes.pop()
    upart = None
    if shape is not None:
        idx, sizes = shape
        upart = PartiteStructure(
            idx,
            tuple(tuple((j, v)
                        for j, q in enumerate(chains)
                        for v in q.hypergraph.partite.classes[pos])
                  for pos in range(len(idx))),
            sizes)

    vs = tuple((j, v) for j, q in enumerate(chains)
               for v in q.hypergraph.vertices)
    es: list[tuple] = []
    label: list[dict[frozenset, Any]] = [dict() for _ in range(m + 1)]
    for j, q in enumerate(chains):
        for idx_e, e in enumerate(q.hypergraph.edges):
            fe = tuple((j, v) for v in e)
            es.append(fe)
            for mu in range(m):
                label[mu][frozenset(fe)] = (j, q.chain[mu][idx_e])
            label[m][frozenset(fe)] = 0
    ks = {q.hypergraph.k for q in chains}
    union_host = Hypergraph(vs, tuple(es),
                            k=ks.pop() if len(ks) == 1 else None,
                            ordered=True, partite=upart)
    rows = tuple(tuple(label[mu][frozenset(e)] for e in union_host.edges)
                 for mu in range(m + 1))
    union = Quasitrain(union_host, rows)
    out = Train(union, parts[0].parameter) if all(trainness) else union
    copies = tuple(
        Copy(tuple((j, v) for v in q.hypergraph.vertices),
             tuple(tuple((j, v) for v in e) for e in q.hypergraph.edges))
        for j, q in enumerate(chains))
    return out, copies


def disjoint_union(items: "Iterable[Quasitrain | Train]"):
    """Fresh-vertex union of ordered quasitrains or trains of one height.

    Edges from different items are inequivalent below the top level and
    all equivalent at the top; each item reappears as the subquasitrain
    on its relabelled vertices.  Trains must share their parameter,
    which the union keeps, and partite structures merge classwise.
    """
    return disjoint_union_with_copies(items)[0]


# ---------------------------------------------------------------------------
# systems of quasitrain copies and their sequence girth


@dataclass(frozen=True)
class QuasitrainCopySystem(_Members):
    """A base quasitrain with subquasitrain copies.

    Copies are plain vertex/edge sets; every level of a copy's chain is
    the restriction of the base level, which pins the subquasitrain
    down completely.  ``extended`` adds the edge copies of the host as
    members, exactly as for systems of pretrain copies.
    """

    base: Quasitrain
    copies: tuple[Copy, ...]
    extended: bool = True

    @property
    def host(self) -> Hypergraph:
        return self.base.hypergraph

    def level_system(self, mu: int) -> PretrainCopySystem:
        """The same copies over the pretrain read at one level."""
        return PretrainCopySystem(self.base.level(mu), self.copies,
                                  extended=self.extended)


def validate_quasitrain_system(system: QuasitrainCopySystem) -> list[str]:
    """Structural problems of a system of quasitrain copies."""
    return (validate_quasitrain(system.base)
            + _copy_problems(system.host, system.copies))


@dataclass(frozen=True)
class SeqFrakGirthFailure:
    """Why the girth of a quasitrain system fails a word of bounds.

    ``level`` names the violated clause: level ``mu`` stands for the
    copies read with the relation of level ``mu - 1`` against the
    ``mu``-th bound, and height + 1 for the closing clause that the top
    relation admits no short cycle at all (bound one).  ``failure``
    carries the pretrain-level witness.
    """

    level: int
    bound: int
    failure: FrakGirthFailure


def frak_Girth_seq_witness(system: QuasitrainCopySystem, bounds,
                           ) -> SeqFrakGirthFailure | None:
    """First violated clause of the sequence girth of a system.

    The bounds cover the levels from one to the height, each read
    through the pretrain relation one level below; the check always
    closes with the top relation against bound one.
    """
    Q = system.base
    _require_quasitrain(Q)
    gs = girth_sequence(bounds)
    m = Q.height
    if len(gs) != m:
        raise InvalidArgument(
            f"need bounds for levels 1..{m}: expected {m}, got {len(gs)}")
    for mu in range(1, m + 1):
        g = gs[mu - 1]
        got = frak_Girth_witness(system.level_system(mu - 1), g)
        if got is not None:
            return SeqFrakGirthFailure(mu, g, got)
    got = frak_Girth_witness(system.level_system(m), 1)
    if got is not None:
        return SeqFrakGirthFailure(m + 1, 1, got)
    return None


def frak_Girth_seq_exceeds(system: QuasitrainCopySystem, bounds) -> bool:
    """Every per-level clause and the closing clause hold."""
    return frak_Girth_seq_witness(system, bounds) is None


# ---------------------------------------------------------------------------
# revisions of partite-uniform trains


@dataclass(frozen=True)
class RevisionReport:
    """Outcome of :func:`verify_revision` with clause-tagged problems."""

    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_revision(T: Train, candidate: "Quasitrain | Train",
                    B: Sequence[Iterable], g: int, bounds) -> RevisionReport:
    """Check a claimed revision of a partite-uniform train.

    A revision re-grades the train: it keeps the hypergraph and the
    whole chain but splices ``len(B) - 1`` fresh levels directly above
    level one.  The report then covers three clauses: the candidate is
    a train whose parameter is ``B`` followed by the tail of ``T``'s
    parameter, its sequence girth exceeds the constant word of ``g``
    (one entry per ``B``) followed by ``bounds``, and every entry of
    ``B`` holds at most one index, drawn from the first entry of
    ``T``'s parameter.  Shape violations raise instead of reporting:
    the train must be partite-uniform and valid, the bounds must match
    its height, and the candidate must actually be a re-grading.
    """
    bad = validate_train(T)
    if bad:
        raise InvalidArgument(
            "the train under revision is not a train: " + "; ".join(bad))
    if not T.partite.uniform_unit:
        raise InvalidArgument(
            "revisions are defined for partite-uniform trains, with every "
            "edge meeting every class once")
    if g < 2:
        raise InvalidArgument(f"the girth threshold starts at two, got {g}")
    gs = girth_sequence(bounds)
    if len(gs) != T.height - 1:
        raise InvalidArgument(
            f"need one bound per level above the first: height {T.height} "
            f"takes {T.height - 1} bounds, got {len(gs)}")
    m = len(B)
    if m == 0:
        raise InvalidArgument("a revision has at least one parameter entry")
    ext_par = tuple(frozenset(A) for A in B)
    known = set(T.partite.indices)
    for A in ext_par:
        if not A <= known:
            raise InvalidArgument(
                f"revision parameter names unknown partite indices "
                f"{sort_vertices(A - known)!r}")
    cand = _chain_of(candidate)
    if cand.hypergraph != T.hypergraph:
        raise InvalidArgument(
            "a revision keeps the underlying hypergraph of the train")
    if cand.height != T.height + m - 1:
        raise InvalidArgument(
            f"a revision with {m} parameter entries has height "
            f"{T.height + m - 1}, the candidate has {cand.height}")
    keep = T.quasitrain.chain
    if cand.chain[0] != keep[0] or cand.chain[m:] != keep[1:]:
        raise InvalidArgument(
            "a revision splices fresh levels directly above level one and "
            "keeps the rest of the chain")

    problems: list[str] = []
    full_par = ext_par + T.parameter[1:]
    try:
        as_train = Train(cand, full_par)
    except InvalidArgument as exc:
        problems.append(f"train clause fails: {exc}")
    else:
        problems.extend(
            f"train clause fails: {p}" for p in validate_train(as_train))
    if not validate_quasitrain(cand):
        target = GirthSequence.power(g, m).concat(gs)
        failed = frak_girth_seq_witness(cand, target)
        if failed is not None:
            problems.append(
                f"girth clause fails: a cycle of {len(failed.cycle)} "
                f"wagons sits inside wagon {failed.wagon} of level "
                f"{failed.level}")
    for mu, A in enumerate(ext_par, start=1):
        if len(A) > 1:
            problems.append(
                f"parameter clause fails: entry {mu} holds "
                f"{len(A)} indices, at most one is allowed")
        if not A <= T.parameter[0]:
            problems.append(
                f"parameter clause fails: entry {mu} reaches outside the "
                f"first entry of the train's parameter")
    return RevisionReport(not problems, tuple(problems))
