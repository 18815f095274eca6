"""Identity tests for the construction layer: canonical sorts, the
normalised forms of hypergraphs, copies and systems, and copy
enumeration.

The package sorts natively when every vertex is exactly an int and by
``vkey``/``ekey`` otherwise, and copy enumeration takes its candidates
from host neighbours.  Each test here compares against a reference that
sorts by the keys directly or scans every map, order included, so a
fast path that reorders anything fails.
"""

import random
import time
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partite import (Budget, Copy, CopySystem, Hypergraph, InvalidArgument,
                     Pretrain, PretrainCopySystem, Quasitrain, are_isomorphic,
                     complete_graph, complete_multipartite, edge_arrows,
                     enumerate_big_cycles, enumerate_copies,
                     frak_girth_pretrain_witness, frak_Girth_witness,
                     frak_girth_seq_witness, girth_exceeds, hj_line_property,
                     make_partition, min_hj_exponent, min_product_ramsey,
                     semitidy_equivalence_check, shortest_edge_cycle,
                     verify_revision, vertex_arrows, vkey)
from partite.core import _sort_edges, canonical_edge, ekey, sort_vertices
from oracles import naive_copies, random_hypergraph, random_partite_train


class Hue(IntEnum):
    RED = 1
    BLUE = 2


ATOMS = st.one_of(
    st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.sampled_from(list(Hue)), st.text(alphabet="ab", max_size=2),
    st.floats(allow_nan=False, allow_infinity=False, width=16))
MIXED = st.recursive(ATOMS, lambda inner: st.tuples(inner)
                     | st.tuples(inner, inner), max_leaves=3)
# plain ints take the native path, anything else the key path; bools and
# IntEnum members equal to ints show a key path taken natively
VERTICES = st.one_of(
    st.lists(st.integers(-5, 5), max_size=7),
    st.lists(st.one_of(st.integers(-1, 2), st.booleans(),
                       st.sampled_from(list(Hue))), max_size=7),
    st.lists(MIXED, max_size=7))


def same(a, b) -> bool:
    """Equal and alike: ``True`` and ``1`` or ``1.0`` and ``1`` differ."""
    return repr(a) == repr(b)


def ref_canonical_edge(edge):
    vs = sorted(edge, key=vkey)
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise InvalidArgument(f"edge {vs!r} repeats the vertex {a!r}")
    return tuple(vs)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidArgument as exc:
        return ("InvalidArgument", str(exc))


@settings(max_examples=200, deadline=None)
@given(VERTICES)
def test_vertex_sort_and_canonical_edge_match_the_keys(vs):
    assert same(sort_vertices(vs), tuple(sorted(vs, key=vkey)))
    assert same(outcome(canonical_edge, vs), outcome(ref_canonical_edge, vs))
    assert same(outcome(canonical_edge, vs + vs[:1]),
                outcome(ref_canonical_edge, vs + vs[:1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(VERTICES, max_size=6))
def test_edge_sort_matches_ekey(edges):
    es = [tuple(sorted(e, key=vkey)) for e in edges]
    assert same(_sort_edges(es), tuple(sorted(es, key=ekey)))


@st.composite
def hypergraphs(draw):
    """Distinct vertices and a few edges of two or three of them."""
    vs = draw(st.one_of(st.lists(st.integers(-5, 5), unique=True,
                                 min_size=2, max_size=6),
                        st.lists(MIXED, unique=True, min_size=2,
                                 max_size=6)))
    edges = draw(st.lists(st.lists(st.sampled_from(vs), min_size=2,
                                   max_size=3, unique=True), max_size=6))
    return vs, [tuple(e) for e in edges]


def ref_edges(edges):
    return sorted({ref_canonical_edge(e) for e in edges}, key=ekey)


@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.data())
def test_hypergraphs_copies_and_systems_match_the_keys(drawn, data):
    vs, edges = drawn
    try:
        H = Hypergraph(tuple(vs), tuple(edges))
    except InvalidArgument:
        return  # equal values such as 1 and True collide in the set
    assert same(H.vertices, tuple(vs))
    assert same(H.edges, tuple(ref_edges(edges)))
    copies = []
    for _ in range(data.draw(st.integers(0, 4))):
        es = data.draw(st.lists(st.sampled_from(H.edges), max_size=3)) \
            if H.edges else []
        extra = data.draw(st.lists(st.sampled_from(H.vertices), max_size=2))
        verts = [v for e in es for v in e] + extra
        c = Copy(tuple(verts), tuple(es))
        assert same(c.vertices, tuple(sorted(set(verts), key=vkey)))
        assert same(c.edges, tuple(ref_edges(es)))
        copies.append(c)
    S = CopySystem(H, tuple(copies))
    assert same(S.copies, tuple(sorted(set(copies), key=lambda c: c.key)))
    members = set(copies) | {Copy.of_edge(e) for e in H.edges}
    assert same(S.members, tuple(sorted(members, key=lambda c: c.key)))


def test_partition_indices_match_the_keys():
    classes = {"b": (0,), 2: (1,), (1,): (2,), True: (3,), -1: (4,)}
    assert same(make_partition(classes).indices,
                tuple(sorted(classes, key=vkey)))
    f = {"x": 1, 3: 1, -2: 1}
    assert same(complete_multipartite(f, 1).partite.indices,
                tuple(sorted(f, key=vkey)))


# ---------------------------------------------------------------------------
# copy enumeration against a scan of every map


P3 = Hypergraph((0, 1, 2), ((0, 1), (1, 2)), k=2)
PATTERNS = (
    P3, complete_graph(3),
    Hypergraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 3)), k=2),
    Hypergraph(("c", "x", "y"), (("c", "x"), ("c", "y")), k=2),
    Hypergraph((0, 1, 2, 3, 4), ((0, 1, 2), (2, 3, 4)), k=3),
    Hypergraph((0, 1, 2, 3), ((0, 1), (1, 2)), k=2),  # an isolated vertex
)


def results(H, F, mode, respect_order, distinct_images):
    return [(e.pairs, e.image_key) for e in enumerate_copies(
        H, F, mode, respect_order=respect_order,
        distinct_images=distinct_images)]


@pytest.mark.parametrize("seed", range(24))
def test_copy_enumeration_matches_a_full_scan(seed):
    rng = random.Random(seed)
    dense = seed % 2
    H = random_hypergraph(rng, 7, 14 if dense else 5,
                          sizes=(2,) if dense else (2, 3))
    if seed % 3 == 0:
        # mixed labels, and a host order that is not the canonical one
        labels = ["a", (0,), -1, True, 2.5, ("b", 1), 7]
        H = H.relabel(dict(zip(H.vertices, labels)))
        H = Hypergraph(tuple(reversed(H.vertices)), H.edges, ordered=True)
    for F in PATTERNS:
        for mode in ("nni", "induced"):
            for ro in (False, True):
                for di in (True, False):
                    assert results(H, F, mode, ro, di) == \
                        naive_copies(H, F, mode, ro, di), (F, mode, ro, di)


def random_partite(rng, sizes, m, p):
    """Random edges of the complete partite hypergraph, classes of m."""
    full = complete_multipartite(sizes, m)
    es = [e for e in full.edges if rng.random() < p]
    return Hypergraph(full.vertices, tuple(es), k=full.k,
                      partite=full.partite)


@pytest.mark.parametrize("seed", range(12))
def test_partite_copy_enumeration_matches_a_full_scan(seed):
    rng = random.Random(100 + seed)
    sizes = {0: 1, 1: 1} if seed % 2 else {0: 1, 1: 2}
    H = random_partite(rng, sizes, 3, 0.3 + 0.1 * (seed % 5))
    F = random_partite(rng, sizes, 2, 0.7)
    for ro in (False, True):
        for di in (True, False):
            assert results(H, F, "fpartite", ro, di) == \
                naive_copies(H, F, "fpartite", ro, di)


def path_graph(n_edges):
    return Hypergraph(tuple(range(n_edges + 1)),
                      tuple((i, i + 1) for i in range(n_edges)), k=2)


def test_long_paths_take_no_host_scan():
    # a scan of the whole host per placement took ~12 s here
    P = path_graph(1500)
    t0 = time.perf_counter()
    copies = enumerate_copies(P, P3)
    assert time.perf_counter() - t0 < 1.0
    assert [c.pairs for c in copies] == [
        ((0, i), (1, i + 1), (2, i + 2)) for i in range(1499)]
    Q = path_graph(1200)
    t0 = time.perf_counter()
    assert are_isomorphic(Q, Q)
    assert time.perf_counter() - t0 < 1.0


def test_edge_arrowing_caches_no_copy_edge_sets():
    H = complete_graph(5)
    S = CopySystem(H, tuple(
        Copy(*e.image_key) for e in enumerate_copies(H, complete_graph(3))))
    assert not edge_arrows(S, 2).arrows
    assert vertex_arrows(S, 2).arrows
    assert all("edge_sets" not in c.__dict__ for c in S.copies)


# ---------------------------------------------------------------------------
# integer inputs


K4_SYSTEM = CopySystem(complete_graph(4), ())
K4_PRETRAIN = Pretrain.singletons(complete_graph(4))
K4_PRETRAIN_SYSTEM = PretrainCopySystem(K4_PRETRAIN, ())
PATH = Quasitrain(Hypergraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), k=2),
                  ((0, 1, 2), (0, 1, 0), (0, 0, 0)))
TRAIN = random_partite_train(random.Random(0), m=2)


@pytest.mark.parametrize("call, message", [
    (lambda: edge_arrows(K4_SYSTEM, 2.5),
     "number of colors must be an int, got 2.5"),
    (lambda: edge_arrows(K4_SYSTEM, "2"),
     "number of colors must be an int, got '2'"),
    (lambda: vertex_arrows(K4_SYSTEM, True),
     "number of colors must be an int, got True"),
    (lambda: hj_line_property(2, 2, 1.5, Budget()),
     "number of colors must be an int, got 1.5"),
    (lambda: hj_line_property(2, -1, 2, Budget()),
     "the dimension n must be a nonnegative int, got -1"),
    (lambda: hj_line_property(-2, 1, 2),
     "the alphabet size t must be a nonnegative int, got -2"),
    (lambda: shortest_edge_cycle(complete_graph(3), 2.5),
     "cycle length bound must be an int, got 2.5"),
    (lambda: girth_exceeds(complete_graph(3), "3"),
     "girth bound must be an int, got '3'"),
    (lambda: girth_exceeds(complete_graph(3), True),
     "girth bound must be an int, got True"),
    (lambda: shortest_edge_cycle(complete_graph(3), True),
     "cycle length bound must be an int, got True"),
    (lambda: frak_Girth_witness(K4_PRETRAIN_SYSTEM, 2.5),
     "girth bound must be an int, got 2.5"),
    (lambda: frak_Girth_witness(K4_PRETRAIN_SYSTEM, "2"),
     "girth bound must be an int, got '2'"),
    (lambda: enumerate_big_cycles(K4_PRETRAIN_SYSTEM, 2.5),
     "girth bound must be an int, got 2.5"),
    (lambda: enumerate_big_cycles(K4_PRETRAIN_SYSTEM, 2, max_length="3"),
     "the maximum length must be an int, got '3'"),
    (lambda: frak_girth_pretrain_witness(K4_PRETRAIN, "3"),
     "girth bound must be an int, got '3'"),
    (lambda: frak_girth_seq_witness(PATH, (5.9,)),
     "a girth bound must be an int, got 5.9"),
    (lambda: frak_girth_seq_witness(PATH, ("x",)),
     "a girth bound must be an int, got 'x'"),
    (lambda: verify_revision(TRAIN, TRAIN, [TRAIN.parameter[0]], 2.5, (2,)),
     "the girth threshold must be an int, got 2.5"),
    (lambda: semitidy_equivalence_check(K4_SYSTEM, (2, 3)),
     "the bound of the equivalence check must be an int, got (2, 3)"),
    (lambda: semitidy_equivalence_check(K4_SYSTEM, True),
     "the bound of the equivalence check must be an int, got True"),
    (lambda: complete_multipartite({0: 1.5, 1: 1}, 2),
     "a class demand must be an int, got 1.5"),
    (lambda: complete_multipartite({0: 1, 1: 1}, "2"),
     "the class size m must be an int, got '2'"),
    (lambda: min_product_ramsey({0: 2}, 3, "x", cap=2),
     "number of colors must be an int, got 'x'"),
    (lambda: min_product_ramsey({0: 1, 1: 1}, 1.5, 2),
     "pattern class size must be an int, got 1.5"),
    (lambda: min_product_ramsey({0: 1, 1: 1}, 2, 2, cap=2.5),
     "the cap must be an int, got 2.5"),
    (lambda: min_product_ramsey({0: 1.5, 1: 1}, 2, 2),
     "a class demand must be an int, got 1.5"),
    (lambda: min_hj_exponent(complete_graph(3), 2, cap=2.5),
     "the cap must be an int, got 2.5"),
    (lambda: min_hj_exponent(complete_graph(3), "3"),
     "number of colors must be an int, got '3'"),
    (lambda: Budget(nodes="x"),
     "node budget must be None or a nonnegative int, got 'x'"),
    (lambda: Budget(nodes=1.0),
     "node budget must be None or a nonnegative int, got 1.0"),
    (lambda: Budget(nodes=True),
     "node budget must be None or a nonnegative int, got True"),
    (lambda: Budget(nodes=-1),
     "node budget must be None or a nonnegative int, got -1"),
])
def test_counts_and_bounds_must_be_ints(call, message):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert str(info.value) == message


def test_line_property_budget_is_optional():
    assert hj_line_property(2, 2, 2) == hj_line_property(2, 2, 2, Budget())
    assert hj_line_property(2, 2, 2, None)[0]
