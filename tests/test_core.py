"""Tests for the hypergraph data layer: validation, cycles, girth,
inducedness, copy enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partite import (Hypergraph, InvalidArgument, PreconditionViolation,
                     canonical_cycle, check_cycle, complete_graph,
                     complete_multipartite, complete_uniform,
                     enumerate_copies, girth_exceeds, is_A_intersecting,
                     is_induced_subhypergraph, is_linear,
                     is_strongly_induced, make_partition, shortest_edge_cycle,
                     validate)
from oracles import (naive_girth_exceeds, naive_shortest_cycle_length,
                     naive_strongly_induced_linear, random_hypergraph,
                     random_linear_hypergraph)


def cycle_graph(n):
    vs = tuple(range(n))
    return Hypergraph(vs, tuple((i, (i + 1) % n) for i in vs), k=2)


FANO = Hypergraph(
    tuple(range(1, 8)),
    ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7),
     (3, 5, 6)),
    k=3,
)


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_simple_graph():
    assert validate(cycle_graph(4)) == []


def test_duplicate_vertices_rejected():
    with pytest.raises(InvalidArgument):
        Hypergraph((1, 1, 2), ((1, 2),))


def test_edge_with_repeated_vertex_rejected():
    with pytest.raises(InvalidArgument):
        Hypergraph((1, 2), ((1, 1),))


def test_edge_outside_vertex_set_reported():
    H = Hypergraph((1, 2), ())
    G = Hypergraph((1, 2, 3), ((1, 3),)).restrict_edges([(1, 3)])
    assert validate(H) == []
    assert validate(G) == []
    bad = Hypergraph.__new__(Hypergraph)
    object.__setattr__(bad, "vertices", (1, 2))
    object.__setattr__(bad, "edges", ((1, 3),))
    object.__setattr__(bad, "k", None)
    object.__setattr__(bad, "ordered", False)
    object.__setattr__(bad, "partite", None)
    assert any("outside" in p or "not a vertex" in p or "vertex" in p
               for p in validate(bad))


def test_uniformity_mismatch_reported():
    bad = Hypergraph.__new__(Hypergraph)
    object.__setattr__(bad, "vertices", (1, 2, 3))
    object.__setattr__(bad, "edges", ((1, 2), (1, 2, 3)))
    object.__setattr__(bad, "k", 2)
    object.__setattr__(bad, "ordered", False)
    object.__setattr__(bad, "partite", None)
    assert validate(bad)


def test_partition_must_cover_vertices():
    part = make_partition({0: (1, 2), 1: (3,)})
    H = Hypergraph((1, 2, 3, 4), (), partite=part)
    assert any("class" in p or "partition" in p for p in validate(H))


# ---------------------------------------------------------------------------
# cycles and girth


def test_two_cycle_needs_two_shared_vertices():
    H = Hypergraph((1, 2, 3, 4), ((1, 2, 3), (1, 2, 4)))
    w = shortest_edge_cycle(H, 4)
    assert w is not None and len(w) == 2
    assert check_cycle(H, w) == []


def test_cycle_graph_girth_is_its_length():
    for n in (3, 4, 5, 6):
        C = cycle_graph(n)
        w = shortest_edge_cycle(C, n)
        assert w is not None and len(w) == n
        assert check_cycle(C, w) == []
        assert shortest_edge_cycle(C, n - 1) is None
        assert girth_exceeds(C, n - 1) and not girth_exceeds(C, n)


def test_fano_plane_girth():
    # linear, so no 2-cycle; three lines through a common triangle close
    # a 3-cycle
    assert is_linear(FANO)
    assert girth_exceeds(FANO, 2)
    w = shortest_edge_cycle(FANO, 3)
    assert w is not None and len(w) == 3
    assert check_cycle(FANO, w) == []


def test_forest_has_no_cycle():
    T = Hypergraph((1, 2, 3, 4, 5), ((1, 2), (1, 3), (3, 4), (3, 5)))
    assert shortest_edge_cycle(T, 5) is None
    assert girth_exceeds(T, 5)


def test_short_bound_rejected():
    with pytest.raises(InvalidArgument):
        shortest_edge_cycle(cycle_graph(3), 1)


def test_canonical_cycle_invariance():
    C = cycle_graph(5)
    w = shortest_edge_cycle(C, 5)
    rotated = w[2:] + w[:2]
    reversed_form = tuple(
        (w[(len(w) - j) % len(w)][0], w[(len(w) - j - 1) % len(w)][1])
        for j in range(len(w)))
    assert canonical_cycle(rotated) == w
    assert canonical_cycle(reversed_form) == w


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shortest_cycle_matches_oracle(seed):
    rng = random.Random(seed)
    H = random_linear_hypergraph(rng, 7, 6)
    got = shortest_edge_cycle(H, 6)
    expected = naive_shortest_cycle_length(H, 6)
    if expected is None:
        assert got is None
    else:
        assert got is not None and len(got) == expected
        assert check_cycle(H, got) == []


def test_shortest_cycle_matches_oracle_on_mixed_edge_sizes():
    # non-linear hypergraphs with edges of sizes two and three
    lengths = set()
    for seed in range(300):
        H = random_hypergraph(random.Random(seed), 7, 7)
        got = shortest_edge_cycle(H, 5)
        expected = naive_shortest_cycle_length(H, 5)
        lengths.add(expected)
        if expected is None:
            assert got is None
        else:
            assert got is not None and len(got) == expected
            assert check_cycle(H, got) == []
    assert lengths == {2, 3, 4, None}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_girth_exceeds_matches_oracle(seed, g):
    rng = random.Random(seed)
    H = random_linear_hypergraph(rng, 7, 6)
    assert girth_exceeds(H, g) == naive_girth_exceeds(H, g)


def test_linearity_is_girth_above_two():
    H1 = Hypergraph((1, 2, 3, 4), ((1, 2, 3), (1, 2, 4)))
    H2 = FANO
    assert not is_linear(H1) and not girth_exceeds(H1, 2)
    assert is_linear(H2) and girth_exceeds(H2, 2)


# ---------------------------------------------------------------------------
# inducedness


def test_induced_subhypergraph():
    K4 = complete_graph(4)
    tri = Hypergraph((0, 1, 2), ((0, 1), (0, 2), (1, 2)), k=2)
    path = Hypergraph((0, 1, 2), ((0, 1), (1, 2)), k=2)
    assert is_induced_subhypergraph(tri, K4)
    assert not is_induced_subhypergraph(path, K4)


def test_strong_inducedness_examples():
    # host: a path a-b-c-d; the sub-path a-b-c is strongly induced, the
    # edge {a,b} alone is not (edge {b,c} cuts V(F) in {b} which is fine,
    # but {c,d} cuts in the empty set -- fine too; single edge {a,b} is
    # strongly induced here).  Use a host edge cutting two vertices
    # outside an edge of F to see failure.
    P = Hypergraph(("a", "b", "c", "d"),
                   (("a", "b"), ("b", "c"), ("c", "d")))
    F1 = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert is_strongly_induced(F1, P)
    # F2 spans a and c but holds only the edge {a,b}: the host edge
    # {b,c} meets V(F2) in {b,c}... b not in V(F2), so cut={c}: fine;
    # instead make F3 with both ends of a host edge but not the edge
    F3 = Hypergraph(("a", "b", "c"), (("a", "b"),))
    assert not is_strongly_induced(F3, P)  # {b,c} cuts {b,c}, no edge covers


def test_strong_inducedness_edgeless_cases():
    E0 = Hypergraph((), ())
    H = Hypergraph((1, 2), ((1, 2),))
    assert is_strongly_induced(E0, Hypergraph((), ()))
    # edgeless pattern cannot absorb any host edge
    assert not is_strongly_induced(Hypergraph((1,), ()), H)


def test_strong_inducedness_requires_containment():
    K3 = complete_graph(3)
    other = Hypergraph((7, 8), ((7, 8),))
    with pytest.raises(InvalidArgument):
        is_strongly_induced(other, K3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_strong_inducedness_matches_three_clause_form(seed):
    rng = random.Random(seed)
    H = random_linear_hypergraph(rng, 7, 6)
    if H.num_edges == 0:
        return
    k = rng.randint(1, H.num_edges)
    picked = rng.sample(range(H.num_edges), k)
    edges = [tuple(sorted(H.edge_sets[i])) for i in picked]
    vs = sorted({v for e in edges for v in e})
    F = Hypergraph(tuple(vs), tuple(edges))
    assert is_strongly_induced(F, H) == naive_strongly_induced_linear(F, H)


def test_strong_implies_induced():
    rng = random.Random(5)
    for _ in range(40):
        H = random_linear_hypergraph(rng, 7, 6)
        if H.num_edges == 0:
            continue
        k = rng.randint(1, H.num_edges)
        edges = [tuple(sorted(H.edge_sets[i]))
                 for i in rng.sample(range(H.num_edges), k)]
        vs = sorted({v for e in edges for v in e})
        F = Hypergraph(tuple(vs), tuple(edges))
        if is_strongly_induced(F, H):
            assert is_induced_subhypergraph(F, H)


# ---------------------------------------------------------------------------
# copy enumeration


def test_triangles_of_k5():
    K5 = complete_graph(5)
    K3 = complete_graph(3)
    copies = enumerate_copies(K5, K3, mode="induced")
    assert len(copies) == 10
    images = {c.image_key for c in copies}
    assert len(images) == 10


def test_no_triangles_in_c5():
    C5 = cycle_graph(5)
    K3 = complete_graph(3)
    assert enumerate_copies(C5, K3, mode="nni") == ()


def test_paths_in_c5_and_k3():
    P3 = Hypergraph((0, 1, 2), ((0, 1), (1, 2)), k=2)
    C5 = cycle_graph(5)
    K3 = complete_graph(3)
    assert len(enumerate_copies(C5, P3, mode="induced")) == 5
    # in the triangle a 2-edge path is never induced, and the three
    # non-induced images differ in their edge sets
    assert enumerate_copies(K3, P3, mode="induced") == ()
    assert len(enumerate_copies(K3, P3, mode="nni")) == 3


def test_embedding_count_vs_copy_count():
    K4 = complete_graph(4)
    K3 = complete_graph(3)
    embeddings = enumerate_copies(K4, K3, mode="induced",
                                  distinct_images=False)
    copies = enumerate_copies(K4, K3, mode="induced")
    assert len(embeddings) == 4 * 3 * 2
    assert len(copies) == 4


def test_respect_order_monotone_maps_only():
    # ordered host path 0<1<2<3; ordered pattern path on 0<1<2
    P4 = Hypergraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), ordered=True)
    P3 = Hypergraph((0, 1, 2), ((0, 1), (1, 2)), ordered=True)
    ordered = enumerate_copies(P4, P3, mode="induced", respect_order=True)
    free = enumerate_copies(P4, P3, mode="induced")
    assert len(ordered) == 2  # 0-1-2 and 1-2-3, increasing only
    assert len(free) == 2  # same images; reversal maps hit equal images


def test_uniform_copies_in_fano():
    # single 3-edge patterns embed onto each line
    E1 = Hypergraph((0, 1, 2), ((0, 1, 2),), k=3)
    copies = enumerate_copies(FANO, E1, mode="nni")
    assert len(copies) == 7


def test_partite_mode_requires_structure():
    K3 = complete_graph(3)
    with pytest.raises(PreconditionViolation):
        enumerate_copies(K3, K3, mode="partite")


def test_fpartite_copies_respect_classes():
    pattern = complete_multipartite({0: 1, 1: 1}, 1)
    host = complete_multipartite({0: 1, 1: 1}, 2)
    copies = enumerate_copies(host, pattern, mode="fpartite", induced=False)
    # one vertex from each class on either side: 2*2 single edges
    assert len(copies) == 4
    for emb in copies:
        for (fv, hv) in emb.pairs:
            assert fv[0] == hv[0]  # class preserved


def test_complete_multipartite_shape():
    H = complete_multipartite({0: 2}, 3)
    assert H.num_vertices == 3 and H.num_edges == 3  # a triangle
    G = complete_multipartite({0: 1, 1: 2}, 3)
    assert G.num_edges == 3 * 3  # choose 1 of 3, then 2 of 3


def test_complete_uniform_counts():
    H = complete_uniform(5, 3)
    assert H.num_edges == 10
    assert girth_exceeds(H, 1) and not girth_exceeds(H, 2)


# ---------------------------------------------------------------------------
# partite predicates


def test_a_intersecting():
    part = make_partition({0: (0, 1), 1: (2, 3), 2: (4, 5)})
    F = Hypergraph(tuple(range(6)), ((0, 2, 4), (0, 3, 5)), partite=part)
    assert is_A_intersecting(F, [0])
    assert is_A_intersecting(F, [0, 1])
    G = Hypergraph(tuple(range(6)), ((0, 2, 4), (1, 2, 5)), partite=part)
    assert not is_A_intersecting(G, [0])
    assert is_A_intersecting(G, [1])


def test_a_intersecting_needs_partition():
    with pytest.raises(PreconditionViolation):
        is_A_intersecting(complete_graph(3), [0])
