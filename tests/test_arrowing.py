"""Tests for the exhaustive arrowing oracles and the line property.

Frozen expected values used below, each recomputed by the naive oracles
in this suite before freezing:

* least clique size arrowing a monochromatic triangle with 2 colors: 6
* least cube exponent for the 2-letter line property with 2 colors: 2
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partite import (Budget, BudgetExceeded, Copy, CopySystem, Hypergraph,
                     InvalidArgument, complete_graph, edge_arrows,
                     enumerate_copies, enumerate_lines, hj_line_property,
                     min_hj_exponent, min_product_ramsey, vertex_arrows)
from partite import arrowing
from oracles import (naive_edge_arrows, naive_hj_line_property,
                     naive_min_hj_exponent, naive_vertex_arrows,
                     random_copy_system)
from test_core import cycle_graph

TWO_EDGE_MATCHING = Hypergraph(
    ("u", "v", "w", "z"), (("u", "v"), ("w", "z")), k=2)


def triangle_system(n):
    host = complete_graph(n)
    pattern = complete_graph(3)
    copies = tuple(
        Copy(emb.image_key[0], emb.image_key[1])
        for emb in enumerate_copies(host, pattern, mode="nni"))
    return CopySystem(host, copies)


def path_system(m):
    """The path with m edges and its two-edge subpaths as copies."""
    P = Hypergraph(tuple(range(m + 1)), tuple((i, i + 1) for i in range(m)))
    return CopySystem(P, tuple(
        Copy((i, i + 1, i + 2), ((i, i + 1), (i + 1, i + 2)))
        for i in range(m - 1)))


def progression_system(n, k):
    """The k-term arithmetic progressions in range(n) as vertex copies."""
    aps = tuple(tuple(a + i * d for i in range(k))
                for a in range(n) for d in range(1, n)
                if a + (k - 1) * d < n)
    H = Hypergraph(tuple(range(n)), aps, k=k)
    return CopySystem(H, tuple(Copy.of_edge(ap) for ap in aps))


# ---------------------------------------------------------------------------
# edge and vertex arrowing


def test_single_edge_always_arrows():
    H = Hypergraph((0, 1), ((0, 1),))
    system = CopySystem(H, (Copy.of_edge((0, 1)),))
    for r in (1, 2, 3):
        assert edge_arrows(system, r).arrows


def test_no_copies_never_arrows():
    H = complete_graph(3)
    system = CopySystem(H, ())
    res = edge_arrows(system, 2)
    assert not res.arrows
    assert res.witness == (0, 0, 0)


def test_edgeless_copy_is_vacuously_monochromatic():
    H = complete_graph(3)
    system = CopySystem(H, (Copy((0,), ()),))
    res = edge_arrows(system, 5)
    assert res.arrows and res.witness is None


def test_triangles_of_k6_arrow_two_colors():
    assert edge_arrows(triangle_system(6), 2).arrows
    res5 = edge_arrows(triangle_system(5), 2)
    assert not res5.arrows
    # the witness avoids monochromatic triangles; recheck by hand
    ok, naive_witness = naive_edge_arrows(triangle_system(5), 2)
    assert not ok
    assert res5.witness == naive_witness


def test_invalid_color_count():
    with pytest.raises(InvalidArgument):
        edge_arrows(triangle_system(3), 0)


def test_vertex_arrowing_matches_chromatic_number():
    # an odd cycle needs three colors, so two always leave a mono edge
    C5 = Hypergraph(tuple(range(5)),
                    tuple((i, (i + 1) % 5) for i in range(5)))
    system = CopySystem(C5, tuple(Copy.of_edge(e) for e in C5.edges))
    assert vertex_arrows(system, 2).arrows
    res3 = vertex_arrows(system, 3)
    assert not res3.arrows
    ok, naive_witness = naive_vertex_arrows(system, 3)
    assert not ok and res3.witness == naive_witness


def test_long_path_is_searched_without_recursion():
    # one item per depth: 1500 edges are deeper than the recursion limit
    m = 1500
    res = edge_arrows(path_system(m), 2)
    assert not res.arrows
    assert res.witness == tuple(i % 2 for i in range(m))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_edge_arrowing_agrees_with_enumeration(seed, r):
    rng = random.Random(seed)
    system = random_copy_system(rng, max_vertices=6, max_edges=5,
                                max_copies=3)
    res = edge_arrows(system, r)
    ok, witness = naive_edge_arrows(system, r)
    assert res.arrows == ok
    assert res.witness == witness


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_vertex_arrowing_agrees_with_enumeration(seed, r):
    rng = random.Random(seed)
    system = random_copy_system(rng, max_vertices=5, max_edges=4,
                                max_copies=3)
    res = vertex_arrows(system, r)
    ok, witness = naive_vertex_arrows(system, r)
    assert res.arrows == ok
    assert res.witness == witness


def test_arrowing_monotone_in_colors():
    rng = random.Random(3)
    for _ in range(20):
        system = random_copy_system(rng, max_vertices=6, max_edges=5,
                                    max_copies=3)
        if edge_arrows(system, 3).arrows:
            assert edge_arrows(system, 2).arrows


def test_adding_copies_preserves_arrowing():
    rng = random.Random(4)
    for _ in range(20):
        system = random_copy_system(rng, max_vertices=6, max_edges=5,
                                    max_copies=2)
        if not system.copies or system.host.num_edges == 0:
            continue
        if edge_arrows(system, 2).arrows:
            extra = Copy.of_edge(system.host.edges[0])
            bigger = CopySystem(system.host, system.copies + (extra,))
            assert edge_arrows(bigger, 2).arrows


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        edge_arrows(triangle_system(6), 2, budget=Budget(nodes=3))


# explored partial colorings; K5 and K8 fail with every edge in equally
# many triangles, so their deciding pass is also the witness pass
@pytest.mark.parametrize("search, explored", [
    pytest.param(lambda: edge_arrows(triangle_system(6), 2).explored, 987,
                 id="K6 r=2"),
    pytest.param(lambda: vertex_arrows(progression_system(35, 4), 2).explored,
                 20639, id="AP4 in [35] r=2"),
    pytest.param(lambda: vertex_arrows(progression_system(26, 3), 3).explored,
                 54768, id="AP3 in [26] r=3"),
    pytest.param(lambda: hj_line_property(3, 3, 2)[2], 474, id="HJ(3,3,2)"),
    pytest.param(lambda: edge_arrows(path_system(1500), 2).explored, 4500,
                 id="P1500 r=2"),
    pytest.param(lambda: edge_arrows(triangle_system(5), 2).explored, 71,
                 id="K5 r=2"),
    pytest.param(lambda: edge_arrows(triangle_system(8), 3).explored, 87726,
                 id="K8 r=3"),
])
def test_explored_counts_are_pinned(search, explored):
    assert search() == explored


def test_budget_boundary_is_the_last_explored_node():
    res = edge_arrows(triangle_system(6), 2, budget=Budget(nodes=987))
    assert res.arrows and res.explored == 987
    with pytest.raises(BudgetExceeded) as info:
        edge_arrows(triangle_system(6), 2, budget=Budget(nodes=986))
    assert (info.value.spent, info.value.budget) == (987, 986)
    assert str(info.value) == "search budget exhausted after 987 explored states"


def test_zero_and_unlimited_budgets_are_accepted():
    assert edge_arrows(triangle_system(6), 2, budget=Budget(nodes=None)).arrows
    with pytest.raises(BudgetExceeded):
        edge_arrows(triangle_system(6), 2, budget=Budget(nodes=0))


def counting_passes(monkeypatch):
    """Record the item order of every ``_least_bad`` pass."""
    orders = []
    least_bad = arrowing._least_bad

    def counting(n_items, groups, r, order, budget, explored):
        orders.append(list(order))
        return least_bad(n_items, groups, r, order, budget, explored)

    monkeypatch.setattr(arrowing, "_least_bad", counting)
    return orders


def two_edge_paths_of_cycle(n):
    C = cycle_graph(n)
    return CopySystem(C, tuple(
        Copy((i, (i + 1) % n, (i + 2) % n),
             ((i, (i + 1) % n), ((i + 1) % n, (i + 2) % n)))
        for i in range(n)))


def edges_of_cycle(n):
    C = cycle_graph(n)
    return CopySystem(C, tuple(Copy.of_edge(e) for e in C.edges))


# every item lies in equally many copies: one pass decides and witnesses
EQUAL_MEMBERSHIP = {
    "triangles of K_n": (edge_arrows, naive_edge_arrows, triangle_system),
    "edges of C_n": (vertex_arrows, naive_vertex_arrows, edges_of_cycle),
    "two-edge paths of C_n": (edge_arrows, naive_edge_arrows,
                              two_edge_paths_of_cycle),
}


@pytest.mark.parametrize("name, n, r", [
    (name, n, r)
    for name, ns in (("triangles of K_n", (4, 5)),
                     ("edges of C_n", (3, 4, 5, 6, 7)),
                     ("two-edge paths of C_n", (3, 4, 5, 6, 7)))
    for n in ns for r in (2, 3)])
def test_equal_membership_skips_the_replay_and_matches_the_oracle(
        monkeypatch, name, n, r):
    arrows, naive, build = EQUAL_MEMBERSHIP[name]
    system = build(n)
    orders = counting_passes(monkeypatch)
    res = arrows(system, r)
    assert (res.arrows, res.witness) == naive(system, r)
    assert len(orders) == 1


def test_canonical_pass_runs_once_per_failure_with_mixed_membership(
        monkeypatch):
    orders = counting_passes(monkeypatch)
    assert not edge_arrows(triangle_system(5), 2).arrows
    assert len(orders) == 1
    orders.clear()
    # the end edges of a path lie in one two-edge path, the others in two
    system = path_system(6)
    res = edge_arrows(system, 2)
    assert (res.arrows, res.witness) == naive_edge_arrows(system, 2)
    assert orders[1] == list(range(6)) != orders[0]
    assert len(orders) == 2
    orders.clear()
    assert edge_arrows(triangle_system(6), 2).arrows
    assert len(orders) == 1


def test_copy_outside_the_host_is_named():
    stray = CopySystem(complete_graph(4),
                       (Copy((0, 1, 9), ((0, 9), (0, 1))),))
    for arrows in (edge_arrows, vertex_arrows):
        with pytest.raises(InvalidArgument, match=r"\(0, 1, 9\)"):
            arrows(stray, 2)


def test_copy_with_a_foreign_vertex_is_named():
    stray = CopySystem(complete_graph(4), (Copy((0, 1, 9), ((0, 1),)),))
    with pytest.raises(InvalidArgument,
                       match=r"\(0, 1, 9\) has vertices outside"):
        vertex_arrows(stray, 2)


# ---------------------------------------------------------------------------
# words, lines, the line property


def test_line_count():
    # per coordinate: a letter or "moving", minus the all-constant words
    for (t, n) in ((2, 2), (2, 3), (3, 2)):
        assert len(enumerate_lines(t, n)) == (t + 1) ** n - t ** n


def test_lines_have_t_words_each():
    for L in enumerate_lines(3, 2):
        ws = L.words(3)
        assert len(set(ws)) == 3


def test_line_property_small_cases():
    # one exponent is too little for two letters and two colors, two are
    # enough
    ok1, wit1, _ = hj_line_property(2, 1, 2, Budget())
    assert not ok1 and wit1 == (0, 1)
    ok2, _, _ = hj_line_property(2, 2, 2, Budget())
    assert ok2
    assert naive_hj_line_property(2, 2, 2)
    assert not naive_hj_line_property(2, 1, 2)


def test_min_exponent_two_letters():
    assert min_hj_exponent(TWO_EDGE_MATCHING, 2) == 2
    assert naive_min_hj_exponent(2, 2, cap=3) == 2


def test_min_exponent_three_colors_matches_enumeration():
    got = min_hj_exponent(TWO_EDGE_MATCHING, 3, cap=4)
    assert got == naive_min_hj_exponent(2, 3, cap=4)


def test_min_exponent_single_color_is_one():
    assert min_hj_exponent(TWO_EDGE_MATCHING, 1) == 1


def test_min_exponent_needs_edges():
    with pytest.raises(InvalidArgument):
        min_hj_exponent(Hypergraph((1, 2), ()), 2)


def test_line_property_monotone():
    # in the exponent upward, in the color count downward
    for n in (1, 2):
        if hj_line_property(2, n, 2, Budget())[0]:
            assert hj_line_property(2, n + 1, 2, Budget())[0]
    for r in (3, 2):
        if hj_line_property(2, 2, r, Budget())[0]:
            assert hj_line_property(2, 2, r - 1, Budget())[0]


# ---------------------------------------------------------------------------
# product arrowing


def test_least_clique_for_triangles():
    assert min_product_ramsey({0: 2}, 3, 2) == 6


def test_single_edge_patterns_arrow_immediately():
    assert min_product_ramsey({0: 2}, 2, 2) == 2
    assert min_product_ramsey({0: 1, 1: 1}, 1, 3) == 1


def test_pattern_class_demand_checked():
    with pytest.raises(InvalidArgument):
        min_product_ramsey({0: 3}, 2, 2)


def test_product_arrowing_budget():
    with pytest.raises(BudgetExceeded):
        min_product_ramsey({0: 2}, 3, 2, cap=5)
