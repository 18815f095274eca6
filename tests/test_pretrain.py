"""Tests for pretrains: wagons, extensions, big cycles, supreme copies.

The concrete fixtures are small enough to check by hand; the brute
force oracles re-derive the girth predicates independently on random
inputs.  Expected values of the fixtures were computed once with the
oracles and are frozen here.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partite import (BigCycle, Copy, CopySystem, Hypergraph, InvalidArgument,
                     PreconditionViolation, Pretrain, PretrainCopySystem,
                     are_order_isomorphic, check_big_cycle,
                     classify_big_cycle, complete_graph, contraction_map,
                     derive, edge_connector, enumerate_big_cycles,
                     enumerate_copy_cycles, find_supreme_copy,
                     frak_Girth_exceeds, frak_Girth_witness,
                     frak_girth_pretrain_exceeds, frak_girth_pretrain_witness,
                     girth_of_system_exceeds, has_supreme, is_extension,
                     is_linear, is_linear_pretrain, is_scattered,
                     is_strongly_induced, is_subpretrain, is_tame_extension,
                     long_piece, ordered_pair_problems,
                     ordered_pairs_isomorphic, Piece, semidirect_extend,
                     short_piece, subpretrain, supreme_copies,
                     validate_pretrain_system, vertex_connector,
                     wagon_assimilation, wagon_connector)
from oracles import (naive_big_cycles, naive_is_acceptable, naive_supremes,
                     naive_wagon_girth_exceeds, random_copy_system,
                     random_pretrain, random_pretrain_system, random_subcopy)

# ---------------------------------------------------------------------------
# fixtures


def triangle():
    return Hypergraph(("x", "y", "z"), (("x", "y"), ("y", "z"), ("x", "z")))


def hexagon():
    """Six vertices in a ring, three wagons of two consecutive edges.

    The wagons pairwise share one vertex, so the pretrain is linear but
    its wagons form a triangle.
    """
    H = Hypergraph(("a", "b", "c", "d", "e", "f"),
                   (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                    ("e", "f"), ("f", "a")))
    return Pretrain.from_classes(H, ((("a", "b"), ("b", "c")),
                                     (("c", "d"), ("d", "e")),
                                     (("e", "f"), ("f", "a"))))


def glued_path():
    """A two-edge path whose edges form a single wagon."""
    return Pretrain.single(Hypergraph(("a", "b", "c"),
                                      (("a", "b"), ("b", "c"))))


PATH_F = Copy(("a", "b", "c"), (("a", "b"), ("b", "c")))


def chain():
    """Two pendant edges hanging off a wagon of two disjoint edges.

    Hosts a three-step cycle closed by a wagon connector whose middle
    copy is the unique supreme one.
    """
    H = Hypergraph(("q1", "u", "q2", "v", "p1", "p2"),
                   (("q1", "u"), ("q2", "v"), ("u", "p1"), ("v", "p2")))
    return Pretrain.from_classes(H, ((("q1", "u"), ("q2", "v")),
                                     (("u", "p1"),),
                                     (("v", "p2"),)))


CH_F1 = Copy(("q1", "u", "p1"), (("q1", "u"), ("u", "p1")))
CH_F2 = Copy(("q1", "u", "q2", "v"), (("q1", "u"), ("q2", "v")))
CH_F3 = Copy(("q2", "v", "p2"), (("q2", "v"), ("v", "p2")))


def chain_system():
    return PretrainCopySystem(chain(), (CH_F1, CH_F2, CH_F3))


def chain_cycle(P):
    return BigCycle(((CH_F1, vertex_connector("q1")),
                     (CH_F2, vertex_connector("q2")),
                     (CH_F3, wagon_connector(P.wagon_of(("q1", "u"))))))


def ring():
    """A four-copy ring whose supreme copy needs a long piece.

    The two edges through z form a wagon; collapsing the copy on
    q3, q4, w4 keeps the cycle closed only through that wagon.
    """
    H = Hypergraph(("q1", "q2", "q3", "q4", "z", "w1", "w3", "w4"),
                   (("q1", "q4"), ("q2", "q3"), ("q3", "z"), ("q4", "z"),
                    ("q1", "w1"), ("q3", "w3"), ("q3", "w4"), ("q4", "w4")))
    return Pretrain.from_classes(H, ((("q3", "z"), ("q4", "z")),
                                     (("q1", "q4"),), (("q2", "q3"),),
                                     (("q1", "w1"),), (("q3", "w3"),),
                                     (("q3", "w4"),), (("q4", "w4"),)))


RG_F1 = Copy(("q1", "q4", "w1"), (("q1", "q4"), ("q1", "w1")))
RG_F2 = Copy(("q1", "q2", "q3", "q4", "z"),
             (("q1", "q4"), ("q2", "q3"), ("q3", "z"), ("q4", "z")))
RG_F3 = Copy(("q2", "q3", "w3"), (("q2", "q3"), ("q3", "w3")))
RG_F4 = Copy(("q3", "q4", "w4"), (("q3", "w4"), ("q4", "w4")))

RG_CYCLE = BigCycle(((RG_F1, vertex_connector("q1")),
                     (RG_F2, vertex_connector("q2")),
                     (RG_F3, vertex_connector("q3")),
                     (RG_F4, vertex_connector("q4"))))


def ring_system():
    return PretrainCopySystem(ring(), (RG_F1, RG_F2, RG_F3, RG_F4))


def _ordered(P: Pretrain) -> Pretrain:
    H = P.hypergraph
    return Pretrain(Hypergraph(H.vertices, H.edges, k=H.k, ordered=True),
                    P.wagon_ids)


# ---------------------------------------------------------------------------
# wagons


def test_wagon_ids_normalize_in_first_edge_order():
    H = Hypergraph((1, 2, 3, 4), ((1, 2), (2, 3), (3, 4)))
    P = Pretrain(H, ("beta", "alpha", "beta"))
    assert P.wagon_ids == (0, 1, 0)
    assert P.num_wagons == 2
    assert P.wagon(0).edges == ((1, 2), (3, 4))
    assert P.wagon(1).edges == ((2, 3),)
    assert P.fibers == (((1, 2), (3, 4)), ((2, 3),))
    assert P.wagon_of((3, 4)) == 0
    with pytest.raises(InvalidArgument):
        P.wagon(5)


def test_one_wagon_id_per_edge():
    with pytest.raises(InvalidArgument):
        Pretrain(triangle(), (0, 1))


def test_wagon_vertices_follow_host_order():
    H = Hypergraph(("c", "a", "b"), (("a", "c"), ("a", "b")), ordered=True)
    P = Pretrain.single(H)
    assert P.wagons[0].vertices == ("c", "a", "b")


def test_wagon_of_unknown_edge_raises():
    P = Pretrain.singletons(triangle())
    assert P.num_wagons == 3
    with pytest.raises(InvalidArgument):
        P.wagon_of(("x", "w"))


def test_from_classes_requires_a_partition():
    H = triangle()
    with pytest.raises(InvalidArgument):
        Pretrain.from_classes(H, (((("x", "y")), ("y", "z")),))
    with pytest.raises(InvalidArgument):
        Pretrain.from_classes(H, ((("x", "y"),),
                                  (("x", "y"), ("y", "z")),
                                  (("x", "z"),)))


def test_from_labels_requires_every_edge():
    with pytest.raises(InvalidArgument):
        Pretrain.from_labels(triangle(), {("x", "y"): 0, ("y", "z"): 0})


def test_subpretrain_restricts_the_relation():
    P = hexagon()
    Q = subpretrain(P, ("a", "b", "c", "d"))
    assert Q.hypergraph.edges == (("a", "b"), ("b", "c"), ("c", "d"))
    assert Q.wagon_ids == (0, 0, 1)
    assert is_subpretrain(Q, P)
    R = subpretrain(P, ("a", "b", "c"), edges=((("a", "b")),))
    assert R.hypergraph.num_edges == 1
    with pytest.raises(InvalidArgument):
        subpretrain(P, ("a", "zz"))
    with pytest.raises(InvalidArgument):
        subpretrain(P, ("a", "b"), edges=(("b", "c"),))


def test_subpretrain_relation_must_match():
    H = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert not is_subpretrain(Pretrain.singletons(H), Pretrain.single(H))
    assert not is_subpretrain(Pretrain.single(H), Pretrain.singletons(H))
    assert is_subpretrain(Pretrain.single(H), Pretrain.single(H))


# ---------------------------------------------------------------------------
# wagon girth


def test_hexagon_wagons_form_a_triangle():
    P = hexagon()
    assert is_linear_pretrain(P)
    assert frak_girth_pretrain_exceeds(P, 2)
    assert not frak_girth_pretrain_exceeds(P, 3)
    wit = frak_girth_pretrain_witness(P, 3)
    assert len(wit) == 3
    assert sorted(w for w, _ in wit) == [0, 1, 2]
    assert len({v for _, v in wit}) == 3
    for i, (w, v) in enumerate(wit):
        nxt = wit[(i + 1) % 3][0]
        assert v in P.wagon(w).vertex_set & P.wagon(nxt).vertex_set


def test_single_wagon_never_cycles():
    P = glued_path()
    assert frak_girth_pretrain_exceeds(P, 99)


def test_wagon_girth_bounds():
    P = hexagon()
    assert frak_girth_pretrain_witness(P, 1) is None
    assert frak_girth_pretrain_witness(P, 0) is None
    with pytest.raises(InvalidArgument):
        frak_girth_pretrain_exceeds(P, -1)


def test_wagon_girth_needs_a_linear_host():
    H = Hypergraph((1, 2, 3, 4), ((1, 2, 3), (1, 2, 4)))
    with pytest.raises(PreconditionViolation):
        frak_girth_pretrain_exceeds(Pretrain.singletons(H), 2)


def test_wagons_on_the_same_vertices_form_a_two_cycle():
    H = Hypergraph(("a", "b", "c", "d"),
                   (("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")))
    P = Pretrain.from_classes(H, ((("a", "b"), ("c", "d")),
                                  (("a", "c"), ("b", "d"))))
    assert is_linear(H)
    assert not is_linear_pretrain(P)
    wit = frak_girth_pretrain_witness(P, 2)
    assert len(wit) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_linearity_is_wagon_girth_above_two(seed):
    P = random_pretrain(random.Random(seed))
    assert is_linear_pretrain(P) == frak_girth_pretrain_exceeds(P, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_wagon_girth_matches_brute_force(seed, g):
    P = random_pretrain(random.Random(seed))
    assert frak_girth_pretrain_exceeds(P, g) == naive_wagon_girth_exceeds(P, g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_wagons_of_linear_pretrains_are_strongly_induced(seed):
    P = random_pretrain(random.Random(seed))
    if not is_linear_pretrain(P):
        return
    for w in P.wagons:
        assert is_strongly_induced(w.as_hypergraph(ordered=False),
                                   P.hypergraph)


# ---------------------------------------------------------------------------
# extensions


def test_a_pretrain_extends_itself_tamely():
    P = hexagon()
    assert is_extension(P, P)
    assert is_tame_extension(P, P)
    assert contraction_map(P, P) == {0: 0, 1: 1, 2: 2}


def test_extensions_keep_isolated_vertices():
    base = Pretrain.single(Hypergraph(("a", "b"), (("a", "b"),)))
    ext = Pretrain.single(Hypergraph(("a", "b", "c"), (("a", "b"),)))
    assert not is_extension(base, ext)


def test_every_wagon_must_contract():
    base = Pretrain.single(Hypergraph(("a", "b"), (("a", "b"),)))
    ext = Pretrain.singletons(Hypergraph(("a", "b", "c", "d"),
                                         (("a", "b"), ("c", "d"))))
    assert contraction_map(base, ext)[ext.wagon_of(("c", "d"))] is None
    assert not is_extension(base, ext)


def test_extensions_preserve_wagon_intersections():
    base = Pretrain.singletons(Hypergraph(("a", "b", "c", "d"),
                                          (("a", "b"), ("c", "d"))))
    H = Hypergraph(("a", "b", "c", "d", "e"),
                   (("a", "b"), ("a", "e"), ("c", "d"), ("c", "e")))
    ext = Pretrain.from_classes(H, ((("a", "b"), ("a", "e")),
                                    (("c", "d"), ("c", "e"))))
    assert not is_extension(base, ext)


def test_extension_needs_a_subpretrain():
    H = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    with pytest.raises(InvalidArgument):
        is_extension(Pretrain.single(H), Pretrain.singletons(H))


def test_closing_a_path_extends_but_not_tamely():
    base = glued_path()
    ext = Pretrain.single(Hypergraph(("a", "b", "c"),
                                     (("a", "b"), ("b", "c"), ("a", "c"))))
    assert is_extension(base, ext)
    assert not is_tame_extension(base, ext)


# ---------------------------------------------------------------------------
# wagon assimilation


def test_assimilation_of_degenerate_pretrains():
    P0 = Pretrain(Hypergraph(("a",), (), ordered=True), ())
    A0 = wagon_assimilation(P0)
    assert A0.pretrain == P0 and A0.note is not None
    P1 = _ordered(glued_path())
    A1 = wagon_assimilation(P1)
    assert A1.pretrain == P1 and A1.note is None
    assert are_order_isomorphic(A1.pattern,
                                P1.wagons[0].as_hypergraph())


def test_assimilation_places_fresh_wagons_in_the_gaps():
    P = _ordered(Pretrain.singletons(Hypergraph(("a", "b", "c", "d"),
                                                (("a", "b"), ("c", "d")))))
    A = wagon_assimilation(P)
    grown = A.pretrain
    assert grown.hypergraph.vertices == (
        "a", "b", ("wagon", 0, 1, "c"), ("wagon", 0, 1, "d"),
        ("wagon", 1, 0, "a"), ("wagon", 1, 0, "b"), "c", "d")
    assert grown.num_wagons == 2
    assert A.standard_copy == Copy(("a", "b", "c", "d"),
                                   (("a", "b"), ("c", "d")))
    assert is_tame_extension(P, grown)
    for w in grown.wagons:
        assert are_order_isomorphic(w.as_hypergraph(), A.pattern)


def test_assimilation_requires_an_ordered_host():
    with pytest.raises(PreconditionViolation):
        wagon_assimilation(glued_path())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_assimilation_grows_a_tame_extension(seed):
    P = _ordered(random_pretrain(random.Random(seed), max_vertices=6,
                                 max_edges=4))
    A = wagon_assimilation(P)
    assert is_tame_extension(P, A.pretrain)
    for w in A.pretrain.wagons:
        assert are_order_isomorphic(w.as_hypergraph(), A.pattern)


# ---------------------------------------------------------------------------
# semidirect extension


def test_ordered_pairs():
    X = Hypergraph(("x", "y", "z"), (("x", "y"), ("y", "z")), ordered=True)
    W = Hypergraph(("x", "y"), (("x", "y"),), ordered=True)
    assert ordered_pair_problems(X, W) == []
    bad = Hypergraph(("y", "x"), (("x", "y"),), ordered=True)
    assert ordered_pair_problems(X, bad)
    X2 = Hypergraph((1, 2, 3), ((1, 2), (2, 3)), ordered=True)
    assert ordered_pairs_isomorphic(X, W, X2,
                                    Hypergraph((1, 2), ((1, 2),),
                                               ordered=True))
    assert not ordered_pairs_isomorphic(X, W, X2,
                                        Hypergraph((2, 3), ((2, 3),),
                                                   ordered=True))


def test_semidirect_identity():
    P = _ordered(glued_path())
    W = P.wagons[0].as_hypergraph()
    assert semidirect_extend(P, W, W) == P


def test_semidirect_completes_every_wagon():
    H = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")), ordered=True)
    P = Pretrain.singletons(H)
    W = Hypergraph(("x", "y"), (("x", "y"),), ordered=True)
    X = Hypergraph(("x", "y", "z"), (("x", "y"), ("y", "z")), ordered=True)
    E = semidirect_extend(P, X, W)
    assert E.hypergraph.vertices == (
        "a", "b", ("ext", 0, "z"), "c", ("ext", 1, "z"))
    assert E.num_wagons == 2
    assert is_tame_extension(P, E)
    for w in E.wagons:
        orig = P.wagons[w.id].as_hypergraph()
        assert ordered_pairs_isomorphic(X, W, w.as_hypergraph(), orig)


def test_semidirect_guards():
    P = _ordered(glued_path())
    W = Hypergraph(("x", "y"), (("x", "y"),), ordered=True)
    X = Hypergraph(("x", "y", "z"), (("x", "y"), ("y", "z")), ordered=True)
    with pytest.raises(InvalidArgument):
        semidirect_extend(P, X, W)   # the wagon is bigger than W
    lone = Hypergraph(("x", "y", "z"), (("x", "y"),), ordered=True)
    with pytest.raises(InvalidArgument):
        semidirect_extend(P, lone, W)
    with pytest.raises(InvalidArgument):
        semidirect_extend(P, X, Hypergraph(("w",), (), ordered=True))
    with pytest.raises(PreconditionViolation):
        semidirect_extend(glued_path(), X, W)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_assimilate_then_extend_is_tame(seed):
    rng = random.Random(seed)
    P = _ordered(random_pretrain(rng, max_vertices=6, max_edges=4))
    if P.num_wagons == 0:
        return
    A = wagon_assimilation(P)
    U = A.pattern
    # grow the pattern by pendant vertices; it stays strongly induced
    # because none of its vertices is isolated
    verts, edges = list(U.vertices), list(U.edges)
    for i in range(rng.randint(1, 2)):
        z = ("z", i)
        edges.append((rng.choice(U.vertices), z))
        verts.append(z)
    X = Hypergraph(tuple(verts), tuple(edges), ordered=True)
    E = semidirect_extend(A.pretrain, X, U)
    assert is_extension(A.pretrain, E)
    assert is_tame_extension(P, E)


# ---------------------------------------------------------------------------
# living carriers


def test_derive_is_the_identity_on_the_carrier():
    P = Pretrain.singletons(triangle())
    D = derive(P, triangle())
    assert D.hypergraph == triangle()
    assert D.wagon_ids == P.wagon_ids
    assert D.provenance == (0, 1, 2)


def test_derive_pulls_wagons_down_to_the_parts():
    N = Hypergraph((1, 2, 3, 4, 5, 6), ((1, 2, 3), (4, 5, 6)))
    H = Hypergraph((1, 2, 3, 4, 5, 6), ((1, 2), (2, 3), (4, 5), (5, 6)))
    D = derive(Pretrain.singletons(N), H)
    assert D.hypergraph == H
    assert D.wagon_ids == (0, 0, 1, 1)
    assert D.provenance == (0, 1)


def test_derive_checks_the_living_clauses():
    N = Hypergraph((1, 2, 3, 4, 5, 6), ((1, 2, 3), (4, 5, 6)))
    P = Pretrain.singletons(N)
    with pytest.raises(PreconditionViolation, match="clause \\(i\\)"):
        derive(P, Hypergraph((1, 2, 3, 4, 5, 6), ((1, 2), (3, 4))))
    with pytest.raises(PreconditionViolation, match="clause \\(ii\\)"):
        derive(P, Hypergraph((1, 2, 3, 4, 5, 6), ((1, 2), (4, 5), (5, 6))))
    with pytest.raises(PreconditionViolation, match="vertex set"):
        derive(P, Hypergraph((1, 2, 3), ((1, 2), (2, 3))))
    loops = Hypergraph((1, 2, 3), ((1, 2, 3), (1, 2)))
    with pytest.raises(PreconditionViolation, match="linear"):
        derive(Pretrain.singletons(loops), loops)


def test_derive_maps_copies_edgewise():
    N = Hypergraph((1, 2, 3, 4, 5, 6), ((1, 2, 3), (4, 5, 6)))
    sysN = PretrainCopySystem(Pretrain.singletons(N),
                              (Copy((1, 2, 3), ((1, 2, 3),)),
                               Copy.from_hypergraph(N)))
    H = Hypergraph((1, 2, 3, 4, 5, 6), ((1, 2), (2, 3), (4, 5), (5, 6)))
    D = derive(sysN, H)
    assert D.base.hypergraph == H
    assert set(D.copies) == {Copy((1, 2, 3), ((1, 2), (2, 3))),
                             Copy.from_hypergraph(H)}
    for c in D.copies:
        assert is_strongly_induced(c.as_hypergraph(), H)


def _random_living_pair(rng):
    verts = tuple(range(rng.randint(4, 8)))
    edges = []
    for _ in range(rng.randint(1, 3)):
        e = tuple(sorted(rng.sample(verts, rng.randint(2, min(4, len(verts))))))
        if any(len(set(e) & set(f)) > 1 for f in edges):
            continue
        edges.append(e)
    N = Hypergraph(verts, tuple(edges))
    parts = []
    for e in N.edges:
        e = tuple(e)
        if len(e) >= 4 and rng.random() < 0.7:
            cut = rng.randint(2, len(e) - 2)
            parts += [e[:cut], e[cut:]]
        else:
            parts.append(e)
    return N, Hypergraph(verts, tuple(parts))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_derivation_preserves_structure(seed):
    rng = random.Random(seed)
    N, H = _random_living_pair(rng)
    carrier = Pretrain(N, tuple(rng.randrange(2) for _ in N.edges))
    copies = tuple(c for c in (random_subcopy(rng, N) for _ in range(2))
                   if c is not None)
    sysN = PretrainCopySystem(carrier, copies)
    sysH = derive(sysN, H)
    if is_linear_pretrain(carrier):
        assert is_linear_pretrain(sysH.base)
    if all(is_strongly_induced(c.as_hypergraph(), N) for c in sysN.copies):
        assert all(is_strongly_induced(c.as_hypergraph(), H)
                   for c in sysH.copies)
    for g in (1, 2):
        if frak_Girth_exceeds(sysN, g):
            assert frak_Girth_exceeds(sysH, g)


# ---------------------------------------------------------------------------
# scattered systems


def test_scattered_by_identity():
    P = hexagon()
    whole = Copy.from_hypergraph(P.hypergraph)
    outer = PretrainCopySystem(P, (whole,))
    assert is_scattered(outer, (whole,))
    assert is_scattered(outer, PretrainCopySystem(P, (whole,)))


def test_a_wagon_glues_components_into_one_part():
    H = Hypergraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    whole = Copy.from_hypergraph(H)
    inner = (Copy(("a", "b"), (("a", "b"),)),)
    assert is_scattered(PretrainCopySystem(Pretrain.single(H), (whole,)),
                        inner)
    # with singleton wagons the second edge is a stray part
    assert not is_scattered(
        PretrainCopySystem(Pretrain.singletons(H), (whole,)), inner)


def test_straddling_parts_are_not_scattered():
    H = Hypergraph(("a", "b", "c", "d"),
                   (("a", "b"), ("b", "c"), ("c", "d")))
    outer = PretrainCopySystem(Pretrain.singletons(H),
                               (Copy.from_hypergraph(H),))
    assert not is_scattered(outer, (Copy(("a", "b"), (("a", "b"),)),
                                    Copy(("c", "d"), (("c", "d"),))))


def test_scattered_parts_must_be_tame():
    tri = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
    outer = PretrainCopySystem(Pretrain.single(tri),
                               (Copy.from_hypergraph(tri),))
    assert not is_scattered(outer, (PATH_F,))


def test_scattered_parts_must_reach_their_inner_copy():
    H = Hypergraph(("a", "b", "c"), (("a", "b"),))
    outer = PretrainCopySystem(Pretrain.singletons(H),
                               (Copy(("a", "b", "c"), (("a", "b"),)),))
    assert not is_scattered(outer, (Copy(("a", "b"), (("a", "b"),)),))


def test_scattered_needs_unique_hosts():
    H = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    P = Pretrain.singletons(H)
    ab = Copy(("a", "b"), (("a", "b"),))
    both = PretrainCopySystem(P, (Copy(("a", "b", "c"), (("a", "b"),)),
                                  Copy.from_hypergraph(H)))
    with pytest.raises(InvalidArgument):
        is_scattered(both, (ab,))
    none = PretrainCopySystem(P, (Copy(("b", "c"), (("b", "c"),)),))
    with pytest.raises(InvalidArgument):
        is_scattered(none, (ab,))
    with pytest.raises(InvalidArgument):
        is_scattered(both, PretrainCopySystem(Pretrain.single(H), (ab,)))


# ---------------------------------------------------------------------------
# big cycles


def test_big_cycles_reject_edge_connectors():
    with pytest.raises(InvalidArgument):
        BigCycle(((CH_F1, vertex_connector("q1")),
                  (CH_F2, edge_connector(("q1", "u")))))


def test_big_cycles_canonicalize_rotation_and_reflection():
    P = chain()
    w = wagon_connector(P.wagon_of(("q1", "u")))
    c1 = chain_cycle(P)
    c2 = BigCycle(((CH_F3, w),
                   (CH_F1, vertex_connector("q1")),
                   (CH_F2, vertex_connector("q2"))))
    c3 = BigCycle(((CH_F3, vertex_connector("q2")),
                   (CH_F2, vertex_connector("q1")),
                   (CH_F1, w)))
    assert c1 == c2 == c3
    assert len({c1, c2, c3}) == 1


def test_validity_of_the_chain_cycle():
    sys = chain_system()
    cyc = chain_cycle(sys.base)
    assert check_big_cycle(sys, cyc) == []
    assert validate_pretrain_system(sys) == []
    assert cyc.length == 3 and cyc.order == 2 and cyc.h == (2, 3)


def test_big_cycle_violations_are_reported():
    sys = chain_system()
    stranger = Copy(("q1", "u", "q2", "v"), (("q1", "u"),))
    got = check_big_cycle(sys, BigCycle((
        (stranger, vertex_connector("q1")),
        (CH_F2, vertex_connector("u")))))
    assert any("(B1)" in p and "family" in p for p in got)
    got = check_big_cycle(sys, BigCycle((
        (CH_F2, vertex_connector("q1")),
        (CH_F2, vertex_connector("q2")))))
    assert any("(B1)" in p and "coincide" in p for p in got)
    got = check_big_cycle(sys, BigCycle((
        (CH_F1, vertex_connector("u")),
        (CH_F2, vertex_connector("u")))))
    assert got == ["(B2) connectors are not distinct"]
    got = check_big_cycle(sys, BigCycle((
        (CH_F1, vertex_connector("p1")),
        (CH_F2, vertex_connector("q1")))))
    assert any("(B3)" in p for p in got)
    w = sys.base.wagon_of(("v", "p2"))
    got = check_big_cycle(sys, BigCycle((
        (CH_F1, vertex_connector("q1")),
        (CH_F2, wagon_connector(w)))))
    assert any("(B4)" in p for p in got)


def test_dangling_references_raise():
    sys = chain_system()
    with pytest.raises(InvalidArgument):
        check_big_cycle(sys, BigCycle((
            (Copy(("q1", "zz"), ()), vertex_connector("q1")),
            (CH_F2, vertex_connector("u")))))
    with pytest.raises(InvalidArgument):
        check_big_cycle(sys, BigCycle((
            (CH_F1, vertex_connector("zz")),
            (CH_F2, vertex_connector("q1")))))
    with pytest.raises(InvalidArgument):
        check_big_cycle(sys, BigCycle((
            (CH_F1, vertex_connector("q1")),
            (CH_F2, wagon_connector(99)))))


# ---------------------------------------------------------------------------
# acceptability


def test_chain_cycle_is_acceptable():
    sys = chain_system()
    got = classify_big_cycle(sys, chain_cycle(sys.base))
    assert got.status == "acceptable" and got.reasons == ()


def test_order_one_cycles_need_a_real_copy():
    sys = PretrainCopySystem(glued_path(), (PATH_F,))
    bad = BigCycle(((Copy.of_edge(("a", "b")), vertex_connector("b")),
                    (Copy.of_edge(("b", "c")), wagon_connector(0))))
    got = classify_big_cycle(sys, bad)
    assert got.status == "unacceptable"
    assert any("(A1)" in r for r in got.reasons)
    good = BigCycle(((PATH_F, vertex_connector("b")),
                     (Copy.of_edge(("a", "b")), wagon_connector(0))))
    assert classify_big_cycle(sys, good).status == "acceptable"


def test_realness_is_a_matter_of_shape():
    # listing the edge copies does not make them real
    sys = PretrainCopySystem(glued_path(), (Copy.of_edge(("a", "b")),
                                            Copy.of_edge(("b", "c"))))
    assert sys.real_set == frozenset()
    bad = BigCycle(((Copy.of_edge(("a", "b")), vertex_connector("b")),
                    (Copy.of_edge(("b", "c")), wagon_connector(0))))
    assert classify_big_cycle(sys, bad).status == "unacceptable"


def test_acceptability_limits_wagon_meetings():
    H = Hypergraph(("a", "b", "c", "d", "m"),
                   (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                    ("a", "m"), ("b", "m"), ("c", "m")))
    P = Pretrain.from_classes(H, ((("a", "m"), ("b", "m"), ("c", "m")),
                                  (("a", "b"),), (("b", "c"),),
                                  (("c", "d"),), (("d", "a"),)))
    sys = PretrainCopySystem(P, ())
    cyc = BigCycle(((Copy.of_edge(("a", "m")), vertex_connector("a")),
                    (Copy.of_edge(("a", "b")), vertex_connector("b")),
                    (Copy.of_edge(("b", "c")), vertex_connector("c")),
                    (Copy.of_edge(("c", "m")),
                     wagon_connector(P.wagon_of(("a", "m"))))))
    assert check_big_cycle(sys, cyc) == []
    got = classify_big_cycle(sys, cyc)
    assert got.status == "unacceptable"
    assert len(got.reasons) == 1 and "(A2)" in got.reasons[0]


def test_acceptability_forbids_covered_flanks():
    H = Hypergraph(("q1", "u", "q2", "v", "p1", "p2"),
                   (("q1", "u"), ("q2", "v"), ("u", "p1"), ("v", "p2"),
                    ("q1", "q2")))
    P = Pretrain.from_classes(H, ((("q1", "u"), ("q2", "v")),
                                  (("u", "p1"),), (("v", "p2"),),
                                  (("q1", "q2"),)))
    sys = PretrainCopySystem(P, (CH_F1, CH_F2, CH_F3))
    cyc = BigCycle(((CH_F1, vertex_connector("q1")),
                    (CH_F2, vertex_connector("q2")),
                    (CH_F3, wagon_connector(P.wagon_of(("q1", "u"))))))
    got = classify_big_cycle(sys, cyc)
    assert got.status == "unacceptable"
    assert any("(A2)" in r and "covers both" in r for r in got.reasons)


def test_absent_wagons_must_sit_on_adjacent_connectors():
    H = Hypergraph(("q1", "q2", "q3", "q4", "s", "t"),
                   (("q1", "q2"), ("q2", "q3"), ("q3", "q4"), ("q4", "q1"),
                    ("q1", "s"), ("q3", "t")))
    P = Pretrain.from_classes(H, ((("q1", "s"), ("q3", "t")),
                                  (("q1", "q2"),), (("q2", "q3"),),
                                  (("q3", "q4"),), (("q4", "q1"),)))
    sys = PretrainCopySystem(P, ())
    cyc = BigCycle(((Copy.of_edge(("q1", "q2")), vertex_connector("q2")),
                    (Copy.of_edge(("q2", "q3")), vertex_connector("q3")),
                    (Copy.of_edge(("q3", "q4")), vertex_connector("q4")),
                    (Copy.of_edge(("q4", "q1")), vertex_connector("q1"))))
    got = classify_big_cycle(sys, cyc)
    assert got.status == "unacceptable"
    assert any("(A3)" in r for r in got.reasons)
    assert cyc not in enumerate_big_cycles(sys, 4, max_length=4)
    assert cyc in enumerate_big_cycles(sys, 4, max_length=4, notion="valid")


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_triangle_edge_cycles():
    sys = PretrainCopySystem(Pretrain.singletons(triangle()), ())
    assert enumerate_big_cycles(sys, 0) == ()
    assert enumerate_big_cycles(sys, 2) == ()
    got = enumerate_big_cycles(sys, 3)
    assert [c.h for c in got] == [(3, 3)]
    assert got == enumerate_big_cycles(sys, 3, notion="valid")


def test_enumeration_is_sorted_and_guarded():
    sys = ring_system()
    got = enumerate_big_cycles(sys, 4, max_length=4)
    assert RG_CYCLE in got
    hs = [c.h for c in got]
    assert hs == sorted(hs)
    valid = enumerate_big_cycles(sys, 2, notion="valid")
    assert set(enumerate_big_cycles(sys, 2)) <= set(valid)
    with pytest.raises(InvalidArgument):
        enumerate_big_cycles(sys, 2, notion="weird")
    with pytest.raises(InvalidArgument):
        enumerate_big_cycles(sys, -1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_big_cycle_enumeration_matches_brute_force(seed):
    rng = random.Random(seed)
    sys = random_pretrain_system(rng, max_vertices=6, max_edges=4,
                                 max_copies=2)
    brute = naive_big_cycles(sys, 2, 4)
    assert set(enumerate_big_cycles(sys, 2, notion="valid")) == brute
    assert set(enumerate_big_cycles(sys, 2)) == {
        c for c in brute if naive_is_acceptable(sys, c)}


# ---------------------------------------------------------------------------
# supreme copies


def test_piece_shapes():
    assert short_piece(("a", "b")).is_short
    lp = long_piece(("a", "b"), 0, ("b", "c"))
    assert lp.is_long and lp.wagon == 0
    with pytest.raises(InvalidArgument):
        Piece((("a", "b"),), wagon=0)
    with pytest.raises(InvalidArgument):
        long_piece(("a", "b"), 0, ("a", "b"))
    with pytest.raises(InvalidArgument):
        Piece(())


def test_chain_middle_copy_is_the_unique_supreme():
    sys = chain_system()
    cyc = chain_cycle(sys.base)
    wits = supreme_copies(sys, cyc)
    assert [w.copy for w in wits] == [CH_F2]
    wit = find_supreme_copy(sys, cyc)
    assert wit.copy == CH_F2
    assert set(wit.pieces) == {i for i in range(3)
                               if cyc.copies[i] != CH_F2}
    assert sorted(p.edges for p in wit.pieces.values()) == [
        (("q1", "u"),), (("q2", "v"),)]
    assert set(wit.replacement.copies) == {
        CH_F2, Copy.of_edge(("q1", "u")), Copy.of_edge(("q2", "v"))}
    assert classify_big_cycle(sys, wit.replacement).status == "acceptable"


def test_ring_supreme_needs_a_long_piece():
    sys = ring_system()
    assert classify_big_cycle(sys, RG_CYCLE).status == "acceptable"
    assert RG_CYCLE.h == (4, 4)
    wits = supreme_copies(sys, RG_CYCLE)
    assert [w.copy for w in wits] == [RG_F2]
    wit = wits[0]
    shorts = sorted(p.edges[0] for p in wit.pieces.values() if p.is_short)
    assert shorts == [("q1", "q4"), ("q2", "q3")]
    [lp] = [p for p in wit.pieces.values() if p.is_long]
    assert lp.wagon == sys.base.wagon_of(("q3", "z"))
    assert set(lp.edges) == {("q3", "z"), ("q4", "z")}
    assert wit.replacement.length == 5
    assert classify_big_cycle(sys, wit.replacement).status == "acceptable"


def test_path_copy_is_supreme_through_its_own_wagon():
    sys = PretrainCopySystem(glued_path(), (PATH_F,))
    cyc = BigCycle(((PATH_F, vertex_connector("b")),
                    (Copy.of_edge(("a", "b")), wagon_connector(0))))
    wit = find_supreme_copy(sys, cyc)
    assert wit.copy == PATH_F
    [piece] = wit.pieces.values()
    assert piece.is_short and piece.edges[0] in (("a", "b"), ("b", "c"))


def test_find_supreme_needs_an_acceptable_cycle():
    sys = PretrainCopySystem(glued_path(), (PATH_F,))
    bad = BigCycle(((Copy.of_edge(("a", "b")), vertex_connector("b")),
                    (Copy.of_edge(("b", "c")), wagon_connector(0))))
    with pytest.raises(PreconditionViolation):
        find_supreme_copy(sys, bad)


def test_edge_cycles_have_no_supreme_copy():
    sys = PretrainCopySystem(Pretrain.singletons(triangle()), ())
    [cyc] = enumerate_big_cycles(sys, 3)
    assert supreme_copies(sys, cyc) == ()
    assert not has_supreme(sys, cyc)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_supreme_search_matches_brute_force(seed):
    rng = random.Random(seed)
    sys = random_pretrain_system(rng, max_vertices=6, max_edges=4,
                                 max_copies=2)
    for cyc in enumerate_big_cycles(sys, 2):
        assert [w.copy for w in supreme_copies(sys, cyc)] == \
            naive_supremes(sys, cyc)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_supreme_copies_contain_all_vertex_connectors(seed):
    rng = random.Random(seed)
    sys = random_pretrain_system(rng, max_vertices=6, max_edges=4,
                                 max_copies=2)
    for cyc in enumerate_big_cycles(sys, 2, notion="valid"):
        for wit in supreme_copies(sys, cyc):
            for q in cyc.connectors:
                if q.is_vertex:
                    assert q.value in wit.copy.vertex_set


# ---------------------------------------------------------------------------
# the girth of a system of pretrains


def test_girth_failure_states_its_reason():
    sys = PretrainCopySystem(Pretrain.singletons(triangle()), ())
    assert frak_Girth_exceeds(sys, 2)
    fail = frak_Girth_witness(sys, 3)
    assert fail is not None and fail.cycle is not None
    assert "supreme" in fail.reason
    assert classify_big_cycle(sys, fail.cycle).status == "acceptable"


def test_girth_fails_on_nonlinear_input():
    H = Hypergraph((1, 2, 3, 4), ((1, 2, 3), (1, 2, 4)))
    fail = frak_Girth_witness(PretrainCopySystem(Pretrain.singletons(H), ()),
                              2)
    assert fail is not None and "linear" in fail.reason
    dbl = Hypergraph(("a", "b", "c", "d"),
                     (("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")))
    P = Pretrain.from_classes(dbl, ((("a", "b"), ("c", "d")),
                                    (("a", "c"), ("b", "d"))))
    fail = frak_Girth_witness(PretrainCopySystem(P, ()), 2)
    assert fail is not None and fail.wagon_cycle is not None


def test_girth_names_a_copy_outside_the_host():
    stray = PretrainCopySystem(Pretrain.singletons(complete_graph(4)), (
        Copy((0, 1, 9), ((0, 9), (0, 1))), Copy((1, 2, 9), ((1, 9), (1, 2)))))
    with pytest.raises(InvalidArgument, match=r"\(0, 1, 9\)"):
        frak_Girth_witness(stray, 2)


def test_girth_bound_must_be_nonnegative():
    sys = chain_system()
    with pytest.raises(InvalidArgument):
        frak_Girth_exceeds(sys, -1)
    assert frak_Girth_exceeds(sys, 0)


def test_glued_path_system_has_high_girth():
    sys = PretrainCopySystem(glued_path(), (PATH_F,))
    for g in (1, 2, 3):
        assert frak_Girth_exceeds(sys, g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_order_one_girth_reduces_to_shared_wagon_edges(seed):
    rng = random.Random(seed)
    sys = random_pretrain_system(rng, max_vertices=6, max_edges=5)
    base = sys.base
    if not is_linear_pretrain(base):
        return
    expected = True
    for cyc in enumerate_big_cycles(sys, 1, notion="valid"):
        [x] = [q.value for q in cyc.connectors if q.is_vertex]
        [w] = [q.value for q in cyc.connectors if q.is_wagon]
        for F in cyc.copies:
            if not any(x in f and base.wagon_of(f) == w
                       for f in F.edge_sets):
                expected = False
    assert frak_Girth_exceeds(sys, 1) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_high_girth_forbids_two_wagon_links(seed):
    rng = random.Random(seed)
    sys = random_pretrain_system(rng, max_vertices=6, max_edges=4,
                                 max_copies=2)
    if not frak_Girth_exceeds(sys, 2):
        return
    for cyc in enumerate_big_cycles(sys, 2, notion="valid"):
        if cyc.length == 2:
            assert not all(q.is_wagon for q in cyc.connectors)
            # every real copy of such a short cycle is supreme
            sup = {w.copy for w in supreme_copies(sys, cyc)}
            for c in cyc.copies:
                if sys.is_real(c):
                    assert c in sup


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_high_girth_pins_edges_crossing_a_copy(seed):
    rng = random.Random(seed)
    sys = random_pretrain_system(rng, max_vertices=6, max_edges=4,
                                 max_copies=2)
    if not frak_Girth_exceeds(sys, 2):
        return
    for F in sys.members:
        for e in sys.host.edge_sets:
            if len(e & F.vertex_set) >= 2:
                assert e in F.edge_family


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_edge_copies_of_one_wagon_sit_together(seed):
    rng = random.Random(seed)
    sys = random_pretrain_system(rng, max_vertices=6, max_edges=4,
                                 max_copies=2)
    base = sys.base
    if not is_linear_pretrain(base):
        return
    for cyc in enumerate_big_cycles(sys, 3):
        n = cyc.length
        if n < 3:
            continue
        for w in base.wagons:
            Q = [i for i, c in enumerate(cyc.copies)
                 if c.is_edge_shaped and base.wagon_of(c.edges[0]) == w.id]
            assert any(set(Q) <= {i, (i + 1) % n} for i in range(n))
            if len(Q) == 2:
                [i] = [i for i in Q if (i + 1) % n in Q]
                q = cyc.connectors[i]
                assert q.is_wagon and q.value == w.id
                assert cyc.connectors[(i - 1) % n].is_vertex
                assert cyc.connectors[(i + 1) % n].is_vertex


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_replacements_are_acceptable(seed):
    rng = random.Random(seed)
    sys = random_pretrain_system(rng, max_vertices=6, max_edges=4,
                                 max_copies=2)
    if not is_linear_pretrain(sys.base):
        return
    for cyc in enumerate_big_cycles(sys, 3):
        if cyc.length < 3:
            continue
        for wit in supreme_copies(sys, cyc):
            got = classify_big_cycle(sys, wit.replacement)
            assert got.status == "acceptable"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_wagon_girth_matches_system_girth_on_plain_systems(seed, g):
    rng = random.Random(seed)
    P = random_pretrain(rng, max_vertices=6, max_edges=4)
    bare = frak_Girth_exceeds(PretrainCopySystem(P, ()), g)
    whole = frak_Girth_exceeds(
        PretrainCopySystem(P, (Copy.from_hypergraph(P.hypergraph),)), g)
    try:
        expected = frak_girth_pretrain_exceeds(P, g)
    except PreconditionViolation:
        expected = False   # non-linear host fails the system predicate too
    assert bare == expected
    assert whole == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_singleton_wagons_reduce_to_copy_girth(seed, g):
    rng = random.Random(seed)
    sys = random_copy_system(rng, max_vertices=6, max_edges=4, max_copies=2)
    psys = PretrainCopySystem(Pretrain.singletons(sys.host), sys.copies)
    assert girth_of_system_exceeds(sys, g) == frak_Girth_exceeds(psys, g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_singleton_wagons_turn_copy_cycles_into_big_cycles(seed, g):
    # one edge per wagon: the big cycles are the cycles of copies with
    # every edge connector read as the connector of its wagon
    rng = random.Random(seed)
    sys = random_copy_system(rng)
    P = Pretrain.singletons(sys.host)
    lifted = [BigCycle(tuple(
        (c, wagon_connector(P.wagon_of(q.value)) if q.is_edge else q)
        for c, q in cyc.steps))
        for cyc in enumerate_copy_cycles(sys, g, notion="all")]
    big = enumerate_big_cycles(PretrainCopySystem(P, sys.copies), g,
                               notion="valid")
    assert len(lifted) == len(big)
    assert set(lifted) == set(big)
