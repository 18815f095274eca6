"""Tests for quasitrains and trains: sequence girth, the lift of a
level-one extension, disjoint unions, systems of quasitrain copies and
the verifier of revisions.

The random instances come from ``oracles``; the sequence girth and the
lift are re-derived there straight from their definitions.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partite import (Copy, CopySystem, Hypergraph, InvalidArgument, Pretrain,
                     QuasitrainCopySystem, SeqFrakGirthFailure,
                     SeqGirthFailure, Train, complete_multipartite,
                     disjoint_union_with_copies, frak_Girth_seq_exceeds,
                     frak_Girth_seq_witness, frak_Girth_witness,
                     frak_girth_pretrain_witness, frak_girth_seq_exceeds,
                     frak_girth_seq_witness, girth_of_system_exceeds,
                     is_A_intersecting, is_subquasitrain, lift_one_extension,
                     subquasitrain, validate_pretrain_system,
                     validate_quasitrain, validate_quasitrain_system,
                     validate_train, vertex_connector, verify_revision,
                     wagon_assimilation, wagon_connector)
from partite.train import Quasitrain
from oracles import (naive_lift_pairs, naive_seq_girth_exceeds,
                     random_copy_system, random_partite_train, random_pretrain,
                     random_quasitrain)


def ordered(Q):
    H = Q.hypergraph
    return Quasitrain(Hypergraph(H.vertices, H.edges, k=H.k, ordered=True),
                      Q.chain)


def path_quasitrain():
    """A three-edge path: the outer edges form one level-one wagon."""
    H = Hypergraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), k=2)
    return Quasitrain(H, ((0, 1, 2), (0, 1, 0), (0, 0, 0)))


TRIPARTITE = complete_multipartite({0: 1, 1: 1, 2: 1}, 2)


def random_tripartite(rng):
    """A random edge subset of TRIPARTITE, with its partite structure."""
    return TRIPARTITE.restrict_edges(
        [e for e in TRIPARTITE.edges if rng.random() < 0.4])


def random_indices(rng):
    return frozenset(i for i in range(3) if rng.random() < 0.5)


# ---------------------------------------------------------------------------
# the low-height correspondences and subquasitrains


def test_train_of_a_hypergraph_is_valid_exactly_when_A_intersecting():
    verdicts = set()
    for seed in range(300):
        rng = random.Random(seed)
        H, A = random_tripartite(rng), random_indices(rng)
        valid = validate_train(Train.of_hypergraph(H, A)) == []
        assert valid == is_A_intersecting(H, A)
        verdicts.add(valid)
    assert verdicts == {True, False}


def test_train_of_a_pretrain_confines_edges_and_wagons():
    # edges of one wagon meet inside the classes of A1, distinct wagons
    # inside those of A2
    verdicts = set()
    for seed in range(300):
        rng = random.Random(seed)
        H = random_tripartite(rng)
        A1, A2 = random_indices(rng), random_indices(rng)
        P = Pretrain(H, tuple(rng.randrange(3) for _ in H.edges))
        T = Train.of_pretrain(P, A1, A2)
        assert T.level(1) == P
        wagons: dict[int, list[frozenset]] = {}
        for e, w in zip(H.edge_sets, P.wagon_ids):
            wagons.setdefault(w, []).append(e)
        V1, V2 = H.partite.union_of(A1), H.partite.union_of(A2)
        inside = all(e & f <= V1 for es in wagons.values()
                     for e, f in itertools.combinations(es, 2))
        between = all(
            frozenset().union(*a) & frozenset().union(*b) <= V2
            for a, b in itertools.combinations(wagons.values(), 2))
        assert (validate_train(T) == []) == (inside and between)
        verdicts.add((inside, between))
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_subquasitrains_of_lifts_restrictions_and_one_class_chains():
    lift_verdicts, chain_verdicts = set(), set()
    for seed in range(300):
        rng = random.Random(seed)
        Q = ordered(random_quasitrain(rng))
        lifted = lift_one_extension(
            Q, wagon_assimilation(Q.level(1)).pretrain)
        assert is_subquasitrain(Q, lifted)
        same = set(lifted.hypergraph.edges) == set(Q.hypergraph.edges)
        assert is_subquasitrain(lifted, Q) == same
        lift_verdicts.add(same)
        X = [v for v in Q.hypergraph.vertices if rng.random() < 0.6]
        assert is_subquasitrain(subquasitrain(Q, X), Q)
        n = Q.hypergraph.num_edges
        one = Quasitrain(Q.hypergraph, (tuple(range(n)), (0,) * n, (0,) * n))
        if Q.height == 2:
            inside = is_subquasitrain(one, Q)
            assert inside == (len(set(Q.chain[1])) <= 1)
            chain_verdicts.add(inside)
        else:
            assert not is_subquasitrain(one, Q)
    assert lift_verdicts == chain_verdicts == {True, False}


# ---------------------------------------------------------------------------
# sequence girth


def test_seq_girth_matches_brute_force_with_both_verdicts():
    verdicts = set()
    for seed in range(100):
        rng = random.Random(seed)
        Q = random_quasitrain(rng, linear=seed % 2 == 0)
        T = random_partite_train(rng, m=rng.randint(1, 3))
        for chain in (Q, T):
            for g in (2, 3, 4):
                bounds = (g,) * chain.height
                got = frak_girth_seq_exceeds(chain, bounds)
                assert got == naive_seq_girth_exceeds(chain, bounds)
                verdicts.add(got)
    assert verdicts == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.integers(2, 4), min_size=3,
                                          max_size=3))
def test_seq_girth_matches_brute_force_on_mixed_bounds(seed, gs):
    rng = random.Random(seed)
    Q = random_quasitrain(rng, height=3, linear=seed % 2 == 0)
    assert (frak_girth_seq_exceeds(Q, gs)
            == naive_seq_girth_exceeds(Q, gs))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_random_partite_trains_are_trains(seed, m):
    T = random_partite_train(random.Random(seed), m=m)
    assert validate_train(T) == []


# ---------------------------------------------------------------------------
# the lift of a level-one extension


def test_seq_girth_of_a_pretrain_is_its_wagon_girth():
    # level one of a linear pretrain's quasitrain never fails bound two,
    # and its top wagon holds every wagon of the pretrain
    verdicts = set()
    for seed in range(400):
        P = random_pretrain(random.Random(seed))
        Q = Quasitrain.of_pretrain(P)
        for g in (2, 3, 4):
            wagon_cycle = frak_girth_pretrain_witness(P, g)
            got = frak_girth_seq_witness(Q, (2, g))
            if wagon_cycle is None:
                assert got is None
            else:
                assert got == SeqGirthFailure(2, 0, wagon_cycle)
            verdicts.add(got is None)
    assert verdicts == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lift_of_assimilation_follows_the_rule(seed):
    Q = ordered(random_quasitrain(random.Random(seed)))
    ext = wagon_assimilation(Q.level(1)).pretrain
    lifted = lift_one_extension(Q, ext)
    assert lifted.level(1).wagon_ids == ext.wagon_ids
    for mu in range(1, Q.height + 1):
        row = lifted.chain[mu]
        pairs = {(i, j) for i in range(len(row)) for j in range(len(row))
                 if row[i] == row[j]}
        assert pairs == naive_lift_pairs(Q, ext, mu)


# ---------------------------------------------------------------------------
# disjoint unions


def test_disjoint_union_keeps_every_item_as_a_subquasitrain():
    for seed in range(200):
        rng = random.Random(seed)
        height = rng.randint(1, 3)
        items = [ordered(random_quasitrain(rng, height=height))
                 for _ in range(rng.randint(1, 3))]
        union, copies = disjoint_union_with_copies(items)
        assert validate_quasitrain(union) == []
        assert len(copies) == len(items)
        for j, (item, c) in enumerate(zip(items, copies)):
            sub = subquasitrain(union, c.vertices, c.edges)
            back = sub.hypergraph.relabel({(j, v): v for v in
                                           item.hypergraph.vertices})
            assert Quasitrain(back, sub.chain) == item


def test_disjoint_union_rejects_mixed_items_and_heights():
    rng = random.Random(3)
    Q2 = ordered(random_quasitrain(rng, height=2))
    Q3 = ordered(random_quasitrain(rng, height=3))
    T = random_partite_train(rng, m=2)
    with pytest.raises(InvalidArgument, match="heights differ"):
        disjoint_union_with_copies([Q2, Q3])
    with pytest.raises(InvalidArgument, match="mixing trains"):
        disjoint_union_with_copies([T, Q2])


# ---------------------------------------------------------------------------
# systems of quasitrain copies


def test_level_systems_read_the_copies_at_each_level():
    Q = path_quasitrain()
    outer = Copy((0, 1, 2, 3), ((0, 1), (2, 3)))
    system = QuasitrainCopySystem(Q, (outer, outer))
    assert system.copies == (outer,)
    for mu in range(Q.height + 1):
        level = system.level_system(mu)
        assert level.base == Q.level(mu)
        assert level.copies == system.copies
        assert level.members == system.members
    assert QuasitrainCopySystem(Q, (outer,)).members == (
        Copy.of_edge((0, 1)), outer, Copy.of_edge((1, 2)),
        Copy.of_edge((2, 3)))


def test_real_copies_of_quasitrain_systems_are_not_edge_shaped():
    Q = path_quasitrain()
    edge = Copy.of_edge((1, 2))
    outer = Copy((0, 1, 2, 3), ((0, 1), (2, 3)))
    system = QuasitrainCopySystem(Q, (edge, outer))
    assert system.real_set == frozenset({outer})
    assert system.is_member(edge) and not system.is_real(edge)
    assert system.level_system(1).real_set == system.real_set


def test_validate_quasitrain_system():
    Q = path_quasitrain()
    good = QuasitrainCopySystem(Q, (Copy((0, 1, 2), ((0, 1), (1, 2))),))
    assert validate_quasitrain_system(good) == []
    stray = QuasitrainCopySystem(Q, (Copy((0, 1, 9), ((0, 9), (0, 1))),))
    problems = validate_quasitrain_system(stray)
    assert problems == [
        "copy on (0, 1, 9) has vertices outside the host",
        "copy on (0, 1, 9) has edges outside the host"]
    broken = Quasitrain(Q.hypergraph, ((0, 1, 2), (0, 1, 0), (0, 1, 0)))
    assert any("chain clause (iii)" in p for p in
               validate_quasitrain_system(QuasitrainCopySystem(broken, ())))


def test_level_system_of_a_stray_copy_is_reported_by_the_pretrain_check():
    Q = path_quasitrain()
    stray = QuasitrainCopySystem(Q, (Copy((0, 9), ((0, 9),)),))
    assert validate_pretrain_system(stray.level_system(1)) == [
        "copy on (0, 9) has vertices outside the host",
        "copy on (0, 9) has edges outside the host"]


def test_system_seq_girth_of_a_hypergraph_is_its_system_girth():
    # over the height-one quasitrain of a hypergraph, level one reads the
    # copies with one wagon per edge, which is the plain system girth
    levels = set()
    for seed in range(150):
        system = random_copy_system(random.Random(seed), max_vertices=4,
                                    max_edges=4, max_copies=2)
        Q = Quasitrain.of_hypergraph(system.host)
        seq_system = QuasitrainCopySystem(Q, system.copies)
        for g in (2, 3):
            got = frak_Girth_seq_witness(seq_system, (g,))
            plain = girth_of_system_exceeds(
                CopySystem(system.host, system.copies), g)
            assert (got is not None and got.level == 1) == (not plain)
            levels.add(None if got is None else got.level)
    assert levels == {None, 1}


def test_system_seq_girth_closes_with_the_top_relation():
    # vertex 2 is isolated in the copy, so the copy meets the edge copy of
    # (2, 3) at vertex 2 and, through the single top wagon, at (2, 3)
    H = Hypergraph((0, 1, 2, 3), ((0, 1), (2, 3)), k=2)
    copy = Copy((0, 1, 2), ((0, 1),))
    system = QuasitrainCopySystem(Quasitrain.of_hypergraph(H), (copy,))
    assert frak_Girth_witness(system.level_system(0), 2) is None
    got = frak_Girth_seq_witness(system, (2,))
    assert isinstance(got, SeqFrakGirthFailure)
    assert (got.level, got.bound) == (2, 1)
    assert got.failure.cycle.steps == (
        (copy, vertex_connector(2)),
        (Copy.of_edge((2, 3)), wagon_connector(0)))
    assert not frak_Girth_seq_exceeds(system, (2,))


def test_system_seq_girth_needs_one_bound_per_level():
    system = QuasitrainCopySystem(path_quasitrain(), ())
    for bounds in ((2,), (2, 2, 2)):
        with pytest.raises(InvalidArgument):
            frak_Girth_seq_witness(system, bounds)
        with pytest.raises(InvalidArgument):
            frak_Girth_seq_exceeds(system, bounds)


@pytest.mark.parametrize("bounds, message", [
    (2, "wrap a single bound in a tuple"),
    (2.5, "an iterable of bounds, got 2.5;"),
    (None, "an iterable of bounds, got None;"),
    ((2, 1), "girth bounds start at two, got 1"),
])
def test_girth_words_are_checked(bounds, message):
    Q = path_quasitrain()
    with pytest.raises(InvalidArgument, match=message):
        frak_girth_seq_witness(Q, bounds)
    with pytest.raises(InvalidArgument, match=message):
        frak_Girth_seq_witness(QuasitrainCopySystem(Q, ()), bounds)
    T = random_partite_train(random.Random(0), m=2)
    with pytest.raises(InvalidArgument, match=message):
        verify_revision(T, T, [T.parameter[0]], 2, bounds)


# ---------------------------------------------------------------------------
# revisions of partite-uniform trains


def test_trivial_revision_reduces_to_sequence_girth():
    # one parameter entry taken from the train itself splices no level,
    # so only the girth clause can fail
    verdicts = set()
    for seed in range(60):
        T = random_partite_train(random.Random(seed), m=2)
        for g in (2, 3):
            for b in (2, 3):
                got = verify_revision(T, T, [T.parameter[0]], g, (b,))
                expected = frak_girth_seq_exceeds(T, (g, b))
                assert bool(got) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_revision_reports_both_parameter_clauses():
    T = random_partite_train(random.Random(0), m=2)
    report = verify_revision(T, T, [frozenset({0, 1})], 2, (2,))
    assert not report
    param = [p for p in report.problems
             if p.startswith("parameter clause fails")]
    assert len(param) == 2
    assert any("holds 2 indices" in p for p in param)
    assert any("reaches outside" in p for p in param)


def test_revision_girth_clause_reads_the_spliced_word():
    # three edges, pairwise meeting in one vertex of a different class,
    # form a 3-cycle inside the single level-one wagon of T
    H = TRIPARTITE.restrict_edges([((0, 0), (1, 0), (2, 0)),
                                   ((0, 0), (1, 1), (2, 1)),
                                   ((0, 1), (1, 1), (2, 0))])
    T = Train(H, ((0, 1, 2), (0, 0, 0), (0, 0, 0)), ({0, 1, 2}, ()))
    assert validate_train(T) == []
    # a fresh level of single edges lifts the cycle to level two, which
    # reads the threshold g of the word (g, g) + bounds
    fresh = Quasitrain(H, ((0, 1, 2), (0, 1, 2), (0, 0, 0), (0, 0, 0)))

    def girth_problems(candidate, B, g, bounds):
        report = verify_revision(T, candidate, B, g, bounds)
        return [p for p in report.problems if p.startswith("girth clause")]

    cycle = "girth clause fails: a cycle of 3 wagons sits inside wagon 0"
    assert girth_problems(T, [{0}], 2, (3,)) == []
    assert girth_problems(T, [{0}], 3, (2,)) == [f"{cycle} of level 1"]
    assert girth_problems(fresh, [{0}, {0}], 2, (3,)) == []
    assert girth_problems(fresh, [{0}, {0}], 3, (2,)) == [
        f"{cycle} of level 2"]


def test_revision_keeps_the_hypergraph():
    rng = random.Random(1)
    T = random_partite_train(rng, m=2)
    other = random_partite_train(rng, m=2)
    assert other.hypergraph != T.hypergraph
    with pytest.raises(InvalidArgument, match="keeps the underlying"):
        verify_revision(T, other, [T.parameter[0]], 2, (2,))
