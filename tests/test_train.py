"""Tests for quasitrains and trains: sequence girth, the lift of a
level-one extension, and systems of quasitrain copies.

The random instances come from ``oracles``; the sequence girth and the
lift are re-derived there straight from their definitions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from partite import (Copy, Hypergraph, QuasitrainCopySystem,
                     frak_girth_seq_exceeds, lift_one_extension,
                     validate_pretrain_system, validate_quasitrain_system,
                     validate_train, wagon_assimilation)
from partite.train import Quasitrain
from oracles import (naive_lift_pairs, naive_seq_girth_exceeds,
                     random_partite_train, random_quasitrain)


def ordered(Q):
    H = Q.hypergraph
    return Quasitrain(Hypergraph(H.vertices, H.edges, k=H.k, ordered=True),
                      Q.chain)


def path_quasitrain():
    """A three-edge path: the outer edges form one level-one wagon."""
    H = Hypergraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), k=2)
    return Quasitrain(H, ((0, 1, 2), (0, 1, 0), (0, 0, 0)))


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
# systems of quasitrain copies


def test_level_systems_read_the_copies_at_each_level():
    Q = path_quasitrain()
    outer = Copy((0, 1, 2, 3), ((0, 1), (2, 3)))
    for extended in (True, False):
        system = QuasitrainCopySystem(Q, (outer, outer), extended=extended)
        assert system.copies == (outer,)
        for mu in range(Q.height + 1):
            level = system.level_system(mu)
            assert level.base == Q.level(mu)
            assert level.copies == system.copies
            assert level.extended == extended
            assert level.members == system.members
    assert QuasitrainCopySystem(Q, (outer,)).members == (
        Copy.of_edge((0, 1)), outer, Copy.of_edge((1, 2)),
        Copy.of_edge((2, 3)))
    assert QuasitrainCopySystem(Q, (outer,), extended=False).members == (
        outer,)


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
