"""Tests for systems of copies: cycles, tidiness, masters, system girth.

The three mainstay fixtures are small configurations over a five-vertex
host: a two-edge star F1 together with two triangles F2, F3 hanging off
its edges.  They realise, in order, a cycle with mixed connectors that
is semitidy but not tidy, an untidy cycle through a shared edge, and a
tidy cycle with a unique master.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partite import (Connector, Copy, CopySystem, CycleOfCopies, Hypergraph,
                     InvalidArgument, PreconditionViolation, Pretrain,
                     PretrainCopySystem, check_copy_cycle, classify_cycle,
                     complete_graph, clean_intersection_violation,
                     clean_intersections_linear_form,
                     edge_connector, enumerate_copy_cycles, find_master_copy,
                     frak_Girth_witness, girth_of_system_exceeds,
                     girth_of_system_witness, has_clean_intersections,
                     has_master, is_tidy, master_copies,
                     normalize_girth_bound, semitidy_equivalence_check,
                     validate_system, vertex_connector)
from partite import copies
from oracles import (naive_copy_cycles, naive_masters, random_copy_system,
                     relabel_system)
from test_core import _stack_depth, cycle_graph


# ---------------------------------------------------------------------------
# fixtures


def star_host():
    return Hypergraph(
        ("x", "a", "b", "c", "d"),
        (("x", "a"), ("x", "b"), ("a", "c"), ("c", "x"), ("b", "d"),
         ("d", "x")))


F1 = Copy(("a", "b", "x"), (("a", "x"), ("b", "x")))
F2 = Copy(("a", "c", "x"), (("a", "x"), ("a", "c"), ("c", "x")))
F3 = Copy(("b", "d", "x"), (("b", "x"), ("b", "d"), ("d", "x")))


def star_system():
    return CopySystem(star_host(), (F1, F2, F3))


def mixed_cycle():
    """F1 -e'- F2 -x- F3 -e''- F1 with e'={x,a}, e''={x,b}."""
    return CycleOfCopies((
        (F1, edge_connector(("x", "a"))),
        (F2, vertex_connector("x")),
        (F3, edge_connector(("x", "b"))),
    ))


def tidy_cycle():
    """Same copies, vertex connectors a, x, b only."""
    return CycleOfCopies((
        (F1, vertex_connector("a")),
        (F2, vertex_connector("x")),
        (F3, vertex_connector("b")),
    ))


def shared_edge_system():
    """Three copies through one common triple edge, otherwise disjoint."""
    H = Hypergraph(
        tuple(range(1, 7)),
        ((1, 2, 3), (1, 4), (2, 5), (3, 6)))
    G1 = Copy((1, 2, 3, 4), ((1, 2, 3), (1, 4)))
    G2 = Copy((1, 2, 3, 5), ((1, 2, 3), (2, 5)))
    G3 = Copy((1, 2, 3, 6), ((1, 2, 3), (3, 6)))
    system = CopySystem(H, (G1, G2, G3))
    cycle = CycleOfCopies((
        (G1, vertex_connector(1)),
        (G2, vertex_connector(2)),
        (G3, vertex_connector(3)),
    ))
    return system, cycle


# ---------------------------------------------------------------------------
# validity and canonicalisation


def test_fixture_cycles_are_valid():
    system = star_system()
    assert validate_system(system) == []
    assert check_copy_cycle(system, mixed_cycle()) == []
    assert check_copy_cycle(system, tidy_cycle()) == []
    shared, b_cycle = shared_edge_system()
    assert validate_system(shared) == []
    assert check_copy_cycle(shared, b_cycle) == []


def test_cycle_equality_under_rotation_and_reflection():
    base = mixed_cycle()
    rotated = CycleOfCopies((
        (F2, vertex_connector("x")),
        (F3, edge_connector(("x", "b"))),
        (F1, edge_connector(("x", "a"))),
    ))
    # traversing backwards swaps each copy's flanking connectors
    reflected = CycleOfCopies((
        (F1, edge_connector(("x", "b"))),
        (F3, vertex_connector("x")),
        (F2, edge_connector(("x", "a"))),
    ))
    assert base == rotated == reflected
    assert base.h == rotated.h == reflected.h


def test_too_short_cycle_rejected():
    with pytest.raises(InvalidArgument):
        CycleOfCopies(((F1, vertex_connector("x")),))


def test_invalid_cycles_are_reported():
    system = star_system()
    # connector not shared: vertex c is not in F1
    bad = CycleOfCopies((
        (F1, vertex_connector("c")),
        (F2, vertex_connector("x")),
        (F3, vertex_connector("b")),
    ))
    assert check_copy_cycle(system, bad)
    assert classify_cycle(system, bad).status == "invalid"
    # repeated connector
    rep = CycleOfCopies((
        (F1, vertex_connector("x")),
        (F2, vertex_connector("x")),
    ))
    assert any("distinct" in p for p in check_copy_cycle(system, rep))


def test_check_copy_cycle_names_foreign_repeated_and_unshared_members():
    C4 = Hypergraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 3)), k=2)
    real = Copy((0, 1, 2), ((0, 1), (1, 2)))
    system = CopySystem(C4, (real,))
    cases = [
        ([(Copy((0, 1, 2, 3), ((0, 1), (2, 3))), vertex_connector(0)),
          (real, vertex_connector(1))],
         "neither a real copy nor an edge copy"),
        ([(real, vertex_connector(0)), (real, vertex_connector(2))],
         "coincide"),
        ([(real, edge_connector((2, 3))),
          (Copy.of_edge((2, 3)), vertex_connector(2))],
         "edge connector (2, 3) at position 1 does not join both"),
    ]
    for steps, message in cases:
        problems = check_copy_cycle(system, CycleOfCopies(tuple(steps)))
        assert any(message in p for p in problems), problems


# ---------------------------------------------------------------------------
# metrics


def test_mixed_cycle_metrics():
    assert mixed_cycle().h == (2, 3)


def test_all_vertex_cycle_metrics():
    assert tidy_cycle().h == (3, 3)
    _, b_cycle = shared_edge_system()
    assert b_cycle.h == (3, 3)


def test_two_cycle_metrics():
    two = CycleOfCopies((
        (F1, vertex_connector("x")),
        (F2, vertex_connector("a")),
    ))
    assert two.h == (2, 2)
    mixed_two = CycleOfCopies((
        (F1, vertex_connector("x")),
        (F2, edge_connector(("x", "a"))),
    ))
    assert mixed_two.h == (1, 2)


# ---------------------------------------------------------------------------
# classification


def test_classification_of_the_three_shapes():
    system = star_system()
    assert classify_cycle(system, mixed_cycle()).status == "semitidy"
    assert classify_cycle(system, tidy_cycle()).status == "tidy"
    shared, b_cycle = shared_edge_system()
    assert classify_cycle(shared, b_cycle).status == "untidy"


def test_edge_connector_swallowing_two_vertices_is_not_semitidy():
    # same star system, but both vertex connectors of the edge {x,a}
    # appear; the edge connector then meets two positions
    system = star_system()
    cyc = CycleOfCopies((
        (F1, vertex_connector("a")),
        (F2, edge_connector(("c", "x"))),  # not shared with F3 though
    ))
    # build a valid example instead: F2 and F1 share edge {a,x} and both
    # vertices; a 2-cycle with connectors {a,x}-edge and vertex a is
    # semitidy-only when the vertex lies in the edge
    cyc = CycleOfCopies((
        (F1, edge_connector(("a", "x"))),
        (F2, vertex_connector("a")),
    ))
    assert check_copy_cycle(system, cyc) == []
    got = classify_cycle(system, cyc)
    assert got.status == "semitidy"


def test_untidy_when_vertex_connectors_spread_over_an_edge():
    shared, b_cycle = shared_edge_system()
    # all three vertex connectors lie in the common edge {1,2,3}: T2 and
    # the semitidy counterpart both fail
    assert classify_cycle(shared, b_cycle).status == "untidy"


# ---------------------------------------------------------------------------
# masters


def test_master_of_the_mixed_cycle():
    system = star_system()
    found = find_master_copy(system, mixed_cycle())
    assert found is not None
    star, family = found
    assert star == F1
    assert sorted(family.values()) == [("a", "x"), ("b", "x")]
    # the replaced positions are exactly the non-star ones
    cyc = mixed_cycle()
    assert set(family) == {i for i, c in enumerate(cyc.copies) if c != F1}


def test_master_of_the_tidy_cycle_is_unique():
    system = star_system()
    masters = master_copies(system, tidy_cycle())
    assert [m for m, _ in masters] == [F1]


def test_shared_edge_cycle_has_no_master():
    shared, b_cycle = shared_edge_system()
    # the only replacement candidates all equal the common edge, which
    # makes consecutive copies coincide
    assert not has_master(shared, b_cycle)
    assert naive_masters(shared, b_cycle) == []


def test_two_cycle_masters_are_both_copies():
    system = star_system()
    two = CycleOfCopies((
        (F1, vertex_connector("x")),
        (F2, vertex_connector("a")),
    ))
    masters = [m for m, _ in master_copies(system, two)]
    assert masters == sorted([F1, F2], key=lambda c: c.key)


def test_master_search_stops_at_the_first_master(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return least_collapse(*args)

    least_collapse = copies._least_collapse
    monkeypatch.setattr(copies, "_least_collapse", counting)
    two = CycleOfCopies(((F1, vertex_connector("x")),
                         (F2, vertex_connector("a"))))
    assert has_master(star_system(), two)
    assert len(calls) == 1


def test_a_star_is_ruled_out_at_its_first_position_without_options(
        monkeypatch):
    # the edge copies of C12 on the cycle through all of them: no edge
    # copy is a master, and the first position besides the star shows
    # it before the later copies are compared with the star
    n = 12
    system = CopySystem(cycle_graph(n), ())
    cycle = CycleOfCopies(tuple(
        (Copy.of_edge((i, (i + 1) % n)), vertex_connector((i + 1) % n))
        for i in range(n)))
    assert check_copy_cycle(system, cycle) == []
    compared = []
    equal = Copy.__eq__
    monkeypatch.setattr(Copy, "__eq__",
                        lambda a, b: compared.append(a) or equal(a, b))
    for star in cycle.copies:
        compared.clear()
        assert copies._master(system, cycle, star) is None
        assert len(compared) <= 2
    monkeypatch.undo()
    assert not has_master(system, cycle)


def test_edge_copies_never_breed_masters_here():
    system = star_system()
    cyc = CycleOfCopies((
        (F1, vertex_connector("x")),
        (Copy.of_edge(("a", "x")), vertex_connector("a")),
    ))
    assert check_copy_cycle(system, cyc) == []
    masters = [m for m, _ in master_copies(system, cyc)]
    assert masters == [F1]


def test_find_master_rejects_invalid_cycles():
    system = star_system()
    bad = CycleOfCopies((
        (F1, vertex_connector("c")),
        (F2, vertex_connector("x")),
    ))
    with pytest.raises(InvalidArgument):
        find_master_copy(system, bad)


def test_wagon_connector_in_a_cycle_of_copies_is_reported():
    system = CopySystem(complete_graph(3), ())
    bad = CycleOfCopies((
        (Copy.of_edge((0, 1)), vertex_connector(1)),
        (Copy.of_edge((1, 2)), Connector("wagon", 0)),
    ))
    assert check_copy_cycle(system, bad) == [
        "wagon connector 0 at position 1 does not join both neighbouring "
        "copies"]
    assert classify_cycle(system, bad).status == "invalid"
    with pytest.raises(InvalidArgument, match="wagon connector"):
        find_master_copy(system, bad)


@pytest.mark.parametrize("q", [Connector("wagon", 0), vertex_connector(0)])
def test_every_master_search_checks_the_cycle(q):
    # connector 1 is a wagon, or a vertex outside the second copy
    real = Copy((0, 1, 2), ((0, 1), (1, 2)))
    system = CopySystem(complete_graph(3), (real,))
    bad = CycleOfCopies(((Copy.of_edge((0, 1)), vertex_connector(1)),
                         (Copy.of_edge((1, 2)), q)))
    for search in (master_copies, has_master, find_master_copy):
        with pytest.raises(InvalidArgument, match="not a cycle of copies"):
            search(system, bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_masters_match_brute_force(seed):
    rng = random.Random(seed)
    system = random_copy_system(rng, max_vertices=6, max_edges=5,
                                max_copies=3)
    cycles = enumerate_copy_cycles(system, (3, 4), notion="all")
    for cyc in cycles[:12]:
        masters = master_copies(system, cyc)
        assert [m for m, _ in masters] == naive_masters(system, cyc)
        assert has_master(system, cyc) == bool(masters)
        assert find_master_copy(system, cyc) == (
            masters[0] if masters else None)


# ---------------------------------------------------------------------------
# girth of a system


def test_edge_copy_systems_mirror_hypergraph_girth():
    # a system with no real copies has exactly the edge copies, and its
    # girth bound coincides with the hypergraph girth bound
    for n in (3, 4, 5):
        C = Hypergraph(tuple(range(n)),
                       tuple((i, (i + 1) % n) for i in range(n)))
        system = CopySystem(C, ())
        assert girth_of_system_exceeds(system, (n - 1, n - 1))
        assert not girth_of_system_exceeds(system, (n, n))
        wit = girth_of_system_witness(system, (n, n))
        assert wit is not None and wit.length == n


def test_system_girth_names_a_copy_outside_the_host():
    stray = CopySystem(complete_graph(4), (
        Copy((0, 1, 9), ((0, 9), (0, 1))), Copy((1, 2, 9), ((1, 9), (1, 2)))))
    with pytest.raises(InvalidArgument, match=r"\(0, 1, 9\)"):
        girth_of_system_witness(stray, 2)


def test_star_system_girth_thresholds():
    system = star_system()
    # every tidy 2-cycle collapses onto a shared edge
    assert girth_of_system_exceeds(system, (2, 2))
    assert girth_of_system_exceeds(system, (2, 3))
    # the host itself has a triangle, so order-3 masterless tidy cycles
    # exist (through edge copies of the triangle's edges)
    assert not girth_of_system_exceeds(system, (3, 3))
    wit = girth_of_system_witness(system, (3, 3))
    assert wit is not None
    assert wit.h == (3, 3)
    assert not has_master(system, wit)
    assert any(c.is_edge_shaped for c in wit.copies)


def test_scalar_bound_is_the_doubled_pair():
    system = star_system()
    assert girth_of_system_exceeds(system, 2) == \
        girth_of_system_exceeds(system, (2, 4))


def test_system_girth_reads_tidy_or_semitidy_cycles_only():
    with pytest.raises(InvalidArgument,
                       match="reads tidy or semitidy cycles, got notion 'all'"):
        girth_of_system_witness(star_system(), 2, notion="all")


@pytest.mark.parametrize("bound", [(2, 3, 4), "ab", 2.5, (2.7, 5), (2,),
                                   True, (True, 2)])
def test_malformed_girth_bounds_are_rejected(bound):
    with pytest.raises(InvalidArgument,
                       match="a girth bound is an int or a pair of ints"):
        normalize_girth_bound(bound)
    with pytest.raises(InvalidArgument,
                       match="a girth bound is an int or a pair of ints"):
        girth_of_system_witness(star_system(), bound)


def test_system_cycle_search_does_not_recurse():
    # a closing walk of 150 members, or a collapse of 148 positions,
    # would need a frame per step if each step took one
    C = cycle_graph(150)
    whole = Copy.from_hypergraph(C)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        wit = girth_of_system_witness(CopySystem(C, ()), 150)
        failed = frak_Girth_witness(
            PretrainCopySystem(Pretrain.singletons(C), ()), 150)
        system = CopySystem(C, (whole,))
        steps = [(whole, vertex_connector(1))]
        steps += [(Copy.of_edge((i, i + 1)), vertex_connector(i + 1))
                  for i in range(1, 149)]
        master = find_master_copy(system, CycleOfCopies(tuple(steps)))
    finally:
        sys.setrecursionlimit(limit)
    assert wit is not None and wit.h == (150, 150)
    assert failed.cycle is not None and failed.cycle.length == 150
    star, family = master
    assert star == whole and len(family) == 148


def test_girth_needs_linear_host():
    H = Hypergraph((1, 2, 3, 4), ((1, 2, 3), (1, 2, 4)))
    system = CopySystem(H, ())
    with pytest.raises(PreconditionViolation):
        girth_of_system_exceeds(system, 2)


def test_semitidy_equivalence_on_fixtures():
    assert semitidy_equivalence_check(star_system(), 2)
    assert semitidy_equivalence_check(star_system(), 3)
    shared, _ = shared_edge_system()
    assert semitidy_equivalence_check(shared, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_semitidy_equivalence_randomised(seed):
    rng = random.Random(seed)
    system = random_copy_system(rng, max_vertices=6, max_edges=5,
                                max_copies=3)
    assert semitidy_equivalence_check(system, 2)


def test_enumeration_is_sorted_and_deduplicated():
    system = star_system()
    cycles = enumerate_copy_cycles(system, (3, 3), notion="all")
    assert len(set(cycles)) == len(cycles)
    hs = [c.h for c in cycles]
    assert hs == sorted(hs)
    for c in cycles:
        assert check_copy_cycle(system, c) == []
        assert c.h <= (3, 3)


def test_copy_cycles_match_brute_force():
    # hosts of at most 4 vertices and 3 edges with one copy already have
    # cycles of order 3, where the walk is cut on its order most often
    sizes, orders = set(), set()
    for seed in range(80):
        system = random_copy_system(random.Random(seed), max_vertices=4,
                                    max_edges=3, max_copies=1)
        for bound in (2, (2, 3), (3, 5)):
            got = enumerate_copy_cycles(system, bound, notion="all")
            assert len(set(got)) == len(got)
            assert set(got) == naive_copy_cycles(system, bound)
            assert enumerate_copy_cycles(system, bound, notion="tidy") == \
                tuple(c for c in got if is_tidy(system, c))
            sizes.add(len(got) > 0)
            orders.update(c.order for c in got)
    assert sizes == {False, True}
    assert 3 in orders


def test_keep_is_asked_once_per_cycle(monkeypatch):
    calls = []

    def counting(system, cycle):
        calls.append(cycle)
        return is_tidy(system, cycle)

    monkeypatch.setattr(copies, "is_tidy", counting)
    for seed in range(30):
        system = random_copy_system(random.Random(seed))
        for bound in (2, (2, 3)):
            calls.clear()
            enumerate_copy_cycles(system, bound, notion="tidy")
            assert len(calls) == len(
                enumerate_copy_cycles(system, bound, notion="all"))


def assert_canonical_and_sorted(cycles):
    """The closing walks hand over each cycle as the public constructor
    writes it, in (h, lexicographic) order."""
    for c in cycles:
        assert type(c)(c.steps).steps == c.steps
    assert list(cycles) == sorted(cycles, key=lambda c: (
        c.h, [(a.key, q.key) for a, q in c.steps]))


def twice_through_the_least_member():
    """F -1- {1,2} -2- F -3- {3,4} -4- F, where F is the least member:
    its isolated vertex 0 puts it before the edge copies."""
    H = Hypergraph(tuple(range(5)), ((1, 2), (2, 3), (3, 4)))
    F = Copy(tuple(range(5)), H.edges)
    E12, E34 = Copy.of_edge((1, 2)), Copy.of_edge((3, 4))
    steps = ((F, vertex_connector(1)), (E12, vertex_connector(2)),
             (F, vertex_connector(3)), (E34, vertex_connector(4)))
    return H, F, steps


def test_copy_cycles_come_canonical_and_sorted():
    for seed in range(40):
        system = random_copy_system(random.Random(seed))
        for s in (system, relabel_system(system)):
            for bound in (2, (2, 3)):
                assert_canonical_and_sorted(
                    enumerate_copy_cycles(s, bound, notion="all"))
    H, F, steps = twice_through_the_least_member()
    system = CopySystem(H, (F,))
    assert system.members[0] == F
    got = enumerate_copy_cycles(system, 4, notion="all")
    assert got.count(CycleOfCopies(steps)) == 1
    assert set(got) == naive_copy_cycles(system, 4)
    assert_canonical_and_sorted(got)


# ---------------------------------------------------------------------------
# clean intersections


def test_star_system_is_clean():
    system = star_system()
    assert has_clean_intersections(system)
    assert clean_intersections_linear_form(system)


def test_isolated_meeting_vertex_is_dirty():
    H = star_host()
    lonely = Copy(("a", "c", "x"), (("a", "c"),))  # x isolated inside
    system = CopySystem(H, (lonely, F3))
    pair = clean_intersection_violation(system)
    assert pair is not None
    assert {lonely, F3} == set(pair)
    assert not clean_intersections_linear_form(system)


def test_clean_forms_agree_on_random_systems():
    rng = random.Random(11)
    for _ in range(60):
        system = random_copy_system(rng)
        assert has_clean_intersections(system) == \
            clean_intersections_linear_form(system)


def test_validate_system_catches_foreign_copies():
    H = star_host()
    foreign = Copy(("p", "q"), (("p", "q"),))
    system = CopySystem(H, (foreign,))
    assert validate_system(system)


def test_validate_system_checks_pattern():
    H = star_host()
    triangle = Hypergraph((0, 1, 2), ((0, 1), (0, 2), (1, 2)))
    good = CopySystem(H, (F2,), pattern=triangle)
    bad = CopySystem(H, (F1,), pattern=triangle)
    assert validate_system(good) == []
    assert validate_system(bad)
