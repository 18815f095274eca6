"""The benchmark's answer checks accept right answers and reject wrong ones.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
import partite as pt  # noqa: E402

import answers  # noqa: E402
import workloads  # noqa: E402


def c5_path_system():
    H = workloads.cycle_graph(pt, list(range(5)))
    P2 = workloads.path_graph(pt, 2)
    copies = tuple(pt.copy_of_embedding(e)
                   for e in pt.enumerate_copies(H, P2, mode="nni"))
    return H, copies


def two_cycle_with_master(cls):
    """P = {01, 12} and the edge copy of 12, joined by the vertices 1, 2.

    Tidy, h = (2, 2), and P is a master (and a supreme copy): the edge
    copy can be replaced by the edge 12 of P.
    """
    P = pt.Copy((0, 1, 2), ((0, 1), (1, 2)))
    return cls(((P, pt.vertex_connector(1)),
                (pt.Copy.of_edge((1, 2)), pt.vertex_connector(2))))


# -- hypergraph cycles ---------------------------------------------------


def test_edge_cycle_accepts_the_least_cycle_of_c6():
    H = workloads.cycle_graph(pt, list(range(6)))
    cyc = pt.shortest_edge_cycle(H, 6)
    assert answers.edge_cycle_problems(H.edges, cyc, 6) == []


def test_edge_cycle_rejects_a_non_cycle():
    H = workloads.cycle_graph(pt, list(range(6)))
    cyc = list(pt.shortest_edge_cycle(H, 6))
    cyc[1] = (cyc[1][0], cyc[0][1])              # a repeated vertex
    assert answers.edge_cycle_problems(H.edges, tuple(cyc), 6)
    assert answers.edge_cycle_problems(H.edges, None, 6)
    not_edges = (((0, 1), 1), ((1, 3), 3), ((0, 3), 0))
    assert answers.edge_cycle_problems(H.edges, not_edges, 3)


def test_edge_cycle_rejects_a_rotation_and_a_wrong_length():
    H = workloads.cycle_graph(pt, list(range(6)))
    cyc = pt.shortest_edge_cycle(H, 6)
    rotated = cyc[1:] + cyc[:1]
    assert answers.edge_cycle_problems(H.edges, rotated, 6)
    assert answers.edge_cycle_problems(H.edges, cyc, 5)


def test_wagon_cycle_rejects_wagons_that_do_not_meet():
    edges, labels = workloads.paired_labels(8)
    sets = answers.wagon_sets(edges, labels)
    good = pt.frak_girth_pretrain_witness(
        pt.Pretrain.from_labels(workloads.cycle_graph(pt, list(range(8))),
                                dict(zip(edges, labels))), 4)
    assert answers.station_cycle_problems(sets, good, 4) == []
    swapped = ((good[0][0], good[1][1]), (good[1][0], good[0][1])) + good[2:]
    assert answers.station_cycle_problems(sets, swapped, 4)


def test_girth_by_breadth_first_search():
    assert answers.girth(range(7), workloads.cycle_graph(
        pt, list(range(7))).edges) == 7
    plane = workloads.projective_plane_incidence(pt, 3)
    assert answers.girth(plane.vertices, plane.edges) == 6
    assert answers.girth(range(3), [(0, 1), (1, 2)]) is None
    assert answers.girth(range(3), [(0, 1, 2), (0, 1)]) == 2


# -- system girth ----------------------------------------------------------


def test_copy_witness_check_accepts_the_real_witness():
    H, copies = c5_path_system()
    q = workloads.copy_girth_query(pt, oracles, "C5", pt.CopySystem(H, copies),
                                   2, True)
    assert q.check(q.call()) == []


def test_copy_witness_check_rejects_a_cycle_with_a_master():
    H, copies = c5_path_system()
    q = workloads.copy_girth_query(pt, oracles, "C5", pt.CopySystem(H, copies),
                                   2, True)
    found = q.check(two_cycle_with_master(pt.CycleOfCopies))
    assert found == ["witness has a master copy"]


def test_copy_witness_check_rejects_a_non_cycle():
    H, copies = c5_path_system()
    q = workloads.copy_girth_query(pt, oracles, "C5", pt.CopySystem(H, copies),
                                   2, True)
    P = pt.Copy((0, 1, 2), ((0, 1), (1, 2)))
    bad = pt.CycleOfCopies(((P, pt.vertex_connector(1)),
                            (pt.Copy.of_edge((2, 3)), pt.vertex_connector(2))))
    assert "witness is not a cycle of copies" in q.check(bad)


def test_copy_holds_cross_check_rejects_a_false_holds():
    H, copies = c5_path_system()
    q = workloads.copy_girth_query(pt, oracles, "C5", pt.CopySystem(H, copies),
                                   2, True)
    assert q.call() is not None
    assert q.deep_check(None)


def test_pretrain_witness_check_rejects_a_cycle_with_a_supreme_copy():
    H, copies = c5_path_system()
    system = pt.PretrainCopySystem(pt.Pretrain.singletons(H), copies)
    q = workloads.pretrain_girth_query(pt, oracles, "C5", system, 2, True)
    assert q.check(q.call()) == []
    fake = pt.FrakGirthFailure("made up", cycle=two_cycle_with_master(
        pt.BigCycle))
    assert q.check(fake) == ["witness has a supreme copy"]
    assert q.deep_check(None)


# -- arrowing --------------------------------------------------------------


def test_bad_colouring_rejects_a_monochromatic_group():
    groups = [(0, 1, 2), (2, 3, 4)]
    assert answers.bad_colouring_problems(5, groups, 2, (0, 0, 1, 1, 0)) == []
    assert answers.bad_colouring_problems(5, groups, 2, (0, 0, 0, 1, 0))
    assert answers.bad_colouring_problems(5, groups, 2, (0, 0, 1, 1))
    assert answers.bad_colouring_problems(5, groups, 2, (0, 0, 2, 1, 0))


def test_arrow_query_rejects_a_wrong_verdict_or_colouring():
    H = pt.complete_graph(5)
    S = workloads.triangle_system(pt, H)
    q = workloads._arrow_query(pt, "K5", "edge_arrows", S, 2, H.num_edges,
                               workloads._edge_groups(H, S), False)
    right = q.call()
    assert q.check(right) == []
    zeros = (0,) * H.num_edges
    assert q.check(pt.ArrowResult(False, 2, zeros, 1))
    assert q.check(pt.ArrowResult(True, 2, None, 1))


def test_line_query_rejects_a_colouring_with_a_monochromatic_line():
    q, = [q for q in workloads.arrowing(pt, oracles, random.Random(1))
          if q.name == "HJ t=3 n=2 r=2"]
    holds, witness, explored = q.call()
    assert not holds and q.check((holds, witness, explored)) == []
    # the words 00, 11, 22 (indices 0, 4, 8) form the diagonal line
    mono = list(witness)
    mono[0] = mono[4] = mono[8] = 0
    assert q.check((holds, tuple(mono), explored))
    assert q.check((True, None, explored))


# -- the benchmark itself ------------------------------------------------


def test_workloads_build_from_a_seed():
    for name, build in workloads.WORKLOADS.items():
        a = [q.name for q in build(pt, oracles, random.Random(7))]
        b = [q.name for q in build(pt, oracles, random.Random(7))]
        assert a == b and len(set(a)) == len(a), name

