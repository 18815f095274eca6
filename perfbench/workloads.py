"""The three workloads: their inputs and their queries.

Each workload function takes the imported ``partite`` package, the
module ``tests/oracles.py`` and a seeded ``random.Random``, and returns
the list of queries of one pass.  All
inputs are built here, before the first query; the package receives
only the finished inputs.  Every query carries the check of its answer
(``answers`` and the brute-force oracles of ``tests/oracles.py``); the
checks never call a search of the package.

Vertices are integers throughout, see ``answers``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

import answers

HOLDS = "holds"
WITNESS = "witness"
SEARCH = "search"


@dataclass
class Query:
    """One verifier call of a pass.

    ``classify`` names the answer: ``holds`` (the property holds, no
    witness), ``witness`` (answered with a cycle or a bad colouring) or
    ``search`` (a minimum-parameter search, counted in ``pass_s``
    only).  ``check`` returns the problems of an answer; ``deep_check``,
    when set, is a slower cross-check run once per run, outside the
    timed pass.
    """

    name: str
    call: Callable[[], Any]
    classify: Callable[[Any], str]
    check: Callable[[Any], list[str]]
    deep_check: Callable[[Any], list[str]] | None = None


def _verdict(answer) -> str:
    return HOLDS if answer is None or answer is True else WITNESS


# ---------------------------------------------------------------------------
# shared hosts


def cycle_graph(pt, labels):
    n = len(labels)
    return pt.Hypergraph(tuple(labels), tuple(
        (labels[i], labels[(i + 1) % n]) for i in range(n)), k=2)


def path_graph(pt, m: int):
    return pt.Hypergraph(tuple(range(m + 1)),
                         tuple((i, i + 1) for i in range(m)), k=2)


def projective_plane_incidence(pt, q: int):
    """Point-line incidence graph of PG(2, q), q prime: points 0..N-1,
    lines N..2N-1."""
    pts = [(x, y, 1) for x in range(q) for y in range(q)]
    pts += [(x, 1, 0) for x in range(q)] + [(1, 0, 0)]
    n = len(pts)
    edges = [(i, n + j) for i, p in enumerate(pts) for j, L in enumerate(pts)
             if sum(a * b for a, b in zip(p, L)) % q == 0]
    return pt.Hypergraph(tuple(range(2 * n)), tuple(edges), k=2)


def random_linear_hypergraph(pt, rng, n_vertices: int, n_edges: int):
    """Edges of size two or three added at random while linear."""
    verts = list(range(n_vertices))
    chosen: list[frozenset] = []
    for _ in range(50 * n_edges):
        if len(chosen) == n_edges:
            break
        e = frozenset(rng.sample(verts, rng.choice((2, 2, 3))))
        if all(len(e & f) <= 1 for f in chosen):
            chosen.append(e)
    return pt.Hypergraph(tuple(verts), tuple(tuple(sorted(e)) for e in chosen))


def random_two_edge_copy(pt, rng, H):
    """Two host edges that meet, as a copy."""
    i = rng.randrange(H.num_edges)
    e = frozenset(H.edges[i])
    touching = [f for f in H.edges if f != H.edges[i] and e & set(f)]
    if not touching:
        return pt.Copy(H.edges[i], (H.edges[i],))
    f = rng.choice(touching)
    return pt.Copy(tuple(sorted(e | set(f))), (H.edges[i], f))


def relabelled(pt, rng, H, copies, wagon_ids=None):
    """``H`` and its copies on seeded random distinct labels from
    range(100 n): (host, copies), or (pretrain, copies) when
    ``wagon_ids`` gives the wagon of each edge of ``H``."""
    n = len(H.vertices)
    label = dict(zip(H.vertices, rng.sample(range(100 * n), n)))

    def edge(e):
        return tuple(label[v] for v in e)

    H2 = pt.Hypergraph(edge(H.vertices), tuple(edge(e) for e in H.edges))
    copies2 = tuple(pt.Copy(edge(c.vertices), tuple(edge(e) for e in c.edges))
                    for c in copies)
    if wagon_ids is None:
        return H2, copies2
    return pt.Pretrain.from_labels(H2, {edge(e): w for e, w
                                        in zip(H.edges, wagon_ids)}), copies2


# ---------------------------------------------------------------------------
# system_girth


def _copy_joiners(pt):
    def joiners(a, b):
        edges = sorted(tuple(sorted(f))
                       for f in a.edge_family & b.edge_family)
        return [pt.vertex_connector(v)
                for v in sorted(a.vertex_set & b.vertex_set)] \
            + [pt.edge_connector(e) for e in edges]
    return joiners


def _real(system, c) -> bool:
    return c in system.copies and not (
        len(c.edges) == 1 and set(c.edges[0]) == set(c.vertices))


def copy_girth_query(pt, oracles, name, system, g, cross_check):
    host_edges = [frozenset(e) for e in system.host.edges]

    def check(cyc):
        if cyc is None:
            return []
        steps = cyc.steps
        problems = []
        if not oracles.naive_is_cycle(system, steps):
            problems.append("witness is not a cycle of copies")
        problems += answers.tidy_problems(host_edges, steps)
        h = answers.cycle_h([q.kind for _, q in steps])
        if not answers.within_bound(h, g):
            problems.append(f"witness has h={h}, beyond the bound {g}")
        if oracles.naive_masters(system, cyc):
            problems.append("witness has a master copy")
        return problems

    def deep_check(cyc):
        if cyc is not None:
            return []
        members = list(dict.fromkeys(
            list(system.copies)
            + [pt.Copy.of_edge(e) for e in system.host.edges]))
        members.sort(key=lambda c: (c.vertices, c.edges))
        for steps in answers.closed_walks(members, _copy_joiners(pt), 2 * g):
            h = answers.cycle_h([q.kind for _, q in steps])
            if not answers.within_bound(h, g):
                continue
            if answers.tidy_problems(host_edges, steps):
                continue
            if not oracles.naive_is_cycle(system, steps):
                continue
            if not oracles.naive_masters(system, pt.CycleOfCopies(steps)):
                return [f"a tidy cycle with h={h} has no master copy"]
        return []

    return Query(name, lambda: pt.girth_of_system_witness(system, g),
                 _verdict, check, deep_check if cross_check else None)


def pretrain_girth_query(pt, oracles, name, system, g, cross_check):
    def no_real_supreme(cycle):
        return not any(_real(system, c)
                       for c in oracles.naive_supremes(system, cycle))

    def check(fail):
        if fail is None:
            return []
        if fail.cycle is None:
            return [f"witness without a big cycle: {fail.reason}"]
        cyc = fail.cycle
        problems = []
        if not oracles.naive_is_big_cycle(system, cyc.steps):
            problems.append("witness is not a big cycle")
        if not oracles.naive_is_acceptable(system, cyc):
            problems.append("witness is not acceptable")
        h = answers.cycle_h([q.kind for _, q in cyc.steps])
        if not answers.within_bound(h, g):
            problems.append(f"witness has h={h}, beyond the bound {g}")
        if not no_real_supreme(cyc):
            problems.append("witness has a supreme copy")
        return problems

    def deep_check(fail):
        if fail is not None:
            return []
        for cyc in oracles.naive_big_cycles(system, g, 2 * g):
            if oracles.naive_is_acceptable(system, cyc) \
                    and no_real_supreme(cyc):
                return [f"an acceptable big cycle with h={cyc.h} has no "
                        f"supreme copy"]
        return []

    return Query(name, lambda: pt.frak_Girth_witness(system, g),
                 _verdict, check, deep_check if cross_check else None)


PATH_CYCLES = tuple(range(5, 13))  # two-edge-path systems asked at g = 2
CROSS_CHECKED = 8                  # ... holds answers brute-forced up to C_8
DEEP = 3                           # ... of C_3 asked at g = 3
RANDOM_SYSTEMS = 4                 # random copy / pretrain systems at g = 2
SHAPES_SEED = 0                    # ... their shapes; the seed relabels them


def _wagons_linear(H, ids) -> bool:
    sets = answers.wagon_sets(H.edges, ids)
    return all(len(a & b) <= 1
               for a, b in itertools.combinations(sets.values(), 2))


def path_systems(pt, n):
    """The two-edge paths of C_n as a copy and as a pretrain system."""
    H = cycle_graph(pt, list(range(n)))
    copies = tuple(pt.copy_of_embedding(e) for e in pt.enumerate_copies(
        H, path_graph(pt, 2), mode="nni"))
    return (pt.CopySystem(H, copies),
            pt.PretrainCopySystem(pt.Pretrain.singletons(H), copies))


def system_girth(pt, oracles, rng) -> list[Query]:
    out = []
    for n in PATH_CYCLES:
        cs, ps = path_systems(pt, n)
        small = n <= CROSS_CHECKED
        out.append(copy_girth_query(pt, oracles, f"copies C{n} g=2", cs, 2,
                                    small))
        out.append(pretrain_girth_query(pt, oracles, f"pretrain C{n} g=2",
                                        ps, 2, small))
    cs, ps = path_systems(pt, DEEP)
    out.append(copy_girth_query(pt, oracles, f"copies C{DEEP} g=3", cs, 3,
                                False))
    out.append(pretrain_girth_query(pt, oracles, f"pretrain C{DEEP} g=3", ps,
                                    3, False))
    # A system's search time depends mostly on its shape, and from shape
    # to shape it spreads over two orders of magnitude; drawing shapes
    # from the seed would make the seed, not the program, set the figures.
    shapes = random.Random(SHAPES_SEED)
    for i in range(RANDOM_SYSTEMS):
        H = random_linear_hypergraph(pt, shapes, 6, 5)
        copies = tuple(random_two_edge_copy(pt, shapes, H) for _ in range(2))
        H, copies = relabelled(pt, rng, H, copies)
        out.append(copy_girth_query(pt, oracles, f"random copies #{i} g=2",
                                    pt.CopySystem(H, copies), 2, True))
    for i in range(RANDOM_SYSTEMS):
        H = random_linear_hypergraph(pt, shapes, 6, 5)
        while True:
            ids = tuple(shapes.randrange(3) for _ in H.edges)
            if _wagons_linear(H, ids):
                break
        copies = tuple(random_two_edge_copy(pt, shapes, H) for _ in range(2))
        P, copies = relabelled(pt, rng, H, copies, ids)
        system = pt.PretrainCopySystem(P, copies)
        out.append(pretrain_girth_query(pt, oracles,
                                        f"random pretrain #{i} g=2",
                                        system, 2, True))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# hypergraph_girth


def _girth_pair(pt, name, H, g):
    """shortest_edge_cycle at the girth, girth_exceeds one below."""
    known = {}

    def true_girth():
        if "g" not in known:
            known["g"] = answers.girth(H.vertices, H.edges)
        return known["g"]

    def check_cycle(cyc):
        if true_girth() != g:
            return [f"input has girth {true_girth()}, built for {g}"]
        return answers.edge_cycle_problems(H.edges, cyc, g)

    def check_exceeds(ok):
        if ok is not True:
            return [f"girth_exceeds({g - 1}) answered {ok!r}"]
        return [] if true_girth() == g else ["girth is not the one built"]

    return [Query(f"{name} cycle<={g}",
                  lambda: pt.shortest_edge_cycle(H, g), _verdict, check_cycle),
            Query(f"{name} exceeds {g - 1}",
                  lambda: pt.girth_exceeds(H, g - 1), _verdict,
                  check_exceeds)]


def paired_labels(n: int):
    """Wagon label of each edge of C_n (sorted edge order) when the
    edges (i, i+1) and (i+1, i+2), i even, share a wagon."""
    H_edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return H_edges, [min(e) // 2 if e != (0, n - 1) else (n - 1) // 2
                     for e in H_edges]


def _wagon_pair(pt, name, n):
    """Wagon girth of C_n with consecutive edges paired: n/2."""
    H = cycle_graph(pt, list(range(n)))
    edges, labels = paired_labels(n)
    P = pt.Pretrain.from_labels(H, dict(zip(edges, labels)))
    sets = answers.wagon_sets(edges, labels)
    g = n // 2

    def check_cycle(cyc):
        return answers.station_cycle_problems(sets, cyc or (), g)

    def check_none(cyc):
        if cyc is not None:
            return ["wagon girth reported a cycle below the girth"]
        got = answers.girth(H.vertices, list(sets.values()))
        return [] if got == g else [f"wagon girth is {got}, not {g}"]

    return [Query(f"{name} wagon cycle<={g}",
                  lambda: pt.frak_girth_pretrain_witness(P, g), _verdict,
                  check_cycle),
            Query(f"{name} wagon girth>{g - 1}",
                  lambda: pt.frak_girth_pretrain_witness(P, g - 1), _verdict,
                  check_none)]


def _seq_pair(pt, name, n):
    """Quasitrain over C_n: single edges, paired edges, one wagon."""
    H = cycle_graph(pt, list(range(n)))
    edges, labels = paired_labels(n)
    level1 = dict(zip(edges, labels))
    Q = pt.Quasitrain(H, (tuple(range(n)),
                          tuple(level1[e] for e in H.edges), (0,) * n))
    sets = answers.wagon_sets(edges, labels)
    g = n // 2

    def check_fail(fail):
        if fail is None:
            return ["no failure reported at the wagon girth"]
        if (fail.level, fail.wagon) != (2, 0):
            return [f"failure at level {fail.level}, wagon {fail.wagon}"]
        return answers.station_cycle_problems(sets, fail.cycle, g)

    def check_none(fail):
        if fail is not None:
            return ["sequence girth failed below the wagon girth"]
        got = answers.girth(H.vertices, list(sets.values()))
        return [] if got == g else [f"wagon girth is {got}, not {g}"]

    return [Query(f"{name} seq ({g},{g})",
                  lambda: pt.frak_girth_seq_witness(Q, (g, g)), _verdict,
                  check_fail),
            Query(f"{name} seq ({g},{g - 1})",
                  lambda: pt.frak_girth_seq_witness(Q, (g, g - 1)), _verdict,
                  check_none)]


LONG_CYCLES = (40, 60, 80)         # C_n, girth n, natural labels
RELABELLED_CYCLES = (64, 64)       # C_n on seeded random labels
PLANES = (2, 3, 5)                 # PG(2, q) incidence graphs, girth 6
WAGON_CYCLES = (80, 120)           # C_n with paired edges: girth n/2


def hypergraph_girth(pt, oracles, rng) -> list[Query]:
    out = []
    for n in LONG_CYCLES:
        out += _girth_pair(pt, f"C{n}", cycle_graph(pt, list(range(n))), n)
    for i, n in enumerate(RELABELLED_CYCLES):
        labels = rng.sample(range(100 * n), n)
        out += _girth_pair(pt, f"relabelled C{n} #{i}",
                           cycle_graph(pt, labels), n)
    for q in PLANES:
        out += _girth_pair(pt, f"PG(2,{q})",
                           projective_plane_incidence(pt, q), 6)
    for n in WAGON_CYCLES:
        out += _wagon_pair(pt, f"C{n}", n)
        out += _seq_pair(pt, f"C{n}", n)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# arrowing


def _arrow_query(pt, name, fn, system, r, items, groups, expect):
    """``fn`` names the oracle; ``expect`` is the known verdict, True
    when arrowing holds."""

    def check(res):
        if res.arrows != expect:
            return [f"arrows={res.arrows}, known to be {expect}"]
        if expect:
            return [] if res.witness is None else ["holds with a witness"]
        return answers.bad_colouring_problems(items, groups, r, res.witness)

    return Query(name, lambda: getattr(pt, fn)(system, r),
                 lambda res: HOLDS if res.arrows else WITNESS, check)


def triangle_system(pt, H):
    K3 = pt.complete_graph(3)
    return pt.CopySystem(H, tuple(
        pt.copy_of_embedding(e)
        for e in pt.enumerate_copies(H, K3, mode="nni")))


def _edge_groups(H, system):
    index = {frozenset(e): i for i, e in enumerate(H.edges)}
    return [[index[frozenset(e)] for e in c.edges] for c in system.copies]


def progression_system(pt, n: int, k: int):
    """k-term arithmetic progressions in [n] as vertex groups."""
    aps = [tuple(a + i * d for i in range(k))
           for a in range(n) for d in range(1, n)
           if a + (k - 1) * d < n]
    H = pt.Hypergraph(tuple(range(n)), tuple(aps), k=k)
    return H, pt.CopySystem(H, tuple(pt.Copy.of_edge(ap) for ap in aps)), aps


# (n, r, arrows?): R(3,3) = 6, R(3,3,3) = 17
CLIQUES = ((5, 2, False), (6, 2, True), (8, 3, False))
# (n, k, r, arrows?): W(3;2) = 9, W(4;2) = 35, W(3;3) = 27
PROGRESSIONS = ((8, 3, 2, False), (9, 3, 2, True), (34, 4, 2, False),
                (35, 4, 2, True), (26, 3, 3, False), (27, 3, 3, True))
# (t, n, r, holds?): HJ(2, r) = r, HJ(3, 2) = 4
CUBES = ((2, 1, 2, False), (2, 2, 2, True), (2, 2, 3, False),
         (2, 3, 3, True), (3, 2, 2, False), (3, 3, 2, False))
# G(7, 12 edges), triangles, 2 colours: never arrows, as 15 edges are
# needed (size Ramsey number of the triangle)
RANDOM_GRAPHS = 4
PATH_EDGES = 1500                  # the path whose query fails today
BIPARTITE_RAMSEY = 5               # b(2; 2): K_{2,2}, two colours


def arrowing(pt, oracles, rng) -> list[Query]:
    out = []
    for n, r, expect in CLIQUES:
        H = pt.complete_graph(n)
        S = triangle_system(pt, H)
        out.append(_arrow_query(pt, f"K{n} r={r}", "edge_arrows", S, r,
                                H.num_edges, _edge_groups(H, S), expect))
    for n, k, r, expect in PROGRESSIONS:
        H, S, aps = progression_system(pt, n, k)
        out.append(_arrow_query(pt, f"AP{k} in [{n}] r={r}", "vertex_arrows",
                                S, r, n, aps, expect))
    for t, n, r, expect in CUBES:
        index = {w: i for i, w in
                 enumerate(itertools.product(range(t), repeat=n))}
        lines = [[index[w] for w in line]
                 for line in oracles.naive_lines(t, n)]

        def check(res, t=t, n=n, r=r, expect=expect, lines=lines):
            holds, witness, _ = res
            if holds != expect:
                return [f"line property {holds}, known to be {expect}"]
            if holds:
                return [] if witness is None else ["holds with a witness"]
            return answers.bad_colouring_problems(t ** n, lines, r, witness)

        out.append(Query(f"HJ t={t} n={n} r={r}",
                         lambda t=t, n=n, r=r: pt.hj_line_property(
                             t, n, r, pt.Budget()),
                         lambda res: HOLDS if res[0] else WITNESS, check))
    for i in range(RANDOM_GRAPHS):
        pairs = list(itertools.combinations(range(7), 2))
        H = pt.Hypergraph(tuple(range(7)), tuple(rng.sample(pairs, 12)), k=2)
        S = triangle_system(pt, H)
        out.append(_arrow_query(pt, f"random G(7,12) #{i} r=2",
                                "edge_arrows", S, 2, H.num_edges,
                                _edge_groups(H, S), False))

    def check_ramsey(m):
        return [] if m == BIPARTITE_RAMSEY else [
            f"min_product_ramsey gave {m}, b(2;2) is {BIPARTITE_RAMSEY}"]

    out.append(Query("min_product_ramsey K22 r=2",
                     lambda: pt.min_product_ramsey({0: 1, 1: 1}, 2, 2),
                     lambda _: SEARCH, check_ramsey))
    P = path_graph(pt, PATH_EDGES)
    S = pt.CopySystem(P, tuple(
        pt.Copy((i, i + 1, i + 2), ((i, i + 1), (i + 1, i + 2)))
        for i in range(PATH_EDGES - 1)))
    out.append(_arrow_query(pt, f"path P{PATH_EDGES} r=2", "edge_arrows", S,
                            2, PATH_EDGES, [(i, i + 1)
                                            for i in range(PATH_EDGES - 1)],
                            False))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "system_girth": system_girth,
    "hypergraph_girth": hypergraph_girth,
    "arrowing": arrowing,
}
