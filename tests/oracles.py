"""Independent brute-force oracles for cross-checking the library.

Everything in this module is deliberately naive: plain enumeration over
permutations and products, no pruning beyond what the definitions state
(a sequence whose prefix already breaks a definition is not extended).
The implementations share no code with the package so that agreement
between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from partite.core import Hypergraph, is_linear, vkey
from partite.copies import Copy, CopySystem, CycleOfCopies


# ---------------------------------------------------------------------------
# hypergraph cycles and girth


def naive_canonical_cyclic(pairs, key) -> tuple:
    """The least of all 2n rotations of a cyclic (station, connector)
    sequence and of the same cycle walked backwards, comparing the keys
    of their steps; ties go to the first in that order.

    Walked backwards from station 0, the cycle s_0 c_0 ... s_{n-1}
    c_{n-1} reads s_0 c_{n-1} s_{n-1} c_{n-2} ... s_1 c_0.
    """
    n = len(pairs)
    stations = [s for s, _ in pairs]
    connectors = [c for _, c in pairs]
    backwards = [(stations[-j % n], connectors[-j - 1]) for j in range(n)]
    rotations = [seq[r:] + seq[:r]
                 for seq in (list(pairs), backwards) for r in range(n)]
    return tuple(min(rotations, key=lambda rot: [key(p) for p in rot]))


def naive_has_cycle_of_length(obj, n: int) -> bool:
    """Does a cycle e_1 v_1 ... e_n v_n exist?  Pure enumeration.

    Edges are chosen as ordered tuples of distinct edge indices, vertices
    by backtracking over the pairwise intersections, with all vertices
    distinct.
    """
    edge_sets = obj.edge_sets
    m = len(edge_sets)
    if n < 2 or m < n:
        return False

    def assign(order, i, verts):
        if i == n:
            return True
        e_here = edge_sets[order[i]]
        e_next = edge_sets[order[(i + 1) % n]]
        for v in e_here & e_next:
            if v not in verts:
                if assign(order, i + 1, verts + [v]):
                    return True
        return False

    for order in itertools.permutations(range(m), n):
        if order[0] != min(order):
            continue  # rotations revisit the same edge sequence
        if assign(order, 0, []):
            return True
    return False


def naive_least_cycle(obj, bound: int):
    """The lex-least canonical cycle of the shortest length at most
    ``bound``, as (edge, vertex) pairs with each edge a tuple sorted by
    ``vkey``, or None.

    Every cycle of the least length n that has one is enumerated as in
    :func:`naive_has_cycle_of_length`.  Each is put in its least
    rotation or reflection under (``vkey`` of the edge's vertices,
    ``vkey`` of the vertex), and the least of these is returned.
    """
    edges = [tuple(sorted(e, key=vkey)) for e in obj.edge_sets]
    m = len(edges)

    def key(seq):
        return [(tuple(vkey(u) for u in e), vkey(v)) for e, v in seq]

    def least_form(order, verts):
        n = len(order)
        forward = [(edges[order[i]], verts[i]) for i in range(n)]
        # e_n v_{n-1} e_{n-1} ... e_1 v_n walks the same cycle backwards
        backward = [(edges[order[n - 1 - j]], verts[(n - 2 - j) % n])
                    for j in range(n)]
        forms = [seq[r:] + seq[:r] for seq in (forward, backward)
                 for r in range(n)]
        return tuple(min(forms, key=key))

    def assign(order, i, verts, out):
        n = len(order)
        if i == n:
            out.append(least_form(order, verts))
            return
        e_here = set(edges[order[i]])
        e_next = set(edges[order[(i + 1) % n]])
        for v in e_here & e_next:
            if v not in verts:
                assign(order, i + 1, verts + [v], out)

    for n in range(2, min(bound, m) + 1):
        found: list = []
        for order in itertools.permutations(range(m), n):
            if order[0] == min(order):
                assign(order, 0, [], found)
        if found:
            return min(found, key=key)
    return None


def naive_shortest_cycle_length(obj, bound: int) -> int | None:
    for n in range(2, bound + 1):
        if naive_has_cycle_of_length(obj, n):
            return n
    return None


def naive_girth_exceeds(obj, g: int) -> bool:
    return naive_shortest_cycle_length(obj, g) is None


# ---------------------------------------------------------------------------
# strong inducedness, three-clause form for linear hosts


def naive_strongly_induced_linear(F: Hypergraph, H: Hypergraph) -> bool:
    assert is_linear(H), "the three-clause form needs a linear host"
    vs = F.vertex_set
    fam = F.edge_family
    for e in H.edge_sets:
        cut = e & vs
        if len(cut) >= 2:
            # a transversal edge would have to coincide with e
            if e not in fam:
                return False
        elif len(cut) == 1:
            (x,) = cut
            if not any(x in f for f in fam):
                return False
        else:
            if not fam:
                return False
    return True


# ---------------------------------------------------------------------------
# copy enumeration by a scan of every injective map


def naive_copies(H: Hypergraph, F: Hypergraph, mode: str,
                 respect_order: bool = False, distinct_images: bool = True):
    """``(pairs, image_key)`` of each result of ``enumerate_copies``, in
    its order.

    The pattern vertices are placed high degree first, ties by ``vkey``,
    and each takes the host vertices in host order (the canonical order,
    or the host's own order under ``respect_order``).  So the maps come
    in the lexicographic order of ``itertools.permutations`` of the
    host order, and every injective map is tried.  With
    ``distinct_images`` the first map of each image stands for it.
    """
    pattern = sorted(F.vertices, key=lambda v: (-F.degree(v), vkey(v)))
    hosts = (list(H.vertices) if respect_order
             else sorted(H.vertices, key=vkey))
    fam = H.edge_family
    out, seen = [], set()
    for image in itertools.permutations(hosts, len(pattern)):
        m = dict(zip(pattern, image))
        if mode == "fpartite" and any(
                F.partite.index_of[v] != H.partite.index_of[m[v]]
                for v in pattern):
            continue
        if respect_order and any(
                (F.vertex_rank[u] < F.vertex_rank[v])
                != (H.vertex_rank[m[u]] < H.vertex_rank[m[v]])
                for u in pattern for v in pattern):
            continue
        edges = {frozenset(m[v] for v in e) for e in F.edges}
        if not edges <= fam:
            continue
        verts = frozenset(image)
        if mode == "induced" and any(e <= verts and e not in edges
                                     for e in H.edge_sets):
            continue
        key = (tuple(sorted(verts, key=vkey)),
               tuple(sorted((tuple(sorted(e, key=vkey)) for e in edges),
                            key=lambda e: [vkey(v) for v in e])))
        if distinct_images and key in seen:
            continue
        seen.add(key)
        out.append((tuple(sorted(m.items(), key=lambda p: vkey(p[0]))), key))
    return out


# ---------------------------------------------------------------------------
# arrowing by full enumeration


def naive_arrows(n_items: int, groups, r: int):
    """(arrows?, lexicographically least bad coloring or None)."""
    groups = [tuple(g) for g in groups]
    if any(len(g) == 0 for g in groups):
        return True, None  # an empty group is monochromatic under anything
    for coloring in itertools.product(range(r), repeat=n_items):
        mono = any(len({coloring[i] for i in g}) == 1 for g in groups)
        if not mono:
            return False, coloring
    return True, None


def naive_edge_arrows(system: CopySystem, r: int):
    host = system.host
    index = {e: i for i, e in enumerate(host.edge_sets)}
    groups = [sorted(index[e] for e in c.edge_sets) for c in system.copies]
    return naive_arrows(host.num_edges, groups, r)


def naive_vertex_arrows(system: CopySystem, r: int):
    host = system.host
    index = {v: i for i, v in enumerate(host.vertices)}
    groups = [sorted(index[v] for v in c.vertices) for c in system.copies]
    return naive_arrows(host.num_vertices, groups, r)


def naive_lines(t: int, n: int):
    """Lines of the cube as word lists, via wildcard templates."""
    letters = list(range(t)) + ["*"]
    out = []
    for tmpl in itertools.product(letters, repeat=n):
        if "*" not in tmpl:
            continue
        out.append([tuple(a if a != "*" else c for a in tmpl)
                    for c in range(t)])
    return out


def naive_hj_line_property(t: int, n: int, r: int) -> bool:
    words = list(itertools.product(range(t), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    groups = [[index[w] for w in line] for line in naive_lines(t, n)]
    ok, _ = naive_arrows(len(words), groups, r)
    return ok


def naive_min_hj_exponent(t: int, r: int, cap: int) -> int | None:
    for n in range(1, cap + 1):
        if naive_hj_line_property(t, n, r):
            return n
    return None


# ---------------------------------------------------------------------------
# cycles of copies: validity and masters, straight from the definitions


def naive_is_cycle(system: CopySystem, steps, members=None) -> bool:
    """Is ``steps`` a cycle of copies of ``system``?  ``members`` may
    pass ``set(system.members)``, built once for many calls."""
    n = len(steps)
    if n < 2:
        return False
    copies = [c for c, _ in steps]
    connectors = [q for _, q in steps]
    if members is None:
        members = set(system.members)
    if any(c not in members for c in copies):
        return False
    if any(copies[i] == copies[(i + 1) % n] for i in range(n)):
        return False
    if len(set(connectors)) != n:
        return False
    for i in range(n):
        q = connectors[i]
        a, b = copies[i], copies[(i + 1) % n]
        if q.is_vertex:
            if q.value not in a.vertex_set or q.value not in b.vertex_set:
                return False
        else:
            fs = frozenset(q.value)
            if fs not in a.edge_family or fs not in b.edge_family:
                return False
    return True


def naive_closed_sequences(members, joiners, max_length: int):
    """Every cyclic sequence of 2 to ``max_length`` (member, connector)
    steps whose cyclically consecutive members differ, whose connectors
    are distinct and whose every connector is one of ``joiners(a, b)``
    for its two neighbours a and b.  Every rotation and reflection is
    listed.  A prefix that already breaks one of these conditions is not
    extended, since no such sequence has it as a prefix."""
    m = len(members)
    joins = {(a, b): joiners(members[a], members[b])
             for a in range(m) for b in range(m) if a != b}

    def extend(seq, qs):
        if len(seq) >= 2 and seq[-1] != seq[0]:
            for q in joins[seq[-1], seq[0]]:
                if q not in qs:
                    yield tuple((members[i], p)
                                for i, p in zip(seq, qs + [q]))
        if len(seq) == max_length:
            return
        for c in range(m):
            if c == seq[-1]:
                continue
            for q in joins[seq[-1], c]:
                if q not in qs:
                    yield from extend(seq + [c], qs + [q])

    for c in range(m):
        yield from extend([c], [])


def naive_h(steps) -> tuple:
    """(order, length) of a cyclic sequence of steps: a copy adds 1 to
    the order when the connectors on its two sides have the same kind
    and 1/2 when they do not."""
    kinds = [q.kind for _, q in steps]
    twice = sum(2 if kinds[i - 1] == kinds[i] else 1
                for i in range(len(kinds)))
    return (Fraction(twice, 2), len(kinds))


def naive_copy_cycles(system: CopySystem, bound):
    """All cycles of copies with h at most ``bound`` (an integer g,
    meaning (g, 2g), or a pair), by enumeration over member sequences
    and connector choices.  A cycle's length is at most twice its
    order, so no cycle longer than 2g is sought."""
    from partite.copies import Connector

    g, n = (bound, 2 * bound) if isinstance(bound, int) else bound

    def joiners(a, b):
        out = [Connector("vertex", v)
               for v in sorted(a.vertex_set & b.vertex_set, key=vkey)]
        out += [Connector("edge", tuple(e))
                for e in a.edge_family & b.edge_family]
        return out

    found = set()
    members = set(system.members)
    for steps in naive_closed_sequences(system.members, joiners, 2 * g):
        if naive_is_cycle(system, steps, members) \
                and naive_h(steps) <= (g, n):
            found.add(CycleOfCopies(steps))
    return found


def naive_masters(system: CopySystem, cycle: CycleOfCopies):
    """Set of master copies, by trying every family of replacement edges."""
    n = cycle.length
    out = []
    for star in sorted(set(cycle.copies), key=lambda c: c.key):
        positions = [i for i in range(n) if cycle.copies[i] != star]
        if not positions:
            continue
        found = False
        for pick in itertools.product(star.edges, repeat=len(positions)):
            repl = dict(zip(positions, pick))
            steps = tuple(
                (Copy.of_edge(repl[i]) if i in repl else cycle.copies[i],
                 cycle.connectors[i])
                for i in range(n))
            if naive_is_cycle(system, steps):
                found = True
                break
        if found:
            out.append(star)
    return out


# ---------------------------------------------------------------------------
# random instances


def random_linear_hypergraph(rng: random.Random, max_vertices: int,
                             max_edges: int, sizes=(2, 3)) -> Hypergraph:
    """A random linear hypergraph, edges added greedily."""
    nv = rng.randint(2, max_vertices)
    verts = list(range(nv))
    chosen: list[frozenset] = []
    attempts = max_edges * 8
    while len(chosen) < max_edges and attempts > 0:
        attempts -= 1
        k = rng.choice([s for s in sizes if s <= nv])
        e = frozenset(rng.sample(verts, k))
        if e in chosen:
            continue
        if any(len(e & f) >= 2 for f in chosen):
            continue
        chosen.append(e)
        if rng.random() < 0.15:
            break
    edges = [tuple(sorted(e)) for e in chosen]
    return Hypergraph(tuple(verts), tuple(edges))


def random_subcopy(rng: random.Random, H: Hypergraph,
                   max_edges: int = 3) -> Copy | None:
    """A random connected-ish copy made of host edges."""
    if H.num_edges == 0:
        return None
    start = rng.randrange(H.num_edges)
    picked = {start}
    frontier = set(H.edge_sets[start])
    for _ in range(rng.randint(0, max_edges - 1)):
        touching = [i for i, e in enumerate(H.edge_sets)
                    if i not in picked and e & frontier]
        if not touching:
            break
        nxt = rng.choice(touching)
        picked.add(nxt)
        frontier |= H.edge_sets[nxt]
    edges = [tuple(sorted(H.edge_sets[i], key=vkey)) for i in sorted(picked)]
    verts = sorted(frontier, key=vkey)
    return Copy(tuple(verts), tuple(edges))


def random_copy_system(rng: random.Random, max_vertices: int = 7,
                       max_edges: int = 6, max_copies: int = 4) -> CopySystem:
    H = random_linear_hypergraph(rng, max_vertices, max_edges)
    copies = []
    for _ in range(rng.randint(0, max_copies)):
        c = random_subcopy(rng, H)
        if c is not None:
            copies.append(c)
    return CopySystem(H, tuple(copies))


def mixed_label(v: int):
    """An int vertex renamed to an int, a string or a tuple, so that the
    canonical order of the renamed vertices is not that of the ints."""
    return (v, str(v), (v, "t"))[v % 3]


def relabel_system(system, label=mixed_label):
    """A system of copies or of pretrain copies with every vertex v
    renamed ``label(v)``; wagons follow their edges."""
    from partite.pretrain import Pretrain, PretrainCopySystem

    m = {v: label(v) for v in system.host.vertices}
    H = system.host.relabel(m)
    copies = tuple(Copy(tuple(map(m.get, c.vertices)),
                        tuple(tuple(map(m.get, e)) for e in c.edges))
                   for c in system.copies)
    if isinstance(system, CopySystem):
        return CopySystem(H, copies)
    wagon = {frozenset(map(m.get, e)): w for e, w in
             zip(system.host.edges, system.base.wagon_ids)}
    return PretrainCopySystem(
        Pretrain(H, tuple(wagon[frozenset(e)] for e in H.edges)), copies)


# ---------------------------------------------------------------------------
# pretrains: wagon cycles, big cycles, acceptability, supreme copies


def naive_wagon_girth_exceeds(P, g: int) -> bool:
    """No cyclic sequence of not-all-equal wagons joined by distinct
    vertices has length in [2, g].  Straight from the definition."""
    wagons = P.wagons
    for n in range(2, g + 1):
        for ws in itertools.product(wagons, repeat=n):
            if all(w.id == ws[0].id for w in ws):
                continue

            def assign(i, verts):
                if i == n:
                    return True
                shared = ws[i].vertex_set & ws[(i + 1) % n].vertex_set
                return any(assign(i + 1, verts + [q])
                           for q in shared if q not in verts)

            if assign(0, []):
                return False
    return True


def naive_is_big_cycle(system, steps) -> bool:
    """The four big-cycle conditions, checked literally."""
    base = system.base
    n = len(steps)
    if n < 2:
        return False
    copies = [c for c, _ in steps]
    connectors = [q for _, q in steps]
    if any(not system.is_member(c) for c in copies):
        return False
    if any(copies[i] == copies[(i + 1) % n] for i in range(n)):
        return False
    if len(set(connectors)) != n:
        return False
    for i in range(n):
        q = connectors[i]
        a, b = copies[i], copies[(i + 1) % n]
        if q.is_vertex:
            if q.value not in a.vertex_set or q.value not in b.vertex_set:
                return False
        elif q.is_wagon:
            fam = base.wagon(q.value).edge_family
            if not (fam & a.edge_family) or not (fam & b.edge_family):
                return False
        else:
            return False
    return True


def naive_is_acceptable(system, cycle) -> bool:
    base = system.base
    n = cycle.length
    copies, connectors = cycle.copies, cycle.connectors
    if cycle.order == 1 and not any(system.is_real(c) for c in copies):
        return False

    def M(w):
        return {i for i in range(n)
                if connectors[i].is_vertex
                and connectors[i].value in w.vertex_set}

    for i in range(n):
        if not connectors[i].is_wagon:
            continue
        w = base.wagon(connectors[i].value)
        if not M(w) <= {(i - 1) % n, (i + 1) % n}:
            return False
        if len(M(w)) == 2:
            pair = {connectors[(i - 1) % n].value,
                    connectors[(i + 1) % n].value}
            if any(pair <= f for f in base.hypergraph.edge_sets):
                return False
    named = {q.value for q in connectors if q.is_wagon}
    for w in base.wagons:
        if w.id in named:
            continue
        if not any(M(w) <= {i, (i + 1) % n} for i in range(n)):
            return False
    return True


def naive_big_cycles(system, max_order: int, max_length: int):
    """All big cycles up to the given order and length, by enumeration
    over member sequences and connector choices."""
    from partite.copies import Connector
    from partite.pretrain import BigCycle

    members = system.members
    base = system.base
    wids = {c: {base.wagon_of(e) for e in c.edges} for c in members}

    def joiners(a, b):
        out = [Connector("vertex", v)
               for v in sorted(a.vertex_set & b.vertex_set, key=vkey)]
        out += [Connector("wagon", w) for w in sorted(wids[a] & wids[b])]
        return out

    found = set()
    for steps in naive_closed_sequences(members, joiners, max_length):
        if (naive_is_big_cycle(system, steps)
                and naive_h(steps)[0] <= max_order):
            found.add(BigCycle(steps))
    return found


def naive_supremes(system, cycle):
    """Supreme copies by brute force over every family of pieces.

    Candidates range over all copies occurring in the cycle, real or
    not; agreement with the library's real-only search doubles as
    evidence that edge copies never qualify.
    """
    from partite.copies import Connector, Copy

    base = system.base
    H = base.hypergraph
    n = cycle.length
    out = []
    for star in sorted(set(cycle.copies), key=lambda c: c.key):
        positions = [i for i in range(n) if cycle.copies[i] != star]
        if not positions:
            continue
        shorts = [("s", f) for f in star.edges]
        longs = [("l", f1, f2)
                 for f1 in star.edges for f2 in star.edges
                 if f1 != f2 and base.wagon_of(f1) == base.wagon_of(f2)]
        found = False
        for pick in itertools.product(shorts + longs,
                                      repeat=len(positions)):
            repl = dict(zip(positions, pick))
            ok = True
            steps = []
            for i in range(n):
                q = cycle.connectors[i]
                if i not in repl:
                    steps.append((cycle.copies[i], q))
                    continue
                p = repl[i]
                if p[0] == "s":
                    steps.append((Copy.of_edge(p[1]), q))
                    continue
                left = cycle.connectors[(i - 1) % n]
                if not (left.is_vertex and q.is_vertex):
                    ok = False
                    break
                if any({left.value, q.value} <= f for f in H.edge_sets):
                    ok = False
                    break
                steps.append((Copy.of_edge(p[1]),
                              Connector("wagon", base.wagon_of(p[1]))))
                steps.append((Copy.of_edge(p[2]), q))
            if ok and naive_is_big_cycle(system, tuple(steps)):
                found = True
                break
        if found:
            out.append(star)
    return out


def random_pretrain(rng: random.Random, max_vertices: int = 7,
                    max_edges: int = 6, max_wagons: int = 3):
    """A random pretrain over a random linear hypergraph."""
    from partite.pretrain import Pretrain

    H = random_linear_hypergraph(rng, max_vertices, max_edges)
    if H.num_edges == 0:
        return Pretrain(H, ())
    ids = tuple(rng.randrange(max_wagons) for _ in range(H.num_edges))
    return Pretrain(H, ids)


def random_pretrain_system(rng: random.Random, max_vertices: int = 7,
                           max_edges: int = 5, max_copies: int = 3,
                           max_wagons: int = 3):
    from partite.pretrain import PretrainCopySystem

    P = random_pretrain(rng, max_vertices, max_edges, max_wagons)
    copies = []
    for _ in range(rng.randint(0, max_copies)):
        c = random_subcopy(rng, P.hypergraph)
        if c is not None:
            copies.append(c)
    return PretrainCopySystem(P, tuple(copies))


# ---------------------------------------------------------------------------
# quasitrains: sequence girth, the lifting rule, random instances


def naive_seq_girth_exceeds(Q, gs) -> bool:
    """Every wagon of every level, restricted to the level below, is
    linear and free of wagon cycles within that level's bound."""
    from partite.pretrain import subpretrain

    for mu in range(1, Q.height + 1):
        low = Q.level(mu - 1)
        for W in Q.level(mu).wagons:
            R = subpretrain(low, W.vertices, W.edges)
            if not is_linear(R.hypergraph):
                return False
            if not naive_wagon_girth_exceeds(R, gs[mu - 1]):
                return False
    return True


def naive_lift_pairs(F, ext, mu):
    """Pairs of extension-edge indices equivalent at level ``mu``,
    straight from the rule: some edges of the original are level-one
    equivalent to them in the extension and level-``mu`` equivalent in
    the original."""
    H = ext.hypergraph
    lvl = F.level(mu)
    originals = F.hypergraph.edges
    out = set()
    for i, ei in enumerate(H.edges):
        for j, ej in enumerate(H.edges):
            if any(ext.wagon_of(es) == ext.wagon_of(ei)
                   and ext.wagon_of(ess) == ext.wagon_of(ej)
                   and lvl.wagon_of(es) == lvl.wagon_of(ess)
                   for es in originals for ess in originals):
                out.add((i, j))
    return out


def random_hypergraph(rng: random.Random, max_vertices: int,
                      max_edges: int, sizes=(2, 3)) -> Hypergraph:
    """A random hypergraph, short intersections not enforced."""
    nv = rng.randint(2, max_vertices)
    verts = list(range(nv))
    chosen = set()
    for _ in range(rng.randint(0, max_edges)):
        k = rng.choice([s for s in sizes if s <= nv])
        chosen.add(tuple(sorted(rng.sample(verts, k))))
    return Hypergraph(tuple(verts), tuple(sorted(chosen)))


def random_quasitrain(rng: random.Random, max_vertices: int = 7,
                      max_edges: int = 6, height: int | None = None,
                      linear: bool = True):
    """A random quasitrain: random host, chain by repeated coarsening."""
    from partite.train import Quasitrain

    H = (random_linear_hypergraph(rng, max_vertices, max_edges) if linear
         else random_hypergraph(rng, max_vertices, max_edges))
    m = height if height is not None else rng.randint(1, 3)
    n = H.num_edges
    rows = [tuple(range(n))]
    for _ in range(m - 1):
        prev = rows[-1]
        merged = {w: rng.randrange(max(1, len(set(prev))))
                  for w in sorted(set(prev))}
        rows.append(tuple(merged[w] for w in prev))
    rows.append((0,) * n)
    return Quasitrain(H, tuple(rows))


def _subst_vertex(items, old, new):
    return [(tuple(new if x == old else x for x in e), a) for e, a in items]


def random_partite_train(rng: random.Random, k: int = 3, m: int = 2):
    """A random k-partite k-uniform train with tiny parameter entries.

    Wagons are glued bottom-up: inside a wagon the wagons of the level
    below form a loose path chained through single vertices of the one
    allowed class (or stay disjoint when the entry is empty), and with
    a small probability the path closes into a cycle, so the girth
    check fails now and then.  Vertices are (class, serial) pairs and
    every edge meets every class once, making the result a valid train
    with parameter entries of size at most one by construction.
    """
    from partite.core import make_partition
    from partite.train import Train

    counters = [0] * k
    bounds = [rng.choice([None] + list(range(k))) for _ in range(m)]

    def fresh(c):
        counters[c] += 1
        return (c, counters[c])

    def class_pool(items, b, forbidden=frozenset()):
        return sorted({x for e, _ in items for x in e
                       if x[0] == b and x not in forbidden})

    def build(mu):
        # one level-mu wagon as (edge, address) pairs; addresses list
        # the part taken at each level from here down
        if mu == 0:
            return [(tuple(fresh(c) for c in range(k)), ())]
        parts = [[(e, (pid,) + a) for e, a in build(mu - 1)]
                 for pid in range(rng.randint(1, 3))]
        b = bounds[mu - 1]
        out = list(parts[0])
        prev = parts[0]
        for p in parts[1:]:
            if b is not None and rng.random() < 0.9:
                pool_old = class_pool(prev, b)
                pool_new = class_pool(p, b)
                if pool_old and pool_new:
                    p = _subst_vertex(p, rng.choice(pool_new),
                                      rng.choice(pool_old))
            out.extend(p)
            prev = p
        if b is not None and len(parts) >= 2 and rng.random() < 0.2:
            # close the path of parts into a cycle now and then
            rest_vs = {x for q in parts[:-1] for e, _ in q for x in e}
            last_vs = {x for e, _ in prev for x in e}
            pool_last = class_pool(prev, b, forbidden=rest_vs)
            pool_first = class_pool(parts[0], b, forbidden=last_vs)
            if pool_last and pool_first:
                old = rng.choice(pool_last)
                out = _subst_vertex(out, old, rng.choice(pool_first))
        return out

    items = build(m)
    addr = {frozenset(e): a for e, a in items}
    verts = sorted({x for e, _ in items for x in e})
    part = make_partition({c: [v for v in verts if v[0] == c]
                           for c in range(k)})
    H = Hypergraph(tuple(verts), tuple(e for e, _ in items), k=k,
                   partite=part)
    rows = tuple(tuple(addr[frozenset(e)][:m - nu] for e in H.edges)
                 for nu in range(m + 1))
    parameter = tuple(frozenset() if b is None else frozenset({b})
                      for b in bounds)
    return Train(H, rows, parameter)
