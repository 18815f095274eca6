"""Independent brute-force oracles for cross-checking the library.

Everything in this module is deliberately naive: plain enumeration over
permutations and products, no pruning beyond what the definitions state.
The implementations share no code with the package so that agreement
between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import random

from partite.core import Hypergraph, is_linear, vkey
from partite.copies import Copy, CopySystem, CycleOfCopies


# ---------------------------------------------------------------------------
# hypergraph cycles and girth


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


def naive_is_cycle(system: CopySystem, steps) -> bool:
    n = len(steps)
    if n < 2:
        return False
    copies = [c for c, _ in steps]
    connectors = [q for _, q in steps]
    member = set(system.members)
    if any(c not in member for c in copies):
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
    over member sequences and connector products."""
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
    for n in range(2, max_length + 1):
        for seq in itertools.product(members, repeat=n):
            pools = [joiners(seq[i], seq[(i + 1) % n]) for i in range(n)]
            if any(not p for p in pools):
                continue
            for qs in itertools.product(*pools):
                steps = tuple(zip(seq, qs))
                if naive_is_big_cycle(system, steps):
                    cyc = BigCycle(steps)
                    if cyc.order <= max_order:
                        found.add(cyc)
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
    from partite.train import Quasitrain, Train

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
    return Train(Quasitrain(H, rows), parameter)
