"""Answer checks made apart from the package under test.

Every function here decides from the definitions alone whether an
answer returned by ``partite`` is right, and returns a list of
problems (empty when the answer is right).  None of them calls a
search of the package: they read only the plain data of the inputs
(vertex tuples, edge tuples, the listed copies) and of the answer.

All benchmark inputs use integer vertices, so the package's canonical
order on vertices and edges is Python's own order on ints and on
sorted int tuples; the canonical-form checks rely on that.
"""

from __future__ import annotations

from collections import deque

# ---------------------------------------------------------------------------
# cyclic sequences


def cyclic_variants(pairs):
    """All rotations of a cyclic (station, connector) sequence and of
    its reversal.

    The reversal of s_0 c_0 s_1 c_1 ... s_{n-1} c_{n-1}, where c_i joins
    s_i and s_{i+1}, walks s_0 c_{n-1} s_{n-1} c_{n-2} ... s_1 c_0.
    """
    n = len(pairs)
    stations = [s for s, _ in pairs]
    connectors = [c for _, c in pairs]
    back = [(stations[-j % n], connectors[(-j - 1) % n]) for j in range(n)]
    for seq in (list(pairs), back):
        for r in range(n):
            yield tuple(seq[(r + j) % n] for j in range(n))


def is_least_variant(pairs) -> bool:
    pairs = tuple(pairs)
    return all(pairs <= v for v in cyclic_variants(pairs))


def station_cycle_problems(sets, pairs, length: int) -> list[str]:
    """A cycle s_1 v_1 ... s_n v_n through the sets of a set system.

    ``sets`` maps each station to its vertex set.  The stations must be
    distinct members, the vertices distinct, v_i must lie in s_i and in
    s_{i+1}, the length must be ``length`` and the presentation must be
    the least rotation or reflection.
    """
    problems = []
    n = len(pairs)
    if n != length:
        problems.append(f"cycle has length {n}, expected {length}")
    stations = [s for s, _ in pairs]
    verts = [v for _, v in pairs]
    if any(s not in sets for s in stations):
        problems.append("a station of the cycle is not in the system")
        return problems
    if len(set(stations)) != n:
        problems.append("stations of the cycle repeat")
    if len(set(verts)) != n:
        problems.append("vertices of the cycle repeat")
    for i in range(n):
        nxt = stations[(i + 1) % n]
        if verts[i] not in sets[stations[i]] or verts[i] not in sets[nxt]:
            problems.append(f"vertex {verts[i]!r} does not join its stations")
    if not is_least_variant(pairs):
        problems.append("cycle is not in its least rotation or reflection")
    return problems


def edge_cycle_problems(edges, cycle, length: int) -> list[str]:
    """A hypergraph cycle given as (edge tuple, vertex) pairs."""
    if cycle is None:
        return [f"no cycle returned, expected one of length {length}"]
    family = {tuple(sorted(e)): frozenset(e) for e in edges}
    if any(tuple(e) != tuple(sorted(e)) for e, _ in cycle):
        return ["an edge of the cycle is not a sorted tuple"]
    return station_cycle_problems(family, [(tuple(e), v) for e, v in cycle],
                                  length)


def wagon_sets(edges, labels) -> dict[int, frozenset]:
    """Vertex sets of wagons, ids numbered in first-edge order.

    ``edges`` are in the host's sorted edge order and ``labels`` names
    each edge's wagon, so the ids follow the package's documented
    normalisation.
    """
    ids: dict = {}
    out: dict[int, set] = {}
    for e, lab in zip(edges, labels):
        w = ids.setdefault(lab, len(ids))
        out.setdefault(w, set()).update(e)
    return {w: frozenset(s) for w, s in out.items()}


# ---------------------------------------------------------------------------
# hypergraph girth, computed by breadth-first search


def girth(vertices, edges) -> int | None:
    """Girth of a hypergraph: half the shortest cycle of its vertex-edge
    incidence graph (Itai-Rodeh), or None when there is no cycle."""
    nodes = [("v", v) for v in vertices]
    nodes += [("e", i) for i in range(len(edges))]
    adj = {x: [] for x in nodes}
    for i, e in enumerate(edges):
        for v in e:
            adj[("v", v)].append(("e", i))
            adj[("e", i)].append(("v", v))
    best = None
    for src in nodes:
        dist = {src: 0}
        parent = {src: None}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    c = dist[x] + dist[y] + 1
                    if best is None or c < best:
                        best = c
    return None if best is None else best // 2


# ---------------------------------------------------------------------------
# cycles of copies: tidiness and the order of a cycle


def cycle_h(connector_kinds) -> tuple[int, int]:
    """(order, length): pure indices count one, mixed ones one half."""
    n = len(connector_kinds)
    pure = sum(1 for i in range(n)
               if connector_kinds[i - 1] == connector_kinds[i])
    return (pure + (n - pure) // 2, n)


def within_bound(h, g: int) -> bool:
    """h at most (g, 2g) in lexicographic order."""
    return tuple(h) <= (g, 2 * g)


def _adjacent(positions, n: int) -> bool:
    if len(positions) <= 1:
        return True
    if len(positions) > 2:
        return False
    a, b = positions
    return (b - a) % n in (1, n - 1)


def tidy_problems(host_edges, steps) -> list[str]:
    """No vertex connector inside an edge connector; every host edge
    meets the vertex connectors in at most two cyclically adjacent
    positions."""
    problems = []
    n = len(steps)
    conns = [q for _, q in steps]
    verts = {i: q.value for i, q in enumerate(conns) if q.kind == "vertex"}
    for q in conns:
        if q.kind == "edge" and any(v in q.value for v in verts.values()):
            problems.append("a vertex connector lies in an edge connector")
    for f in host_edges:
        hit = sorted(i for i, v in verts.items() if v in f)
        if not _adjacent(hit, n):
            problems.append(f"host edge {tuple(f)!r} meets vertex "
                            f"connectors at non-adjacent positions")
    return problems


def closed_walks(members, joiners, max_len: int):
    """Every closed walk of copies and connectors up to ``max_len`` that
    starts at its least member.

    Consecutive copies differ and connectors are pairwise distinct.
    Every cyclic sequence has a rotation starting at an occurrence of
    its least member, so each cycle shows up at least once.
    ``joiners(a, b)`` lists the connectors joining two members.
    """
    n = len(members)

    def extend(seq, used):
        last = seq[-1][0]
        first = seq[0][0]
        if len(seq) >= 2 and last != first:
            for q in joiners(members[last], members[first]):
                if q not in used:
                    yield tuple((members[i], c) for i, c in seq[:-1]) + (
                        (members[last], q),)
        if len(seq) == max_len:
            return
        for j in range(first, n):
            if j == last:
                continue
            for q in joiners(members[last], members[j]):
                if q in used:
                    continue
                seq[-1] = (last, q)
                seq.append((j, None))
                used.add(q)
                yield from extend(seq, used)
                used.discard(q)
                seq.pop()
                seq[-1] = (last, None)

    for start in range(n):
        yield from extend([(start, None)], set())


# ---------------------------------------------------------------------------
# arrowing


def bad_colouring_problems(n_items: int, groups, r: int,
                           colouring) -> list[str]:
    """A colouring of all items with r colours and no monochromatic
    group."""
    if colouring is None:
        return ["no colouring returned"]
    if len(colouring) != n_items:
        return [f"colouring has {len(colouring)} entries, "
                f"expected {n_items}"]
    if any(not (0 <= c < r) for c in colouring):
        return ["colouring uses a colour outside range(r)"]
    for g in groups:
        if len({colouring[i] for i in g}) == 1:
            return [f"group {tuple(g)!r} is monochromatic"]
    return []

