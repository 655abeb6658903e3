"""Seeded graph generators for the benchmark's workloads.

Graphs are plain ``(n, edges)`` pairs, built here rather than by the
package's own ``families`` module, so the program receives only generated
inputs and the checkers know how each graph was made.  Every generator
takes a ``random.Random`` and is deterministic for a given one.

Costs of the exact solver depend on the degree sequence: a solve at k cops
enumerates, for every cop multiset, the product of its cops' closed
neighbourhoods.  The wide workload therefore draws graphs with a fixed
degree sequence (degree-preserving edge swaps), so every seed does the same
enumeration work on a different graph.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

Edges = list[tuple[int, int]]


def canon(edges) -> Edges:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def relabel(n: int, edges, rng: random.Random) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return canon((perm[u], perm[v]) for u, v in edges)


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> Edges:
    return canon((i, (i + 1) % n) for i in range(n))


def complete(n: int) -> Edges:
    return list(itertools.combinations(range(n), 2))


def grid(rows: int, cols: int) -> Edges:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def m_ell(ell: int) -> tuple[int, Edges]:
    """M(ell): C4 with pendant paths of ell vertices at three cycle
    vertices, then a leaf on every vertex (order 6*ell + 8)."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for i in range(3):
        first = 4 + i * ell
        edges.append((i, first))
        edges.extend((first + j, first + j + 1) for j in range(ell - 1))
    core = 4 + 3 * ell
    edges.extend((v, core + v) for v in range(core))
    return 2 * core, edges


def circulant(n: int, offsets) -> Edges:
    return canon((i, (i + d) % n) for i in range(n) for d in offsets)


def swap_edges(n: int, edges, rng: random.Random, rounds: int = 10) -> Edges:
    """Degree-preserving double-edge swaps that keep the graph simple and
    connected; the degree sequence of ``edges`` is kept exactly."""
    edges = canon(edges)
    present = set(edges)
    for _ in range(rounds * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        e1, e2 = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) < 4 or e1 in present or e2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {e1, e2}
        edges[i], edges[j] = e1, e2
        if not is_connected(n, edges):
            present -= {e1, e2}
            present |= {(a, b), (min(c, d), max(c, d))}
            edges[i], edges[j] = (a, b), (min(c, d), max(c, d))
    return canon(edges)


def gnp_connected(n: int, p: float, rng: random.Random) -> Edges:
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        if is_connected(n, edges):
            return edges


def random_tree(n: int, rng: random.Random) -> Edges:
    """Random recursive tree, relabelled."""
    return relabel(n, [(rng.randrange(i), i) for i in range(1, n)], rng)


def random_chordal(n: int, rng: random.Random) -> Edges:
    """Connected chordal graph: each new vertex joins a non-empty subset of
    a maximal clique of the graph so far, so the reverse insertion order is
    a perfect elimination ordering."""
    edges: Edges = []
    cliques = [frozenset([0])]
    for v in range(1, n):
        host = sorted(cliques[rng.randrange(len(cliques))])
        base = frozenset(rng.sample(host, rng.randint(1, len(host))))
        edges.extend((u, v) for u in base)
        new = base | {v}
        cliques = [c for c in cliques if not c <= new] + [new]
    return relabel(n, edges, rng)


def outerplanar(n: int, rng: random.Random, drop: int = 0, extra: int = 0) -> Edges:
    """Random triangulation of the n-gon (a maximal outerplanar graph) less
    ``drop`` chords, plus ``extra`` edges between non-adjacent vertices.
    With ``extra`` = 0 the graph is outerplanar and Hamiltonian; a maximal
    outerplanar graph plus any edge is not outerplanar."""
    chords = []
    stack = [list(range(n))]
    while stack:
        poly = stack.pop()
        if len(poly) <= 3:
            continue
        i = rng.randrange(len(poly))
        j = (i + rng.randrange(2, len(poly) - 1)) % len(poly)
        a, b = min(i, j), max(i, j)
        chords.append((poly[a], poly[b]))
        stack.append(poly[a : b + 1])
        stack.append(poly[b:] + poly[: a + 1])
    edges = set(cycle(n)) | set(canon(chords))
    if extra:
        missing = [e for e in itertools.combinations(range(n), 2) if e not in edges]
        edges |= set(rng.sample(missing, extra))
    for e in rng.sample(sorted(canon(chords)), drop):
        edges.discard(e)
    return relabel(n, edges, rng)


def graph6(n: int, edges) -> str:
    """graph6 encoding (order at most 62)."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[i : i + 6])), 2)))
    return "".join(chars)
