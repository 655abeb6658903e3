"""Deterministic and seeded graph generators.

Vertex numbering conventions are frozen so witnesses in golden files stay
stable: paths and cycles are sequential, a spider's body is vertex 0 with
legs numbered consecutively, grids are row-major, stars put the center at
0, and both leaf- and star-attachment keep the original ids.
"""

from __future__ import annotations

import heapq
import random
from math import ceil
from typing import Iterable, Sequence

from .graph import Graph


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], name=f"K{n}")


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("empty graph needs n >= 0")
    return Graph(n, [], name=f"{n}K1")


def star(leaves: int) -> Graph:
    """K_{1,s} with the center at vertex 0."""
    if leaves < 0:
        raise ValueError("star needs a non-negative leaf count")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)], name=f"K1,{leaves}")


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite parts must be positive")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, name=f"K{a},{b}")


def spider(legs: int, leg_len: int) -> Graph:
    """Tree with body vertex 0 and ``legs`` paths of ``leg_len`` vertices each."""
    if legs < 1 or leg_len < 1:
        raise ValueError("spider needs positive legs and leg length")
    edges = []
    for i in range(legs):
        first = 1 + i * leg_len
        edges.append((0, first))
        for j in range(leg_len - 1):
            edges.append((first + j, first + j + 1))
    return Graph(1 + legs * leg_len, edges, name=f"spider({legs},{leg_len})")


def grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges, name=f"grid({rows},{cols})")


def petersen() -> Graph:
    """Outer cycle 0-4, inner pentagram 5-9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges, name="petersen")


def heawood() -> Graph:
    """C_14 plus the chords {i, i+5} for even i."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph(14, edges, name="heawood")


def disjoint_union(a: Graph, b: Graph, name: str | None = None) -> Graph:
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, edges, name=name)


def attach_leaves(g: Graph) -> Graph:
    """Append one new leaf per vertex; vertex v's leaf gets id n + v."""
    edges = list(g.edges()) + [(v, g.n + v) for v in range(g.n)]
    name = f"{g.name}+leaves" if g.name else None
    return Graph(2 * g.n, edges, name=name)


def attach_star(g: Graph, s: int, anchors: Iterable[Sequence[int]]) -> Graph:
    """A member of S(g): g plus a disjoint K_{1,s} plus star-to-g anchor edges.

    The star center is vertex n, its leaves n+1 .. n+s.  Each anchor is a
    pair (star_index, g_vertex) with star_index 0 for the center and
    1..s for leaves.  At least one anchor is required (connectivity), and
    no edge inside the copy of g may be added, so g stays induced.
    """
    if s < 1:
        raise ValueError("star size must be positive")
    anchor_list = [(int(a), int(b)) for a, b in anchors]
    if not anchor_list:
        raise ValueError("need at least one anchor edge")
    center = g.n
    edges = list(g.edges()) + [(center, center + i) for i in range(1, s + 1)]
    for star_idx, gv in anchor_list:
        if not (0 <= star_idx <= s):
            raise ValueError(f"star index {star_idx} out of range 0..{s}")
        if not (0 <= gv < g.n):
            raise ValueError(f"anchor endpoint {gv} is not a vertex of g")
        edges.append((gv, center + star_idx))
    return Graph(g.n + s + 1, edges, name=f"{g.name or 'G'}*K1,{s}")


def m_prime(ell: int) -> Graph:
    """C_4 with three pendant paths P_ell, attached to cycle vertices 0, 1, 2.

    Path i occupies ids 4 + i*ell .. 4 + (i+1)*ell - 1 in order; its first
    vertex is joined to cycle vertex i, so the far end of path i is
    4 + (i+1)*ell - 1.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for i in range(3):
        first = 4 + i * ell
        edges.append((i, first))
        for j in range(ell - 1):
            edges.append((first + j, first + j + 1))
    return Graph(4 + 3 * ell, edges, name=f"M'({ell})")


def m_ell(ell: int) -> Graph:
    """M(ell): a leaf appended to every vertex of M'(ell); order 6*ell + 8."""
    g = attach_leaves(m_prime(ell))
    return g.with_name(f"M({ell})")


def m_ell_cop_placement(ell: int) -> tuple[int, ...]:
    """The three-cop placement used to beat both c(G)- and gamma(G)-sized sets.

    One cop per pendant path, at distance ceil((ell+3)/2) from the leaf
    hanging off the path's far end.
    """
    d = ceil((ell + 3) / 2)
    t = ell + 1 - d  # 1-based position along the path, counted from the cycle
    if not (1 <= t <= ell):
        raise ValueError(f"placement undefined for ell={ell}")
    return tuple(4 + i * ell + (t - 1) for i in range(3))


def h_family(legs: int, path_len: int, core: Graph) -> Graph:
    """Spider with a fresh copy of ``core`` hung from each leg end.

    The spider has ``legs`` legs of ``path_len`` vertices; copy i of the
    core occupies ids 1 + legs*path_len + i*|core| onward, and its vertex
    0 is joined by one edge to the end of leg i.
    """
    if legs < 3:
        raise ValueError("need at least 3 legs")
    if path_len < 1:
        raise ValueError("path_len must be positive")
    if core.n < 1 or not core.is_connected():
        raise ValueError("core must be non-empty and connected")
    base = spider(legs, path_len)
    edges = list(base.edges())
    offset = base.n
    for i in range(legs):
        leg_end = 1 + (i + 1) * path_len - 1
        copy_base = offset + i * core.n
        edges.extend((copy_base + u, copy_base + v) for u, v in core.edges())
        edges.append((leg_end, copy_base))
    n = base.n + legs * core.n
    return Graph(n, edges, name=f"H(legs={legs},p={path_len},core={core.name})")


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a Pruefer sequence; deterministic per seed."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Graph(1, [], name=f"tree(n=1,seed={seed})")
    if n == 2:
        return Graph(2, [(0, 1)], name=f"tree(n=2,seed={seed})")
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges, name=f"tree(n={n},seed={seed})")


def random_chordal(n: int, seed: int) -> Graph:
    """Connected chordal graph grown clique by clique; deterministic per seed.

    Vertex i attaches to a random non-empty clique chosen inside a random
    maximal clique of the graph built so far, which guarantees a perfect
    elimination ordering by construction.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    cliques: list[frozenset[int]] = [frozenset([0])]
    for i in range(1, n):
        host = cliques[rng.randrange(len(cliques))]
        size = rng.randint(1, len(host))
        base = frozenset(rng.sample(sorted(host), size))
        edges.extend((v, i) for v in sorted(base))
        new_clique = base | {i}
        cliques = [c for c in cliques if not c <= new_clique]
        cliques.append(new_clique)
    return Graph(n, edges, name=f"chordal(n={n},seed={seed})")


def random_connected(n: int, seed: int, p: float = 0.35) -> Graph:
    """Seeded G(n, p) conditioned on connectivity (p ramps up on retries)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    prob = p
    for _ in range(200):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
        g = Graph(n, edges, name=f"gnp(n={n},seed={seed})")
        if g.is_connected():
            return g
        prob = min(1.0, prob * 1.3 + 0.05)
    raise AssertionError("unreachable: p reaches 1, which is connected for n >= 1")


def random_unicyclic(n: int, seed: int) -> Graph:
    """Connected graph with exactly one cycle: a random tree plus one chord."""
    if n < 3:
        raise ValueError("unicyclic needs n >= 3")
    rng = random.Random(seed)
    tree = random_tree(n, seed)
    present = set(tree.edges())
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    extra = candidates[rng.randrange(len(candidates))]
    return Graph(n, list(tree.edges()) + [extra], name=f"unicyclic(n={n},seed={seed})")


_FAMILY_PARAMS = {
    "path": ("n",),
    "cycle": ("n",),
    "complete": ("n",),
    "empty": ("n",),
    "star": ("s",),
    "complete_bipartite": ("a", "b"),
    "spider": ("legs", "len"),
    "grid": ("rows", "cols"),
    "petersen": (),
    "heawood": (),
    "m_ell": ("l",),
    "random_tree": ("n", "seed"),
    "random_chordal": ("n", "seed"),
    "random_connected": ("n", "seed"),
    "random_unicyclic": ("n", "seed"),
}


def generate_named(family: str, params: dict | None = None) -> Graph:
    """Build a named family member from a parameter map of ints.

    Families: path, cycle, complete, empty, star, complete_bipartite,
    spider, grid, petersen, heawood, m_ell, random_tree, random_chordal,
    random_connected, random_unicyclic.  h_family, attach_leaves and
    attach_star are composition operators and take graphs directly.
    """
    params = dict(params or {})
    key = family.lower()
    if key not in _FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    expected = _FAMILY_PARAMS[key]
    missing = [p for p in expected if p not in params]
    unknown = [p for p in params if p not in expected]
    if missing or unknown:
        raise ValueError(
            f"family {family!r} takes parameters {expected}, got {sorted(params)}"
        )
    # every family is built by the function of the same name in this module
    return globals()[key](*(int(params[p]) for p in expected))
