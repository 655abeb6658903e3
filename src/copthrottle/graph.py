"""Immutable graph core: adjacency sets, BFS distance machinery, and the
structural vertex predicates (corners, boundary vertices, distance
domination, k-radius, feedback sets, outerplanarity) that everything else
builds on.

Vertices are dense 0-indexed integers.  Distance to an unreachable vertex
is ``None``, never a sentinel integer.  Exhaustive searches take an
explicit work budget and raise :class:`BudgetExceeded` rather than
silently degrade.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

DEFAULT_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    """An exhaustive search would exceed its work budget."""

    def __init__(self, operation: str, required: int, budget: int):
        super().__init__(
            f"{operation}: requires ~{required} elementary steps, budget is {budget}"
        )
        self.operation = operation
        self.required = required
        self.budget = budget


class CornerWitness(NamedTuple):
    """A vertex ``corner`` whose closed neighborhood lies inside ``dominator``'s."""

    corner: int
    dominator: int


class Graph:
    """Simple undirected graph on vertices ``0..n-1``, immutable after construction.

    Parameters
    ----------
    n : int
        Number of vertices (may be 0).
    edges : iterable of (u, v)
        Undirected edges; loops are rejected, duplicates collapse.
    name : str, optional
        Label carried through serialization.
    """

    __slots__ = ("n", "name", "adj", "nbr", "closed", "_edges", "_dist")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = (), name: str | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.name = name
        sets: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            sets[u].add(v)
            sets[v].add(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in sets)
        self.nbr: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in sets)
        self.closed: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s | {v})) for v, s in enumerate(sets)
        )
        self._edges: tuple[tuple[int, int], ...] = tuple(
            (u, v) for u in range(n) for v in self.adj[u] if u < v
        )
        self._dist: Optional[np.ndarray] = None  # distance_matrix, once built

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return self._edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.nbr[u]

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self.n} m={self.m}>"

    def with_name(self, name: str) -> "Graph":
        return Graph(self.n, self._edges, name=name)

    def induced(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``keep``.

        Returns the new graph plus the relabeling map ``old_ids`` with
        ``old_ids[new] = old``; new ids follow the sorted order of ``keep``.
        """
        old_ids = tuple(sorted(set(keep)))
        pos = {old: new for new, old in enumerate(old_ids)}
        for v in old_ids:
            self.check_vertex(v)
        edges = [
            (pos[u], pos[v]) for u, v in self._edges if u in pos and v in pos
        ]
        return Graph(len(old_ids), edges, name=self.name), old_ids

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by least vertex."""
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = []
            queue = deque([s])
            seen[s] = True
            while queue:
                u = queue.popleft()
                comp.append(u)
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_forest(self) -> bool:
        return self.m == self.n - len(self.components())


# ---------------------------------------------------------------------------
# distances


def distances_from_set(g: Graph, sources: Iterable[int]) -> list[Optional[int]]:
    """Multi-source BFS distances d(v, S); ``None`` where v is unreachable.

    Raises ``ValueError`` on an empty source set or out-of-range ids.
    """
    src = sorted(set(sources))
    if not src:
        raise ValueError("source set must be non-empty")
    for v in src:
        g.check_vertex(v)
    dist: list[Optional[int]] = [None] * g.n
    queue = deque()
    for v in src:
        dist[v] = 0
        queue.append(v)
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adj[u]:
            if dist[w] is None:
                dist[w] = du + 1
                queue.append(w)
    return dist


def distances_from(g: Graph, source: int) -> list[Optional[int]]:
    return distances_from_set(g, (source,))


def max_distance(g: Graph, sources: Iterable[int]) -> Optional[int]:
    """max_v d(v, S); ``None`` if some vertex is unreachable from S."""
    dist = distances_from_set(g, sources)
    return None if None in dist else max(dist)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs BFS distances as a read-only n x n int32 array, n where
    unreachable; built once per graph and kept beside it."""
    if g._dist is None:
        rows = [[g.n if d is None else d for d in distances_from(g, v)] for v in range(g.n)]
        g._dist = np.array(rows, dtype=np.int32).reshape(g.n, g.n)
        g._dist.flags.writeable = False
    return g._dist


def radius_and_center(g: Graph) -> tuple[int, int]:
    """(rad(G), least central vertex) for a connected graph."""
    if not g.is_connected() or g.n == 0:
        raise ValueError("radius requires a non-empty connected graph")
    ecc = distance_matrix(g).max(axis=1)
    center = int(ecc.argmin())
    return int(ecc[center]), center


def bfs_tree(g: Graph, root: int) -> tuple[list[int], list[Optional[int]], list[int]]:
    """BFS tree from ``root``: (parent, depth, visit order); parent[root] = -1.

    Unreached vertices get depth ``None`` and parent -1.
    """
    g.check_vertex(root)
    parent = [-1] * g.n
    depth: list[Optional[int]] = [None] * g.n
    order = []
    depth[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in g.adj[u]:
            if depth[w] is None:
                depth[w] = depth[u] + 1
                parent[w] = u
                queue.append(w)
    return parent, depth, order


# ---------------------------------------------------------------------------
# k-radius and distance domination


def k_radius_exact(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[Optional[int], tuple[int, ...]]:
    """rad_k(G) = min over |S|=k of max_v d(v,S), by exhaustive enumeration.

    Returns (value, witness set); value is ``None`` (unreachable) when no
    k-set reaches every vertex, which happens iff G is disconnected with
    more than k components.  Witness is the lexicographically least
    optimal set.

    Cost: n BFS, then about n element operations per subset, as each
    (k-1)-prefix in lexicographic order scores all its completions at once
    against the running minimum of its rows.  The budget unit is unchanged,
    comb(n, k) * (n + m + k) checked before any work; for k < n on a
    connected graph it is an upper bound on the work.
    """
    if not (1 <= k <= g.n):
        raise ValueError(f"k={k} must be in 1..n={g.n}")
    required = comb(g.n, k) * (g.n + g.m + k)
    if required > budget:
        raise BudgetExceeded("k_radius_exact", required, budget)
    dist = distance_matrix(g)
    best, witness = g.n, ()
    # reach[i]: running minimum of the prefix's first i rows, shared prefixes reused
    reach = [np.full(g.n, g.n, dtype=np.int32)]
    prev: tuple[int, ...] = ()
    for prefix in itertools.combinations(range(g.n - 1), k - 1):
        same = next((i for i, (a, b) in enumerate(zip(prev, prefix)) if a != b), len(prev))
        del reach[same + 1 :]
        for v in prefix[same:]:
            reach.append(np.minimum(reach[-1], dist[v]))
        prev = prefix
        start = prefix[-1] + 1 if prefix else 0
        scores = np.minimum(reach[-1], dist[start:]).max(axis=1)
        i = int(scores.argmin())
        # strictly smaller only: the first optimum seen is lexicographically least
        if scores[i] < best:
            best, witness = int(scores[i]), prefix + (start + i,)
            if best == 0:
                break
    if best == g.n:
        return None, ()
    return best, witness


def k_distance_dominating(g: Graph, k: int) -> tuple[int, ...]:
    """A set S with d(v, S) <= k for every vertex v, found greedily.

    Walks a BFS spanning tree, repeatedly taking the k-th ancestor of a
    deepest remaining vertex and discarding its subtree; for connected G
    with n >= k+1 this yields at most floor(n/(k+1)) vertices.  A minimum
    set is :func:`domination_number`'s witness.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n == 0:
        return ()
    if not g.is_connected():
        raise ValueError("k_distance_dominating requires a connected graph")
    parent, depth, order = bfs_tree(g, 0)
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    remaining = set(range(g.n))
    chosen: list[int] = []
    while remaining:
        v = max(remaining, key=lambda x: (depth[x], -x))
        if depth[v] <= k:
            # everything left is within k of the root
            chosen.append(0)
            break
        u = v
        for _ in range(k):
            u = parent[u]
        chosen.append(u)
        # the subtree under u has height <= k (v was deepest), so u covers it
        stack = [u]
        while stack:
            w = stack.pop()
            if w in remaining:
                remaining.discard(w)
                stack.extend(children[w])
        if len(remaining) <= k:
            # a connected remainder of <= k vertices hangs off parent(u),
            # hence lies within distance k of u already
            break
    result = tuple(sorted(set(chosen)))
    assert max_distance(g, result) <= k
    return result


def domination_number(
    g: Graph, k: int = 1, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exact k-distance domination number gamma_k(G) with a witness.

    Tries sizes s = 1, 2, ... in turn.  For each, a depth-first search picks
    v1 < v2 < ... < vs in lexicographic order, vertex v dominating its
    k-ball.  A prefix is cut when (a) some undominated vertex has no
    dominator at or after the next candidate, or (b) more undominated
    vertices have pairwise-disjoint sets of such dominators than there are
    picks left.  Both cuts drop only subtrees that hold no dominating set,
    so the witness is the lexicographically least minimum set, at every
    order.

    Budget unit: n steps per search node, charged as nodes are visited;
    :class:`BudgetExceeded` is raised as soon as the total passes ``budget``.
    """
    n = g.n
    if n == 0:
        return 0, ()
    if k > 1:
        # finite distances are below n, which marks unreachable pairs
        near = distance_matrix(g) <= min(k, n - 1)
        balls = [sum(1 << int(u) for u in np.flatnonzero(row)) for row in near]
    else:
        balls = [sum(1 << u for u in g.closed[v]) for v in range(n)]
    full = (1 << n) - 1
    # vertices with few dominators first, so the greedy packing of (b) is large
    order = sorted(range(n), key=lambda u: (balls[u].bit_count(), u))
    spent = 0
    picks: list[int] = []

    def search(covered: int, start: int, left: int) -> bool:
        nonlocal spent
        spent += n
        if spent > budget:
            raise BudgetExceeded("domination_number", spent, budget)
        if covered == full:
            return True
        avail = full >> start << start
        packed = disjoint = 0
        # the next pick must lie at or below every undominated vertex's last dominator
        last = n - 1
        for u in order:
            if covered >> u & 1:
                continue
            mine = balls[u] & avail
            if not mine:
                return False
            last = min(last, mine.bit_length() - 1)
            if not mine & packed:
                packed |= mine
                disjoint += 1
                if disjoint > left:
                    return False
        for v in range(start, last + 1):
            picks.append(v)
            if search(covered | balls[v], v + 1, left - 1):
                return True
            picks.pop()
        return False

    size = 1
    while not search(0, 0, size):
        size += 1
    return size, tuple(picks)


# ---------------------------------------------------------------------------
# corners, boundary vertices, geodesics


def corners(g: Graph) -> list[CornerWitness]:
    """All ordered pairs (v, u) with v != u and N[v] subseteq N[u].

    Ordered by corner id, then dominator id.
    """
    return [CornerWitness(v, u) for v in range(g.n) for u in corners_of(g, v)]


def corners_of(g: Graph, v: int) -> list[int]:
    """Dominators of v: every u != v with N[v] subseteq N[u]."""
    cv = g.nbr[v] | {v}
    return [u for u in range(g.n) if u != v and cv <= (g.nbr[u] | {u})]


def boundary_vertices(g: Graph, v: int) -> tuple[int, ...]:
    """Vertices u with d(u,v) >= d(w,v) for every neighbor w of u.

    Computed within v's component; vertices unreachable from v are skipped.
    """
    g.check_vertex(v)
    dist = distances_from(g, v)
    return tuple(
        u for u, du in enumerate(dist)
        if du is not None and all(dist[w] is not None and dist[w] <= du for w in g.adj[u])
    )


def geodesic_between(g: Graph, u: int, v: int) -> list[int]:
    """A shortest u-v path, extending through the lowest-id eligible neighbor."""
    g.check_vertex(u)
    g.check_vertex(v)
    dist = distances_from(g, v)
    if dist[u] is None:
        raise ValueError(f"vertices {u} and {v} are in different components")
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in g.adj[cur] if dist[w] == dist[cur] - 1)
        path.append(cur)
    return path


def is_geodesic(g: Graph, path: Sequence[int]) -> bool:
    """True iff ``path`` is a shortest path between its endpoints."""
    if not path or len(set(path)) != len(path) or not all(map(g.has_edge, path, path[1:])):
        return False
    return distances_from(g, path[0])[path[-1]] == len(path) - 1


# ---------------------------------------------------------------------------
# feedback vertex number


def feedback_vertex_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Minimum number of vertices whose removal leaves a forest, with witness.

    Exhaustive search by increasing set size; witness is lexicographically
    least at the optimal size.  Budget unit: comb(n, s)·(n + m) steps
    (one forest check per s-subset) are charged before size s is scanned,
    so an over-budget size raises without scanning it.
    """
    if g.is_forest():
        return 0, ()
    spent = 0
    for size in range(1, g.n + 1):
        spent += comb(g.n, size) * (g.n + g.m)
        if spent > budget:
            raise BudgetExceeded("feedback_vertex_number", spent, budget)
        for S in itertools.combinations(range(g.n), size):
            if _is_forest_without(g, set(S)):
                return size, S
    raise AssertionError("unreachable: removing all vertices leaves a forest")


def _is_forest_without(g: Graph, removed: set[int]) -> bool:
    n_left = g.n - len(removed)
    seen = set()
    edges = 0
    comps = 0
    for s in range(g.n):
        if s in removed or s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w in removed:
                    continue
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                if u < w:
                    edges += 1
    return edges == n_left - comps


# ---------------------------------------------------------------------------
# outerplanarity by degree-2 reduction


def _block_edges(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks, from one iterative lowpoint DFS."""
    disc = [-1] * g.n
    low = [0] * g.n
    clock = itertools.count()
    blocks: list[list[tuple[int, int]]] = []
    edges: list[tuple[int, int]] = []
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = next(clock)
        # frame: vertex, DFS parent, neighbour iterator, index of its tree edge
        stack = [(root, -1, iter(g.adj[root]), 0)]
        while stack:
            u, parent, it, tree_edge = stack[-1]
            for w in it:
                if disc[w] < 0:
                    disc[w] = low[w] = next(clock)
                    stack.append((w, u, iter(g.adj[w]), len(edges)))
                    edges.append((u, w))
                    break
                if w != parent and disc[w] < disc[u]:
                    edges.append((u, w))
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[u])
                    if low[u] >= disc[parent]:
                        # parent cuts u's subtree off: its edges form a block
                        blocks.append(edges[tree_edge:])
                        del edges[tree_edge:]
    return blocks


def _block_is_outerplanar(edges: list[tuple[int, int]]) -> bool:
    nbr: dict[int, set[int]] = {}
    for u, v in edges:
        nbr.setdefault(u, set()).add(v)
        nbr.setdefault(v, set()).add(u)
    if len(edges) > 2 * len(nbr) - 3:
        return False
    # paths[{a, b}]: paths through removed vertices collapsed onto edge ab
    paths = {frozenset(e): 0 for e in edges}
    # the block stays biconnected, so a vertex keeps degree 2 once it has it
    todo = [v for v, s in nbr.items() if len(s) == 2]
    while len(nbr) > 2:
        if not todo:
            return False
        v = todo.pop()
        a, b = nbr.pop(v)
        # two collapsed paths plus the way round through the other
        # neighbour give three v-a paths with inner vertices: a K_{2,3}
        if paths[frozenset((a, v))] == 2 or paths[frozenset((b, v))] == 2:
            return False
        nbr[a].discard(v)
        nbr[b].discard(v)
        ab = frozenset((a, b))
        paths[ab] = paths.get(ab, 0) + 1
        if paths[ab] == 3:
            return False
        if b in nbr[a]:
            todo.extend(x for x in (a, b) if len(nbr[x]) == 2)
        else:
            nbr[a].add(b)
            nbr[b].add(a)
    return True


def is_outerplanar(g: Graph) -> bool:
    """True iff G has an embedding with every vertex on the outer face.

    G is outerplanar iff each biconnected block is.  A block on n >= 3
    vertices is outerplanar iff it has at most 2n - 3 edges and reduces
    to a single edge by repeatedly removing a vertex of degree 2 and
    joining its neighbours a, b (Wiegers, "Recognizing outerplanar graphs
    in linear time", 1986).  Each edge counts the paths collapsed onto it;
    a third path between a and b is a K_{2,3}, and so is removing a vertex
    whose edge already carries two.

    Runs in O(n + m) time: one lowpoint DFS splits the blocks and each
    removal is constant work.
    """
    return all(_block_is_outerplanar(edges) for edges in _block_edges(g))
