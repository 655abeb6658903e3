"""Independent correctness checks for the benchmark's outputs.

Nothing here imports ``copthrottle``: every check works on plain data (an
order, an edge list, raw value arrays, plain dicts) and recomputes what it
needs with its own BFS, its own move enumeration, or networkx.  Each check
returns a list of failure messages; an empty list means the output passed.

Raw table values follow the solver's layout: ``values[i, r]`` is the number
of rounds the cops need from configuration ``configs[i]`` (cops to move)
against a robber on ``r``.  Robber wins are told apart from finite values
by :func:`largest_finite`, not by the solver's sentinel.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

BIG = 1 << 40


def closed_neighbourhoods(n: int, edges) -> list[list[int]]:
    closed = [{v} for v in range(n)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    return [sorted(c) for c in closed]


def distance_matrix(n: int, edges) -> np.ndarray:
    """All-pairs BFS distances; BIG where unreachable."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full((n, n), BIG, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[s, w] == BIG:
                    dist[s, w] = dist[s, u] + 1
                    queue.append(w)
    return dist


def rad_k(dist: np.ndarray, k: int) -> int:
    """min over k-subsets S of max_v d(v, S), by enumeration."""
    n = dist.shape[0]
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    return int(dist[subsets].min(axis=1).max(axis=1).min())


def is_dismantlable(n: int, edges) -> bool:
    """Delete corners (N[u] inside N[w], w != u) until one vertex is left."""
    closed = [set(c) for c in closed_neighbourhoods(n, edges)]
    alive = set(range(n))
    while len(alive) > 1:
        corner = next(
            (
                u
                for u in sorted(alive)
                if any(w != u and closed[u] & alive <= closed[w] for w in closed[u] & alive)
            ),
            None,
        )
        if corner is None:
            return False
        alive.remove(corner)
    return True


# ---------------------------------------------------------------------------
# engine tables


def largest_finite(values: np.ndarray) -> int:
    """Largest finite value of a solved table.

    Finite values are contiguous from 0: a state of value t > 0 has an
    optimal cop move after which the robber's best reply has value t - 1.
    Every value past the first gap is therefore a robber win.
    """
    seen = np.unique(values)
    gaps = np.nonzero(seen != np.arange(len(seen)))[0]
    return int(seen[gaps[0] - 1] if len(gaps) else seen[-1])


def _raw_to_checked(values: np.ndarray) -> np.ndarray:
    out = values.astype(np.int64)
    out[out > largest_finite(values)] = BIG
    return out


def check_table(n, edges, k, configs, values, sample=None, rng=None) -> list[str]:
    """The one-round game recurrence, and capt(G;S) >= max_v d(v,S).

    Value 0 exactly when the robber is on a cop; otherwise 1 + the min over
    team moves of (0 if a cop lands on the robber, else the max over the
    robber's replies); robber wins stay robber wins.  A table satisfying
    this at every state is the exact one.  With ``sample`` set, the
    recurrence is checked at that many configurations drawn by ``rng``
    (every robber position of each); the other checks cover every state.
    """
    fails = []
    expected = list(itertools.combinations_with_replacement(range(n), k))
    if [tuple(c) for c in configs] != expected:
        return [f"k={k}: configurations are not every size-{k} multiset in order"]
    vals = _raw_to_checked(np.asarray(values))
    if vals.shape != (len(expected), n):
        return [f"k={k}: table shape {vals.shape} != {(len(expected), n)}"]
    cfg = np.array(expected, dtype=np.int64)
    weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    lookup = np.full(n**k, -1, dtype=np.int64)
    lookup[cfg @ weights] = np.arange(len(cfg))
    closed = closed_neighbourhoods(n, edges)
    width = max(len(c) for c in closed)
    nbr = np.array([c + [c[0]] * (width - len(c)) for c in closed], dtype=np.int64)

    rows = range(len(cfg))
    if sample is not None and sample < len(cfg):
        rows = sorted(rng.sample(range(len(cfg)), sample))
    for i in rows:
        moves = np.array(list(itertools.product(*(closed[v] for v in cfg[i]))), dtype=np.int64)
        succ = np.unique(lookup[np.sort(moves, axis=1) @ weights])
        after = vals[succ][:, nbr].max(axis=2)  # robber's best reply per team move
        caught = np.zeros_like(after, dtype=bool)
        np.put_along_axis(caught, cfg[succ], True, axis=1)
        after[caught] = 0
        best = after.min(axis=0)
        want = np.where(best >= BIG, BIG, best + 1)
        want[cfg[i]] = 0
        bad = np.nonzero(want != vals[i])[0]
        if len(bad):
            r = int(bad[0])
            fails.append(
                f"k={k}: state {tuple(map(int, cfg[i]))}, robber {r}: value {vals[i, r]}, recurrence gives {want[r]}"
            )
            if len(fails) >= 5:
                return fails

    dist = distance_matrix(n, edges)
    lower = dist[cfg].min(axis=1).max(axis=1)
    capt = vals.max(axis=1)
    low = np.nonzero(capt < lower)[0]
    if len(low):
        i = int(low[0])
        fails.append(f"k={k}: capt(G;{tuple(map(int, cfg[i]))}) = {capt[i]} < max distance {lower[i]}")
    return fails


def check_optimum_is_rad_k(n, edges, k, values) -> list[str]:
    """capt_k = rad_k, which holds on paths, with rad_k by brute-force BFS."""
    capt = int(_raw_to_checked(np.asarray(values)).max(axis=1).min())
    want = rad_k(distance_matrix(n, edges), k)
    return [] if capt == want else [f"capt_{k} = {capt}, rad_{k} = {want}"]


# ---------------------------------------------------------------------------
# throttling


def check_throttling(n, edges, answer) -> list[str]:
    """Bounds and theorems for one graph's throttling answer.

    ``answer`` holds th_sum, th_prod, cop_number, rows as (k, capt, witness)
    with capt None for a robber win, and points as (k, p).
    """
    import networkx as nx

    fails = []
    q, prod = answer["th_sum"], answer["th_prod"]
    if not q <= prod <= (q + 1) ** 2 // 4:
        fails.append(f"th_c = {q}, th_c_x = {prod}: outside [th_c, floor((th_c+1)^2/4)]")
    points = answer["points"]
    if not points or min(k + p for k, p in points) != q:
        fails.append(f"th_c = {q} is not the minimum of k + p over the points {points}")
    dist = distance_matrix(n, edges)
    for k, capt, witness in answer["rows"]:
        if capt is not None and witness is not None:
            reach = int(dist[list(witness)].min(axis=0).max())
            if capt < reach:
                fails.append(f"capt_{k} = {capt} < max distance {reach} from witness {witness}")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    if not nx.is_connected(g):
        return fails
    copwin = is_dismantlable(n, edges)
    one = next((capt for k, capt, _ in answer["rows"] if k == 1), "missing")
    if one == "missing" or (one is not None) != copwin or (answer["cop_number"] == 1) != copwin:
        fails.append(f"dismantlable = {copwin} but capt_1 = {one}, c(G) = {answer['cop_number']}")
    if nx.is_chordal(g):
        rad = int(dist.max(axis=1).min())
        if prod != 1 + rad:
            fails.append(f"chordal: th_c_x = {prod} != 1 + rad = {1 + rad}")
    if nx.is_tree(g):
        best, k = n, 1
        while k < best:
            best = min(best, k + rad_k(dist, k))
            k += 1
        if q != best:
            fails.append(f"tree: th_c = {q} != min_k (k + rad_k) = {best}")
    return fails


# ---------------------------------------------------------------------------
# verification


def is_outerplanar_nx(n: int, edges) -> bool:
    """G is outerplanar iff G plus a vertex joined to every vertex is planar."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n + 1))
    g.add_edges_from(edges)
    g.add_edges_from((n, v) for v in range(n))
    return nx.check_planarity(g)[0]


def check_outerplanar(n, edges, verdict) -> list[str]:
    want = is_outerplanar_nx(n, edges)
    return [] if verdict == want else [f"n={n} edges={list(edges)}: verdict {verdict}, networkx {want}"]


def check_suites(exit_code: int, stdout: str) -> list[str]:
    """`copthrottle verify --format json`: exit 0, and 0 failed checks in
    every suite that ran at least one check."""
    import json

    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"output is not JSON: {stdout[:200]!r}"]
    fails = []
    for suite in payload:
        if suite["failed"] != 0 or suite["passed"] < 1:
            fails.append(f"suite {suite['suite']}: {suite['passed']} passed, {suite['failed']} failed")
    return fails if payload else ["no suite ran"]

