"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and shares no code path with the
library: a depth-capped minimax game solver, brute-force team moves, a
full-table value iteration over them, a dense value iteration over
ordered cop tuples for tables too large for it, value iteration under one
fixed cop strategy, brute-force radius (with its least witness) and
domination, retraction by corner peeling over all vertices, and
bisection for the Lambert W function.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque

import mpmath as mp
import numpy as np

BIG = 10**9


def minimax_capture(g, placement, max_rounds):
    """Rounds to capture from a placement with both sides optimal.

    Plain depth-capped minimax over raw move tuples; values above
    ``max_rounds`` are reported as BIG (treat as a robber win).
    """
    closed = [tuple(sorted(set(g.adj[v]) | {v})) for v in range(g.n)]

    @functools.lru_cache(maxsize=None)
    def value(cops, robber, depth):
        if robber in cops:
            return 0
        if depth == 0:
            return BIG
        best = BIG
        for moves in itertools.product(*(closed[c] for c in cops)):
            c2 = tuple(sorted(moves))
            if robber in c2:
                best = min(best, 1)
                continue
            worst = 0
            for r2 in closed[robber]:
                worst = max(worst, value(c2, r2, depth - 1) if r2 not in c2 else 0)
                if worst >= best:
                    break
            best = min(best, 1 + min(worst, BIG))
        return min(best, BIG)

    start = tuple(sorted(placement))
    return max(value(start, r, max_rounds) for r in range(g.n))


def team_moves(g, config):
    """Distinct sorted cop tuples one team move can reach from ``config``."""
    closed = [tuple(sorted(set(g.adj[v]) | {v})) for v in range(g.n)]
    return {tuple(sorted(p)) for p in itertools.product(*(closed[v] for v in config))}


def reference_table(g, k):
    """Capture time of every (cop multiset, robber) state, cops to move.

    Plain layered value iteration over whole-team moves, each the sorted
    product of the cops' closed neighbourhoods.  Returns a dict from the
    sorted cop tuple to a list of per-robber values, BIG for robber wins.
    """
    closed = [tuple(sorted(set(g.adj[v]) | {v})) for v in range(g.n)]
    configs = list(itertools.combinations_with_replacement(range(g.n), k))
    moves = {c: team_moves(g, c) for c in configs}
    value = {c: [0 if r in c else BIG for r in range(g.n)] for c in configs}
    t = 0
    while True:
        t += 1
        # values set in this round are not visible until the next one
        fresh = [
            (c, r)
            for c in configs
            for r in range(g.n)
            if value[c][r] == BIG
            and any(
                r in c2 or all(value[c2][r2] < t for r2 in closed[r]) for c2 in moves[c]
            )
        ]
        if not fresh:
            return value
        for c, r in fresh:
            value[c][r] = t


def ordered_tuple_table(g, k):
    """``reference_table`` as a (multisets, n) array, BIG for robber wins,
    by dense value iteration over ordered cop tuples.

    A bool array of shape (n,)*(k+1), robber last, holds the states won
    within t rounds.  A round ANDs the robber axis over N[r], adds capture,
    then ORs each cop axis over N[c] in turn, since the best team move over
    a product of neighbourhoods splits cop by cop.  Every multiset is
    stored k! times over; this is the slow path for tables too large for
    ``reference_table``.
    """
    n = g.n
    closed = [sorted(set(g.adj[v]) | {v}) for v in range(n)]
    # slot s sends each vertex to its s-th closed neighbour, or to itself
    width = max(map(len, closed))
    slots = [[c[s] if s < len(c) else v for v, c in enumerate(closed)] for s in range(width)]
    shape = (n,) * (k + 1)
    axes = np.indices(shape, sparse=True)
    capture = np.zeros(shape, dtype=bool)
    for a in range(k):
        capture |= axes[a] == axes[k]

    def fold(won, axis, op):
        # op over N[v] along ``axis``, one neighbour slot at a time
        out = np.take(won, slots[0], axis=axis)
        for s in slots[1:]:
            op(out, np.take(won, s, axis=axis), out=out)
        return out

    configs = np.array(list(itertools.combinations_with_replacement(range(n), k))).reshape(-1, k)
    rows = np.ravel_multi_index(configs.T, (n,) * k)
    won, values, t = capture, np.where(capture.reshape(-1, n)[rows], 0, BIG), 0
    while True:
        t += 1
        step = fold(won, k, np.logical_and) | capture
        for a in range(k):
            step = fold(step, a, np.logical_or)
        fresh = step.reshape(-1, n)[rows] & (values == BIG)
        if not fresh.any():
            return values
        values[fresh] = t
        won = step


def fixed_strategy_worst_case(g, placement, strategy, caught):
    """Worst case over robber plays against one deterministic cop strategy.

    A round is the cops' ``strategy.move`` followed by one robber step in
    the closed neighbourhood; the game ends once ``caught(cops, robber)``
    holds, checked before and after the cops move.  Every (cops, robber,
    strategy state) triple reachable from the placement is collected
    first, then plain value iteration runs to a fixpoint from "unknown"
    everywhere.  States that never resolve are robber wins: math.inf.
    """
    closed = [tuple(sorted(set(g.adj[v]) | {v})) for v in range(g.n)]
    s0 = strategy.initial_state()
    roots = [(tuple(placement), r, s0) for r in range(g.n)]
    step = {}  # non-terminal state -> (cops' move caught the robber, successors)
    seen, frontier = set(roots), list(roots)
    while frontier:
        cops, robber, ss = state = frontier.pop()
        if caught(cops, robber):
            continue
        cops2, ss2 = strategy.move(ss, cops, robber)
        cops2 = tuple(cops2)
        if caught(cops2, robber):
            step[state] = (True, ())
            continue
        succ = tuple((cops2, r2, ss2) for r2 in closed[robber])
        step[state] = (False, succ)
        for nxt in succ:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    value = {st: (math.inf if st in step else 0) for st in seen}
    while True:
        new = {
            st: 1 if hit else 1 + max(value[x] for x in succ)
            for st, (hit, succ) in step.items()
        }
        if all(new[st] == value[st] for st in step):
            return max((value[st] for st in roots), default=0)
        value.update(new)


class PathChase:
    """Cops on a geodesic p each step one path vertex toward the shadow.

    The shadow of u is p[min(d(p[0], u), len(p) - 1)], from BFS.
    """

    def __init__(self, g, p):
        dist = bfs_from_set(g, [p[0]])
        self.path = tuple(p)
        self.pos = {v: i for i, v in enumerate(p)}
        self.phi = {u: p[min(dist[u], len(p) - 1)] for u in range(g.n)}

    def initial_state(self):
        return ()

    def move(self, sstate, cops, robber):
        target = self.pos[self.phi[robber]]
        out = []
        for c in cops:
            i = self.pos[c]
            out.append(self.path[i + 1 if target > i else i - 1 if target < i else i])
        return tuple(out), sstate

    def caught(self, cops, robber):
        return self.phi[robber] in cops

    def posts(self, r):
        """Guard posts p[r], p[3r+1], ... every 2r+1 vertices, the last clamped."""
        last = len(self.path) - 1
        count = -(-len(self.path) // (2 * r + 1))
        return tuple(self.path[min(last, r + (2 * r + 1) * j)] for j in range(count))


def peel_retraction(g, keep):
    """Retraction of g onto ``keep`` by corner peeling, scanning every vertex.

    Deletes the lowest-id corner outside ``keep`` onto its lowest-id
    dominator among all vertices still alive, until only ``keep`` is left,
    then follows each vertex's dominators into ``keep``.  Raises
    ``ValueError`` when no vertex outside ``keep`` is a corner.
    """
    keep = set(keep)
    alive = set(range(g.n))
    dominator = {}
    while alive != keep:
        found = None
        for v in sorted(alive - keep):
            cv = (set(g.adj[v]) & alive) | {v}
            found = next(
                (u for u in sorted(alive - {v}) if cv <= (set(g.adj[u]) & alive) | {u}), None
            )
            if found is not None:
                break
        if found is None:
            raise ValueError("no corner outside the target")
        dominator[v] = found
        alive.discard(v)
    phi = {}
    for v in range(g.n):
        x = v
        while x not in keep:
            x = dominator[x]
        phi[v] = x
    return phi


def brute_rad_k(g, k):
    """min over k-subsets of the max BFS distance; BIG if none reaches all."""
    return brute_rad_k_witness(g, k)[0]


def brute_rad_k_witness(g, k):
    """(rad_k, lexicographically least optimal k-subset); (BIG, ()) if none reaches all."""
    best, witness = BIG, ()
    for S in itertools.combinations(range(g.n), k):
        dist = bfs_from_set(g, S)
        if any(d is None for d in dist):
            continue
        if max(dist) < best:
            best, witness = max(dist), S
    return best, witness


def bfs_from_set(g, sources):
    dist = [None] * g.n
    queue = deque()
    for s in sources:
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def brute_domination(g, k=1):
    """Smallest set within distance k of everything, by subset enumeration."""
    for size in range(1, g.n + 1):
        for S in itertools.combinations(range(g.n), size):
            dist = bfs_from_set(g, S)
            if all(d is not None and d <= k for d in dist):
                return size, S
    return 0, ()


def bisect_lambert_w(x, iterations=200):
    """Solve w * e^w = x for w >= 0 by pure bisection in mpmath."""
    with mp.workdps(40):
        xv = mp.mpf(x)
        lo, hi = mp.mpf(0), mp.mpf(1)
        while hi * mp.exp(hi) < xv:
            hi *= 2
        for _ in range(iterations):
            mid = (lo + hi) / 2
            if mid * mp.exp(mid) < xv:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def all_small_graphs(n):
    """Every labeled simple graph on n vertices (edge subsets)."""
    from copthrottle.graph import Graph

    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1])
