"""Chordal-graph machinery: recognition via Lex-BFS with an induced-cycle
witness on failure, clique decompositions, corner-elimination reductions,
explicit retractions onto connected induced subgraphs, and the fast
distance-based capture-time formula with its throttling corollaries.

On a connected chordal graph, max_v d(v, S) is a lower bound on the
capture time capt(G; S) of a placement S.  It is exact on trees, but not
for every placement on every chordal graph: the ``chordal-capture``
verify suite finds counterexamples.  What does hold with equality is
product throttling, th_c×(G) = 1 + rad(G).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Optional, Sequence

from .graph import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    CornerWitness,
    Graph,
    geodesic_between,
    is_geodesic,
    k_distance_dominating,
    k_radius_exact,
    max_distance,
    radius_and_center,
)
from .engine import GameValue


@dataclass(frozen=True)
class EliminationOrdering:
    """Lex-BFS elimination order plus the chordality verdict.

    When not chordal, ``cycle_witness`` holds an induced cycle of length
    at least 4.
    """

    order: tuple[int, ...]
    chordal: bool
    cycle_witness: Optional[tuple[int, ...]] = None

    def to_json_obj(self) -> dict:
        return {
            "order": list(self.order),
            "chordal": self.chordal,
            "cycle_witness": list(self.cycle_witness) if self.cycle_witness else None,
        }


@dataclass(frozen=True)
class CliqueDecomposition:
    """Ordered maximal cliques X_1..X_k with the running-intersection property."""

    cliques: tuple[tuple[int, ...], ...]

    def to_json_obj(self) -> list:
        return [list(c) for c in self.cliques]


def lexbfs_order(g: Graph) -> EliminationOrdering:
    """Lexicographic BFS; chordal iff the reversed visit order is a
    perfect elimination ordering.

    Ties inside a partition class go to the lowest vertex id, so the
    ordering is deterministic.
    """
    n = g.n
    # partition refinement; each class is an ordered list of vertex ids
    classes: list[list[int]] = [list(range(n))]
    visit: list[int] = []
    while classes:
        head = classes[0]
        v = head.pop(0)
        if not head:
            classes.pop(0)
        visit.append(v)
        nbrs = g.nbr[v]
        new_classes = []
        for cls in classes:
            hit = [u for u in cls if u in nbrs]
            miss = [u for u in cls if u not in nbrs]
            if hit:
                new_classes.append(hit)
            if miss:
                new_classes.append(miss)
        classes = new_classes
    elimination = tuple(reversed(visit))
    pos = {v: i for i, v in enumerate(elimination)}
    for v in elimination:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        w = min(later, key=pos.get)
        for u in later:
            if u != w and not g.has_edge(u, w):
                return EliminationOrdering(elimination, False, _induced_long_cycle(g))
    return EliminationOrdering(elimination, True)


def _induced_long_cycle(g: Graph) -> tuple[int, ...]:
    """Some induced cycle of length >= 4; caller guarantees one exists."""
    for v in range(g.n):
        nb = g.adj[v]
        for i, a in enumerate(nb):
            for b in nb[i + 1 :]:
                if g.has_edge(a, b):
                    continue
                # shortest a-b path avoiding N[v] except a, b closes an
                # induced cycle through v
                banned = (g.nbr[v] | {v}) - {a, b}
                keep = [u for u in range(g.n) if u not in banned]
                sub, old_ids = g.induced(keep)
                back = {old: new for new, old in enumerate(old_ids)}
                try:
                    path = geodesic_between(sub, back[b], back[a])
                except ValueError:  # a and b lie in different components
                    continue
                cycle = tuple([v] + [old_ids[x] for x in reversed(path)])
                assert len(cycle) >= 4
                return cycle
    raise AssertionError("no induced long cycle found in a non-chordal graph")


def is_chordal(g: Graph) -> bool:
    return lexbfs_order(g).chordal


def clique_decomposition(g: Graph) -> CliqueDecomposition:
    """Maximal cliques in a clique-tree order (running intersection holds)."""
    if not g.is_connected():
        raise ValueError("clique decomposition requires a connected graph")
    ordering = lexbfs_order(g)
    if not ordering.chordal:
        raise ValueError("clique decomposition requires a chordal graph")
    if g.n == 0:
        return CliqueDecomposition(())
    pos = {v: i for i, v in enumerate(ordering.order)}
    candidates = []
    for v in ordering.order:
        clique = tuple(sorted([v] + [u for u in g.adj[v] if pos[u] > pos[v]]))
        candidates.append(clique)
    cliques = sorted(
        {
            c
            for c in candidates
            if not any(set(c) < set(d) for d in candidates)
        }
    )
    # maximum-weight spanning tree of the clique graph, acquired Prim-style,
    # gives a junction tree; the acquisition order has running intersection
    k = len(cliques)
    in_tree = [0]
    order = [cliques[0]]
    remaining = set(range(1, k))
    while remaining:
        best = None
        for j in sorted(remaining):
            for i in in_tree:
                w = len(set(cliques[i]) & set(cliques[j]))
                if w == 0:
                    continue
                cand = (w, -j)
                if best is None or cand > best[0]:
                    best = (cand, j)
        if best is None:
            raise AssertionError("clique graph of a connected chordal graph is connected")
        j = best[1]
        remaining.discard(j)
        in_tree.append(j)
        order.append(cliques[j])
    return CliqueDecomposition(tuple(order))


def _peel_corners(g: Graph, keep: set[int], stuck: str) -> list[CornerWitness]:
    """Delete the lowest-id corner outside ``keep`` until only ``keep`` is left.

    Each step records the corner and its lowest-id dominator among the
    vertices still alive.  Raises ``ValueError(stuck)`` when no vertex
    outside ``keep`` is a corner.
    """
    alive = set(range(g.n))
    steps: list[CornerWitness] = []
    while alive != keep:
        found = None
        for v in sorted(alive - keep):
            cv = (g.nbr[v] & alive) | {v}
            found = next(
                (u for u in sorted(alive - {v}) if cv <= (g.nbr[u] & alive) | {u}), None
            )
            if found is not None:
                break
        if found is None:
            raise ValueError(stuck)
        steps.append(CornerWitness(v, found))
        alive.discard(v)
    return steps


def corner_elimination_sequence(
    g: Graph, p: Sequence[int]
) -> list[CornerWitness]:
    """Delete corners off the geodesic ``p`` until only ``p`` remains.

    Greedy lowest-id corner first, lowest-id dominator recorded; raises if
    no corner is available, which signals a non-chordal graph or a
    non-geodesic path.
    """
    if not is_geodesic(g, p):
        raise ValueError("p must be a geodesic of g")
    return _peel_corners(
        g,
        set(p),
        "no corner available off the path; input is not chordal or p is not a geodesic",
    )


def retraction_onto(g: Graph, target: Iterable[int]) -> dict[int, int]:
    """A retraction of g onto the connected induced subgraph on ``target``.

    Built by repeatedly collapsing a corner outside the target onto its
    dominator (possible on chordal graphs, where connected induced
    subgraphs are retracts).  The returned map is total, fixes the target
    pointwise, and sends every edge to an edge or a single vertex; those
    properties are verified before returning.
    """
    keep = set(target)
    if not keep:
        raise ValueError("target must be non-empty")
    dominator = dict(_peel_corners(g, keep, "cannot retract: no corner outside the target"))

    phi = {}
    for v in range(g.n):
        x = v
        while x not in keep:
            x = dominator[x]
        phi[v] = x
    for u, v in g.edges():
        pu, pv = phi[u], phi[v]
        if pu != pv and not g.has_edge(pu, pv):
            raise AssertionError("constructed map is not a retraction")
    return phi


def chordal_capture_fast(g: Graph, placement: Iterable[int]) -> GameValue:
    """max_v d(v, S) on a connected chordal graph: a lower bound on capt(G; S).

    A robber who starts at the vertex farthest from S and stands still
    survives that many rounds, so the value never exceeds capt(G; S).  It
    is exact on trees but not on every chordal graph: the 9-vertex graph
    of the README has capt(G; {8}) = 4 while every vertex is within
    distance 3 of vertex 8.
    """
    _require_connected_chordal(g)
    s = sorted(set(placement))
    value = max_distance(g, s)
    assert value is not None
    return value


@dataclass(frozen=True)
class ChordalThrottling:
    """th_c upper bound (exact when ``exact``) and exact product throttling."""

    th_sum: int
    th_sum_exact: bool
    th_sum_witness: tuple[int, ...]
    th_prod: int
    th_prod_witness: tuple[int, ...]


def chordal_throttling(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> ChordalThrottling:
    """Radius-based throttling numbers for a connected chordal graph.

    th_prod is exactly 1 + rad(G) with a center witness.  th_sum is
    min_k (k + rad_k(G)); computed exactly while the subset-enumeration
    budget allows, otherwise certified as an upper bound by the greedy
    distance-dominating placement (at most ceil(sqrt n) + floor(sqrt n) - 1).
    Each exact rad_k is n BFS plus about n element operations per k-subset,
    charged in the same budget unit as before, which now bounds that work.
    """
    _require_connected_chordal(g)
    rad, center = radius_and_center(g)
    th_prod = 1 + rad
    best = 1 + rad
    witness: tuple[int, ...] = (center,)
    exact = True
    for k in range(2, g.n + 1):
        if k >= best:
            break
        try:
            val, w = k_radius_exact(g, k, budget=budget)
        except BudgetExceeded:
            exact = False
            break
        assert val is not None
        if k + val < best:
            best = k + val
            witness = w
    if not exact:
        k = max(sqrt_ceil(g.n) - 1, 1)
        greedy = k_distance_dominating(g, k)
        reach = max_distance(g, greedy)
        assert reach is not None and reach <= k
        if len(greedy) + reach < best:
            best = len(greedy) + reach
            witness = greedy
    return ChordalThrottling(best, exact, witness, th_prod, (center,))


def _require_connected_chordal(g: Graph) -> None:
    if g.n == 0 or not g.is_connected():
        raise ValueError("requires a non-empty connected graph")
    if not is_chordal(g):
        raise ValueError("requires a chordal graph")


def sqrt_ceil(n: int) -> int:
    r = isqrt(n)
    return r if r * r == n else r + 1
