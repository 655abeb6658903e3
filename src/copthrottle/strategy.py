"""Constructive cop strategies with machine-checked certificates.

Every strategy is a deterministic move rule built from guards.  A
:class:`Guard` holds a beat, a geodesic or a ball in local ids, by
chasing the robber's shadow under a retraction onto the beat: a shadow
map sends each robber vertex to the beat vertex chased (or off the beat)
and a step table says where a guard cop at c moves while the shadow is at
s.  ``_toward`` fills a step table with the lowest-id neighbour one step
closer to the shadow (path guards, and the staged strategy's reserve
cops); ``_chase`` with the optimal one-cop move inside the beat (ball
guards).

A certificate pairs a placement with such a rule and a claimed capture
bound, and :func:`certify_strategy` validates the claim against an
exhaustive best-response robber.  Because the cop side is a pure function
of the visible state, the robber's best response is computable by search
over robber choices alone; no strategy-derived bound is ever reported
without that exact adversarial validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf
from typing import Iterable, Optional, Sequence

from .chordal import is_chordal, retraction_onto, sqrt_ceil
from .engine import ROBBER_WINS, solve_k
from .graph import (
    DEFAULT_BUDGET,
    Graph,
    distance_matrix,
    distances_from,
    distances_from_set,
    domination_number,
    feedback_vertex_number,
    geodesic_between,
    is_geodesic,
    k_distance_dominating,
    radius_and_center,
)
from .lambertw import LambertParams


class StrategyError(RuntimeError):
    """A strategy was undefined or illegal at a reachable state."""


# ---------------------------------------------------------------------------
# guard placements on geodesics


def guard_placement(path_len: int, r: int) -> tuple[int, ...]:
    """1-based cop positions on a geodesic with ``path_len`` edges.

    The j-th cop sits at index r+1+(2r+1)j, clamped to the last vertex;
    ceil((path_len+1)/(2r+1)) cops leave every vertex within distance r
    of some cop.
    """
    if path_len < 0 or r < 1:
        raise ValueError("need path_len >= 0 and r >= 1")
    count = ceil((path_len + 1) / (2 * r + 1))
    return tuple(min(path_len + 1, r + 1 + (2 * r + 1) * j) for j in range(count))


@dataclass(frozen=True)
class PathRetraction:
    """Retraction of a graph onto one of its geodesics.

    ``mapping[u]`` is the path vertex u retracts to; restricted to the
    path it is the identity, and every edge maps to an edge of the path
    or collapses.
    """

    path: tuple[int, ...]
    mapping: dict[int, int]


def _path_shadow(h: Graph, path: Sequence[int]) -> list[int]:
    """path[min(d(path[0], u), len(path) - 1)] for every vertex u of h,
    and path[0] where u is unreachable from it."""
    last = len(path) - 1
    return [path[0] if d is None else path[min(d, last)] for d in distances_from(h, path[0])]


def path_retraction(g: Graph, p: Sequence[int]) -> PathRetraction:
    """phi(u) = p[min(d(p_0, u), len(p)-1)]; requires p to be a geodesic."""
    if not is_geodesic(g, p):
        raise ValueError("p must be a geodesic of g")
    if not g.is_connected():
        raise ValueError("graph must be connected for a total path retraction")
    mapping = dict(enumerate(_path_shadow(g, p)))
    for u in p:
        assert mapping[u] == u
    for u, v in g.edges():
        pu, pv = mapping[u], mapping[v]
        assert pu == pv or g.has_edge(pu, pv)
    return PathRetraction(tuple(p), mapping)


# ---------------------------------------------------------------------------
# guards: a shadow map and a step table on one beat

OFF_BEAT = -1


class Guard:
    """A cop's beat with the rule for chasing the robber's shadow on it.

    ``verts[i]`` is the vertex of g with local id i.  ``shadow[r]`` is
    the local id of the beat vertex chased while the robber is at r, or
    ``OFF_BEAT``.  ``step[c][s]`` is the local id a guard cop at local id
    c moves to while the shadow is at local id s, with ``step[s][s] == s``.

    As a strategy on its own, every cop follows the guard.
    """

    def __init__(
        self, verts: Sequence[int], shadow: Sequence[Optional[int]], step: list[list[int]]
    ):
        """``shadow[r]`` is given as a vertex of the beat, or None off the beat."""
        self.verts = tuple(verts)
        self.local = {v: i for i, v in enumerate(self.verts)}
        self.shadow = [OFF_BEAT if s is None else self.local[s] for s in shadow]
        self.step = step

    def shadow_vertex(self, robber: int) -> Optional[int]:
        s = self.shadow[robber]
        return None if s == OFF_BEAT else self.verts[s]

    def follow(self, cop: int, robber: int) -> int:
        """Where a guard cop at ``cop`` moves while the robber is at
        ``robber``; it stays put while the robber is off the beat."""
        s = self.shadow[robber]
        if s == OFF_BEAT:
            return cop
        return self.verts[self.step[self.local[cop]][s]]

    def initial_state(self):
        return ()

    def move(self, sstate, cops, robber):
        return tuple(self.follow(c, robber) for c in cops), sstate


def _toward(sub: Graph, targets: Sequence[int]) -> list[list[int]]:
    """step[v][j]: the lowest-id neighbour of v one step closer to
    ``targets[j]`` in the connected graph ``sub``; v itself at the target."""
    dists = [(t, distances_from(sub, t)) for t in targets]
    return [
        [v if v == t else min(w for w in sub.adj[v] if d[w] == d[v] - 1) for t, d in dists]
        for v in range(sub.n)
    ]


def _chase(sub: Graph, values) -> list[list[int]]:
    """step[c][s]: the optimal one-cop move from ``values = solve_k(sub, 1).values``.

    reply[c2, s] is the most rounds the robber, at s and to move, can
    force against a cop at c2 (max of the table over N[s]), and 0 where
    c2 = s captures.  A cop at c takes the first minimiser of reply[., s]
    over the sorted N[c], which is ``engine.optimal_moves``' first move.
    """
    closed = sub.closed
    reply = values.copy()
    for s, nb in enumerate(closed):
        reply[:, s] = values[:, list(nb)].max(axis=1)
    reply[range(sub.n), range(sub.n)] = 0
    return [[nb[i] for i in reply[list(nb)].argmin(axis=0)] for nb in closed]


def _path_guard(g: Graph, path: Sequence[int], shadow: Sequence[Optional[int]]) -> Guard:
    """Guard of a geodesic: cops step along it toward the shadow."""
    sub, verts = g.induced(path)
    return Guard(verts, shadow, _toward(sub, range(sub.n)))


def _ball_guard(guard_graph: Graph, center: int, radius: int) -> tuple[Guard, int]:
    """One-cop guard of the ball around ``center`` in ``guard_graph``,
    with its capture bound from ``center``.

    ``guard_graph`` may be a spanning subgraph of g (a spanning tree for
    the feedback strategy); moves stay inside it.
    """
    dist = distances_from(guard_graph, center)
    ball = [u for u, d in enumerate(dist) if d is not None and d <= radius]
    sub, verts = guard_graph.induced(ball)
    phi = retraction_onto(guard_graph, ball)
    table = solve_k(sub, 1)
    bound = table.placement_value((verts.index(center),))
    assert bound != ROBBER_WINS, "guard ball must be cop-win"
    guard = Guard(verts, [phi[u] for u in range(guard_graph.n)], _chase(sub, table.values))
    return guard, int(bound)


def shadow_guard_simulate(
    g: Graph, p: Sequence[int], r: int
) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """Worst-case rounds until some cop stands on the robber's shadow.

    Cops start at the :func:`guard_placement` positions on the geodesic
    ``p`` and every cop steps one path-vertex toward the current shadow
    each round (the designated stayer on ties is the lowest index, which
    is what the stepping rule produces anyway).  The robber moves in g
    with exhaustive best response.  Returns (rounds, worst-case trace) in
    :func:`certify_strategy`'s format: (cop vertices, robber vertex)
    after each half-move.
    """
    phi = path_retraction(g, p).mapping
    guard = _path_guard(g, p, [phi[u] for u in range(g.n)])
    start = tuple(p[idx - 1] for idx in guard_placement(len(p) - 1, r))
    rounds, trace = _worst_case(g, start, guard, lambda cops, robber: phi[robber] in cops)
    if rounds == inf:
        raise StrategyError("shadow chase fails to guard the path")
    return int(rounds), trace


# ---------------------------------------------------------------------------
# certificates and exact adversarial validation


@dataclass
class PlacementCertificate:
    """A cop placement, a deterministic strategy, and a claimed bound.

    ``placement`` is in cop-identity order: cop i starts at
    ``placement[i]`` and the strategy moves cops by index.  Accepted
    certificates guarantee capt(G; placement) <= claimed_bound.
    """

    placement: tuple[int, ...]
    strategy: object
    claimed_bound: int
    stages: tuple[str, ...] = ()
    complete: bool = True
    note: str = ""

    def canonical(self) -> tuple[int, ...]:
        return tuple(sorted(self.placement))

    def to_json_obj(self) -> dict:
        return {
            "placement": list(self.placement),
            "claimed_bound": self.claimed_bound,
            "stages": list(self.stages),
            "complete": self.complete,
            "note": self.note,
        }


@dataclass
class CertificationResult:
    valid: bool
    worst_rounds: float  # rounds, or inf when the robber survives
    trace: list

    def to_json_obj(self) -> dict:
        return {
            "valid": self.valid,
            "worst_rounds": "inf" if self.worst_rounds == inf else int(self.worst_rounds),
            "trace": [[list(c), r] for c, r in self.trace],
        }


def certify_strategy(g: Graph, cert: PlacementCertificate) -> CertificationResult:
    """Exact worst case of the certificate's strategy against any robber.

    The cop rule is deterministic, so the game graph under it is fixed;
    a memoized search over robber choices computes the max capture round,
    with reachable cycles meaning the robber survives forever.
    """
    worst, trace = _worst_case(
        g, tuple(cert.placement), cert.strategy, lambda cops, robber: robber in cops
    )
    valid = worst != inf and worst <= cert.claimed_bound
    return CertificationResult(valid, worst, trace)


def _worst_case(g: Graph, start: tuple[int, ...], strat, caught) -> tuple[float, list]:
    """Max over robber plays of the rounds until ``caught(cops, robber)``.

    ``strat`` moves the cops from ``start`` and is checked for legality
    at every reachable state.  Returns (rounds, or inf when the robber
    can avoid ``caught`` forever; worst-case trace of (cops, robber)
    after each half-move, empty on inf).
    """
    closed = g.closed
    closed_sets = [frozenset(c) for c in closed]

    def cop_step(sstate, cops, robber):
        try:
            cops2, sstate2 = strat.move(sstate, cops, robber)
        except KeyError as exc:
            raise StrategyError(f"strategy undefined at {cops=} {robber=}: {exc}") from exc
        if len(cops2) != len(cops):
            raise StrategyError("strategy changed the number of cops")
        for a, b in zip(cops, cops2):
            if b not in closed_sets[a]:
                raise StrategyError(f"illegal cop move {a} -> {b}")
        return cops2, sstate2

    memo: dict[tuple, object] = {}
    GRAY = object()

    def known(st: tuple) -> float:
        got = memo.get(st)
        return inf if got is None or got is GRAY else got

    def value(root: tuple) -> float:
        stack = [root]
        while stack:
            st = stack[-1]
            got = memo.get(st)
            if got is not None and got is not GRAY:
                stack.pop()
                continue
            cops, robber, ss = st
            if got is None:
                if caught(cops, robber):
                    memo[st] = 0.0
                    stack.pop()
                    continue
                cops2, ss2 = cop_step(ss, cops, robber)
                if caught(cops2, robber):
                    memo[st] = 1.0
                    stack.pop()
                    continue
                memo[st] = GRAY
                for r2 in closed[robber]:
                    child = (cops2, r2, ss2)
                    if child not in memo:
                        stack.append(child)
                continue
            cops2, ss2 = cop_step(ss, cops, robber)
            memo[st] = 1.0 + max(known((cops2, r2, ss2)) for r2 in closed[robber])
            stack.pop()
        return known(root)

    s0 = strat.initial_state()
    worst = 0.0
    worst_start = 0
    for r0 in range(g.n):
        v = value((start, r0, s0))
        if v > worst:
            worst, worst_start = v, r0

    trace: list[tuple[tuple[int, ...], int]] = []
    if worst != inf and g.n:
        cops, robber, ss = start, worst_start, s0
        trace.append((cops, robber))
        guard = 0
        while not caught(cops, robber) and guard <= worst + 1:
            guard += 1
            cops, ss = cop_step(ss, cops, robber)
            trace.append((cops, robber))
            if caught(cops, robber):
                break
            robber = max(closed[robber], key=lambda r2: (known((cops, r2, ss)), -r2))
            trace.append((cops, robber))
    return worst, trace


# ---------------------------------------------------------------------------
# shadow-chase strategies over covers by guarded balls


class ShadowChaseStrategy:
    """Ball guards chase, static cops stand still.

    Cop i < len(guards) follows ``guards[i]``, playing the optimal one-cop
    game inside its ball against the robber's shadow under the ball's
    retraction and staying on the shadow once caught; any cop finding the
    robber in its closed neighborhood captures immediately.  Stateless:
    the rule depends only on current positions.
    """

    def __init__(
        self, g: Graph, starts: Sequence[int], guards: list[Guard], statics: tuple[int, ...]
    ):
        self._g = g
        self._guards = guards
        self.placement = tuple(starts) + statics

    def initial_state(self):
        return ()

    def move(self, sstate, cops, robber):
        new = list(cops)
        for i, guard in enumerate(self._guards):
            new[i] = guard.follow(cops[i], robber)
        for i, c in enumerate(cops):
            if robber in self._g.nbr[c]:
                new[i] = robber
                break
        return tuple(new), sstate


def ball_cover_strategy(
    g: Graph, placement: Iterable[int], radius: int, budget: int = DEFAULT_BUDGET
) -> PlacementCertificate:
    """Guard a connected chordal graph by balls around the given cops.

    Every vertex must lie within ``radius`` of some cop; cop i then
    guards the ball around its start by shadow-chasing, which certifies
    capture within the largest in-ball capture time (at most ``radius``).
    """
    cops = tuple(sorted(int(v) for v in placement))
    if not cops:
        raise ValueError("placement must be non-empty")
    if not g.is_connected():
        raise ValueError("requires a connected graph")
    if not is_chordal(g):
        raise ValueError("requires a chordal graph")
    dist = distances_from_set(g, set(cops))
    for v, d in enumerate(dist):
        if d is None or d > radius:
            raise ValueError(f"vertex {v} is not within {radius} of any cop")
    guards, bounds = zip(*(_ball_guard(g, c, radius) for c in cops))
    strat = ShadowChaseStrategy(g, cops, list(guards), ())
    return PlacementCertificate(
        placement=strat.placement,
        strategy=strat,
        claimed_bound=max(bounds),
        stages=tuple(
            f"cop {i} guards the radius-{radius} ball at {c}" for i, c in enumerate(cops)
        ),
    )


# ---------------------------------------------------------------------------
# feedback-vertex strategy


def feedback_bound(g: Graph, budget: int = DEFAULT_BUDGET) -> PlacementCertificate:
    """Station cops on a minimum feedback set, then play the tree strategy.

    Deleting the feedback vertices' surplus edges leaves a spanning tree
    containing every edge not incident to the feedback set, so a robber
    avoiding the stationary cops is confined to tree moves; a greedy
    distance-dominating set of the tree guards it by shadow-chasing.
    Total cost (cops + bound) is at most 2*sqrt(n) + f(G).
    """
    if not g.is_connected() or g.n == 0:
        raise ValueError("requires a non-empty connected graph")
    f, fset = feedback_vertex_number(g, budget=budget)

    # spanning tree keeping all edges not incident to the feedback set
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_edges = []
    fs = set(fset)
    deferred = []
    for u, v in g.edges():
        (deferred if (u in fs or v in fs) else tree_edges).append((u, v))
    for u, v in tree_edges:
        parent[find(u)] = find(v)
    kept = list(tree_edges)
    for u, v in deferred:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append((u, v))
    tree = Graph(g.n, kept)
    assert tree.is_forest() and tree.is_connected()

    k = max(1, sqrt_ceil(g.n) - 1)
    dom = k_distance_dominating(tree, k)
    guards, bounds = zip(*(_ball_guard(tree, c, k) for c in dom))
    strat = ShadowChaseStrategy(g, dom, list(guards), tuple(sorted(fs)))
    return PlacementCertificate(
        placement=strat.placement,
        strategy=strat,
        claimed_bound=max(bounds),
        stages=tuple(
            [f"static cop on feedback vertex {v}" for v in sorted(fs)]
            + [f"cop guards the tree ball of radius {k} at {c}" for c in dom]
        ),
        note=f"feedback number {f}; tree domination radius {k}",
    )


# ---------------------------------------------------------------------------
# the staged sublinear decomposition strategy


@dataclass
class _Stage:
    path: tuple[int, ...]
    posts: tuple[int, ...]  # vertices, aligned with the stage's cop slots
    r: int
    guard: Guard  # shadows from the residual graph at carving time


class StagedStrategy:
    """Sequentially guard carved paths, then sweep the leftover component.

    Stage cops wait on their guard posts until their stage engages, chase
    the robber's shadow along their path, and the catcher keeps tracking
    it.  Star cops never move.  Once every path is held, reserve helpers
    walk from their start to an exact dominating set of the leftover
    component containing the robber.  Any cop adjacent to the robber
    captures immediately.
    """

    def __init__(
        self,
        g: Graph,
        stages: list[_Stage],
        star_cops: tuple[int, ...],
        helpers: tuple[int, ...],
        comp_of: dict[int, int],
        comp_targets: list[tuple[int, ...]],
    ):
        self._g = g
        self._stages = stages
        self._comp_of = comp_of
        self._comp_targets = comp_targets
        self.placement = (
            tuple(v for st in stages for v in st.posts) + star_cops + helpers
        )
        self._stage_slots = []
        base = 0
        for st in stages:
            self._stage_slots.append(tuple(range(base, base + len(st.posts))))
            base += len(st.posts)
        base += len(star_cops)
        self._helper_slots = tuple(range(base, base + len(helpers)))
        # helpers step toward their target in g: _hop[t][v] is v's next hop
        hop_targets = sorted({t for targets in comp_targets for t in targets})
        self._hop = dict(zip(hop_targets, zip(*_toward(g, hop_targets))))

    def initial_state(self):
        return (0, tuple([-1] * len(self._stages)), -2)  # -2: phase D untriggered

    def move(self, sstate, cops, robber):
        cur, holders, dcomp = sstate
        holders = list(holders)
        n_stages = len(self._stages)
        while cur < n_stages:
            sh = self._stages[cur].guard.shadow_vertex(robber)
            if sh is None:
                break
            hit = [i for i in self._stage_slots[cur] if cops[i] == sh]
            if not hit:
                break
            holders[cur] = hit[0]
            cur += 1
        if cur == n_stages and dcomp == -2:
            dcomp = self._comp_of.get(robber, -1)

        new = list(cops)
        for j, st in enumerate(self._stages[: cur + 1]):
            for i in (holders[j],) if j < cur else self._stage_slots[j]:
                new[i] = st.guard.follow(cops[i], robber)
        if dcomp >= 0:
            targets = self._comp_targets[dcomp]
            for slot, t in zip(self._helper_slots, targets):
                new[slot] = self._hop[t][cops[slot]]
        for i, c in enumerate(cops):
            if robber in self._g.nbr[c]:
                new[i] = robber
                break
        return tuple(new), (cur, tuple(holders), dcomp)


def _carve_paths(
    g: Graph, remaining: set[int], length: int, r: int, stages: list[_Stage]
) -> None:
    """Repeatedly remove guard-placed geodesics of exact ``length`` from
    the residual graph, recording a stage (with its guard) for each."""
    while remaining:
        sub, old_ids = g.induced(remaining)
        for comp in sub.components():
            csub, clocal = sub.induced(comp)
            # row-major order: the least u, then the least v, at that distance
            us, vs = (distance_matrix(csub) == length).nonzero()
            if len(us) == 0:
                continue
            on_sub = [clocal[x] for x in geodesic_between(csub, int(us[0]), int(vs[0]))]
            path = tuple(old_ids[x] for x in on_sub)
            # the residual graph retracts onto the path; carved vertices are off the beat
            shadow: list[Optional[int]] = [None] * g.n
            for u, s in zip(old_ids, _path_shadow(sub, on_sub)):
                shadow[u] = old_ids[s]
            posts = tuple(path[idx - 1] for idx in guard_placement(length, r))
            stages.append(_Stage(path, posts, r, _path_guard(g, path, shadow)))
            remaining.difference_update(path)
            break
        else:
            return


def staged_decomposition(
    g: Graph,
    long_len: Optional[int] = None,
    guard_r1: Optional[int] = None,
    star_deg: Optional[int] = None,
    mid_len: Optional[int] = None,
    guard_r2: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> PlacementCertificate:
    """Four-phase decomposition strategy: long paths, stars, short paths,
    and a reserve that sweeps whichever small component hides the robber.

    Parameters default to the Lambert-W calibration for the graph's
    order (ceil of beta*tau, tau, tau, tau^2, tau), which is advisory at
    desk scale; pass explicit values to exercise specific shapes.  The
    returned certificate's claimed bound is a conservative stage-by-stage
    estimate, always validated exactly by :func:`certify_strategy` before
    use in any report.
    """
    if not g.is_connected() or g.n == 0:
        raise ValueError("requires a non-empty connected graph")
    if None in (long_len, guard_r1, star_deg, mid_len, guard_r2):
        lp = LambertParams.for_order(max(2, g.n))
        long_len = long_len or max(1, ceil(lp.beta * lp.tau))
        guard_r1 = guard_r1 or max(1, ceil(lp.tau))
        star_deg = star_deg or max(1, ceil(lp.tau))
        mid_len = mid_len or max(1, ceil(lp.tau * lp.tau))
        guard_r2 = guard_r2 or max(1, ceil(lp.tau))
    if min(long_len, guard_r1, star_deg, mid_len, guard_r2) < 1:
        raise ValueError("all decomposition parameters must be positive")

    remaining = set(range(g.n))
    stages: list[_Stage] = []
    _carve_paths(g, remaining, long_len, guard_r1, stages)

    star_cops: list[int] = []
    while True:
        candidates = sorted(
            v for v in remaining if sum(1 for w in g.adj[v] if w in remaining) >= star_deg
        )
        if not candidates:
            break
        v = candidates[0]
        ball = {v} | {w for w in g.adj[v] if w in remaining}
        star_cops.append(v)
        remaining.difference_update(ball)

    _carve_paths(g, remaining, mid_len, guard_r2, stages)

    comp_of: dict[int, int] = {}
    comp_targets: list[tuple[int, ...]] = []
    walk = 0
    helpers: tuple[int, ...] = ()
    if remaining:
        sub, old_ids = g.induced(sorted(remaining))
        comps = sub.components()
        need = 0
        center = radius_and_center(g)[1] if g.is_connected() else 0
        dist_center = distances_from(g, center)
        for ci, comp in enumerate(comps):
            csub, clocal = sub.induced(comp)
            size, local_wit = domination_number(csub, budget=budget)
            targets = tuple(sorted(old_ids[clocal[x]] for x in local_wit))
            comp_targets.append(targets)
            for v_local in comp:
                comp_of[old_ids[v_local]] = ci
            need = max(need, size)
            walk = max(walk, max(dist_center[t] for t in targets))
        helpers = (center,) * need

    strat = StagedStrategy(
        g, stages, tuple(star_cops), helpers, comp_of, comp_targets
    )
    claimed = sum(st.r for st in stages) + max(0, len(stages) - 1)
    if helpers:
        claimed += walk + 1
    elif star_cops:
        claimed += 1
    descriptions = [
        f"guard the length-{len(st.path)-1} path at {st.path[0]}..{st.path[-1]} "
        f"with {len(st.posts)} cops (radius {st.r})"
        for st in stages
    ]
    descriptions += [f"static cop dominates the star at {v}" for v in star_cops]
    if helpers:
        descriptions.append(
            f"{len(helpers)} reserve cops at {helpers[0]} sweep the leftover component"
        )
    return PlacementCertificate(
        placement=strat.placement,
        strategy=strat,
        claimed_bound=claimed,
        stages=tuple(descriptions),
        note=(
            f"params: long={long_len}/r{guard_r1}, star_deg={star_deg}, "
            f"mid={mid_len}/r{guard_r2}"
        ),
    )

