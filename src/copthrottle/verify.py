"""Verification suites: each suite mechanically checks one desk-verifiable
claim about cop throttling on a seeded corpus and reports pass/fail counts
with the first counterexample serialized.

A suite is a function of the result it fills and of exactly the options it
reads: ``suite_options`` lists them, and ``run_suite`` refuses any other.

A failing suite is a first-class outcome; the chordal-capture and
boundary-corners suites in particular document a real error: the claim
capt(G;S) = max_v d(v,S) for connected chordal graphs fails on 2 of the
200 seed-42 chordal graphs (1%) and on 6 of their 4000 sampled placements
(the boundary vertices of a vertex need not be a set of disjoint corners,
which breaks the claim's proof and its conclusion).
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from math import isqrt
from typing import Callable, Optional

from . import families
from .chordal import chordal_throttling, is_chordal, sqrt_ceil
from .engine import capt_k, cop_number, is_finite, solve_k, solve_placement
from .graph import (
    DEFAULT_BUDGET,
    Graph,
    boundary_vertices,
    corners_of,
    distances_from_set,
    domination_number,
    is_outerplanar,
    k_distance_dominating,
    max_distance,
    radius_and_center,
)
from .graphio import read_graph6_file, to_json_obj
from .lambertw import lambert_w
from .strategy import (
    PlacementCertificate,
    ball_cover_strategy,
    certify_strategy,
    feedback_bound,
    guard_placement,
    shadow_guard_simulate,
    staged_decomposition,
)
from .throttling import check_iq_proposition, classify_thprod_low, throttling_report


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    details: list[str] = field(default_factory=list)
    first_counterexample: Optional[dict] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, description: str, graph: Graph | None = None):
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.details) < 20:
                self.details.append(description)
            if self.first_counterexample is None:
                self.first_counterexample = {
                    "description": description,
                    "graph": to_json_obj(graph) if graph is not None else None,
                }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.passed} passed, {self.failed} failed ({self.elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# corpora


def named_corpus(max_n: int = 12) -> list[Graph]:
    """The built-in corpus of named graphs (orders up to ``max_n``)."""
    graphs = [
        families.complete(1),
        families.empty(2).with_name("2K1"),
        families.empty(3).with_name("3K1"),
        families.disjoint_union(families.complete(1), families.complete(2), name="K1+K2"),
        *(families.complete(n) for n in range(2, 7)),
        *(families.path(n) for n in (3, 4, 5, 7, 9, 12)),
        *(families.cycle(n) for n in (3, 4, 5, 6, 9, 12)),
        *(families.star(n) for n in (3, 5, 9)),
        families.complete_bipartite(2, 3),
        families.complete_bipartite(3, 3),
        families.spider(3, 2),
        families.spider(3, 3),
        families.grid(2, 3),
        families.grid(3, 4),
        families.petersen(),
        Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], name="paw"),
        Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)], name="bull-ish"),
    ]
    return [g for g in graphs if g.n <= max_n]


def _seeded_corpus(make, tag: str, min_n: int, count: int, max_n: int, seed: int) -> list[Graph]:
    """``count`` graphs ``make(n, seed')``, n and seed' drawn from ``seed:tag:i``."""
    out = []
    for i in range(count):
        rng = random.Random(f"{seed}:{tag}:{i}")
        n = rng.randint(min_n, max_n)
        out.append(make(n, int(rng.random() * 10**9)))
    return out


def chordal_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    return _seeded_corpus(families.random_chordal, "chordal", 4, count, max_n, seed)


def connected_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    return _seeded_corpus(families.random_connected, "conn", 2, count, max_n, seed)


def tree_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    side = max(1, isqrt(max_n - 1))
    spider = families.spider(side, max(1, (max_n - 1) // side))
    return [families.path(max_n), families.star(max_n - 1), spider] + _seeded_corpus(
        families.random_tree, "tree", 2, count, max_n, seed
    )


def unicyclic_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    return _seeded_corpus(families.random_unicyclic, "uni", 3, count, max_n, seed)


def mixed_corpus(count: int, max_n: int, seed: int) -> list[Graph]:
    return named_corpus(max_n) + connected_corpus(count, min(max_n, 10), seed)


def _sample_placement(g: Graph, rng: random.Random, max_k: int = 3) -> tuple[int, ...]:
    k = rng.randint(1, max_k)
    return tuple(sorted(rng.choices(range(g.n), k=k)))


# ---------------------------------------------------------------------------
# suites


def suite_chordal_capture(res: SuiteResult, seed: int = 42, count: int = 200, max_n: int = 12,
                          budget: int = DEFAULT_BUDGET) -> None:
    """capt(G;S) == max_v d(v,S) on random connected chordal graphs.

    This is the claim the harness refutes: expect a handful of
    counterexamples on any honest corpus.
    """
    for i, g in enumerate(chordal_corpus(count, max_n, seed)):
        rng = random.Random(f"{seed}:placements:{i}")
        tables = {}
        for _ in range(20):
            S = _sample_placement(g, rng)
            k = len(S)
            if k not in tables:
                tables[k] = solve_k(g, k, budget=budget)
            exact = tables[k].placement_value(S)
            fast = max_distance(g, set(S))
            res.check(
                exact == fast,
                f"graph {i} ({g.name}): capt(G;{S}) = {exact} but max distance = {fast}",
                g,
            )


def suite_boundary_corners(res: SuiteResult, seed: int = 42, count: int = 200,
                           max_n: int = 12) -> None:
    """Boundary vertices of each v form a set of disjoint corners (chordal).

    The claim this rests on is false; the suite documents the concrete
    counterexamples behind chordal-capture's failures.
    """
    for i, g in enumerate(chordal_corpus(count, max_n, seed)):
        ok = True
        witness = ""
        for v in range(g.n):
            bset = set(boundary_vertices(g, v))
            for u in bset:
                if not any(w not in bset for w in corners_of(g, u)):
                    ok = False
                    witness = f"boundary({v}) contains {u}, cornered only within the set"
                    break
            if not ok:
                break
        res.check(ok, f"graph {i} ({g.name}): {witness}", g)


def suite_prod_chordal(res: SuiteResult, seed: int = 42, count: int = 200, max_n: int = 12,
                       budget: int = DEFAULT_BUDGET) -> None:
    """th_prod(G) == 1 + rad(G) on random connected chordal graphs."""
    for i, g in enumerate(chordal_corpus(count, max_n, seed)):
        rep = throttling_report(g, budget=budget)
        rad, _ = radius_and_center(g)
        res.check(
            rep.th_prod == 1 + rad,
            f"graph {i} ({g.name}): th_prod = {rep.th_prod}, 1+rad = {1 + rad}",
            g,
        )


def suite_prop_bounds(res: SuiteResult, seed: int = 42, count: int = 100, max_n: int = 12,
                      budget: int = DEFAULT_BUDGET) -> None:
    """th_c <= th_prod <= floor((th_c+1)^2/4), th_prod <= min(2*gamma, n), and
    the equality-iff-one-or-n-cops remark, over the mixed corpus."""
    for g in mixed_corpus(count, max_n, seed):
        rep = throttling_report(g, budget=budget)
        q = rep.th_sum
        res.check(
            q <= rep.th_prod <= ((q + 1) ** 2) // 4,
            f"{g.name}: th={q}, th_prod={rep.th_prod} outside [{q}, {((q+1)**2)//4}]",
            g,
        )
        gamma, _ = domination_number(g, budget=budget)
        res.check(
            rep.th_prod <= min(2 * gamma, g.n) or g.n == 1,
            f"{g.name}: th_prod={rep.th_prod} > min(2*gamma={2*gamma}, n={g.n})",
            g,
        )
        attained_extreme = rep.sum_attained_with_one_cop or rep.sum_attained_with_all_vertices
        res.check(
            (rep.th_prod == q) == attained_extreme,
            f"{g.name}: th_prod==th_c is {rep.th_prod == q} but extreme-k attainment is {attained_extreme}",
            g,
        )


def suite_low_thcx(res: SuiteResult, seed: int = 42, count: int = 100, max_n: int = 12,
                   budget: int = DEFAULT_BUDGET) -> None:
    """classify_thprod_low agrees with the exact product throttling number."""
    for g in mixed_corpus(count, max_n, seed):
        cls = classify_thprod_low(g, budget=budget)
        rep = throttling_report(g, budget=budget)
        if cls.value is None:
            res.check(
                rep.th_prod >= 5,
                f"{g.name}: classifier says >=5 but exact th_prod = {rep.th_prod}",
                g,
            )
        else:
            res.check(
                rep.th_prod == cls.value,
                f"{g.name}: classifier case {cls.case} says {cls.value}, exact = {rep.th_prod}",
                g,
            )
        if cls.ambiguous_3b:
            res.details.append(f"note: {g.name} flags the 3(b) reading ambiguity")


def suite_iq(res: SuiteResult, seed: int = 42, count: int = 100, max_n: int = 12,
             budget: int = DEFAULT_BUDGET) -> None:
    """The I(q) proposition is an iff; holds must be true everywhere."""
    for g in mixed_corpus(count, max_n, seed):
        chk = check_iq_proposition(g, budget=budget)
        res.check(
            chk.holds,
            f"{g.name}: left={chk.left} right={chk.right} (q={chk.q}, th_prod={chk.th_prod})",
            g,
        )


def suite_outerplanar(res: SuiteResult, seed: int = 42, count: int = 500, max_n: int = 7,
                      budget: int = DEFAULT_BUDGET, graph6_path: str | None = None) -> None:
    """Outerplanar connected graphs are cop-win iff chordal.

    Uses a supplied graph6 corpus when given; otherwise all connected
    graphs on <= 5 vertices exhaustively plus seeded samples on 6..max_n.
    """
    graphs: list[Graph] = []
    if graph6_path:
        with open(graph6_path, "r", encoding="utf-8") as fh:
            graphs = [g for g in read_graph6_file(fh.read()) if g.is_connected()]
    else:
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
                g = Graph(n, edges)
                if g.is_connected():
                    graphs.append(g)
        for i in range(count):
            rng = random.Random(f"{seed}:outer:{i}")
            n = rng.randint(6, max_n)
            graphs.append(families.random_connected(n, int(rng.random() * 10**9)))
    for g in graphs:
        if not is_outerplanar(g):
            res.passed += 1  # implication is vacuous
            continue
        copwin = is_finite(capt_k(g, 1, budget=budget)[0])
        chordal = is_chordal(g)
        res.check(
            copwin == chordal,
            f"outerplanar n={g.n} edges={g.edges()}: cop-win={copwin}, chordal={chordal}",
            g,
        )


def suite_meirmoon(res: SuiteResult, seed: int = 42, count: int = 100, max_n: int = 12) -> None:
    """Greedy k-distance domination respects gamma_k <= floor(n/(k+1))."""
    for g in mixed_corpus(count, max_n, seed):
        if not g.is_connected():
            continue
        for k in range(1, 5):
            if g.n < k + 1:
                continue
            S = k_distance_dominating(g, k)
            dist = distances_from_set(g, S)
            covered = all(d is not None and d <= k for d in dist)
            res.check(
                covered and len(S) <= g.n // (k + 1),
                f"{g.name}: greedy gamma_{k} set {S} size {len(S)} > floor({g.n}/{k+1})"
                f" or fails to cover",
                g,
            )


def suite_tree_bound(res: SuiteResult, seed: int = 42, count: int = 25, max_n: int = 144,
                     budget: int = DEFAULT_BUDGET) -> None:
    """Radius-based throttling respects ceil(sqrt n)+floor(sqrt n)-1 <= 2*floor(sqrt n)
    on trees up to n=144, and the exact engine confirms the bound at desk scale."""
    for g in tree_corpus(count, max_n, seed):
        bound = sqrt_ceil(g.n) + isqrt(g.n) - 1
        # small budget: large trees go straight to the greedy certified bound
        ct = chordal_throttling(g, budget=min(budget, 2 * 10**6))
        res.check(
            ct.th_sum <= bound <= 2 * isqrt(g.n),
            f"{g.name}: radius-based th_c {ct.th_sum} > {bound} (n={g.n})",
            g,
        )
        if g.n <= 12:
            rep = throttling_report(g, budget=budget)
            res.check(
                rep.th_sum <= bound and rep.th_sum == ct.th_sum,
                f"{g.name}: engine th_c {rep.th_sum} vs radius-based {ct.th_sum}, bound {bound}",
                g,
            )


def suite_guard_lemma(res: SuiteResult, max_n: int = 30) -> None:
    """Guard placements cover within r, guard within r rounds, and are sharp."""
    for k in range(0, max_n + 1):
        for r in range(1, 6):
            posts = guard_placement(k, r)
            cover = all(
                any(abs(pos - (i + 1)) <= r for pos in posts) for i in range(k + 1)
            )
            expected_count = math.ceil((k + 1) / (2 * r + 1))
            res.check(
                cover and len(posts) == expected_count,
                f"k={k} r={r}: posts {posts} fail coverage or count",
            )
            # sharpness: one fewer cop leaves some vertex at distance >= r+1;
            # on a path, m balls of radius r cover at most m(2r+1) vertices
            res.check(
                (expected_count - 1) * (2 * r + 1) < k + 1,
                f"k={k} r={r}: {expected_count - 1} cops could still cover",
            )
            if k >= 1:
                g = families.path(k + 1)
                rounds, _ = shadow_guard_simulate(g, list(range(k + 1)), r)
                res.check(
                    rounds <= r,
                    f"k={k} r={r}: shadow chase took {rounds} > {r} rounds",
                    g,
                )


def suite_corner_sandwich(res: SuiteResult, seed: int = 42, count: int = 100, max_n: int = 10,
                          budget: int = DEFAULT_BUDGET) -> None:
    """capt(G-C;S) <= capt(G;S) <= capt(G-C;S)+1 with C the boundary
    vertices of a random vertex, S random placements avoiding C."""
    for i, g in enumerate(chordal_corpus(count, max_n, seed)):
        rng = random.Random(f"{seed}:sandwich:{i}")
        v = rng.randrange(g.n)
        C = set(boundary_vertices(g, v))
        rest = sorted(set(range(g.n)) - C)
        if not rest:
            continue
        sub, old_ids = g.induced(rest)
        back = {o: x for x, o in enumerate(old_ids)}
        tables = {}
        for _ in range(10):
            k = rng.randint(1, min(3, len(rest)))
            S = tuple(sorted(rng.choices(rest, k=k)))
            if k not in tables:
                tables[k] = solve_k(g, k, budget=budget), solve_k(sub, k, budget=budget)
            vG = tables[k][0].placement_value(S)
            vH = tables[k][1].placement_value(back[s] for s in S)
            res.check(
                vH <= vG <= vH + 1,
                f"graph {i} ({g.name}) v={v} S={S}: capt(G)={vG}, capt(G-C)={vH}",
                g,
            )


def suite_unicyclic_bound(res: SuiteResult, seed: int = 42, count: int = 30, max_n: int = 12,
                          budget: int = DEFAULT_BUDGET) -> None:
    """Feedback certificates on unicyclic graphs: valid and cost <= 2*sqrt(n)+1."""
    for g in unicyclic_corpus(count, max_n, seed):
        cert = feedback_bound(g, budget=budget)
        outcome = certify_strategy(g, cert)
        cost = len(cert.placement) + cert.claimed_bound
        engine_val = solve_placement(g, cert.canonical(), budget=budget)[0]
        res.check(
            outcome.valid
            and engine_val <= cert.claimed_bound
            and cost <= 2 * math.sqrt(g.n) + 1,
            f"{g.name}: valid={outcome.valid} cost={cost} "
            f"bound={2 * math.sqrt(g.n) + 1:.2f} engine={engine_val}",
            g,
        )


def suite_certificates(res: SuiteResult, seed: int = 42, count: int = 25, max_n: int = 10,
                       budget: int = DEFAULT_BUDGET) -> None:
    """Every produced certificate validates and dominates the exact engine value."""

    def check_cert(g: Graph, cert: PlacementCertificate, label: str):
        outcome = certify_strategy(g, cert)
        engine_val = solve_placement(g, cert.canonical(), budget=budget)[0]
        res.check(
            outcome.valid and engine_val <= cert.claimed_bound,
            f"{label} on {g.name}: worst={outcome.worst_rounds} "
            f"claimed={cert.claimed_bound} engine={engine_val}",
            g,
        )

    for i, g in enumerate(connected_corpus(count, max_n, seed)):
        check_cert(g, staged_decomposition(g, 5, 2, 3, 3, 1, budget=budget), "staged(5,2,3,3,1)")
        check_cert(g, staged_decomposition(g, 3, 1, 4, 2, 1, budget=budget), "staged(3,1,4,2,1)")
        check_cert(g, staged_decomposition(g, budget=budget), "staged(defaults)")
        check_cert(g, feedback_bound(g, budget=budget), "feedback")
    for i, g in enumerate(chordal_corpus(count, max_n, seed)):
        radius = max(1, sqrt_ceil(g.n) - 1)
        cops = k_distance_dominating(g, radius)
        check_cert(g, ball_cover_strategy(g, cops, radius), "ball-cover")


def suite_star_lemma(res: SuiteResult, seed: int = 42, count: int = 20,
                     budget: int = DEFAULT_BUDGET) -> None:
    """Star attachment: every sampled member of S(P4) of order 9 has th_c <= 4.

    Instance of the lemma with alpha=1/2, k=3/2, t=9: th_c(P4)=3 <= k*sqrt(4)
    and t - t^alpha/(k(1-alpha)) = 5 > 4, so th_c(G') <= k*sqrt(t) = 4.5.
    """
    base = families.path(4)
    for i in range(count):
        rng = random.Random(f"{seed}:star:{i}")
        n_anchor = rng.randint(1, 4)
        anchors = {(rng.randint(0, 4), rng.randrange(base.n)) for _ in range(n_anchor)}
        g = families.attach_star(base, 4, sorted(anchors))
        assert g.n == 9
        rep = throttling_report(g, budget=budget)
        res.check(
            rep.th_sum <= 4,
            f"S(P4) sample {i} anchors {sorted(anchors)}: th_c = {rep.th_sum} > 4",
            g,
        )


def suite_lambert(res: SuiteResult, count: int = 60) -> None:
    """|W(x) e^W(x) - x| <= 1e-12 on a 60-point grid in [0.1, 1e6]."""
    with localcontext(Context(prec=40)):
        tol = Decimal("1e-12")
        for i in range(count):
            x = Decimal("0.1") * Decimal(10**7) ** (Decimal(i) / (count - 1))
            w = lambert_w(x)
            resid = abs(w * w.exp() - x)
            res.check(resid <= tol, f"x={float(x):.6g}: residual {float(resid):.3g}")
        res.check(lambert_w(0) == 0, "W(0) != 0")
        res.check(abs(lambert_w(Decimal(1).exp()) - 1) <= tol, "W(e) != 1")


def suite_m_ell(res: SuiteResult, budget: int = DEFAULT_BUDGET, ell: int = 7) -> None:
    """The M(ell) separation: th_prod unattainable at both c(G) and gamma(G) sizes."""
    g = families.m_ell(ell)
    res.check(g.n == 6 * ell + 8, f"order {g.n} != {6 * ell + 8}", g)
    gamma, _ = domination_number(g, budget=budget)
    res.check(gamma == 3 * ell + 4, f"gamma = {gamma} != {3 * ell + 4}", g)
    res.check(cop_number(g, budget=budget) == 2, "cop number != 2", g)
    c2, _ = capt_k(g, 2, budget=budget)
    res.check(
        is_finite(c2) and c2 >= ell + 2,
        f"capt_2(M({ell})) = {c2} < {ell + 2}",
        g,
    )
    res.check(
        2 * (1 + gamma) > 2 * (ell + 3),
        f"gamma placement work {2 * (1 + gamma)} not above {2 * (ell + 3)}",
        g,
    )
    try:
        placement = families.m_ell_cop_placement(ell)
    except ValueError:
        placement = None
        res.details.append(f"note: no three-cop placement for ell={ell} (needs ell >= 3)")
    if placement is not None:
        table3 = solve_k(g, 3, budget=budget)
        c3 = table3.placement_value(placement)
        res.check(
            c3 == (ell + 3 + 1) // 2,
            f"capt(M({ell}); {placement}) = {c3} != ceil((ell+3)/2)",
            g,
        )
        if ell >= 7:
            # the separation: three cops beat both the c(G)- and gamma-sized optima
            res.check(
                3 * (1 + c3) < 2 * (ell + 3),
                f"th_prod(M({ell}),3) = {3 * (1 + c3)} not < {2 * (ell + 3)}",
                g,
            )
        if ell == 7:
            res.check(2 * (1 + c2) >= 20, f"k=2 sweep gives {2 * (1 + c2)} < 20", g)
            res.check(3 * (1 + c3) <= 18, f"3-cop placement gives {3 * (1 + c3)} > 18", g)
            res.check(gamma == 25, f"gamma(M(7)) = {gamma} != 25", g)


SUITES: dict[str, Callable[..., None]] = {
    "chordal-capture": suite_chordal_capture,
    "prod-chordal": suite_prod_chordal,
    "prop-bounds": suite_prop_bounds,
    "low-thcx": suite_low_thcx,
    "iq": suite_iq,
    "outerplanar": suite_outerplanar,
    "meirmoon": suite_meirmoon,
    "guard-lemma": suite_guard_lemma,
    "corner-sandwich": suite_corner_sandwich,
    "tree-bound": suite_tree_bound,
    "unicyclic-bound": suite_unicyclic_bound,
    "star-lemma": suite_star_lemma,
    "m-ell": suite_m_ell,
    "certificates": suite_certificates,
    "lambert": suite_lambert,
    "boundary-corners": suite_boundary_corners,
}


def suite_options(name: str) -> tuple[str, ...]:
    """The options suite ``name`` reads: its keyword parameters after ``res``."""
    return tuple(inspect.signature(SUITES[name]).parameters)[1:]


def run_suite(name: str, **options) -> SuiteResult:
    """Run suite ``name`` on ``options``; an option it does not read raises TypeError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    res = SuiteResult(name)
    t0 = time.perf_counter()
    SUITES[name](res, **options)
    res.elapsed = time.perf_counter() - t0
    return res
