"""Sum and product cop throttling.

th_c(G) = min_k (k + capt_k(G)) and th_prod(G) = min_k k(1 + capt_k(G)),
both computed exactly from the game engine's per-k tables.  Robber-win
rows never participate in minima (infinity is absorbing under + and *).

Two facts close the k-sweep early and keep it exact: placing a cop on
every vertex gives capt_n = 0, so k = n always achieves sum and product
n; and any k < n leaves an uncovered vertex, so capt_k >= 1, giving
th_sum(k) >= k + 1 and th_prod(k) >= 2k.  Once neither bound can beat the
incumbents the sweep stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import (
    GameValue,
    ROBBER_WINS,
    TABLE_INF,
    capt_k,
    cop_number,
    is_finite,
    solve_k,
    value_to_json,
)
from .graph import BudgetExceeded, DEFAULT_BUDGET, Graph, distance_matrix, domination_number


@dataclass(frozen=True)
class ThrottlingRow:
    """One evaluated cop count: capt_k plus its sum/product contributions."""

    k: int
    capt: GameValue
    th_sum: GameValue
    th_prod: GameValue
    witness: Optional[tuple[int, ...]]


@dataclass
class ThrottlingReport:
    graph: Graph
    rows: list[ThrottlingRow]
    cop_number: int
    th_sum: int
    th_prod: int
    th_sum_k: int
    th_prod_k: int
    th_sum_witness: tuple[int, ...]
    th_prod_witness: tuple[int, ...]
    complete: bool

    @property
    def sum_attained_with_one_cop(self) -> bool:
        return bool(self.rows) and self.rows[0].th_sum == self.th_sum

    @property
    def sum_attained_with_all_vertices(self) -> bool:
        return self.th_sum == self.graph.n

    def to_json_obj(self) -> dict:
        return {
            "graph": {"n": self.graph.n, "name": self.graph.name},
            "rows": [
                {
                    "k": r.k,
                    "capt": value_to_json(r.capt),
                    "th_sum": value_to_json(r.th_sum),
                    "th_prod": value_to_json(r.th_prod),
                    "witness": list(r.witness) if r.witness is not None else None,
                }
                for r in self.rows
            ],
            "cop_number": self.cop_number,
            "th_sum": self.th_sum,
            "th_prod": self.th_prod,
            "th_sum_k": self.th_sum_k,
            "th_prod_k": self.th_prod_k,
            "th_sum_witness": list(self.th_sum_witness),
            "th_prod_witness": list(self.th_prod_witness),
            "complete": self.complete,
        }

    def to_csv(self) -> str:
        lines = ["k,capt_k,th_sum_k,th_prod_k,witness"]
        for r in self.rows:
            wit = " ".join(map(str, r.witness)) if r.witness is not None else ""
            lines.append(
                f"{r.k},{value_to_json(r.capt)},{value_to_json(r.th_sum)},"
                f"{value_to_json(r.th_prod)},{wit}"
            )
        return "\n".join(lines) + "\n"


def throttling_report(
    g: Graph,
    k_max: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> ThrottlingReport:
    """Exact th_c and th_prod with witnesses, plus the evaluated per-k rows.

    With ``k_max`` unset the sweep prunes as soon as no further k can
    improve either aggregate (always exact).  An explicit ``k_max``
    evaluates every k up to it instead; the report is marked incomplete
    if that cap stopped the sweep before the pruning rule did.
    """
    n = g.n
    if n == 0:
        raise ValueError("throttling is undefined on the empty graph")
    all_vertices = tuple(range(n))
    best_sum, sum_k, sum_wit = n, n, all_vertices
    best_prod, prod_k, prod_wit = n, n, all_vertices

    rows: list[ThrottlingRow] = []
    cap = n if k_max is None else min(k_max, n)
    truncated = False
    k = 1
    while k <= cap:
        prunable = k > 1 and k + 1 >= best_sum and 2 * k >= best_prod
        if k_max is None and prunable:
            break
        try:
            capt, witness = capt_k(g, k, budget=budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"throttling_report (open k-range {k}..{cap})",
                exc.required,
                exc.budget,
            ) from exc
        if is_finite(capt):
            s = k + int(capt)
            p = k * (1 + int(capt))
            rows.append(ThrottlingRow(k, int(capt), s, p, witness))
            if s < best_sum or (s == best_sum and k < sum_k):
                best_sum, sum_k, sum_wit = s, k, witness
            if p < best_prod or (p == best_prod and k < prod_k):
                best_prod, prod_k, prod_wit = p, k, witness
        else:
            rows.append(ThrottlingRow(k, ROBBER_WINS, ROBBER_WINS, ROBBER_WINS, None))
        k += 1
    else:
        if k_max is not None and cap < n:
            truncated = not (cap + 2 >= best_sum and 2 * (cap + 1) >= best_prod)

    # c(G) is the least k with capt_k finite; solve for it only if no row is
    cops = next((r.k for r in rows if is_finite(r.capt)), None)
    if cops is None:
        cops = cop_number(g, budget=budget)
    return ThrottlingReport(
        graph=g,
        rows=rows,
        cop_number=cops,
        th_sum=best_sum,
        th_prod=best_prod,
        th_sum_k=sum_k,
        th_prod_k=prod_k,
        th_sum_witness=sum_wit,
        th_prod_witness=prod_wit,
        complete=not truncated,
    )


@dataclass(frozen=True)
class ThrottlingPoint:
    """An achievable pair: some size-k placement has capture time exactly p."""

    k: int
    p: int
    sum_minimum: bool
    product_minimum: bool


def throttling_points(
    g: Graph,
    report: Optional[ThrottlingReport] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[ThrottlingPoint]:
    """All achievable (k, p) pairs for k up to th_c(G), with minimality flags.

    Achievability comes from the full multiset of per-placement capture
    values at each k, not only the optimum.
    """
    if report is None:
        report = throttling_report(g, budget=budget)
    points: list[ThrottlingPoint] = []
    for k in range(1, min(g.n, report.th_sum) + 1):
        table = solve_k(g, k, budget=budget)
        values = table.placement_values()
        # distinct finite values in increasing order; np.unique would import numpy.ma
        for p in np.flatnonzero(np.bincount(values[values < TABLE_INF])).tolist():
            points.append(
                ThrottlingPoint(
                    k,
                    p,
                    sum_minimum=(k + p == report.th_sum),
                    product_minimum=(k * (1 + p) == report.th_prod),
                )
            )
    return points


def iq_pairs(q: int) -> set[tuple[int, int]]:
    """The integer AM-GM equality pairs I(q)."""
    if q % 2 == 1:
        return {((q + 1) // 2, (q - 1) // 2)}
    return {(q // 2, q // 2), ((q + 2) // 2, (q - 2) // 2)}


@dataclass
class IQCheck:
    holds: bool
    left: bool
    right: bool
    q: int
    th_prod: int
    iq_set: set[tuple[int, int]]
    sum_min_points: list[tuple[int, int]]
    product_overlap: list[tuple[int, int]]


def check_iq_proposition(g: Graph, budget: int = DEFAULT_BUDGET) -> IQCheck:
    """Both sides of the I(q) equivalence.

    Left: th_prod(G) = floor((q+1)^2 / 4) with q = th_c(G).  Right: every
    sum-minimum throttling point lies in I(q) and at least one of them is
    also product-minimum.  The proposition asserts left iff right, so
    ``holds`` must come back True on every graph.
    """
    report = throttling_report(g, budget=budget)
    q = report.th_sum
    points = throttling_points(g, report=report, budget=budget)
    iq = iq_pairs(q)
    sum_min = [(pt.k, pt.p) for pt in points if pt.sum_minimum]
    overlap = [(pt.k, pt.p) for pt in points if pt.sum_minimum and pt.product_minimum]
    left = report.th_prod == ((q + 1) ** 2) // 4
    right = bool(sum_min) and all(pt in iq for pt in sum_min) and bool(overlap)
    return IQCheck(
        holds=(left == right),
        left=left,
        right=right,
        q=q,
        th_prod=report.th_prod,
        iq_set=iq,
        sum_min_points=sum_min,
        product_overlap=overlap,
    )


@dataclass
class LowProductClassification:
    """Outcome of the structural low-product-throttling characterization."""

    value: Optional[int]  # 1, 2, 3, 4, or None for "at least 5"
    case: Optional[str]
    z_witness: Optional[int] = None
    ambiguous_3b: bool = False


def classify_thprod_low(g: Graph, budget: int = DEFAULT_BUDGET) -> LowProductClassification:
    """Predict th_prod(G) in {1,2,3,4} from structure alone, or None for >= 5.

    Only case 4(c) (cop-win with capture time exactly 3) consults the
    game engine.  Two readings fixed against the printed case analysis:
    the 3(b) premise "gamma(G) >= 3" is dropped, because the z-condition
    characterizes one-cop capture within 2 rounds regardless of the
    domination number (P4 has gamma 2 yet product throttling 3, through
    one cop and two rounds, which the printed cases misassign to 4); and
    the 3(b) dominator u is drawn from the open neighborhood N(z) with
    non-strict containment, with ``ambiguous_3b`` flagging any graph
    where the alternative reading (u in N[z], strict) would disagree.
    """
    n = g.n
    if n == 1:
        return LowProductClassification(1, "1")
    gamma, _ = domination_number(g, budget=budget)
    if n == 2 and g.m == 0:
        return LowProductClassification(2, "2")
    if gamma == 1:
        return LowProductClassification(2, "2")
    if n == 3 and g.m <= 1:
        return LowProductClassification(3, "3a")
    hit, z, ambiguous = _case_3b(g)
    if hit:
        return LowProductClassification(3, "3b", z_witness=z, ambiguous_3b=ambiguous)
    if n == 4 and gamma >= 2:
        return LowProductClassification(4, "4a")
    if gamma == 2 and n >= 4:
        return LowProductClassification(4, "4b")
    capt1, _ = capt_k(g, 1, budget=budget)
    if is_finite(capt1) and capt1 == 3:
        return LowProductClassification(4, "4c")
    return LowProductClassification(None, None)


def _case_3b(g: Graph) -> tuple[bool, Optional[int], bool]:
    # finite distances are below n, which marks unreachable pairs
    far = distance_matrix(g).max(axis=1) > min(2, g.n - 1)
    verdict_open: Optional[int] = None
    verdict_alt: Optional[int] = None
    for z in range(g.n):
        if far[z]:
            continue
        closed_z = g.nbr[z] | {z}
        outside = [w for w in range(g.n) if w not in closed_z]

        def cornered(w: int, dominators, strict: bool) -> bool:
            cw = g.nbr[w] | {w}
            for u in dominators:
                cu = g.nbr[u] | {u}
                if cw <= cu and (not strict or cw != cu):
                    return True
            return False

        if verdict_open is None and all(
            cornered(w, g.adj[z], strict=False) for w in outside
        ):
            verdict_open = z
        if verdict_alt is None and all(
            cornered(w, sorted(closed_z), strict=True) for w in outside
        ):
            verdict_alt = z
        if verdict_open is not None and verdict_alt is not None:
            break
    hit = verdict_open is not None
    ambiguous = hit != (verdict_alt is not None)
    return hit, verdict_open, ambiguous
