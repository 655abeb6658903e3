import random

from copthrottle import families
from copthrottle.engine import ROBBER_WINS
from copthrottle.throttling import (
    ThrottlingRow,
    check_iq_proposition,
    classify_thprod_low,
    iq_pairs,
    throttling_points,
    throttling_report,
)


class TestReport:
    def test_p9(self):
        r = throttling_report(families.path(9))
        assert r.th_sum == 4 and r.th_prod == 5
        assert r.th_prod_k == 1
        assert r.cop_number == 1

    def test_k5(self):
        r = throttling_report(families.complete(5))
        assert (r.th_sum, r.th_prod) == (2, 2)

    def test_c4(self):
        r = throttling_report(families.cycle(4))
        assert (r.th_sum, r.th_prod) == (3, 4)
        # one cop loses on C4: the row is a robber win throughout
        assert r.rows[0] == ThrottlingRow(1, ROBBER_WINS, ROBBER_WINS, ROBBER_WINS, None)
        row = r.to_json_obj()["rows"][0]
        assert row == {"k": 1, "capt": "inf", "th_sum": "inf", "th_prod": "inf", "witness": None}

    def test_small_orders(self):
        assert throttling_report(families.complete(1)).th_sum == 1
        r3 = throttling_report(families.empty(3))
        assert (r3.th_sum, r3.th_prod) == (3, 3)
        r = throttling_report(
            families.disjoint_union(families.complete(1), families.complete(2))
        )
        assert (r.th_sum, r.th_prod) == (3, 3)

    def test_k_max_truncation_flag(self):
        r = throttling_report(families.path(9), k_max=1)
        assert not r.complete
        full = throttling_report(families.path(9), k_max=6)
        assert full.complete and full.th_sum == 4

    def test_csv_schema(self):
        csv = throttling_report(families.cycle(4)).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "k,capt_k,th_sum_k,th_prod_k,witness"
        assert lines[1].startswith("1,inf,inf,inf,")
        assert lines[2].split(",")[:4] == ["2", "1", "3", "4"]

    def test_json_mirrors(self):
        obj = throttling_report(families.path(5)).to_json_obj()
        assert obj["th_sum"] == 3 and obj["th_prod"] == 3
        # k=1 already attains both optima, so the pruned sweep stops there
        assert [row["k"] for row in obj["rows"]] == [1]
        assert obj["rows"][0]["witness"] == [2]

    def test_remark_equality_iff_extreme_k(self):
        rng = random.Random(11)
        for _ in range(30):
            g = families.random_connected(rng.randint(2, 8), rng.randrange(10**6))
            r = throttling_report(g)
            extreme = r.sum_attained_with_one_cop or r.sum_attained_with_all_vertices
            assert (r.th_prod == r.th_sum) == extreme


class TestPruningSoundness:
    def test_report_matches_unpruned_sweep(self):
        # the pruned k-sweep must agree with a brute-force sweep over every
        # cop count, including the all-vertices row
        rng = random.Random(77)
        from copthrottle.engine import TABLE_INF, cop_number, solve_k

        for _ in range(25):
            n = rng.randint(1, 7)
            g = (
                families.random_connected(n, rng.randrange(10**6))
                if rng.random() < 0.8 or n < 2
                else families.empty(n)
            )
            best_sum, best_prod = g.n, g.n  # cop on every vertex
            for k in range(1, g.n + 1):
                per_config = solve_k(g, k).placement_values()
                capt = int(per_config.min())
                if capt >= TABLE_INF:
                    continue
                best_sum = min(best_sum, k + capt)
                best_prod = min(best_prod, k * (1 + capt))
            rep = throttling_report(g)
            assert (rep.th_sum, rep.th_prod) == (best_sum, best_prod), g.edges()
            assert rep.cop_number == cop_number(g), g.edges()


class TestPoints:
    def test_p9(self):
        pts = throttling_points(families.path(9))
        assert {(p.k, p.p) for p in pts if p.sum_minimum} == {(2, 2), (3, 1)}
        assert {(p.k, p.p) for p in pts if p.product_minimum} == {(1, 4)}

    def test_k2(self):
        pts = throttling_points(families.complete(2))
        index = {(p.k, p.p): p for p in pts}
        assert index[(1, 1)].sum_minimum and index[(2, 0)].sum_minimum
        assert index[(1, 1)].product_minimum

    def test_k1(self):
        pts = throttling_points(families.complete(1))
        assert [(p.k, p.p) for p in pts] == [(1, 0)]

    def test_achievability(self):
        # every reported point comes from some placement's exact capture value
        g = families.cycle(5)
        pts = throttling_points(g)
        from copthrottle.engine import solve_k

        for p in pts:
            table = solve_k(g, p.k)
            values = {int(v) for v in table.placement_values()}
            assert p.p in values


class TestIQ:
    def test_iq_pairs(self):
        assert iq_pairs(1) == {(1, 0)}
        assert iq_pairs(2) == {(1, 1), (2, 0)}
        assert iq_pairs(5) == {(3, 2)}
        assert iq_pairs(6) == {(3, 3), (4, 2)}

    def test_examples(self):
        k2 = check_iq_proposition(families.complete(2))
        assert k2.left and k2.right and k2.holds
        p9 = check_iq_proposition(families.path(9))
        assert not p9.left and not p9.right and p9.holds
        k1 = check_iq_proposition(families.complete(1))
        assert k1.left and k1.right and k1.holds


class TestClassify:
    def test_named_cases(self):
        assert classify_thprod_low(families.complete(1)).case == "1"
        assert classify_thprod_low(families.empty(2)).case == "2"
        assert classify_thprod_low(families.star(4)).value == 2
        assert classify_thprod_low(families.empty(3)).case == "3a"
        k1k2 = families.disjoint_union(families.complete(1), families.complete(2))
        assert classify_thprod_low(k1k2).value == 3
        assert classify_thprod_low(families.cycle(4)).case == "4a"
        assert classify_thprod_low(families.path(9)).value is None

    def test_p4_via_one_cop_two_rounds(self):
        # gamma(P4) = 2 but one cop captures in 2, so the product optimum is 3
        out = classify_thprod_low(families.path(4))
        assert out.value == 3 and out.case == "3b"
        assert throttling_report(families.path(4)).th_prod == 3

    def test_cycle6_case_4c(self):
        # C6: cop number 2; gamma 2 -> case 4b fires
        assert classify_thprod_low(families.cycle(6)).value == 4

    def test_agrees_with_exact_on_random(self):
        rng = random.Random(5)
        for _ in range(40):
            g = families.random_connected(rng.randint(2, 9), rng.randrange(10**6))
            out = classify_thprod_low(g)
            exact = throttling_report(g).th_prod
            if out.value is None:
                assert exact >= 5
            else:
                assert exact == out.value
