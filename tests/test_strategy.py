import math
import os
import random
import subprocess
import sys
from decimal import Context, Decimal, localcontext

import mpmath as mp
import pytest

from copthrottle import families
from copthrottle.engine import solve_placement
from copthrottle.graph import Graph, max_distance
from copthrottle.lambertw import LambertParams, lambert_w
from copthrottle.strategy import (
    PlacementCertificate,
    StrategyError,
    ball_cover_strategy,
    certify_strategy,
    feedback_bound,
    guard_placement,
    path_retraction,
    shadow_guard_simulate,
    staged_decomposition,
)
from copthrottle.verify import run_suite

from oracles import bisect_lambert_w


class TestLambert:
    def test_fixed_points(self):
        assert lambert_w(0) == 0
        with localcontext(Context(prec=40)):
            assert abs(lambert_w(Decimal(1).exp()) - 1) < Decimal("1e-12")

    def test_w_of_one_matches_bisection(self):
        assert abs(mp.mpf(str(lambert_w(1))) - bisect_lambert_w(1)) < mp.mpf("1e-12")
        assert abs(float(lambert_w(1)) - 0.567143290409784) < 1e-12

    def test_residual_grid(self):
        with localcontext(Context(prec=40)):
            for i in range(25):
                x = Decimal("0.1") * Decimal(10**7) ** (Decimal(i) / 24)
                w = lambert_w(x)
                assert abs(w * w.exp() - x) <= Decimal("1e-12")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lambert_w(-1)

    def test_params_consistency(self):
        # tau^(2 tau^2) = n, i.e. beta = sqrt(n)
        p = LambertParams.for_order(100)
        assert abs(p.beta - 10.0) < 1e-9
        assert abs(p.tau ** (2 * p.tau**2) - 100) < 1e-6

    def test_no_mpmath_import(self):
        script = (
            "import sys\n"
            "sys.modules['mpmath'] = None\n"
            "import copthrottle\n"
            "from copthrottle import families\n"
            "from copthrottle.lambertw import LambertParams\n"
            "from copthrottle.strategy import certify_strategy, staged_decomposition\n"
            "from copthrottle.verify import run_suite\n"
            "assert run_suite('lambert').failed == 0\n"
            "assert LambertParams.for_order(100).beta == 10.0\n"
            "g = families.grid(3, 4)\n"
            "assert certify_strategy(g, staged_decomposition(g)).valid\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(families.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestGuardPlacement:
    def test_spec_values(self):
        assert guard_placement(9, 2) == (3, 8)
        assert guard_placement(0, 1) == (1,)
        assert guard_placement(9, 1) == (2, 5, 8, 10)  # raw 11 clamps to 10

    def test_cover_property(self):
        for k in range(0, 31):
            for r in range(1, 6):
                posts = guard_placement(k, r)
                assert all(
                    any(abs(p - (i + 1)) <= r for p in posts) for i in range(k + 1)
                )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            guard_placement(-1, 1)
        with pytest.raises(ValueError):
            guard_placement(3, 0)


class TestPathRetraction:
    def test_c6(self):
        pr = path_retraction(families.cycle(6), [0, 1, 2, 3])
        assert pr.mapping[4] == 2 and pr.mapping[5] == 1

    def test_identity_on_path(self):
        pr = path_retraction(families.path(6), [1, 2, 3])
        assert all(pr.mapping[v] == v for v in (1, 2, 3))

    def test_k3_edge(self):
        pr = path_retraction(families.complete(3), [0, 1])
        assert pr.mapping[2] == 1

    def test_rejects_non_geodesic(self):
        with pytest.raises(ValueError):
            path_retraction(families.cycle(4), [0, 1, 2, 3])  # 0-3 is an edge


class TestShadowGuard:
    def test_p10(self):
        rounds, trace = shadow_guard_simulate(families.path(10), list(range(10)), 2)
        assert rounds <= 2 and trace

    def test_p1(self):
        assert shadow_guard_simulate(families.path(1), [0], 1)[0] == 0

    def test_c6(self):
        assert shadow_guard_simulate(families.cycle(6), [0, 1, 2, 3], 1)[0] <= 1

    def test_grid_host(self):
        # geodesic inside a grid; robber roams the whole grid
        g = families.grid(3, 4)
        from copthrottle.graph import geodesic_between

        p = geodesic_between(g, 0, 11)
        rounds, _ = shadow_guard_simulate(g, p, 2)
        assert rounds <= 2


class TestCertify:
    def test_valid_ball_cover(self):
        g = families.path(5)
        cert = ball_cover_strategy(g, {2}, 2)
        out = certify_strategy(g, cert)
        assert out.valid and out.worst_rounds == 2
        assert out.trace[0][1] in range(5)

    def test_static_cops_fail_on_c4(self):
        g = families.cycle(4)

        class Statue:
            placement = (0,)

            def initial_state(self):
                return ()

            def move(self, s, cops, robber):
                return cops, s

        cert = PlacementCertificate((0,), Statue(), claimed_bound=99)
        out = certify_strategy(g, cert)
        assert not out.valid and out.worst_rounds == math.inf

    def test_full_cover_zero_rounds(self):
        g = families.cycle(4)
        cert = ball_cover_strategy(families.path(4), range(4), 1)
        out = certify_strategy(families.path(4), cert)
        assert out.valid and out.worst_rounds == 0

    def test_illegal_strategy_rejected(self):
        g = families.path(4)

        class Teleporter:
            def initial_state(self):
                return ()

            def move(self, s, cops, robber):
                return (robber,), s  # jumps across the graph

        cert = PlacementCertificate((0,), Teleporter(), claimed_bound=5)
        with pytest.raises(StrategyError):
            certify_strategy(g, cert)


class TestBallCover:
    def test_spec_examples(self):
        cert = ball_cover_strategy(families.path(5), {2}, 2)
        assert cert.claimed_bound == 2
        cert = ball_cover_strategy(families.path(9), {2, 6}, 2)
        assert cert.claimed_bound == 2
        assert certify_strategy(families.path(9), cert).valid

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(ValueError):
            ball_cover_strategy(families.path(5), {0}, 1)

    def test_sound_against_engine(self):
        rng = random.Random(17)
        for seed in range(20):
            g = families.random_chordal(rng.randint(3, 9), seed)
            k = rng.randint(1, 3)
            cops = tuple(sorted(rng.sample(range(g.n), min(k, g.n))))
            radius = max_distance(g, cops)
            if radius == 0:
                continue
            cert = ball_cover_strategy(g, cops, radius)
            out = certify_strategy(g, cert)
            assert out.valid
            assert solve_placement(g, cops)[0] <= cert.claimed_bound


class TestFeedbackBound:
    def test_tree(self):
        g = families.random_tree(9, 5)
        cert = feedback_bound(g)
        cost = len(cert.placement) + cert.claimed_bound
        assert cost <= math.ceil(math.sqrt(9)) + math.isqrt(9) - 1
        assert certify_strategy(g, cert).valid

    def test_c4(self):
        cert = feedback_bound(families.cycle(4))
        assert certify_strategy(families.cycle(4), cert).valid
        assert any("feedback" in s for s in cert.stages)

    def test_unicyclic_cost(self):
        edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 9), (9, 10), (10, 11)]
        g = Graph(12, edges, name="C9+P3")
        cert = feedback_bound(g)
        out = certify_strategy(g, cert)
        cost = len(cert.placement) + cert.claimed_bound
        assert out.valid and cost <= 2 * math.sqrt(12) + 1

    def test_general_cost_bound(self):
        rng = random.Random(23)
        for _ in range(10):
            g = families.random_connected(rng.randint(3, 9), rng.randrange(10**6))
            cert = feedback_bound(g)
            f = int(cert.note.split("feedback number ")[1].split(";")[0])
            cost = len(cert.placement) + cert.claimed_bound
            assert cost <= 2 * math.sqrt(g.n) + f
            assert certify_strategy(g, cert).valid

    def test_certificates_suite_seed_2_within_default_budget(self):
        # an n = 9 feedback placement here needs a k = 6 table (9^7 cells)
        result = run_suite("certificates", seed=2, count=5, max_n=10)
        assert (result.passed, result.failed) == (25, 0)


class TestStaged:
    def test_p16_spec_params(self):
        g = families.path(16)
        cert = staged_decomposition(g, 8, 2, 4, 4, 1)
        out = certify_strategy(g, cert)
        assert out.valid
        assert solve_placement(g, cert.canonical())[0] <= cert.claimed_bound

    def test_star_phase_two(self):
        cert = staged_decomposition(families.star(9), 20, 2, 3, 20, 2)
        assert cert.placement == (0,) and cert.claimed_bound == 1
        assert certify_strategy(families.star(9), cert).valid

    def test_k2(self):
        cert = staged_decomposition(families.complete(2), 5, 2, 5, 1, 1)
        assert cert.claimed_bound <= 1
        assert certify_strategy(families.complete(2), cert).valid

    def test_defaults_from_lambert(self):
        g = families.grid(3, 4)
        cert = staged_decomposition(g)
        assert certify_strategy(g, cert).valid
        assert "params" in cert.note

    def test_random_sound(self):
        rng = random.Random(31)
        for _ in range(15):
            g = families.random_connected(rng.randint(3, 9), rng.randrange(10**6))
            cert = staged_decomposition(g, 4, 1, 3, 2, 1)
            out = certify_strategy(g, cert)
            assert out.valid
            assert solve_placement(g, cert.canonical())[0] <= cert.claimed_bound

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            staged_decomposition(families.empty(3), 2, 1, 2, 2, 1)

    def test_off_beat_robber_leaves_guard_in_place(self):
        # the robber's last move, 11 -> 5, leaves the beat of the stage that
        # guards 8..9 (5 was carved before that path), so its cop 5 stays on 9
        g = families.random_connected(13, 412461, p=0.3)
        cert = staged_decomposition(g, 1, 1, 2, 1, 1)
        out = certify_strategy(g, cert)
        assert cert.placement == (3, 4, 12, 6, 10, 9, 0)
        assert out.valid and out.worst_rounds == 3
        assert out.trace == [
            ((3, 4, 12, 6, 10, 9, 0), 11),
            ((3, 4, 12, 6, 7, 9, 0), 11),
            ((3, 4, 12, 6, 7, 9, 0), 11),
            ((3, 4, 12, 6, 7, 9, 8), 11),
            ((3, 4, 12, 6, 7, 9, 8), 5),
            ((3, 4, 12, 5, 7, 9, 11), 5),
        ]
