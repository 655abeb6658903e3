"""The strategy evaluator against a value-iteration oracle.

``certify_strategy`` and ``shadow_guard_simulate`` share one memoised
search; both are compared with ``oracles.fixed_strategy_worst_case``,
and every returned trace is replayed move by move.
"""

import math
import random

import pytest

from copthrottle import families, verify
from copthrottle.graph import geodesic_between
from copthrottle.strategy import (
    PlacementCertificate,
    StrategyError,
    certify_strategy,
    shadow_guard_simulate,
)

from oracles import PathChase, fixed_strategy_worst_case


def robber_in(cops, robber):
    return robber in cops


def assert_worst_case_play(g, placement, strategy, caught, worst, trace):
    """The trace follows the strategy with legal moves for exactly ``worst`` rounds."""
    if worst == math.inf:
        assert trace == []
        return
    closed = [set(g.adj[v]) | {v} for v in range(g.n)]
    cops, robber = trace[0]
    assert cops == tuple(placement)
    ss = strategy.initial_state()
    rounds, rest = 0, iter(trace[1:])
    while not caught(cops, robber):
        expected, ss = strategy.move(ss, cops, robber)
        assert all(b in closed[a] for a, b in zip(cops, expected))
        assert next(rest) == (tuple(expected), robber)
        cops, rounds = tuple(expected), rounds + 1
        if caught(cops, robber):
            break
        moved_cops, robber2 = next(rest)
        assert moved_cops == cops and robber2 in closed[robber]
        robber = robber2
    assert next(rest, None) is None
    assert rounds == worst


def certificates_suite_certs(monkeypatch):
    """Every (graph, certificate) the certificates suite checks at seed 42."""
    seen = []

    def record(g, cert):
        seen.append((g, cert))
        return certify_strategy(g, cert)

    monkeypatch.setattr(verify, "certify_strategy", record)
    verify.run_suite("certificates", seed=42, count=12, max_n=9)
    return seen


def test_certificates_suite_agrees_with_oracle(monkeypatch):
    pairs = certificates_suite_certs(monkeypatch)
    assert len(pairs) == 60
    for g, cert in pairs:
        out = certify_strategy(g, cert)
        want = fixed_strategy_worst_case(g, cert.placement, cert.strategy, robber_in)
        assert out.worst_rounds == want, (g.name, cert.stages)
        assert_worst_case_play(
            g, cert.placement, cert.strategy, robber_in, out.worst_rounds, out.trace
        )


class Statue:
    def initial_state(self):
        return ()

    def move(self, sstate, cops, robber):
        return cops, sstate


def test_statue_on_c4_is_a_robber_win():
    g = families.cycle(4)
    out = certify_strategy(g, PlacementCertificate((0,), Statue(), claimed_bound=99))
    assert fixed_strategy_worst_case(g, (0,), Statue(), robber_in) == math.inf
    assert out.worst_rounds == math.inf and not out.valid and out.trace == []


@pytest.mark.parametrize("seed", range(4))
def test_shadow_guard_agrees_with_oracle(seed):
    rng = random.Random(f"shadow-guard:{seed}")
    for _ in range(25):
        n = rng.randint(2, 12)
        g = families.random_connected(n, rng.randrange(10**6), p=rng.choice([0.2, 0.35, 0.5]))
        p = geodesic_between(g, rng.randrange(n), rng.randrange(n))
        chase = PathChase(g, p)
        for r in (1, 2, 3):
            posts = chase.posts(r)
            want = fixed_strategy_worst_case(g, posts, chase, chase.caught)
            if want == math.inf:
                with pytest.raises(StrategyError):
                    shadow_guard_simulate(g, p, r)
                continue
            rounds, trace = shadow_guard_simulate(g, p, r)
            assert rounds == want <= r
            assert_worst_case_play(g, posts, chase, chase.caught, rounds, trace)
