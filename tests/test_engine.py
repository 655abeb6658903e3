import copy
import itertools
import json
import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from copthrottle import engine, families
from copthrottle.engine import (
    GameState,
    ROBBER_WINS,
    TABLE_INF,
    canonical_config,
    capt_k,
    cop_number,
    optimal_moves,
    solve_k,
    solve_placement,
    team_moves,
    value_to_json,
)
from copthrottle.graph import BudgetExceeded, Graph, distance_matrix

import oracles
from oracles import (
    BIG,
    all_small_graphs,
    minimax_capture,
    ordered_tuple_table,
    reference_table,
)


class TestGameValues:
    def test_total_order(self):
        assert 0 < 3 < ROBBER_WINS
        assert value_to_json(ROBBER_WINS) == "inf"
        assert value_to_json(4) == 4

    def test_absorbing_arithmetic(self):
        assert 2 + ROBBER_WINS == ROBBER_WINS
        assert 3 * (1 + ROBBER_WINS) == ROBBER_WINS

    def test_canonical_config(self):
        assert canonical_config([3, 1, 1]) == (1, 1, 3)
        with pytest.raises(ValueError):
            canonical_config([])


class TestSolvePlacement:
    def test_p5_center(self):
        value, table = solve_placement(families.path(5), (2,))
        assert value == 2

    def test_c4_single_cop_loses(self):
        assert solve_placement(families.cycle(4), (0,))[0] == ROBBER_WINS

    def test_k1_zero_rounds(self):
        assert solve_placement(families.complete(1), (0,))[0] == 0

    def test_c4_antipodal_pair(self):
        assert solve_placement(families.cycle(4), (0, 2))[0] == 1

    def test_all_vertices_zero(self):
        g = families.cycle(5)
        assert solve_placement(g, tuple(range(5)))[0] == 0

    def test_duplicate_cops_legal(self):
        assert solve_placement(families.complete(2), (0, 0))[0] == 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            solve_k(families.grid(3, 4), 4, budget=100)

    def test_default_budget_fails_fast(self):
        # largest layer C(32,3)^2 * 30 ~ 7.4e8 cells: charged up front, so the
        # refusal costs no work
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            solve_k(families.path(30), 6)
        assert time.perf_counter() - t0 < 1.0

    def test_state_value_rejects_out_of_range_robber(self):
        table = solve_k(families.path(5), 1)
        assert table.state_value((0,), 4) == 4
        for robber in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                table.state_value((0,), robber)

    def test_table_json_export(self):
        _, table = solve_placement(families.path(3), (1,))
        rows = table.to_json_obj()
        assert [[1], 1, 0] in rows
        assert all(len(r) == 3 for r in rows)
        json.dumps(rows)  # serializable as-is


class TestCaptK:
    def test_p9_two_cops(self):
        value, witness = capt_k(families.path(9), 2)
        assert value == 2

    def test_c5_two_cops(self):
        assert capt_k(families.cycle(5), 2)[0] == 1

    def test_c4_one_cop(self):
        value, witness = capt_k(families.cycle(4), 1)
        assert value == ROBBER_WINS and witness is None

    def test_witness_is_lex_least(self):
        value, witness = capt_k(families.path(5), 1)
        assert value == 2 and witness == (2,)  # the center is the unique optimum
        value, witness = capt_k(families.cycle(4), 2)
        assert value == 1 and witness == (0, 1)  # ties break to the least config

    def test_sets_only_mode(self):
        g = families.path(6)
        full, _ = capt_k(g, 2)
        sets_only, _ = capt_k(g, 2, sets_only=True)
        assert full <= sets_only

    def test_matches_first_least_placement_value(self):
        # capt_k, with and without sets_only, against a scan of placement_value
        # over the configurations in lexicographic order: every k on every
        # graph with at most 5 vertices, k <= 5 on seeded random 6- and 7-vertex ones
        rng = random.Random(18)
        graphs = [g for n in range(1, 6) for g in all_small_graphs(n)]
        for n in (6, 7):
            for _ in range(12):
                pairs = itertools.combinations(range(n), 2)
                graphs.append(Graph(n, [e for e in pairs if rng.random() < 0.45]))
        for g in graphs:
            for k in range(1, min(g.n, 5) + 1):
                table = solve_k(g, k)
                values = [table.placement_value(c) for c in table.configs]
                for sets_only in (False, True):
                    best, witness = ROBBER_WINS, None
                    for c, v in zip(table.configs, values):
                        if v < best and not (sets_only and len(set(c)) < k):
                            best, witness = v, c
                    assert capt_k(g, k, sets_only=sets_only, table=table) == (best, witness)


class TestCopNumber:
    def test_tree(self):
        assert cop_number(families.random_tree(9, 7)) == 1

    def test_c4(self):
        assert cop_number(families.cycle(4)) == 2

    def test_petersen(self):
        assert cop_number(families.petersen()) == 3

    def test_disconnected_sums(self):
        g = families.disjoint_union(families.cycle(4), families.cycle(4))
        assert cop_number(g) == 4
        assert cop_number(families.empty(3)) == 3


class TestOptimalMoves:
    def test_cop_closes_in(self):
        g = families.path(5)
        _, table = solve_placement(g, (2,))
        moves = optimal_moves(g, table, GameState((2,), 0), "cops")
        assert moves[0] == (1,)

    def test_terminal_empty(self):
        g = families.path(3)
        _, table = solve_placement(g, (1,))
        assert optimal_moves(g, table, GameState((1,), 1), "cops") == []

    def test_k2_capture(self):
        g = families.complete(2)
        _, table = solve_placement(g, (0,))
        assert optimal_moves(g, table, GameState((0,), 1), "cops") == [(1,)]

    def test_robber_runs_away(self):
        g = families.path(5)
        _, table = solve_placement(g, (2,))
        moves = optimal_moves(g, table, GameState((1,), 2), "robber")
        assert moves == [3]

    def test_unknown_state(self):
        g = families.path(3)
        _, table = solve_placement(g, (1,))
        with pytest.raises(KeyError):
            optimal_moves(g, table, GameState((0, 1), 2), "cops")


class TestOracleAgreement:
    def test_exhaustive_n4(self):
        # engine value of every single-cop placement vs plain minimax
        for g in all_small_graphs(4):
            table = solve_k(g, 1)
            for v in range(g.n):
                want = minimax_capture(g, (v,), 2 * g.n)
                got = table.placement_value((v,))
                assert (want if want < BIG else ROBBER_WINS) == got

    def test_random_n5_n6_k2(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.choice([5, 6])
            g = families.random_connected(n, rng.randrange(10**6))
            table = solve_k(g, 2)
            for _ in range(4):
                S = tuple(sorted(rng.choices(range(n), k=2)))
                want = minimax_capture(g, S, 2 * n)
                got = table.placement_value(S)
                assert (want if want < BIG else ROBBER_WINS) == got


def assert_matches_reference(g, k):
    table = solve_k(g, k)
    ref = reference_table(g, k)
    assert table.configs == list(ref)
    want = np.array([ref[c] for c in table.configs])
    want[want == BIG] = TABLE_INF
    assert table.values.dtype == np.int32
    assert np.array_equal(table.values, want)
    assert np.array_equal(table.placement_values(), want.max(axis=1))


class TestReferenceSolver:
    """Every cell of solve_k, robber wins included, against plain value iteration."""

    def test_every_graph_on_five_vertices(self):
        for g in all_small_graphs(5):
            for k in (1, 2, 3):
                assert_matches_reference(g, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.floats(0, 1), st.integers(0, 10**6), st.integers(1, 4))
    @example(n=7, p=0.0, seed=0, k=3)  # edgeless
    @example(n=6, p=0.3, seed=11, k=4)  # disconnected
    def test_random_gnp(self, n, p, seed, k):
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        assert_matches_reference(Graph(n, edges), k)


def random_graph(rng, n, p, connected=False):
    """G(n, p) on a seeded rng; with ``connected``, plus a random spanning tree."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    if connected:
        edges |= {(rng.randrange(v), v) for v in range(1, n)}
    return Graph(n, edges)


DISCONNECTED = [
    families.empty(3),
    families.disjoint_union(families.path(3), families.path(2)),
    families.disjoint_union(families.cycle(4), families.complete(1)),
    families.disjoint_union(families.cycle(4), families.cycle(4)),
]


class TestTeamMoves:
    def test_against_product_of_closed_neighbourhoods(self):
        graphs = [g for n in range(1, 6) for g in all_small_graphs(n)] + DISCONNECTED
        for g in graphs:
            for k in (1, 2, 3):
                for config in itertools.combinations_with_replacement(range(g.n), k):
                    assert team_moves(g, config) == sorted(oracles.team_moves(g, config))

    def test_unsorted_input(self):
        # C4 0-1-2-3-0: the pair (2, 0) reaches (2, 3) only by 0 -> 3 and 2 -> 2
        moves = team_moves(families.cycle(4), (2, 0))
        assert (2, 3) in moves and (0, 0) not in moves


class TestLayeredKernel:
    """The multiset-layer tables against independent slow paths."""

    def test_random_graphs_every_k_up_to_three(self):
        rng = random.Random(2026)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            for k in (1, 2, 3):
                assert_matches_reference(g, k)

    def test_disconnected_graphs(self):
        for g in DISCONNECTED:
            for k in (1, 2, 3):
                assert_matches_reference(g, k)

    def test_p16_five_cops_against_ordered_tuples(self):
        g = families.path(16)
        table = solve_k(g, 5)
        want = ordered_tuple_table(g, 5)
        want[want == BIG] = TABLE_INF
        assert np.array_equal(table.values, want)

    def test_c24_five_cops_under_default_budget(self):
        value, witness = capt_k(families.cycle(24), 5)
        assert value == 2 and len(witness) == 5

    def test_rank_is_config_order(self):
        table = solve_k(families.path(6), 3)
        assert [table.rank(c) for c in table.configs] == list(range(len(table.configs)))
        assert table.rank((5, 0, 2)) == table.configs.index((0, 2, 5))
        for bad in [(0, 1), (0, 1, 2, 3), (0, 1, 6), (-1, 0, 1)]:
            with pytest.raises(KeyError):
                table.rank(bad)

    def test_rank_keys_past_int64(self):
        # 3**45 > 2**63: the mixed-radix keys must not wrap
        rows = np.array(list(itertools.combinations_with_replacement(range(3), 45)))
        assert (engine._rank(rows[::-7], rows, 3) == np.arange(len(rows))[::-7]).all()
        table = solve_k(families.path(3), 45)
        # every cop on vertex 0 against a robber on 2: the cops split, then capture
        assert table.state_value((0,) * 45, 2) == 2
        assert table.placement_values().max() == 2

    def test_few_vertices_many_cops(self):
        # a packed row (8 bytes) outweighs its 7 cells here, past the 1 MiB floor
        table = solve_k(families.cycle(7), 10)
        assert (table.values < TABLE_INF).all()
        assert capt_k(families.cycle(7), 10, table=table) == (0, (0, 0, 0, 0, 1, 2, 3, 4, 5, 6))

    def test_configs_are_shared_and_read_only(self):
        g = families.cycle(5)
        a, b = solve_k(g, 2), solve_k(families.path(5), 2)
        assert isinstance(a.configs, list) and a.configs is b.configs
        assert a.configs == list(itertools.combinations_with_replacement(range(5), 2))
        for change in (
            lambda c: c.pop(),
            lambda c: c.append((0, 0)),
            lambda c: c.__setitem__(0, (4, 4)),
            lambda c: c.__delitem__(0),
            lambda c: c.sort(reverse=True),
            lambda c: c.__iadd__([(0, 0)]),
        ):
            with pytest.raises(TypeError):
                change(a.configs)
        assert len(b.configs) == 15 and b.configs[0] == (0, 0)
        # a copied or unpickled table keeps its configurations
        assert copy.deepcopy(a).configs == a.configs == pickle.loads(pickle.dumps(a)).configs

    def test_optimal_moves_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 6), rng.random())
            for k in (1, 2, 3):
                table, ref = solve_k(g, k), reference_table(g, k)
                for config in ref:
                    for r in range(g.n):
                        if r in config:
                            continue
                        scored = {
                            c2: 0 if r in c2 else max(ref[c2][r2] for r2 in g.closed[r])
                            for c2 in oracles.team_moves(g, config)
                        }
                        best = min(scored.values())
                        want = sorted(c2 for c2, v in scored.items() if v == best)
                        assert optimal_moves(g, table, GameState(config, r), "cops") == want
                        row = ref[config]
                        worst = max(row[r2] for r2 in g.closed[r])
                        want_r = [r2 for r2 in g.closed[r] if row[r2] == worst]
                        assert optimal_moves(g, table, GameState(config, r), "robber") == want_r

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.floats(0, 1), st.integers(0, 10**6))
    def test_capture_time_at_least_distance(self, n, p, seed):
        # capt(G;S) >= max_v d(v,S) on any connected graph, not only chordal ones
        g = random_graph(random.Random(seed), n, p, connected=True)
        dist = distance_matrix(g)
        for k in (1, 2, 3):
            table = solve_k(g, k)
            farthest = dist[np.array(table.configs)].min(axis=1).max(axis=1)
            assert (table.placement_values() >= farthest).all()


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 7))
    def test_more_cops_never_hurt(self, seed, n):
        g = families.random_connected(n, seed)
        v1, _ = capt_k(g, 1)
        v2, _ = capt_k(g, 2)
        v3, _ = capt_k(g, 3)
        assert v3 <= v2 <= v1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 6))
    def test_superset_placements(self, seed, n):
        g = families.random_connected(n, seed)
        rng = random.Random(seed)
        small = tuple(sorted(rng.choices(range(n), k=1)))
        big = tuple(sorted(small + (rng.randrange(n),)))
        v_small, _ = solve_placement(g, small)
        v_big, _ = solve_placement(g, big)
        assert v_big <= v_small

    def test_capt_n_zero(self):
        g = families.cycle(6)
        assert capt_k(g, 6)[0] == 0


def test_multiset_vs_set_optimum_record():
    """Open question probe: on a seeded sweep, do duplicate-cop placements
    ever beat every duplicate-free one?  Recorded, not assumed."""
    rng = random.Random(4242)
    beaten = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        g = families.random_connected(n, rng.randrange(10**6))
        k = rng.randint(2, min(3, n))
        full, _ = capt_k(g, k)
        restricted, _ = capt_k(g, k, sets_only=True)
        assert full <= restricted
        if full < restricted:
            beaten += 1
    # no instance seen where multisets strictly win; surface loudly if one appears
    assert beaten == 0, f"duplicate cops strictly beat all sets on {beaten} instances"
