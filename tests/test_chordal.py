import random

import pytest

from copthrottle import families
from copthrottle.chordal import chordal_throttling, lexbfs_order, retraction_onto, sqrt_ceil
from copthrottle.engine import solve_placement
from copthrottle.graph import Graph, distances_from, geodesic_between, max_distance
from copthrottle.verify import chordal_corpus
from oracles import peel_retraction


class TestLexBFS:
    def test_trees_chordal(self):
        for seed in range(6):
            assert lexbfs_order(families.random_tree(9, seed)).chordal

    def test_c4_witness(self):
        out = lexbfs_order(families.cycle(4))
        assert not out.chordal
        w = out.cycle_witness
        assert len(w) >= 4 and sorted(w) == [0, 1, 2, 3]

    def test_c4_plus_chord(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert lexbfs_order(g).chordal

    def test_witness_is_induced_cycle(self):
        for n in (4, 5, 6, 7):
            out = lexbfs_order(families.cycle(n))
            w = out.cycle_witness
            assert w is not None and len(w) >= 4
            g = families.cycle(n)
            # consecutive adjacency around the witness, no chords
            m = len(w)
            for i in range(m):
                assert g.has_edge(w[i], w[(i + 1) % m])
            for i in range(m):
                for j in range(i + 2, m):
                    if (i, j) != (0, m - 1):
                        assert not g.has_edge(w[i], w[j])

    def test_random_nonchordal_witnesses(self):
        rng = random.Random(7)
        found = 0
        for _ in range(40):
            g = families.random_connected(8, rng.randrange(10**6))
            out = lexbfs_order(g)
            if out.chordal:
                continue
            found += 1
            w = out.cycle_witness
            m = len(w)
            assert m >= 4
            for i in range(m):
                assert g.has_edge(w[i], w[(i + 1) % m])
                for j in range(i + 2, m):
                    if (i, j) != (0, m - 1):
                        assert not g.has_edge(w[i], w[j])
        assert found > 0

    def test_agrees_with_construction(self):
        for seed in range(10):
            assert lexbfs_order(families.random_chordal(10, seed)).chordal

    def test_json_exports(self):
        import json

        o = lexbfs_order(families.cycle(4)).to_json_obj()
        assert o["chordal"] is False and len(o["cycle_witness"]) == 4
        json.dumps(o)


class TestCornerElimination:
    """retraction_onto peels corners off the target, lowest id first."""

    def test_star_path(self):
        assert retraction_onto(families.star(3), [1, 0, 2])[3] == 0

    def test_triangle_edge(self):
        assert retraction_onto(families.complete(3), [0, 1])[2] == 0

    def test_c4_fails(self):
        with pytest.raises(ValueError):
            retraction_onto(families.cycle(4), [0, 1])

    def test_replay_validity(self):
        # onto a longest geodesic of a chordal graph, the same map the
        # reference peel (every alive vertex a candidate dominator) builds
        for seed in range(10):
            g = families.random_chordal(9, seed)
            far = max(range(g.n), key=lambda v: max_distance(g, (v,)))
            other = max(range(g.n), key=lambda v: distances_from(g, far)[v])
            p = geodesic_between(g, far, other)
            assert retraction_onto(g, p) == peel_retraction(g, p)


class TestRetraction:
    def test_identity_and_edges(self):
        for seed in range(10):
            g = families.random_chordal(9, seed)
            rng = random.Random(seed)
            center = rng.randrange(g.n)
            dist = distances_from(g, center)
            ball = [u for u, d in enumerate(dist) if d is not None and d <= 1]
            phi = retraction_onto(g, ball)
            for u in ball:
                assert phi[u] == u
            for u, v in g.edges():
                pu, pv = phi[u], phi[v]
                assert pu == pv or g.has_edge(pu, pv)

    @staticmethod
    def targets(g):
        """Every ball of radius 1 and 2, and a geodesic from each vertex."""
        for c in range(g.n):
            dist = distances_from(g, c)
            yield [u for u, d in enumerate(dist) if d <= 1]
            yield [u for u, d in enumerate(dist) if d <= 2]
            yield geodesic_between(g, c, max(range(g.n), key=dist.__getitem__))

    def test_agrees_with_reference_peel_on_chordal_corpus(self):
        for g in chordal_corpus(200, 12, 42):
            for keep in self.targets(g):
                assert retraction_onto(g, keep) == peel_retraction(g, keep), (g.name, keep)

    def test_agrees_with_reference_peel_on_paths(self):
        for n in range(1, 61):
            g = families.path(n)
            for keep in ([0], [n // 2], list(range(n // 3, n // 2 + 1)), [n - 1]):
                assert retraction_onto(g, keep) == peel_retraction(g, keep), (n, keep)


class TestCaptureFast:
    """max_v d(v, S) is a lower bound on capt(G; S), exact on trees."""

    def test_examples(self):
        assert max_distance(families.path(5), {2}) == 2
        assert max_distance(families.complete(5), {0}) == 1
        assert max_distance(families.path(9), {2, 6}) == 2

    def test_agrees_with_engine_on_trees(self):
        rng = random.Random(3)
        for seed in range(15):
            g = families.random_tree(rng.randint(2, 9), seed)
            S = tuple(sorted(rng.choices(range(g.n), k=rng.randint(1, 2))))
            assert max_distance(g, S) == solve_placement(g, S)[0]

    def test_lower_bound_strict_on_readme_counterexample(self):
        # chordal, yet one cop from vertex 8 needs a round more than the distance
        g = Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 4),
                      (1, 7), (1, 8), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
        assert lexbfs_order(g).chordal
        assert max_distance(g, {8}) == 3 < solve_placement(g, (8,))[0] == 4


class TestChordalThrottling:
    def test_p9(self):
        t = chordal_throttling(families.path(9))
        assert (t.th_sum, t.th_prod) == (4, 5)
        assert t.th_sum_exact

    def test_complete(self):
        t = chordal_throttling(families.complete(7))
        assert (t.th_sum, t.th_prod) == (2, 2)

    def test_greedy_bound_respected(self):
        for seed in range(10):
            g = families.random_chordal(12, seed)
            t = chordal_throttling(g)
            assert t.th_sum <= sqrt_ceil(12) + 3 - 1

    def test_budget_fallback_is_labeled(self):
        g = families.path(60)
        t = chordal_throttling(g, budget=10**4)
        assert not t.th_sum_exact
        assert t.th_sum <= sqrt_ceil(60) + 7 - 1
