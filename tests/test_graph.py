import os
import random
import subprocess
import sys
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from copthrottle import families
from copthrottle.graph import (
    BudgetExceeded,
    CornerWitness,
    Graph,
    boundary_vertices,
    corners,
    distance_matrix,
    distances_from,
    distances_from_set,
    domination_number,
    feedback_vertex_number,
    geodesic_between,
    is_geodesic,
    is_outerplanar,
    k_distance_dominating,
    k_radius_exact,
    max_distance,
)
from copthrottle.verify import tree_corpus

from oracles import all_small_graphs, brute_domination, brute_rad_k, brute_rad_k_witness, BIG


def graphs(max_n=8):
    """Hypothesis strategy: a random simple graph as (n, edge subset)."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                    lambda p: (min(p), max(p))
                ).filter(lambda p: p[0] != p[1])
            ),
        )
    ).map(lambda t: Graph(t[0], t[1]))


class TestGraphBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(-1)

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 1)])
        assert g.adj[0] == (1, 2)
        assert g.adj[2] == (0,)
        assert all(u in g.nbr[v] for u in range(4) for v in g.adj[u])

    def test_induced_relabel(self):
        g = families.path(5)
        sub, old = g.induced([1, 2, 4])
        assert old == (1, 2, 4)
        assert sub.edges() == ((0, 1),)

    def test_components(self):
        g = Graph(5, [(0, 1), (3, 4)])
        assert g.components() == [[0, 1], [2], [3, 4]]
        assert not g.is_connected()
        assert g.is_forest()


class TestDistances:
    def test_path_single_source(self):
        assert distances_from_set(families.path(3), {0}) == [0, 1, 2]

    def test_p9_two_sources_hand_bfs(self):
        # hand BFS on the 9-path from {2, 6}
        assert distances_from_set(families.path(9), {2, 6}) == [2, 1, 0, 1, 2, 1, 0, 1, 2]
        assert max_distance(families.path(9), {2, 6}) == 2

    def test_unreachable_is_none(self):
        g = families.empty(2)
        assert distances_from_set(g, {0}) == [0, None]

    def test_errors(self):
        g = families.path(3)
        with pytest.raises(ValueError):
            distances_from_set(g, set())
        with pytest.raises(ValueError):
            distances_from_set(g, {7})

    def test_distance_matrix_built_once_and_read_only(self):
        g = Graph(4, [(0, 1), (1, 2)])
        dist = distance_matrix(g)
        assert dist is distance_matrix(g)
        assert dist.tolist() == [[0, 1, 2, 4], [1, 0, 1, 4], [2, 1, 0, 4], [4, 4, 4, 0]]
        with pytest.raises(ValueError):
            dist[0, 1] = 5
        assert distance_matrix(families.empty(0)).shape == (0, 0)

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_edge_lipschitz(self, g):
        src = {0}
        dist = distances_from_set(g, src)
        for u, v in g.edges():
            if dist[u] is not None and dist[v] is not None:
                assert abs(dist[u] - dist[v]) <= 1


class TestKRadius:
    def test_p9_center(self):
        assert k_radius_exact(families.path(9), 1) == (4, (4,))

    def test_p9_two(self):
        value, witness = k_radius_exact(families.path(9), 2)
        assert value == 2
        assert brute_rad_k(families.path(9), 2) == 2

    def test_c5_two(self):
        value, _ = k_radius_exact(families.cycle(5), 2)
        assert value == 1
        assert brute_rad_k(families.cycle(5), 2) == 1

    def test_disconnected_unreachable(self):
        assert k_radius_exact(families.empty(3), 2) == (None, ())

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            k_radius_exact(families.path(40), 10, budget=1000)

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_n=6), st.integers(1, 3))
    def test_matches_bruteforce_and_monotone(self, g, k):
        k = min(k, g.n)
        value, witness = k_radius_exact(g, k)
        expect = brute_rad_k(g, k)
        assert (expect if expect < BIG else None) == value
        if value is not None and k < g.n:
            nxt, _ = k_radius_exact(g, k + 1)
            assert nxt is not None and nxt <= value

    def test_rad_n_is_zero(self):
        g = families.cycle(5)
        assert k_radius_exact(g, g.n)[0] == 0

    @staticmethod
    def _agrees_with_oracle(g, k, budget=10**8):
        value, witness = k_radius_exact(g, k, budget=budget)
        expect, expect_witness = brute_rad_k_witness(g, k)
        assert (value, witness) == (
            (expect, expect_witness) if expect < BIG else (None, ())
        ), (g.n, g.edges(), k)
        assert all(type(x) is int for x in witness)
        assert value is None or type(value) is int

    def test_value_and_least_witness_on_all_small_graphs(self):
        # every labelled graph on <= 5 vertices, disconnected ones included
        for n in range(1, 6):
            for g in all_small_graphs(n):
                for k in range(1, n + 1):
                    self._agrees_with_oracle(g, k)

    def test_value_and_least_witness_on_tree_corpus(self):
        budget = 2 * 10**6
        checked = 0
        for g in tree_corpus(10, 100, 42):
            for k in range(1, min(3, g.n) + 1):
                if comb(g.n, k) * (g.n + g.m + k) <= budget:
                    self._agrees_with_oracle(g, k, budget)
                    checked += 1
        assert checked >= 20

    def test_charge_checked_before_work(self):
        g = families.random_tree(150, 7)
        k = 3
        charge = comb(g.n, k) * (g.n + g.m + k)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            k_radius_exact(g, k, budget=charge - 1)
        assert time.perf_counter() - t0 < 0.05
        assert info.value.required == charge
        value, witness = k_radius_exact(g, k, budget=charge)
        assert value == max_distance(g, witness) and len(witness) == k


class TestDomination:
    def test_greedy_respects_meir_moon(self):
        s = k_distance_dominating(families.path(9), 2)
        assert len(s) <= 3
        assert all(d <= 2 for d in distances_from_set(families.path(9), s))

    def test_exact_clique(self):
        assert domination_number(families.complete(5), 1)[1] == (0,)

    def test_exact_p9_lex_least(self):
        assert domination_number(families.path(9), 1)[1] == (1, 4, 7)
        assert brute_domination(families.path(9), 1)[0] == 3

    def test_greedy_needs_connected(self):
        with pytest.raises(ValueError):
            k_distance_dominating(families.empty(3), 1)

    @staticmethod
    def assert_dominates(g, k, size, witness):
        assert len(witness) == size == len(set(witness))
        assert all(d is not None and d <= k for d in distances_from_set(g, witness))

    def test_matches_brute_on_all_small_graphs(self):
        for n in range(1, 6):
            for g in all_small_graphs(n):
                for k in (1, 2):
                    assert domination_number(g, k) == brute_domination(g, k), (n, g.edges(), k)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=10), st.integers(1, 2))
    def test_matches_brute_on_random_graphs(self, g, k):
        assert domination_number(g, k) == brute_domination(g, k)

    def test_known_values_above_enumeration_sizes(self):
        for n in range(1, 41):
            for g in [families.path(n)] + ([families.cycle(n)] if n >= 3 else []):
                size, witness = domination_number(g)
                assert size == -(-n // 3), g.name
                self.assert_dominates(g, 1, size, witness)
        for n in range(1, 21):
            g = families.attach_leaves(families.random_connected(n, seed=n))
            size, witness = domination_number(g)
            assert size == n, g.name
            self.assert_dominates(g, 1, size, witness)
        for ell in range(1, 10):
            g = families.m_ell(ell)
            size, witness = domination_number(g)
            assert size == 3 * ell + 4, g.name
            self.assert_dominates(g, 1, size, witness)

    def test_budget_fails_fast(self):
        g = families.grid(7, 7)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            domination_number(g, budget=1000)
        assert time.perf_counter() - t0 < 0.05
        assert info.value.required > info.value.budget == 1000
        assert domination_number(g)[0] == 12

    def test_no_scipy_import(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from copthrottle import families\n"
            "from copthrottle.graph import domination_number\n"
            "from copthrottle.verify import run_suite\n"
            "assert domination_number(families.m_ell(7))[0] == 25\n"
            "assert run_suite('m-ell', ell=3).failed == 0\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(families.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 30), st.integers(1, 3), st.integers(0, 10**6))
    def test_greedy_bound_on_random_trees(self, n, k, seed):
        g = families.random_tree(n, seed)
        if n < k + 1:
            return
        s = k_distance_dominating(g, k)
        assert len(s) <= n // (k + 1)
        assert all(d is not None and d <= k for d in distances_from_set(g, s))


class TestCorners:
    def test_p3(self):
        assert corners(families.path(3)) == [CornerWitness(0, 1), CornerWitness(2, 1)]

    def test_c4_empty(self):
        assert corners(families.cycle(4)) == []

    def test_k4_all_pairs(self):
        assert len(corners(families.complete(4))) == 12

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_witnesses_verify(self, g):
        for w in corners(g):
            assert (g.nbr[w.corner] | {w.corner}) <= (g.nbr[w.dominator] | {w.dominator})


class TestBoundary:
    def test_p5(self):
        assert boundary_vertices(families.path(5), 2) == (0, 4)

    def test_k4(self):
        assert boundary_vertices(families.complete(4), 0) == (1, 2, 3)

    def test_c6_antipode(self):
        assert boundary_vertices(families.cycle(6), 0) == (3,)


class TestGeodesic:
    def test_unique_path(self):
        assert geodesic_between(families.path(5), 0, 4) == [0, 1, 2, 3, 4]

    def test_c6_lowest_id_tiebreak(self):
        assert geodesic_between(families.cycle(6), 0, 3) == [0, 1, 2, 3]

    def test_edge(self):
        assert geodesic_between(families.complete(3), 0, 1) == [0, 1]

    def test_disconnected_error(self):
        with pytest.raises(ValueError):
            geodesic_between(families.empty(2), 0, 1)

    @settings(max_examples=30, deadline=None)
    @given(graphs())
    def test_length_matches_bfs(self, g):
        dist = distances_from(g, 0)
        for v in range(g.n):
            if dist[v] is None:
                continue
            p = geodesic_between(g, 0, v)
            assert len(p) - 1 == dist[v]
            assert is_geodesic(g, p)


class TestFeedback:
    def test_tree_zero(self):
        assert feedback_vertex_number(families.random_tree(8, 0)) == (0, ())

    def test_c5_one(self):
        f, w = feedback_vertex_number(families.cycle(5))
        assert f == 1 and w == (0,)

    def test_k4_two(self):
        # removing one vertex leaves K3 (a cycle); removing two leaves K2
        f, _ = feedback_vertex_number(families.complete(4))
        assert f == 2

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            feedback_vertex_number(families.complete(9), budget=10)

    def test_budget_fails_fast(self):
        # size 1 alone is charged comb(25, 1) * (25 + 40) = 1625 steps
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as err:
            feedback_vertex_number(families.grid(5, 5), budget=1000)
        assert time.perf_counter() - t0 < 0.05
        assert err.value.required > err.value.budget == 1000

    def test_petersen_default_budget(self):
        assert feedback_vertex_number(families.petersen()) == (3, (0, 2, 8))


class TestOuterplanar:
    def test_forbidden_minors_themselves(self):
        assert not is_outerplanar(families.complete(4))
        assert not is_outerplanar(families.complete_bipartite(2, 3))

    def test_cycles_and_trees(self):
        assert is_outerplanar(families.cycle(5))
        assert is_outerplanar(families.random_tree(9, 4))

    def test_fan_and_wheel(self):
        # fan = path + apex is outerplanar; wheel = cycle + apex is not
        p = families.path(5)
        fan = Graph(6, list(p.edges()) + [(5, i) for i in range(5)])
        assert is_outerplanar(fan)
        c = families.cycle(5)
        wheel = Graph(6, list(c.edges()) + [(5, i) for i in range(5)])
        assert not is_outerplanar(wheel)

    def test_k4_subdivision_detected(self):
        # subdivide one edge of K4: still has a K4 minor
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 3)])
        assert not is_outerplanar(g)

    @staticmethod
    def _subdivided(g, length):
        """Each edge of g replaced by a path of ``length`` edges."""
        n, edges = g.n, []
        for u, v in g.edges():
            inner = list(range(n, n + length - 1))
            n += length - 1
            walk = [u, *inner, v]
            edges += zip(walk, walk[1:])
        return Graph(n, edges)

    def test_large_sparse_graphs_are_fast(self):
        cases = [
            (families.cycle(30), True),
            (families.path(40), True),
            (families.grid(2, 50), True),
            (self._subdivided(families.complete(4), 10), False),
            (self._subdivided(families.complete_bipartite(2, 3), 10), False),
        ]
        for g, want in cases:
            t0 = time.perf_counter()
            assert is_outerplanar(g) is want, g
            assert time.perf_counter() - t0 < 1.0, g

    def test_agrees_with_networkx_apex_planarity(self):
        # G is outerplanar iff G plus a vertex joined to all of G is planar
        nx = pytest.importorskip("networkx")

        def oracle(n, edges):
            h = nx.Graph(list(edges))
            h.add_edges_from((n, v) for v in range(n))
            return nx.check_planarity(h)[0]

        def relabelled(n, edges, rng):
            perm = list(range(n))
            rng.shuffle(perm)
            return [(perm[u], perm[v]) for u, v in edges]

        rng = random.Random(2024)
        # every graph on at most 7 vertices up to isomorphism, in its atlas
        # labelling and two seeded relabellings
        for h in nx.graph_atlas_g()[1:]:
            n, edges = h.number_of_nodes(), list(h.edges())
            want = oracle(n, edges)
            for es in (edges, relabelled(n, edges, rng), relabelled(n, edges, rng)):
                assert is_outerplanar(Graph(n, es)) == want, (n, es)

        # maximal outerplanar graphs on up to 30 vertices, less some edges,
        # plus up to two new edges
        verdicts = []
        for _ in range(400):
            n = rng.randint(4, 30)
            cycle, edges = [0, 1, 2], {(0, 1), (1, 2), (0, 2)}
            for v in range(3, n):
                i = rng.randrange(len(cycle))
                a, b = cycle[i], cycle[(i + 1) % len(cycle)]
                cycle.insert(i + 1, v)
                edges |= {(a, v), (b, v)}
            edges = set(rng.sample(sorted(edges), len(edges) - rng.randint(0, n)))
            for _ in range(rng.choice((0, 1, 1, 2))):
                a, b = rng.sample(range(n), 2)
                edges.add((a, b))
            es = relabelled(n, edges, rng)
            want = oracle(n, es)
            assert is_outerplanar(Graph(n, es)) == want, (n, es)
            verdicts.append(want)
        assert 100 < sum(verdicts) < 300
