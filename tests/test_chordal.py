import random

import pytest

from copthrottle import families
from copthrottle.chordal import (
    chordal_capture_fast,
    chordal_throttling,
    clique_decomposition,
    corner_elimination_sequence,
    lexbfs_order,
    retraction_onto,
    sqrt_ceil,
)
from copthrottle.engine import solve_placement
from copthrottle.graph import Graph, distances_from


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


class TestCliqueDecomposition:
    def verify_invariants(self, g, decomp):
        cliques = decomp.cliques
        seen = set()
        for i, X in enumerate(cliques):
            xs = set(X)
            for a in X:
                for b in X:
                    assert a == b or g.has_edge(a, b)
            if i > 0:
                inter = xs & seen
                assert inter
                assert any(inter <= set(Y) for Y in cliques[:i])
                for a in inter:
                    for b in inter:
                        assert a == b or g.has_edge(a, b)
            seen |= xs
        assert seen == set(range(g.n))

    def test_p3(self):
        d = clique_decomposition(families.path(3))
        assert set(d.cliques) == {(0, 1), (1, 2)}

    def test_k4_single(self):
        assert clique_decomposition(families.complete(4)).cliques == ((0, 1, 2, 3),)

    def test_triangle_pendant(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        d = clique_decomposition(g)
        assert set(d.cliques) == {(0, 1, 2), (2, 3)}
        self.verify_invariants(g, d)

    def test_rejects_nonchordal_or_disconnected(self):
        with pytest.raises(ValueError):
            clique_decomposition(families.cycle(4))
        with pytest.raises(ValueError):
            clique_decomposition(families.empty(3))

    def test_random_invariants(self):
        for seed in range(15):
            g = families.random_chordal(11, seed)
            self.verify_invariants(g, clique_decomposition(g))

    def test_json_exports(self):
        import json

        d = clique_decomposition(families.path(3))
        assert json.loads(json.dumps(d.to_json_obj())) == [[0, 1], [1, 2]]
        o = lexbfs_order(families.cycle(4)).to_json_obj()
        assert o["chordal"] is False and len(o["cycle_witness"]) == 4
        json.dumps(o)


class TestCornerElimination:
    def test_star_path(self):
        steps = corner_elimination_sequence(families.star(3), [1, 0, 2])
        assert [s.corner for s in steps] == [3]
        assert steps[0].dominator == 0

    def test_triangle_edge(self):
        steps = corner_elimination_sequence(families.complete(3), [0, 1])
        assert [s.corner for s in steps] == [2]

    def test_c4_fails(self):
        with pytest.raises(ValueError):
            corner_elimination_sequence(families.cycle(4), [0, 1])

    def test_replay_validity(self):
        # each deleted vertex must be a corner of the residual graph
        for seed in range(10):
            g = families.random_chordal(9, seed)
            from copthrottle.graph import geodesic_between, max_distance

            far = max(range(g.n), key=lambda v: max_distance(g, (v,)))
            other = max(range(g.n), key=lambda v: distances_from(g, far)[v])
            p = geodesic_between(g, far, other)
            steps = corner_elimination_sequence(g, p)
            alive = set(range(g.n))
            for corner, dom in steps:
                cv = ({w for w in g.adj[corner] if w in alive} | {corner})
                cu = ({w for w in g.adj[dom] if w in alive} | {dom})
                assert dom in alive and corner in alive and cv <= cu
                alive.discard(corner)
            assert alive == set(p)


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


class TestCaptureFast:
    def test_examples(self):
        assert chordal_capture_fast(families.path(5), {2}) == 2
        assert chordal_capture_fast(families.complete(5), {0}) == 1
        assert chordal_capture_fast(families.path(9), {2, 6}) == 2

    def test_rejects_nonchordal(self):
        with pytest.raises(ValueError):
            chordal_capture_fast(families.cycle(4), {0})

    def test_agrees_with_engine_on_trees(self):
        # on trees the distance formula is backed by prior work and holds
        rng = random.Random(3)
        for seed in range(15):
            g = families.random_tree(rng.randint(2, 9), seed)
            S = tuple(sorted(rng.choices(range(g.n), k=rng.randint(1, 2))))
            assert chordal_capture_fast(g, S) == solve_placement(g, S)[0]

    def test_lower_bound_strict_on_readme_counterexample(self):
        # chordal, yet one cop from vertex 8 needs a round more than the distance
        g = Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 4),
                      (1, 7), (1, 8), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
        assert chordal_capture_fast(g, {8}) == 3 < solve_placement(g, (8,))[0] == 4


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
