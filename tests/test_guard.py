"""Guard step tables and shadow maps against the rules they stand for:
the engine's first optimal one-cop move, the reference path chase, and
the lowest-id BFS next hop."""

import random

from copthrottle import families
from copthrottle.engine import GameState, optimal_moves, solve_k
from copthrottle.graph import geodesic_between
from copthrottle.strategy import _chase, _path_guard, _toward, path_retraction
from copthrottle.verify import chordal_corpus
from oracles import PathChase, bfs_from_set


def test_chase_is_the_first_optimal_move():
    for g in chordal_corpus(200, 12, 42) + [families.path(25)]:
        table = solve_k(g, 1)
        step = _chase(g, table.values)
        for c in range(g.n):
            assert step[c][c] == c
            for s in range(g.n):
                if s != c:
                    want = optimal_moves(g, table, GameState((c,), s), "cops")[0][0]
                    assert step[c][s] == want, (g.name, c, s)


def test_toward_is_the_lowest_id_next_hop():
    rng = random.Random("toward")
    for _ in range(30):
        n = rng.randint(2, 12)
        g = families.random_connected(n, rng.randrange(10**6), p=rng.choice([0.35, 0.5]))
        targets = sorted(rng.sample(range(n), rng.randint(1, n)))
        step = _toward(g, targets)
        for j, t in enumerate(targets):
            dist = bfs_from_set(g, [t])
            for v in range(n):
                closer = [w for w in g.adj[v] if dist[w] == dist[v] - 1]
                assert step[v][j] == (min(closer) if closer else t), (g.name, v, t)


def test_path_guard_moves_like_the_reference_path_chase():
    rng = random.Random("path-guard")
    for _ in range(40):
        n = rng.randint(2, 12)
        g = families.random_connected(n, rng.randrange(10**6), p=rng.choice([0.2, 0.35, 0.5]))
        p = geodesic_between(g, rng.randrange(n), rng.randrange(n))
        phi = path_retraction(g, p).mapping
        guard = _path_guard(g, p, [phi[u] for u in range(n)])
        chase = PathChase(g, p)
        for c in p:
            for r in range(n):
                assert guard.move((), (c,), r) == chase.move((), (c,), r), (g.name, p, c, r)


def test_off_beat_robber_leaves_the_guard_put():
    guard = _path_guard(families.path(6), [2, 3, 4], [None, None, 2, 3, 4, 4])
    assert [guard.shadow_vertex(r) for r in range(6)] == [None, None, 2, 3, 4, 4]
    for c in (2, 3, 4):
        assert guard.follow(c, 0) == guard.follow(c, 1) == c
    assert guard.follow(4, 2) == guard.follow(2, 3) == 3
