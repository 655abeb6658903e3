"""Each checker accepts the program's output and rejects a corrupted copy.

Run from the repository root: ``python3 -m pytest -q bench/test_checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import corpus as C  # noqa: E402
from copthrottle import cli, engine, graph, throttling  # noqa: E402

PETERSEN = C.canon(
    [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
)


@pytest.mark.parametrize(
    "n, edges, k",
    [(9, C.grid(3, 3), 2), (10, PETERSEN, 2), (6, C.cycle(6), 1), (8, C.path(8), 2)],
    ids=["grid-3x3", "petersen-robber-wins", "C6-robber-wins", "P8"],
)
def test_table_check(n, edges, k):
    table = engine.solve_k(graph.Graph(n, edges), k)
    assert checks.check_table(n, edges, k, table.configs, table.values) == []
    finite = np.argwhere((table.values > 0) & (table.values <= checks.largest_finite(table.values)))
    i, r = finite[len(finite) // 2]
    for delta in (1, -1):
        bad = table.values.copy()
        bad[i, r] += delta
        assert checks.check_table(n, edges, k, table.configs, bad), f"entry off by {delta} accepted"


def test_table_check_rejects_a_robber_win_made_finite():
    table = engine.solve_k(graph.Graph(10, PETERSEN), 2)
    bad = table.values.copy()
    i, r = np.argwhere(bad > checks.largest_finite(bad))[0]
    bad[i, r] = checks.largest_finite(bad)
    assert checks.check_table(10, PETERSEN, 2, table.configs, bad)


def test_largest_finite_ignores_the_sentinel():
    assert checks.largest_finite(np.array([[0, 3, 1], [2, 2**20, 0]])) == 3
    assert checks.largest_finite(np.zeros((2, 2), dtype=np.int32)) == 0


def test_optimum_on_the_path():
    table = engine.solve_k(graph.Graph(12, C.path(12)), 2)
    assert checks.check_optimum_is_rad_k(12, C.path(12), 2, table.values) == []
    assert checks.check_optimum_is_rad_k(12, C.path(12), 2, table.values + (table.values > 0))


def _answer(n, edges):
    from workloads import Sweep

    g = graph.Graph(n, edges)
    report = throttling.throttling_report(g)
    return Sweep.answer(report, throttling.throttling_points(g, report=report))


@pytest.mark.parametrize(
    "n, make, chordal",
    [
        (9, C.random_chordal, True),
        (9, C.random_tree, True),
        (7, lambda n, rng: C.gnp_connected(n, 0.35, rng), False),
        (10, None, False),
    ],
    ids=["chordal", "tree", "gnp", "petersen"],
)
def test_throttling_check(n, make, chordal):
    edges = PETERSEN if make is None else make(n, random.Random(3))
    answer = _answer(n, edges)
    assert checks.check_throttling(n, edges, answer) == []
    # th_c is pinned by the points everywhere; th_c_x by 1 + rad on chordal graphs
    for key in ("th_sum", "th_prod") if chordal else ("th_sum",):
        for delta in (1, -1):
            bad = dict(answer, **{key: answer[key] + delta})
            assert checks.check_throttling(n, edges, bad), f"{key} off by {delta} accepted"


def test_throttling_check_rejects_a_wrong_cop_win_verdict():
    edges = C.random_chordal(8, random.Random(5))
    answer = _answer(8, edges)
    rows = [(k, None if k == 1 else capt, w) for k, capt, w in answer["rows"]]
    assert checks.check_throttling(8, edges, dict(answer, rows=rows))


@pytest.mark.parametrize("extra", [0, 1], ids=["outerplanar", "near-outerplanar"])
def test_outerplanar_check(extra):
    n, edges = 8, C.outerplanar(8, random.Random(1), extra=extra)
    verdict = graph.is_outerplanar(graph.Graph(n, edges))
    assert verdict == (extra == 0)
    assert checks.check_outerplanar(n, edges, verdict) == []
    assert checks.check_outerplanar(n, edges, not verdict)


def test_suites_check():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "tree-bound", "--count", "2", "--max-n", "10", "--format", "json"])
    assert checks.check_suites(code, out.getvalue()) == []
    payload = json.loads(out.getvalue())
    payload[0]["failed"] += 1
    assert checks.check_suites(0, json.dumps(payload))
    assert checks.check_suites(3, out.getvalue())
    assert checks.check_suites(0, "[]")


def test_checks_do_not_import_the_program():
    source = (Path(__file__).resolve().parent / "checks.py").read_text(encoding="utf-8")
    assert "import copthrottle" not in source and "from copthrottle" not in source
