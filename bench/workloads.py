"""The benchmark's four workloads.

Each workload builds its inputs from the seed, runs one pass of jobs
through the package's public functions, turns every result into plain data
and checks that data with :mod:`checks`.  A pass always runs the same jobs
in the same order, so a run is a whole number of identical passes.

- ``solve-wide``: full tables on dense graphs or many cops.  Building the
  successor moves as products of closed neighbourhoods dominates, and the
  fixpoint converges within a few rounds.  Each graph has a fixed degree
  sequence and is randomised by degree-preserving swaps, so every seed
  enumerates the same number of moves.  No (graph, k) repeats.
- ``solve-deep``: full tables on sparse graphs with long capture times
  (M(6), the 6x6 grid, P60), randomly relabelled.  Fixpoint sweeps and the
  largest tables dominate.
- ``sweep``: throttling numbers and throttling points on 249 small graphs.
  Hundreds of small solves, many of them repeats: per-call overhead and
  re-solving dominate.
- ``verify``: ``copthrottle verify --format json`` through ``cli.main`` for
  the certificates, outerplanar (on a seeded graph6 corpus) and tree-bound
  suites.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

import numpy as np

import checks
import corpus as C


class Failed:
    """Output of a job that raised; counted as a failed operation."""

    def __init__(self, exc: BaseException):
        self.error = repr(exc)

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error


def timed(call, times, outputs, convert=lambda out: out):
    """Run one job, appending its wall time and its plain-data output."""
    t0 = time.perf_counter()
    try:
        out = convert(call())
    except Exception as exc:  # a job that raises is a failed operation, not a crash
        out = Failed(exc)
    times.append(time.perf_counter() - t0)
    outputs.append(out)


# Tables up to this many configurations get the recurrence checked at every
# state; larger ones at a seeded sample of this many configurations.
FULL_CHECK_CONFIGS = 2000
SAMPLED_CONFIGS = 1500


class Solve:
    """Full ``solve_k`` tables, one job per (graph, k)."""

    def __init__(self, specs, path_jobs=()):
        self.specs = specs
        self.path_jobs = set(path_jobs)

    def build(self, seed, mods, workdir):
        jobs = []
        for label, make, k in self.specs:
            n, edges = make(random.Random(f"{seed}:{label}"))
            jobs.append((label, n, edges, k, mods.graph.Graph(n, edges, name=label)))
        return jobs

    def warm(self, mods, jobs):
        mods.engine.solve_k(mods.graph.Graph(5, C.cycle(5)), 2)

    def run_pass(self, mods, jobs):
        times, outputs = [], []
        for _, _, _, k, g in jobs:
            timed(lambda: mods.engine.solve_k(g, k), times, outputs, lambda t: (t.configs, t.values))
        return times, outputs

    @staticmethod
    def same(a, b):
        return all(
            x == y if isinstance(x, Failed) or isinstance(y, Failed)
            else x[0] == y[0] and np.array_equal(x[1], y[1])
            for x, y in zip(a, b)
        )

    def check(self, mods, jobs, outputs, rng):
        fails = []
        for (label, n, edges, k, _), out in zip(jobs, outputs):
            if isinstance(out, Failed):
                continue
            configs, values = out
            sample = None if len(configs) <= FULL_CHECK_CONFIGS else SAMPLED_CONFIGS
            fails += [f"{label}: {f}" for f in checks.check_table(n, edges, k, configs, values, sample, rng)]
            if label in self.path_jobs:
                fails += [f"{label}: {f}" for f in checks.check_optimum_is_rad_k(n, edges, k, values)]
        return fails


def _swapped(n, base):
    return lambda rng: (n, C.swap_edges(n, base, rng))


def _relabelled(n, edges):
    return lambda rng: (n, C.relabel(n, edges, rng))


WIDE = Solve(
    [
        ("6-regular-n25", _swapped(25, C.circulant(25, (1, 2, 3))), 3),
        ("4-regular-n30", _swapped(30, C.circulant(30, (1, 2))), 3),
        ("5-regular-n20", _swapped(20, C.circulant(20, (1, 2, 10))), 3),
        ("4-regular-n12", _swapped(12, C.circulant(12, (1, 2))), 4),
        ("C7-plus-chord", _swapped(7, C.cycle(7) + [(0, 3)]), 6),
    ]
)

DEEP = Solve(
    [
        ("M6", _relabelled(*C.m_ell(6)), 3),
        ("grid-6x6", _relabelled(36, C.grid(6, 6)), 3),
        ("P60", _relabelled(60, C.path(60)), 2),
    ],
    path_jobs=["P60"],
)


class Sweep:
    """``throttling_report`` then ``throttling_points``, one job per graph."""

    # (family, orders, graphs per order); random families are drawn afresh
    # for every seed, named graphs are relabelled.
    STRATA = [("gnp", range(5, 9), 15), ("chordal", range(5, 11), 15), ("tree", range(5, 10), 15)]

    @staticmethod
    def named():
        return [(f"K{n}", n, C.complete(n)) for n in (1, 2, 3, 4, 5, 6)] + [
            ("2K1", 2, []),
            ("K1+K2", 3, [(1, 2)]),
            *((f"P{n}", n, C.path(n)) for n in (3, 5, 7, 9)),
            *((f"C{n}", n, C.cycle(n)) for n in (4, 5, 6, 8, 10)),
            *((f"K1,{s}", s + 1, [(0, i) for i in range(1, s + 1)]) for s in (3, 5, 9)),
            ("K3,3", 6, [(i, 3 + j) for i in range(3) for j in range(3)]),
            ("grid-3x3", 9, C.grid(3, 3)),
            ("grid-2x5", 10, C.grid(2, 5)),
            ("petersen", 10, C.canon([(i, (i + 1) % 5) for i in range(5)]
                                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                     + [(i, i + 5) for i in range(5)])),
        ]

    def build(self, seed, mods, workdir):
        make = {
            "gnp": lambda n, rng: C.gnp_connected(n, 0.35, rng),
            "chordal": C.random_chordal,
            "tree": C.random_tree,
        }
        graphs = []
        for label, n, edges in self.named():
            rng = random.Random(f"{seed}:{label}")
            graphs.append((label, n, C.relabel(n, edges, rng)))
        for family, orders, count in self.STRATA:
            for n in orders:
                for i in range(count):
                    rng = random.Random(f"{seed}:{family}:{n}:{i}")
                    graphs.append((f"{family}-n{n}-{i}", n, make[family](n, rng)))
        return [(label, n, edges, mods.graph.Graph(n, edges, name=label)) for label, n, edges in graphs]

    def warm(self, mods, jobs):
        for *_, g in jobs[:5]:
            mods.throttling.throttling_points(g, report=mods.throttling.throttling_report(g))

    def run_pass(self, mods, jobs):
        times, outputs = [], []
        def job(g):
            report = mods.throttling.throttling_report(g)
            return self.answer(report, mods.throttling.throttling_points(g, report=report))

        for *_, g in jobs:
            timed(lambda: job(g), times, outputs)
        return times, outputs

    @staticmethod
    def answer(report, points):
        finite = lambda v: None if v == float("inf") else int(v)  # noqa: E731
        return {
            "th_sum": report.th_sum,
            "th_prod": report.th_prod,
            "cop_number": report.cop_number,
            "rows": [(r.k, finite(r.capt), r.witness) for r in report.rows],
            "points": [(p.k, p.p) for p in points],
        }

    @staticmethod
    def same(a, b):
        return a == b

    def check(self, mods, jobs, outputs, rng):
        fails = []
        for (label, n, edges, _), answer in zip(jobs, outputs):
            if isinstance(answer, Failed):
                continue
            fails += [f"{label}: {f}" for f in checks.check_throttling(n, edges, answer)]
        return fails


class Verify:
    """Three ``copthrottle verify --format json`` invocations, one job each.

    The inputs do not depend on the benchmark's seed.  Each suite's cost is
    decided by a few of its graphs: in the certificates suite one 9-vertex
    graph takes 1.8 s of 2.3 s, and the cost of ``is_outerplanar`` on a
    graph6 corpus drawn as below moved by 28% (quartile spread over median)
    from one seed to the next.  A seed-drawn corpus would make the
    workload's time a lottery, so every suite runs at the CLI's default
    seed 42 and the outerplanar corpus is drawn from that seed too.
    """

    SEED = 42
    # (orders, graphs per order, chords dropped, edges added)
    # The corpus is kept small enough that the outerplanar job (about 1.7 s)
    # sits between tree-bound (about 1.2 s) and certificates (about 2.6 s),
    # so the job median always reads the same job.
    STRATA = [(range(9, 10), 1, 0, 0), (range(9, 11), 1, 2, 0), (range(9, 13), 1, 0, 1)]

    def build(self, seed, mods, workdir):
        graphs = []
        for orders, count, drop, extra in self.STRATA:
            for n in orders:
                for i in range(count):
                    rng = random.Random(f"{self.SEED}:outerplanar:{n}:{drop}:{extra}:{i}")
                    graphs.append((n, C.outerplanar(n, rng, drop, extra)))
        path = Path(workdir) / "outerplanar.g6"
        path.write_text("".join(C.graph6(n, e) + "\n" for n, e in graphs), encoding="utf-8")
        seed_args = ["--seed", str(self.SEED)]
        argvs = [
            ["verify", "--suite", "certificates", *seed_args, "--count", "12", "--max-n", "9"],
            ["verify", "--suite", "outerplanar", "--input", str(path)],
            ["verify", "--suite", "tree-bound", *seed_args, "--count", "10", "--max-n", "100"],
        ]
        return {"graphs": graphs, "argvs": [a + ["--format", "json"] for a in argvs]}

    def warm(self, mods, inputs):
        self._call(mods, ["verify", "--suite", "guard-lemma", "--max-n", "3", "--format", "json"])

    @staticmethod
    def _call(mods, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods.cli.main(argv)
        return code, out.getvalue()

    def run_pass(self, mods, inputs):
        times, outputs = [], []
        for argv in inputs["argvs"]:
            timed(lambda: self._call(mods, argv), times, outputs)
        return times, outputs

    @staticmethod
    def same(a, b):
        return a == b

    def check(self, mods, inputs, outputs, rng):
        fails = []
        for argv, out in zip(inputs["argvs"], outputs):
            if not isinstance(out, Failed):
                fails += [f"{argv[2]}: {f}" for f in checks.check_suites(*out)]
        graphs = inputs["graphs"]
        for n, edges in graphs:
            verdict = mods.graph.is_outerplanar(mods.graph.Graph(n, edges))
            fails += checks.check_outerplanar(n, edges, verdict)
        if not fails and not isinstance(outputs[1], Failed):
            (suite,) = json.loads(outputs[1][1])
            if suite["passed"] != len(graphs):
                fails.append(f"outerplanar: {suite['passed']} checks for {len(graphs)} graphs")
        return fails


WORKLOADS = {"solve-wide": WIDE, "solve-deep": DEEP, "sweep": Sweep(), "verify": Verify()}
