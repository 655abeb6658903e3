"""Spans around the package's public functions, recorded from outside.

The traced run replaces a function by a wrapper in the namespace of the
module that calls it: ``throttling.solve_k`` is the name throttling code
calls, ``engine.solve_k`` the one the benchmark and the engine itself call.
Every wrapper records a span (label, start, end, parent) and, for some
labels, counts taken from the returned value.  A wrapped name that no
longer exists raises, so a renamed function never reads as zero time.

A span's self time is its duration minus the durations of its direct
children; calls are sequential, so that is the time the children do not
cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from checks import largest_finite

SUITES = ("certificates", "outerplanar", "tree-bound")

# (calling module, name as that module sees it, span label)
WRAP_POINTS = [
    ("engine", "solve_k", "engine.solve_k"),
    ("engine", "capt_k", "engine.capt_k"),
    ("engine", "cop_number", "engine.cop_number"),
    ("engine", "solve_placement", "engine.solve_placement"),
    ("throttling", "solve_k", "engine.solve_k"),
    ("throttling", "capt_k", "engine.capt_k"),
    ("throttling", "cop_number", "engine.cop_number"),
    ("throttling", "throttling_report", "throttling.throttling_report"),
    ("throttling", "throttling_points", "throttling.throttling_points"),
    ("strategy", "solve_k", "engine.solve_k"),
    ("verify", "solve_k", "engine.solve_k"),
    ("verify", "capt_k", "engine.capt_k"),
    ("verify", "cop_number", "engine.cop_number"),
    ("verify", "solve_placement", "engine.solve_placement"),
    ("verify", "throttling_report", "throttling.throttling_report"),
    ("verify", "certify_strategy", "strategy.certify_strategy"),
    ("verify", "staged_decomposition", "strategy.staged_decomposition"),
    ("verify", "ball_cover_strategy", "strategy.ball_cover_strategy"),
    ("verify", "feedback_bound", "strategy.feedback_bound"),
    ("verify", "is_outerplanar", "graph.is_outerplanar"),
    ("verify", "chordal_throttling", "chordal.chordal_throttling"),
    ("chordal", "k_radius_exact", "graph.k_radius_exact"),
    ("cli", "solve_k", "engine.solve_k"),
    ("cli", "capt_k", "engine.capt_k"),
    ("cli", "throttling_report", "throttling.throttling_report"),
    ("cli", "run_suite", "verify.run_suite"),
    ("cli", "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent, child_time]
        self.stack: list[int] = []
        self.saved: list[tuple] = []
        self.solved: list[tuple] = []  # (graph key, k, values)
        self.rows = 0
        self.suites: list[tuple] = []  # (span id, suite name, checks)

    def install(self):
        for module_name, attr, label in WRAP_POINTS:
            module = importlib.import_module(f"copthrottle.{module_name}")
            if not hasattr(module, attr):
                raise AttributeError(f"traced name {module_name}.{attr} no longer exists")
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label))

    def uninstall(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def reset(self):
        self.spans.clear()
        self.solved.clear()
        self.rows = 0
        self.suites.clear()

    def _wrap(self, fn, label):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([label, time.perf_counter(), None, self.stack[-1] if self.stack else None, 0.0])
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.spans[sid]
                span[2] = time.perf_counter()
                self.stack.pop()
                if span[3] is not None:
                    self.spans[span[3]][4] += span[2] - span[1]
            self._count(label, sid, args, kwargs, result)
            return result

        return wrapper

    def _count(self, label, sid, args, kwargs, result):
        if label == "engine.solve_k":
            g, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
            self.solved.append(((g.n, g.edges()), k, result.values))
        elif label == "throttling.throttling_report":
            self.rows += len(result.rows)
        elif label == "verify.run_suite":
            self.suites.append((sid, result.name, result.passed + result.failed))

    def top_level_time(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)

    def layer_metrics(self) -> dict:
        """Per-layer figures for the spans recorded since the last reset."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for label, start, end, _, child in self.spans:
            total[label] += end - start
            own[label] += end - start - child
            calls[label] += 1
        solve_s = total["engine.solve_k"]
        states = sum(values.size for *_, values in self.solved)
        unique = len({(key, k) for key, k, _ in self.solved})
        n_calls = len(self.solved)
        metrics = {
            "engine.solve_s": solve_s,
            "engine.states_per_s": states / solve_s if solve_s else 0.0,
            "engine.states": states,
            "engine.rounds": sum(largest_finite(values) + 1 for *_, values in self.solved),
            "engine.table_mb": max((values.nbytes for *_, values in self.solved), default=0) / 2**20,
            "engine.solve_calls": n_calls,
            "engine.solve_unique": unique,
            "engine.solve_reuse": unique / n_calls if n_calls else 0.0,
            "throttling.report_self_s": own["throttling.throttling_report"],
            "throttling.points_self_s": own["throttling.throttling_points"],
            "throttling.k_evaluated": self.rows,
            "strategy.certify_s": total["strategy.certify_strategy"],
            "strategy.certify_calls": calls["strategy.certify_strategy"],
            "strategy.construct_s": sum(
                own[f"strategy.{name}"]
                for name in ("staged_decomposition", "ball_cover_strategy", "feedback_bound")
            ),
            "graph.is_outerplanar_s": total["graph.is_outerplanar"],
            "graph.k_radius_exact_s": total["graph.k_radius_exact"],
            "chordal.throttling_s": own["chordal.chordal_throttling"],
            "verify.checks": sum(s[2] for s in self.suites),
            "cli.overhead_s": own["cli.main"],
        }
        for name in SUITES:
            metrics[f"verify.suite_s.{name}"] = sum(
                self.spans[sid][2] - self.spans[sid][1] for sid, suite, _ in self.suites if suite == name
            )
        return metrics

