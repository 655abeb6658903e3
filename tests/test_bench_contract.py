"""Every name the traced benchmark wraps exists in the package, and every
verify call the benchmark makes is accepted as it stands.

A traced run replaces ``copthrottle.<module>.<name>`` by a recording
wrapper and raises when the name is missing, so a refactor that drops an
import a benchmark span relies on would otherwise fail only inside the
benchmark.  ``WRAP_POINTS`` and ``SUITES`` are read from ``bench/spans.py``
as literals, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

from copthrottle import cli
from copthrottle.verify import SUITES, SuiteResult

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def spans_literal(name):
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {SPANS}")


WRAP_POINTS = spans_literal("WRAP_POINTS")


@pytest.mark.parametrize(
    "module_name,attr,label", WRAP_POINTS, ids=[f"{m}.{a}" for m, a, _ in WRAP_POINTS]
)
def test_wrap_point_is_callable(module_name, attr, label):
    module = importlib.import_module(f"copthrottle.{module_name}")
    assert callable(getattr(module, attr, None)), f"copthrottle.{module_name}.{attr} ({label})"


@pytest.mark.parametrize("name", spans_literal("SUITES"))
def test_traced_suite_is_a_verify_suite(name):
    # the benchmark keys verify.suite_s.<name> on the suite result's name
    assert name in SUITES


# the verify invocations of bench/workloads.py's Verify workload (three jobs
# and the warm-up call), and the options each suite must receive
BENCH_VERIFY_CALLS = [
    (["--suite", "certificates", "--seed", "42", "--count", "12", "--max-n", "9"],
     {"seed": 42, "count": 12, "max_n": 9}),
    (["--suite", "outerplanar", "--input", "corpus.g6"], {"graph6_path": "corpus.g6"}),
    (["--suite", "tree-bound", "--seed", "42", "--count", "10", "--max-n", "100"],
     {"seed": 42, "count": 10, "max_n": 100}),
    (["--suite", "guard-lemma", "--max-n", "3"], {"max_n": 3}),
]


@pytest.mark.parametrize(
    "argv,options", BENCH_VERIFY_CALLS, ids=[argv[1] for argv, _ in BENCH_VERIFY_CALLS]
)
def test_bench_verify_call_accepted(monkeypatch, capsys, argv, options):
    calls = []

    def record(name, **given):
        calls.append((name, given))
        return SuiteResult(name)

    monkeypatch.setattr(cli, "run_suite", record)
    assert cli.main(["verify", *argv, "--format", "json"]) == cli.EXIT_OK
    assert calls == [(argv[1], options)]
