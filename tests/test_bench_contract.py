"""Every name the traced benchmark wraps exists in the package.

A traced run replaces ``copthrottle.<module>.<name>`` by a recording
wrapper and raises when the name is missing, so a refactor that drops an
import a benchmark span relies on would otherwise fail only inside the
benchmark.  ``WRAP_POINTS`` is read from ``bench/spans.py`` as a literal,
without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def wrap_points():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAP_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAP_POINTS in {SPANS}")


WRAP_POINTS = wrap_points()


@pytest.mark.parametrize(
    "module_name,attr,label", WRAP_POINTS, ids=[f"{m}.{a}" for m, a, _ in WRAP_POINTS]
)
def test_wrap_point_is_callable(module_name, attr, label):
    module = importlib.import_module(f"copthrottle.{module_name}")
    assert callable(getattr(module, attr, None)), f"copthrottle.{module_name}.{attr} ({label})"
