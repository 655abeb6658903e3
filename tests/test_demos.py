"""Every demo script runs to completion against the source tree and
prints its golden output (``make_golden.py``)."""

import pytest

from make_golden import DEMOS, demo_golden, run_demo


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == demo_golden(demo).read_text()
