"""Outputs that must not move: see ``make_golden.py`` for what each file
holds and how to regenerate it."""

import pytest

from make_golden import GENERATED, GOLDEN


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_matches_golden(name):
    assert GENERATED[name]() == (GOLDEN / name).read_text()
