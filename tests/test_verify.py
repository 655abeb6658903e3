"""The suites' calling contract: each suite reads exactly its declared
options, and ``run_suite`` refuses any other with the call's TypeError."""

import pytest

from copthrottle.verify import SUITES, run_suite, suite_options

OPTIONS = {
    "chordal-capture": ("seed", "count", "max_n", "budget"),
    "prod-chordal": ("seed", "count", "max_n", "budget"),
    "prop-bounds": ("seed", "count", "max_n", "budget"),
    "low-thcx": ("seed", "count", "max_n", "budget"),
    "iq": ("seed", "count", "max_n", "budget"),
    "outerplanar": ("seed", "count", "max_n", "budget", "graph6_path"),
    "meirmoon": ("seed", "count", "max_n"),
    "guard-lemma": ("max_n",),
    "corner-sandwich": ("seed", "count", "max_n", "budget"),
    "tree-bound": ("seed", "count", "max_n", "budget"),
    "unicyclic-bound": ("seed", "count", "max_n", "budget"),
    "star-lemma": ("seed", "count", "budget"),
    "m-ell": ("budget", "ell"),
    "certificates": ("seed", "count", "max_n", "budget"),
    "lambert": ("count",),
    "boundary-corners": ("seed", "count", "max_n"),
}


def test_suite_options_pinned():
    assert {name: suite_options(name) for name in SUITES} == OPTIONS


@pytest.mark.parametrize("name", sorted(SUITES))
def test_unread_option_raises_type_error(name):
    with pytest.raises(TypeError, match="foo"):
        run_suite(name, foo=1)
