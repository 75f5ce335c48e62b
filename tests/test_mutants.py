"""Every mutant of `tests/mutants.py` still applies to the package.

The runner is too slow for tier 1, but a refactor that moves or rewrites
a mutated line would leave its entry matching nothing, or something
else, without any test failing.  So tier 1 checks that each mutated text
occurs exactly once, and that each named test still exists.
"""

import re
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_mutant_still_applies(mutant):
    text = (mutants.SRC / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.find) == 1
    assert mutant.replace != mutant.find and mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", source, re.M), f"{test_id} is gone"


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.CATALOGUE]
    assert len(names) == len(set(names))
