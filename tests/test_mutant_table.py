"""Every mutant in `tests/mutants.py` still applies to the program.

A mutant whose text no longer occurs exactly once in its file would make
`python3 tests/mutants.py` stop before it runs anything; an edit that
rewrites an anchored line shows here, in the tier-1 suite, instead.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "prodconj"


@pytest.mark.parametrize("file, old, new", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_each_mutant_text_occurs_once(file, old, new):
    assert (SRC / file).read_text(encoding="utf-8").count(old) == 1
    assert new != old
