"""The check registry's parameter table, pinned; the loader's report of a
check section that names only its kind; and `_suite`'s refusal of a
parameter name it cannot place."""

from pathlib import Path

import pytest

from prodconj.checks import REGISTRY, ParamSpec, _suite
from prodconj.errors import ScenarioError
from prodconj.fields import almost_product_residual
from prodconj.scenario import load_scenario

DATA = Path(__file__).parent / "data"

HEAD = """\
[chart]
dim = 2
names = x, y
box = -1:1, -1:1
"""


def _param_lines() -> list[str]:
    """One line per kind and parameter, in declaration order: kind, name,
    role, required, default, choices."""
    return [f"{name}\t{p}\t{spec.role}\t{spec.required}\t{spec.default!r}\t{spec.choices!r}"
            for name, kind in REGISTRY.items() for p, spec in kind.params.items()]


def test_every_kind_keeps_its_parameter_table():
    assert _param_lines() == (DATA / "check_params.txt").read_text().splitlines()


@pytest.mark.parametrize("kind", [k for k in REGISTRY
                                  if any(s.required for s in REGISTRY[k].params.values())])
def test_a_check_naming_only_its_kind_needs_each_required_parameter(kind):
    text = HEAD + f"\n[check c]\nkind = {kind}\n"
    line = text.splitlines().index("[check c]") + 1
    with pytest.raises(ScenarioError) as err:
        load_scenario(text, name="t")
    pinned = [p for k, p, _, required, *_ in
              (row.split("\t") for row in (DATA / "check_params.txt").read_text().splitlines())
              if k == kind and required == "True"]
    assert pinned
    assert err.value.messages == [f"line {line}: [check c] needs {p}" for p in pinned]


def test_a_spec_no_argument_takes_is_refused():
    with pytest.raises(TypeError, match="no argument takes"):
        _suite(almost_product_residual, "structure", strucutre=ParamSpec("structure"))
    with pytest.raises(KeyError):
        _suite(almost_product_residual, "strucutre")
