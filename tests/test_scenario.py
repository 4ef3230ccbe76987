"""Scenario grammar: happy paths, aggregated diagnostics, load-time probes."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from prodconj.errors import ScenarioError
from prodconj.reporting import Residual
from prodconj.runner import corpus_names, corpus_text
from prodconj.scenario import load_scenario, make_context

HEAD = """\
[chart]
dim = 2
names = x, y
box = -1:1, -1:1
"""

SWAP = """\
[endo swap]
row 0 = 0 1
row 1 = 1 0
"""

FLAT = """\
[connection flat]
kind = flat
"""


def _load(*pieces, name="t"):
    return load_scenario("\n".join(pieces), name=name)


def _errors(*pieces):
    with pytest.raises(ScenarioError) as err:
        _load(*pieces)
    return err.value.messages


# ---- happy path -------------------------------------------------------


def test_minimal_scenario_loads():
    scn = _load(HEAD, SWAP, FLAT, """\
[check inv]
kind = almost_product
structure = swap
""")
    assert scn.chart.dim == 2
    assert scn.chart.names == ("x", "y")
    assert scn.plan.seed == 7 and scn.plan.count == 200
    assert scn.tol == 1e-9
    assert [c.name for c in scn.checks] == ["inv"]
    assert scn.checks[0].expect == "pass"


def test_samples_and_tolerance_sections():
    scn = _load(HEAD, "[samples]\nseed = 99\ncount = 50\n",
                "[tolerance]\nidentity = 1e-7\n", SWAP, FLAT)
    assert scn.plan.seed == 99 and scn.plan.count == 50
    assert scn.tol == 1e-7


def test_default_names_and_box():
    scn = load_scenario("[chart]\ndim = 3\n", name="d3")
    assert scn.chart.names == ("x0", "x1", "x2")
    assert scn.chart.box == ((-1.0, 1.0),) * 3


def test_make_context_overrides():
    scn = _load(HEAD, SWAP, FLAT)
    ctx = make_context(scn)
    assert ctx.points.shape == (200, 2)
    ctx2 = make_context(scn, seed=11, count=17)
    assert ctx2.points.shape == (17, 2)
    assert not (ctx.points[:17] == ctx2.points).all()


def test_comments_and_blank_lines_ignored():
    scn = _load(HEAD, "# comment\n; also a comment\n", SWAP, FLAT)
    assert "swap" in scn.endos and "flat" in scn.connections


def test_connection_kinds():
    scn = _load(HEAD, SWAP, FLAT, """\
[metric g]
upper 0 = 1 0
upper 1 = (+ 1 (pow x 2))

[connection lc]
kind = levi_civita
metric = g

[tensor bump]
comp 0 1 1 = x

[connection shifted]
kind = sum
base = flat
tensor = bump

[connection adapted]
kind = christoffel
gamma 1 0 0 = (sin x)
""")
    assert set(scn.connections) == {"flat", "lc", "shifted", "adapted"}


def test_derived_tensor_kinds():
    scn = _load(HEAD, SWAP, FLAT, """\
[tensor dsw]
kind = structure_derivative
connection = flat
structure = swap

[tensor dmix]
kind = derivative_mix
connection = flat
structure = swap
lam = 1/2
mu = -3
""")
    assert set(scn.tensors) == {"dsw", "dmix"}


def test_tensor_mix_weight_validation():
    msgs = _errors(HEAD, SWAP, FLAT, """\
[tensor dmix]
kind = derivative_mix
connection = flat
structure = swap
lam = one
mu = 0
""")
    assert any("bad number 'one'" in m for m in msgs)


def test_shipped_corpus_loads_clean():
    names = corpus_names()
    assert names == sorted(names) and len(names) == 9
    for name in names:
        scn = load_scenario(corpus_text(name), name=name)
        assert scn.checks, f"{name} has no checks"


# ---- diagnostics ------------------------------------------------------


def test_errors_aggregate_with_line_numbers():
    msgs = _errors(HEAD, """\
[endo broken]
row 0 = 0 1

[vector v]
components = (+ 1

[check c]
kind = no_such_kind
""")
    assert len(msgs) >= 3
    assert any("row" in m and "broken" in m for m in msgs)
    assert any("unterminated (+ ...)" in m for m in msgs)
    assert any("no_such_kind" in m for m in msgs)
    assert all(m.startswith("line ") or ":" in m for m in msgs)


def test_duplicate_names_rejected():
    msgs = _errors(HEAD, SWAP, SWAP)
    assert any("duplicate" in m for m in msgs)


def test_unknown_parameter_rejected():
    msgs = _errors(HEAD, SWAP, FLAT, """\
[check c]
kind = almost_product
structure = swap
sauce = extra
""")
    assert any("sauce" in m for m in msgs)


def test_missing_required_parameter():
    msgs = _errors(HEAD, SWAP, FLAT, "[check c]\nkind = almost_product\n")
    assert any("structure" in m for m in msgs)


def test_unknown_field_reference():
    msgs = _errors(HEAD, SWAP, FLAT, """\
[check c]
kind = almost_product
structure = ghost
""")
    assert any("ghost" in m for m in msgs)


def test_bad_expect_value():
    msgs = _errors(HEAD, SWAP, FLAT, """\
[check c]
kind = almost_product
structure = swap
expect = maybe
""")
    assert any("expect" in m for m in msgs)


def test_missing_chart_is_fatal():
    with pytest.raises(ScenarioError):
        load_scenario(SWAP)


def test_malformed_header_and_stray_entry():
    msgs = _errors(HEAD, "[endo]\nrow 0 = 1 0\n")
    assert any("needs a name" in m for m in msgs)
    msgs = _errors("dim = 2\n" + HEAD)
    assert any("outside any section" in m for m in msgs)


# ---- load-time probes -------------------------------------------------


def test_non_involutive_structure_refused():
    msgs = _errors(HEAD, FLAT, """\
[endo proj]
row 0 = 1 0
row 1 = 0 0

[check c]
kind = prop11
connection = flat
structure = proj
""")
    assert any("not involutive" in m for m in msgs)


def test_non_involutive_allowed_when_expected_to_fail():
    scn = _load(HEAD, FLAT, """\
[endo proj]
row 0 = 1 0
row 1 = 0 0

[check c]
kind = almost_product
structure = proj
expect = fail
""")
    assert scn.checks[0].expect == "fail"


def test_pencil_members_must_skew_commute():
    msgs = _errors(HEAD, SWAP, FLAT, """\
[endo also_swap]
row 0 = 0 1
row 1 = 1 0

[pencil p]
first = swap
second = also_swap
alpha = 3/5
beta = 4/5
""")
    assert any("skew-commute" in m for m in msgs)


def test_pencil_weights_checked_at_load():
    msgs = _errors(HEAD, SWAP, FLAT, """\
[endo refl]
row 0 = 1 0
row 1 = 0 -1

[pencil p]
first = refl
second = swap
alpha = 1
beta = 1
""")
    assert any("circle" in m for m in msgs)


def test_raw_projector_roles_are_exempt_from_the_probe():
    scn = _load(HEAD, FLAT, """\
[endo proj]
row 0 = 1 0
row 1 = 0 0

[pair coords]
h = proj

[check ax]
kind = pair_axioms
pair = coords
""")
    assert "coords" in scn.pairs


def test_nan_involution_probe_refuses_the_structure(monkeypatch):
    monkeypatch.setattr("prodconj.scenario.almost_product_residual",
                        lambda ctx, endo: Residual(float("nan")))
    msgs = _errors(HEAD, SWAP, FLAT, """\
[check c]
kind = prop11
connection = flat
structure = swap
""")
    assert any(m.startswith("line 6:") and "not involutive" in m for m in msgs)


# ---- every bad input is a line-numbered ScenarioError -------------------

PENCIL = """\
[endo refl]
row 0 = 1 0
row 1 = 0 -1

[pencil p]
first = refl
second = swap
alpha = 3/5
beta = 4/5
"""

CHECK = "[check c]\nkind = almost_product\nstructure = swap\n"

METRIC = "[metric g]\nupper 0 = 1 0\nupper 1 = 1\n"

TWIST = "[tensor t]\nkind = structure_derivative\nconnection = flat\nstructure = swap\n"

REFUSED = {
    "count_zero": ((HEAD, "[samples]\ncount = 0\n"), "count must be"),
    "count_huge": ((HEAD, "[samples]\ncount = 100000000000000000000000\n"),
                   "sample count must be in 1..1000000"),
    "box_reversed": (("[chart]\ndim = 2\nbox = 1:0, -1:1\n",), "bad interval '1:0'"),
    "box_infinite": (("[chart]\ndim = 2\nbox = -inf:inf, -1:1\n",), "bad number '-inf'"),
    "seed_negative": ((HEAD, "[samples]\nseed = -1\n", SWAP, FLAT, CHECK), "seed must be"),
    "alpha_division_by_zero": ((HEAD, SWAP, PENCIL.replace("3/5", "1/0")), "bad number '1/0'"),
    "pencil_member_divides_by_zero":
        ((HEAD, SWAP, PENCIL.replace("row 1 = 0 -1", "row 1 = 0 (/ 1 0)")),
         "division by zero"),
    "duplicate_row": ((HEAD, SWAP + "row 0 = 0 1\n"), "duplicate key 'row 0'"),
    "duplicate_upper": ((HEAD, METRIC + "upper 1 = 2\n"), "duplicate key 'upper 1'"),
    "duplicate_connection_kind": ((HEAD, FLAT + "kind = flat\n"), "duplicate key 'kind'"),
    "metric_under_flat": ((HEAD, METRIC, FLAT + "metric = g\n"), "takes no key 'metric'"),
    "comp_in_derived_tensor": ((HEAD, SWAP, FLAT, TWIST + "comp 0 0 0 = x\n"),
                               "takes no key 'comp 0 0 0'"),
    "lam_in_derived_tensor": ((HEAD, SWAP, FLAT, TWIST + "lam = 1\n"), "takes no key 'lam'"),
    "duplicate_check_key": ((HEAD, SWAP, FLAT, CHECK + "structure = swap\n"),
                            "duplicate key 'structure'"),
    "floor_nan": ((HEAD, SWAP, FLAT, CHECK + "floor = nan\n"), "bad number 'nan'"),
    "tol_negative": ((HEAD, SWAP, FLAT, CHECK + "tol = -1\n"), "tol must be nonnegative"),
    "reduction_tol_negative":
        ((HEAD, SWAP, FLAT, PENCIL,
          "[check pc]\nkind = pencil\nconnection = flat\npencil = p\nreduction_tol = -1\n"),
         "line 27: [check] takes no key 'reduction_tol'"),
    "weight_in_laws_check":
        ((HEAD, FLAT, "[check c]\nkind = connection_laws\nconnection = flat\nweight = x\n"),
         "line 12: [check] takes no key 'weight'"),
    "grid_in_sweep_check":
        ((corpus_text("prop32_grid").replace("probes = p1, p2",
                                             "probes = p1, p2\ngrid = 0,0; 1,1"),),
         "line 34: [check] takes no key 'grid'"),
    "dim_huge": (("[chart]\ndim = 1000000000\n",), "dim must be an integer in 1.."),
    "name_numeric": (("[chart]\ndim = 2\nnames = 1, y\n",),
                     "line 3: coordinate name '1' is not an identifier"),
    "name_empty": (("[chart]\ndim = 2\nnames = x,\n",),
                   "line 3: coordinate name '' is not an identifier"),
    "name_with_parenthesis": (("[chart]\ndim = 2\nnames = x (y, z\n",),
                              "line 3: coordinate name 'x (y' is not an identifier"),
    "probes_single_sweep":
        ((corpus_text("prop32_grid").replace("probes = p1, p2", "probes = p1"),),
         "probes needs at least two vector fields, got 'p1'"),
    "probes_single_curvature":
        ((corpus_text("shear").replace("probes = px, py", "probes = px"),),
         "probes needs at least two vector fields, got 'px'"),
    "hypothesis_fail_without_hypothesis_rows":
        ((corpus_text("sphere_metric").replace(
            "kind = schouten\nconnection = lc\npair = coords\n",
            "kind = schouten\nconnection = lc\npair = coords\nexpect = hypothesis_fail\n"),),
         "line 130: kind 'schouten' reports no hypothesis rows"),
    "hypothesis_fail_on_a_pencil_without_case":
        ((corpus_text("pencil_pythagorean").replace(
            "[check mixing]\nkind = pencil\nconnection = flat\npencil = pyth\n",
            "[check mixing]\nkind = pencil\nconnection = flat\npencil = pyth\n"
            "expect = hypothesis_fail\n"),),
         "line 97: kind 'pencil' reports no hypothesis rows without case"),
    "fail_on_a_kind_without_invertible_rows":
        ((corpus_text("involutivity_r3").replace(
            "[check conjugate_flat]\nkind = prop11\n",
            "[check conjugate_flat]\nkind = prop11\nexpect = fail\n"),),
         "line 99: kind 'prop11' has no invertible rows, so it cannot expect fail"),
    "row_unclosed_parenthesis": ((HEAD, SWAP.replace("row 1 = 1 0", "row 1 = 1 (+ x")),
                                 "line 8: unterminated (+ ...)"),
    "row_stray_parenthesis": ((HEAD, SWAP.replace("row 0 = 0 1", "row 0 = 0 1)")),
                              "line 7: unexpected ')'"),
    "expression_nested_too_deep":
        ((HEAD, "[vector v]\ncomponents = " + "(+ " * 3000 + "x" + ")" * 3000 + " 1\n"),
         "line 7: RecursionError"),
}


@pytest.mark.parametrize("pieces, message", REFUSED.values(), ids=REFUSED.keys())
def test_bad_input_is_a_line_numbered_scenario_error(pieces, message):
    msgs = _errors(*pieces)
    assert any(message in m for m in msgs), msgs
    assert all(re.match(r"line \d+: ", m) for m in msgs), msgs


_MUTANT_TOKENS = ("0", "-1", "1/0", "nan", "inf", "99999999999999999999999")


@st.composite
def _mutated_corpus_text(draw):
    lines = corpus_text(draw(st.sampled_from(corpus_names()))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "token")))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            parts = re.split(r"([\s(),:;=\[\]]+)", lines[i])
            words = [k for k, p in enumerate(parts) if p and k % 2 == 0]
            if words:
                parts[draw(st.sampled_from(words))] = draw(st.sampled_from(_MUTANT_TOKENS))
                lines[i] = "".join(parts)
    return "\n".join(lines)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_mutated_corpus_text())
def test_mutated_corpus_text_loads_or_is_refused(text):
    try:
        load_scenario(text, name="mutant")
    except ScenarioError as exc:
        assert all(re.match(r"line \d+: ", m) or m == "need a [chart] section"
                   for m in exc.messages), exc.messages
