"""Report execution and the command-line surface."""

import argparse
import math
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prodconj
from prodconj.checks import CheckKind, catalog_lines
from prodconj.cli import _parser, main
from prodconj.errors import ConfigError, OrderError
from prodconj.jets import Jet
from prodconj.reporting import ERROR, FAIL, PASS, SKIP
from prodconj.runner import _run_one, corpus_names, corpus_text, run_scenario
from prodconj.scenario import CheckSpec, load_scenario, make_context

GOOD = """\
[chart]
dim = 2
names = x, y
box = -1:1, -1:1

[samples]
count = 60

[endo swap]
row 0 = 0 1
row 1 = 1 0

[endo shear]
row 0 = 1 x
row 1 = 0 -1

[connection flat]
kind = flat

[check inv_swap]
kind = almost_product
structure = swap

[check inv_shear]
kind = almost_product
structure = shear

[check parallel]
kind = membership
connection = flat
structure = swap
"""

RED = GOOD + """
[check not_parallel]
kind = membership
connection = flat
structure = shear
"""


def test_run_scenario_all_pass():
    report = run_scenario(load_scenario(GOOD, name="good"))
    assert not report.failed
    assert all(r.status == PASS for r in report.rows)
    assert report.seed == 7 and report.count == 60


def test_run_scenario_detects_failure():
    report = run_scenario(load_scenario(RED, name="red"))
    assert report.failed
    bad = [r for r in report.rows if r.status == FAIL]
    assert bad and all(r.row_id.startswith("not_parallel.") for r in bad)


def test_any_exception_in_a_check_becomes_an_error_row():
    def raising(exc):
        def runner(ctx, params, tol):
            raise exc
        return CheckKind("raising", "raises", runner, default_anchor="X")

    scn = load_scenario(GOOD, name="good")
    for name, exc in (("order", OrderError("jet carries order 0")),
                      ("lstsq", np.linalg.LinAlgError("SVD did not converge"))):
        scn.checks.append(CheckSpec(name, raising(exc), {}, "pass", 1e-3, None, 0))
    rows = {r.row_id: r for r in run_scenario(scn).rows}
    assert rows["order.error"].status == ERROR
    assert rows["order.error"].note == "OrderError: jet carries order 0"
    assert rows["lstsq.error"].status == ERROR
    assert rows["lstsq.error"].note == "LinAlgError: SVD did not converge"
    assert rows["lstsq.error"].anchor == "X"
    assert sum(r.status == PASS for r in rows.values()) == len(rows) - 2


def test_expectation_flip_makes_failure_pass():
    text = RED.replace("kind = membership\nconnection = flat\nstructure = shear",
                       "kind = membership\nconnection = flat\nstructure = shear\nexpect = fail")
    report = run_scenario(load_scenario(text, name="flipped"))
    assert not report.failed
    flipped = [r for r in report.rows if r.row_id.startswith("not_parallel.")]
    assert flipped and all(r.status == PASS for r in flipped)
    assert all("expected violation" in r.note for r in flipped)


def test_filter_by_name_and_kind():
    scn = load_scenario(GOOD, name="good")
    by_name = run_scenario(scn, filter_substr="inv_swap")
    assert {r.row_id.split(".")[0] for r in by_name.rows} == {"inv_swap"}
    by_kind = run_scenario(scn, filter_substr="almost_product")
    assert {r.row_id.split(".")[0] for r in by_kind.rows} == {"inv_swap", "inv_shear"}
    assert run_scenario(scn, filter_substr="zzz").rows == []


def test_seed_and_samples_override_rendered_header():
    scn = load_scenario(GOOD, name="good")
    report = run_scenario(scn, seed=123, samples=11)
    head = report.render_lines()[0]
    assert "seed=123" in head and "samples=11" in head


def test_tol_override_semantics():
    # the global override rejudges checks relying on the scenario default ...
    floppy = GOOD + """
[check floppy]
kind = membership
connection = flat
structure = shear
"""
    scn = load_scenario(floppy, name="floppy")
    assert run_scenario(scn).failed
    assert not run_scenario(scn, tol=1e30).failed
    # ... but never a check that pinned its own tolerance
    pinned = GOOD + """
[check pinned]
kind = membership
connection = flat
structure = shear
tol = 1e30
"""
    scn = load_scenario(pinned, name="pinned")
    for report in (run_scenario(scn), run_scenario(scn, tol=1e-12)):
        rows = [r for r in report.rows if r.row_id.startswith("pinned.")]
        assert rows and all(r.status == PASS for r in rows)


def test_checks_run_serially_only():
    with pytest.raises(ConfigError, match="jobs must be 1"):
        run_scenario(load_scenario(GOOD, name="good"), jobs=2)


def test_cli_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["corpus", "--jobs", "2"])
    assert exit_.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_import_leaves_the_thread_pool_unloaded():
    """Checks run serially, so importing the package loads no thread pool:
    neither `concurrent.futures` nor the `logging` it pulls in."""
    src = str(Path(prodconj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, prodconj; "
             "print(*[m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""


# ---- a non-finite entry in one coefficient reaches exactly the rows it spoils

INJECTED_CHECKS = ("conjugate_adapted_swap", "mean_split", "kirichenko_adapted",
                   "laws_adapted")  # prop11, mean_decomposition, kirichenko, connection_laws


def _injected_rows(sample=None, slot=None, entry=0, bad=None):
    """flat_swap's four checks over `adapted`, with `bad` written into gamma^0_00
    at `sample`: its value, or one gradient or Hessian entry (or nothing)."""
    scn = load_scenario(corpus_text("flat_swap"), name="flat_swap")
    ctx = make_context(scn)
    if sample is not None:
        jets = ctx.tensor_components(scn.connections["adapted"].table)
        g = jets[0][0][0]
        arrays = {"value": g.value.copy(), "grad": g.grad.copy(), "hess": g.hess.copy()}
        target = arrays[slot]
        target[(sample,) + (() if slot == "value" else (entry % target.shape[1],))] = bad
        jets[0][0][0] = Jet(g.dim, g.order, arrays["value"], arrays["grad"], arrays["hess"])
    specs = [s for s in scn.checks if s.name in INJECTED_CHECKS]
    assert len(specs) == len(INJECTED_CHECKS)
    with np.errstate(all="ignore"):
        rows = [r for spec in specs for r in _run_one(ctx, spec, scn.tol)]
    return ctx, rows


@lru_cache(maxsize=1)
def _clean_rows():
    return {r.row_id: r for r in _injected_rows()[1]}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 199), st.sampled_from(("value", "grad", "hess")), st.integers(0, 2),
       st.sampled_from((math.inf, -math.inf, math.nan)))
def test_injected_nonfinite_entry_errors_its_rows_at_its_point(sample, slot, entry, bad):
    ctx, rows = _injected_rows(sample, slot, entry, bad)
    clean = _clean_rows()
    assert ctx.count == 200 and sorted(r.row_id for r in rows) == sorted(clean)
    errors = [r for r in rows if r.status == ERROR]
    for r in rows:
        assert (r.status == ERROR) == (not math.isfinite(r.residual)), r.row_id
        if r.status != ERROR:
            assert r == clean[r.row_id]  # an unspoiled row is the clean run's row
    for r in errors:
        assert r.worst_point == tuple(ctx.points[sample]), r.row_id
    if slot == "hess":
        # The checks read coefficient jets to first order; the Hessian of
        # gamma reaches no row.
        assert not errors
    else:
        assert errors


def test_render_lines_shape():
    report = run_scenario(load_scenario(GOOD, name="good"))
    lines = report.render_lines()
    assert lines[0].startswith("# scenario=good")
    assert lines[-1].startswith("# summary pass=")
    records = [l for l in lines if not l.startswith("#")]
    for rec in records:
        row_id, anchor, residual, status = rec.split("\t")
        float(residual)  # 6-sig-fig scientific notation parses back
        assert status in (PASS, FAIL, SKIP, ERROR)
        assert "." in row_id and anchor


def test_report_rows_sorted_by_id():
    report = run_scenario(load_scenario(GOOD, name="good"))
    ids = [r.row_id for r in report.sorted_rows()]
    assert ids == sorted(ids)


# ---- corpus ----------------------------------------------------------


def test_corpus_names_fixed():
    assert corpus_names() == [
        "flat_swap", "involutivity_r3", "pencil_pythagorean", "projector_xdep",
        "prop32_grid", "recurrent_constructed", "shear", "sphere_metric", "warped",
    ]


def test_corpus_runs_clean_and_deterministic():
    chunks = []
    for name in corpus_names():
        report = run_scenario(load_scenario(corpus_text(name), name=name))
        assert not report.failed, f"{name} failed"
        chunks.append("\n".join(report.render_lines()))
    first = "\n".join(chunks)
    chunks2 = []
    for name in corpus_names():
        report = run_scenario(load_scenario(corpus_text(name), name=name))
        chunks2.append("\n".join(report.render_lines()))
    assert first == "\n".join(chunks2)


# ---- command line -----------------------------------------------------


def test_cli_verify_green(tmp_path, capsys):
    f = tmp_path / "good.scn"
    f.write_text(GOOD, encoding="utf-8")
    assert main(["verify", str(f)]) == 0
    out = capsys.readouterr().out
    assert "# summary" in out and "\tpass" in out


def test_cli_verify_red_and_report_file(tmp_path, capsys):
    f = tmp_path / "red.scn"
    f.write_text(RED, encoding="utf-8")
    report_path = tmp_path / "out.txt"
    assert main(["verify", str(f), "--report", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert report_path.read_text(encoding="utf-8") == out


def test_cli_verify_flags(tmp_path, capsys):
    f = tmp_path / "good.scn"
    f.write_text(GOOD, encoding="utf-8")
    assert main(["verify", str(f), "--seed", "5", "--samples", "9",
                 "--filter", "inv"]) == 0
    out = capsys.readouterr().out
    assert "seed=5 samples=9" in out
    assert "parallel." not in out


def test_cli_missing_file_is_config_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.scn")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_undecodable_file_is_config_error(tmp_path, capsys):
    f = tmp_path / "latin1.scn"
    f.write_bytes(("# r\u00e9sum\u00e9\n" + GOOD).encode("latin-1"))
    assert main(["verify", str(f)]) == 2
    assert f"error: cannot read {f}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "corpus"])
def test_cli_unwritable_report_is_config_error(tmp_path, capsys, command):
    f = tmp_path / "good.scn"
    f.write_text(GOOD, encoding="utf-8")
    args = ["verify", str(f)] if command == "verify" else ["corpus", "--filter", "nomatch"]
    target = tmp_path / "absent" / "x.tsv"
    assert main([*args, "--report", str(target)]) == 2
    assert f"error: cannot write {target}" in capsys.readouterr().err


def test_cli_bad_scenario_is_config_error(tmp_path, capsys):
    f = tmp_path / "bad.scn"
    f.write_text("[chart]\ndim = 2\n\n[endo e]\nrow 0 = 1\n", encoding="utf-8")
    assert main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert "error: line" in err


def test_cli_probe_refusal_is_config_error(tmp_path, capsys):
    f = tmp_path / "probe.scn"
    f.write_text("""\
[chart]
dim = 2

[endo proj]
row 0 = 1 0
row 1 = 0 0

[connection flat]
kind = flat

[check c]
kind = prop11
connection = flat
structure = proj
""", encoding="utf-8")
    assert main(["verify", str(f)]) == 2
    assert "not involutive" in capsys.readouterr().err


BLOWUP = "(exp (exp (exp (exp (* 3 x)))))"
OVERFLOWING = {
    "connection": (f"""\
[chart]
dim = 2
names = x, y

[connection blow]
kind = christoffel
gamma 0 0 0 = {BLOWUP}

[check laws]
kind = connection_laws
connection = blow
""", 1, """\
# scenario=blow seed=7 samples=200
laws.laws\tplumbing\tnan\terror
#   at=(0.250190432827, 0.794426013084) frame=direction note=tensoriality and the product rule
# summary pass=0 fail=0 skip=0 error=1
""", ""),
    "structure": (f"""\
[chart]
dim = 2
names = x, y

[endo blow]
row 0 = {BLOWUP} 0
row 1 = 0 1

[connection flat]
kind = flat

[check c]
kind = prop11
connection = flat
structure = blow
""", 2, "", "error: line 5: endo 'blow' is not involutive (residual nan at probe points); "
            "refusing to conjugate by it\n"),
}


@pytest.mark.parametrize("text, code, stdout, stderr", OVERFLOWING.values(),
                         ids=OVERFLOWING.keys())
def test_overflow_reaches_the_report_but_no_warning_reaches_stderr(tmp_path, text, code,
                                                                    stdout, stderr):
    """An overflowing entry shows only as the error row or the probe
    message, whatever Python's warning filter: numpy's floating-point
    warnings are off while checks run and while the loader builds."""
    f = tmp_path / "blow.scn"
    f.write_text(text, encoding="utf-8")
    src = str(Path(prodconj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-m", "prodconj.cli", "verify", str(f)], env=env,
                         capture_output=True, text=True)
    assert "Warning" not in out.stderr
    assert (out.returncode, out.stdout, out.stderr) == (code, stdout, stderr)


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--samples", "0"),
                                         ("--samples", "100000000000000000000000"),
                                         ("--tol", "inf"), ("--tol", "nan"), ("--tol", "-1")])
def test_cli_bad_sample_flags_are_config_errors(tmp_path, capsys, flag, value):
    f = tmp_path / "good.scn"
    f.write_text(GOOD, encoding="utf-8")
    message = "error: tolerance" if flag == "--tol" else "error: sample"
    # The flags are checked before the filter picks checks, so a filter
    # that matches nothing does not let a bad value through.
    for extra in ([], ["--filter", "nomatch"]):
        assert main(["verify", str(f), flag, value, *extra]) == 2
        assert message in capsys.readouterr().err
        assert main(["corpus", flag, value, *extra]) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and not captured.out


class _ClosedPipe:
    """A stdout whose reader has gone away, as in `prodconj corpus | head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command, code", [("catalog", 0), ("verify", 1), ("corpus", 0)])
def test_cli_closed_stdout_keeps_exit_code_and_report(tmp_path, capsys, monkeypatch,
                                                      command, code):
    f = tmp_path / "red.scn"
    f.write_text(RED, encoding="utf-8")
    report = tmp_path / "out.tsv"
    args = {"catalog": ["catalog"],
            "verify": ["verify", str(f), "--report", str(report)],
            "corpus": ["corpus", "--filter", "almost_product", "--report", str(report)]}[command]
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(args) == code
    assert capsys.readouterr().err == ""
    if command != "catalog":
        assert report.read_text(encoding="utf-8").startswith("# scenario=")


def _options(command: str) -> set[str]:
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[command]._actions
            for opt in action.option_strings if opt.startswith("--") and opt != "--help"}


def test_readme_cli_section_names_exactly_the_run_options():
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    assert named == _options("verify") | _options("corpus")


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == len(catalog_lines()) >= 18
    for line in out:
        kind, anchors, summary = line.split("\t")
        assert kind and anchors and summary


def test_cli_corpus_green_and_stable(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["corpus", "--report", str(a)]) == 0
    capsys.readouterr()
    assert main(["corpus", "--report", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text(encoding="utf-8")
    for name in corpus_names():
        assert f"# scenario={name} " in text
