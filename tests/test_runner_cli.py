"""Report execution and the command-line surface."""

import numpy as np
import pytest

from prodconj.checks import CheckKind, catalog_lines
from prodconj.cli import main
from prodconj.errors import OrderError
from prodconj.reporting import ERROR, FAIL, PASS, SKIP
from prodconj.runner import corpus_names, load_shipped, run_scenario
from prodconj.scenario import CheckSpec, load_scenario

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


def test_jobs_do_not_change_bytes():
    scn = load_scenario(GOOD, name="good")
    serial = "\n".join(run_scenario(scn).render_lines())
    threaded = "\n".join(run_scenario(scn, jobs=4).render_lines())
    assert serial == threaded


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
        report = run_scenario(load_shipped(name))
        assert not report.failed, f"{name} failed"
        chunks.append("\n".join(report.render_lines()))
    first = "\n".join(chunks)
    chunks2 = []
    for name in corpus_names():
        chunks2.append("\n".join(run_scenario(load_shipped(name)).render_lines()))
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
                 "--filter", "inv", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "seed=5 samples=9" in out
    assert "parallel." not in out


def test_cli_missing_file_is_config_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.scn")]) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--samples", "0"),
                                         ("--samples", "100000000000000000000000")])
def test_cli_bad_sample_flags_are_config_errors(tmp_path, capsys, flag, value):
    f = tmp_path / "good.scn"
    f.write_text(GOOD, encoding="utf-8")
    # The flags are checked before the filter picks checks, so a filter
    # that matches nothing does not let a bad value through.
    for extra in ([], ["--filter", "nomatch"]):
        assert main(["verify", str(f), flag, value, *extra]) == 2
        assert "error: sample" in capsys.readouterr().err
        assert main(["corpus", flag, value, *extra]) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and not captured.out


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
    assert main(["corpus", "--report", str(b), "--jobs", "3"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text(encoding="utf-8")
    for name in corpus_names():
        assert f"# scenario={name} " in text
