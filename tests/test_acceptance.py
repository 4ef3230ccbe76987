"""The contract gate: one test per shipped guarantee.

Every test below runs the shipped corpus (or the differentiation engine)
and certifies one externally promised bound.  Run with -v for a line per
guarantee; each test also prints the margin it measured, which shows up
under -rA.
"""

import time
from pathlib import Path

import pytest

from prodconj.checks import catalog_lines
from prodconj.conjugation import ConjugateConnection
from prodconj.fields import almost_product_residual, frame_pair_residual
from prodconj.reporting import FAIL, PASS, SKIP
from prodconj.runner import corpus_names, load_shipped, run_scenario
from prodconj.scenario import load_scenario, make_context

TOL = 1e-9
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def corpus():
    """One full run of every shipped scenario, with wall times."""
    data = {}
    for name in corpus_names():
        scn = load_shipped(name)
        t0 = time.perf_counter()
        report = run_scenario(scn)
        data[name] = (scn, report, time.perf_counter() - t0)
    return data


def _kind_rows(data, kind_name):
    """Yield (scenario, check, row_name, row) over checks of one kind."""
    for sname, (scn, report, _) in data.items():
        kinds = {c.name: c.kind.name for c in scn.checks}
        for row in report.rows:
            check, _, row_name = row.row_id.partition(".")
            if kinds.get(check) == kind_name:
                yield sname, check, row_name, row


def _check_rows(report, check):
    return {r.row_id.partition(".")[2]: r
            for r in report.rows if r.row_id.startswith(check + ".")}


def test_conjugate_suite_on_every_scenario(corpus):
    core = {"structure_flip", "argument_transport", "involution",
            "torsion_shift", "curvature_transport"}
    covered = set()
    metric_rows = 0
    worst = 0.0
    for sname, check, row_name, row in _kind_rows(corpus, "prop11"):
        if row_name in core:
            assert row.status == PASS and row.residual <= TOL, \
                (sname, row.row_id, row.residual)
            worst = max(worst, row.residual)
            covered.add(sname)
        elif row_name == "metric_transport" and row.status != SKIP:
            assert row.status == PASS and row.residual <= TOL, \
                (sname, row.row_id, row.residual)
            metric_rows += 1
    assert covered == set(corpus)
    assert metric_rows >= 2
    slowest = 0.0
    for sname, (scn, report, seconds) in corpus.items():
        assert scn.plan.count == 200, sname
        assert seconds <= 5.0, (sname, seconds)
        slowest = max(slowest, seconds)
    print(f"PASS conjugate suite: worst residual {worst:.3e} on all "
          f"{len(corpus)} scenarios, {metric_rows} metric rows, "
          f"slowest scenario {slowest:.2f}s")


def test_double_conjugation_restores_base(corpus):
    worst_row = max(row.residual
                    for _, _, row_name, row in _kind_rows(corpus, "prop11")
                    if row_name == "involution")
    assert worst_row <= TOL
    # independent route: conjugate twice and compare values directly
    worst_direct = 0.0
    pairs = 0
    for sname, (scn, _, _) in corpus.items():
        ctx = make_context(scn)
        for cname, op in scn.connections.items():
            for ename, E in scn.endos.items():
                if almost_product_residual(ctx, E).value > 1e-12:
                    continue
                twice = ConjugateConnection(ConjugateConnection(op, E), E)

                def drift(X, Y, twice=twice, op=op):
                    return [a - b for a, b in zip(twice.apply(ctx, X, Y),
                                                  op.apply(ctx, X, Y))]

                res = frame_pair_residual(ctx, drift)
                assert res.value <= TOL, (sname, cname, ename, res.value)
                worst_direct = max(worst_direct, res.value)
                pairs += 1
    assert pairs >= 9
    print(f"PASS double conjugation: report rows {worst_row:.3e}, "
          f"direct recomputation {worst_direct:.3e} on {pairs} pairs")


def test_projector_algebra_and_mean(corpus):
    seen = {"psi_idempotent": 0, "chi_idempotent": 0, "affinity": 0}
    worst = 0.0
    for sname, check, row_name, row in _kind_rows(corpus, "psi_chi"):
        assert row.status == PASS and row.residual <= TOL, (sname, row.row_id)
        worst = max(worst, row.residual)
        if row_name in seen:
            seen[row_name] += 1
    assert all(n >= 3 for n in seen.values()), seen
    mean = {"halving": 0, "forms_agreement": 0}
    for sname, check, row_name, row in _kind_rows(corpus, "mean_decomposition"):
        assert row.status == PASS and row.residual <= TOL, (sname, row.row_id)
        worst = max(worst, row.residual)
        if row_name in mean:
            mean[row_name] += 1
    assert all(n >= 7 for n in mean.values()), mean
    print(f"PASS projector algebra and mean: worst residual {worst:.3e}")


def test_splitting_tensors_corpus_wide(corpus):
    covered = set()
    worst = 0.0
    for sname, check, row_name, row in _kind_rows(corpus, "kirichenko"):
        assert row.status == PASS and row.residual <= TOL, (sname, row.row_id)
        worst = max(worst, row.residual)
        covered.add(sname)
    assert covered == set(corpus)
    shifted = {}
    for sname, check, row_name, row in _kind_rows(corpus, "projective_change"):
        assert row.status == PASS and row.residual <= TOL, (sname, row.row_id)
        shifted.setdefault(sname, set()).add(row_name)
    assert len(shifted) >= 2, shifted
    for rows in shifted.values():
        assert {"structural_invariance", "virtual_difference"} <= rows
    print(f"PASS splitting tensors: worst residual {worst:.3e}, "
          f"projective shifts on {sorted(shifted)}")


def test_pencil_mixing_and_axis_reductions(corpus):
    _, report, _ = corpus["pencil_pythagorean"]
    mixing = [r for r in report.rows if r.row_id.endswith(".mixing_rule")]
    assert mixing
    for r in mixing:
        assert r.status == PASS and r.residual <= TOL, (r.row_id, r.residual)
    axes = [r for r in report.rows if ".axis_reduction_" in r.row_id]
    assert len(axes) >= 2
    for r in axes:
        assert r.status == PASS and r.residual <= 1e-12, (r.row_id, r.residual)
    print(f"PASS pencil: mixing {max(r.residual for r in mixing):.3e} "
          f"on {len(mixing)} rows, axis reductions "
          f"{max(r.residual for r in axes):.3e} on {len(axes)} rows")


def test_projected_splitting_and_involutivity(corpus):
    # block identities on a constant, an x-dependent, and a curved-metric pair
    targets = [("flat_swap", "block_splitting"),
               ("projector_xdep", "block_splitting"),
               ("projector_xdep", "block_splitting_framed"),
               ("sphere_metric", "block_splitting")]
    need = {"structural_formula", "virtual_formula",
            "fundamental_structural", "fundamental_virtual"}
    worst = 0.0
    for sname, check in targets:
        rows = _check_rows(corpus[sname][1], check)
        assert need <= set(rows), (sname, check)
        for row_name, r in rows.items():
            if r.status == SKIP:
                assert row_name not in need, (sname, r.row_id)
                continue
            assert r.status == PASS and r.residual <= TOL, (sname, r.row_id)
            worst = max(worst, r.residual)
    # no instance anywhere of hypotheses holding while a side fails to close
    conclusions = {"vertical_involutive", "horizontal_involutive"}
    instances = 0
    for sname, (scn, report, _) in corpus.items():
        for spec in scn.checks:
            if spec.kind.name != "prop25":
                continue
            instances += 1
            rows = _check_rows(report, spec.name)
            if rows["hypothesis_torsion_free"].residual > TOL:
                continue
            for row_name in conclusions:
                r = rows[row_name]
                assert r.status == PASS and r.residual <= TOL, (sname, r.row_id)
    assert instances >= 4
    # and the deliberately non-involutive pair shows visible conjugate torsion
    torsion = _check_rows(corpus["involutivity_r3"][1], "conjugate_torsion")
    r = torsion["conjugate_torsion"]
    assert r.status == PASS and r.residual >= 1e-3, r.residual
    print(f"PASS projected splitting: worst block residual {worst:.3e}, "
          f"{instances} involutivity instances, visible torsion {r.residual:.3e}")


def test_family_sweep_closure_set(corpus):
    rows = _check_rows(corpus["prop32_grid"][1], "sweep")
    solutions = {"member(0,0)", "member(0,-2)", "member(1,-1)", "member(-1,-1)"}
    members = {n for n in rows if n.startswith("member(")}
    assert solutions <= members
    probes = members - solutions
    assert len(probes) >= 12
    worst = 0.0
    for n in solutions:
        assert rows[n].status == PASS and rows[n].residual <= TOL, n
        worst = max(worst, rows[n].residual)
    for n in probes:
        # 0.0 here encodes: the squared member visibly moved off the base
        assert rows[n].status == PASS and rows[n].residual == 0.0, n
    assert rows["genericity"].residual == 0.0
    assert rows["coefficient_match"].residual <= TOL
    assert rows["expansion_fit"].residual <= TOL
    assert rows["solution_count"].residual == 0.0
    for sname, check, row_name, row in _kind_rows(corpus, "family"):
        if row.status != SKIP:
            assert row.status == PASS and row.residual <= TOL, (sname, row.row_id)
    print(f"PASS family sweep: 4 closures at {worst:.3e}, "
          f"{len(probes)} probes repelled, coefficients within "
          f"{rows['coefficient_match'].residual:.3e}")


def test_differentiation_engine():
    from test_jets import (
        test_chain_rule_for_sin,
        test_exp_is_its_own_derivative,
        test_leibniz_rule,
        test_thousand_pairs_match_central_differences,
    )
    test_thousand_pairs_match_central_differences()
    test_leibniz_rule()
    test_chain_rule_for_sin()
    test_exp_is_its_own_derivative()
    print("PASS differentiation engine: 1000 sampled pairs against central "
          "differences, product/chain/exponential properties")


def test_deterministic_reports_and_anchor_coverage(corpus):
    first, second = [], []
    for name in corpus_names():
        first.extend(corpus[name][1].render_lines())
        second.extend(run_scenario(load_shipped(name)).render_lines())
    assert first == second
    wanted = set()
    for line in catalog_lines():
        wanted.update(line.split("\t")[1].split(","))
    exercised = set()
    passed = 0
    for name in corpus_names():
        for r in corpus[name][1].rows:
            if r.status == PASS:
                exercised.update(r.anchor.split(","))
                passed += 1
            assert r.status not in (FAIL, "error"), (name, r.row_id)
    missing = wanted - exercised
    assert not missing, sorted(missing)
    print(f"PASS determinism and coverage: {len(first)} identical report "
          f"lines, {len(wanted)} anchors all exercised, {passed} passing rows")


def test_row_anchors_and_statuses_are_pinned(corpus):
    """Every corpus row keeps its id, anchor and status, and the catalog
    keeps its exact text; both tables were taken before the check table
    became declarative, so a rewrite of the registry cannot move a row."""
    got = [f"{name}\t{r.row_id}\t{r.anchor}\t{r.status}"
           for name in corpus_names() for r in corpus[name][1].sorted_rows()]
    assert got == (DATA / "corpus_pins.tsv").read_text().splitlines()
    assert catalog_lines() == (DATA / "catalog.txt").read_text().splitlines()


def test_four_dimensional_split_is_pinned():
    """A dim-4 chart with a curved base and a shear-split pair: every row
    keeps its id, anchor and status, and every identity row holds.  Run at
    20 samples (about 2-5 s, most of it the prop27 and prop11 scans); the
    pinned statuses are the same at the scenario's own 200."""
    scn = load_scenario((DATA / "split_r4.scn").read_text(), name="split_r4")
    assert scn.chart.dim == 4
    report = run_scenario(scn, samples=20)
    got = [f"{r.row_id}\t{r.anchor}\t{r.status}" for r in report.sorted_rows()]
    assert got == (DATA / "split_r4_pins.tsv").read_text().splitlines()
    # an inverted or hypothesis_fail row passes by exceeding the floor
    identities = [r for r in report.rows if r.status == PASS and "expect" not in r.note]
    worst = max(r.residual for r in identities)
    assert worst <= TOL, worst
    print(f"PASS dim-4 split: {len(identities)} identity rows, worst residual {worst:.3e}")
