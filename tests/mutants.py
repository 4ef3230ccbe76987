"""One-line mutants of the program, each run against the test suite.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant replaces one piece of text in one file of `src/prodconj`.  It
is applied to a temporary copy of the checkout, and `pytest -x -q` runs
there; a failing run catches the mutant, a passing one lets it survive.
The run leaves out `ANCHOR_TEST`, which checks that every mutant's text is
in place and so fails on any applied mutant.
The unmutated copy runs first and must pass, or no verdict means anything.
The script prints one line per mutant and exits 1 if any survived.  It is
not collected by pytest (its name has no `test_` prefix): a full run
takes several minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900
ANCHOR_TEST = "tests/test_mutant_table.py"

# (name, file under src/prodconj, old text, new text)
MUTANTS = [
    ("torsion_slots_unswapped", "connections.py",
     "contract(table, y, x)", "contract(table, x, y)"),
    ("curvature_tensor_transposed", "connections.py",
     "images[i][j][m]", "images[j][i][m]"),
    ("closed_form_bracket_sign", "generalized.py",
     "C(ctx, bracket(X, Y), Z)", "C(ctx, bracket(Y, X), Z)"),
    ("frame_curvature_unsigned", "connections.py",
     "vneg(endo_apply(R[j][i], z))", "endo_apply(R[j][i], z)"),
    ("weak_counterexample", "checks.py",
     "status = PASS if res.value > floor else FAIL",
     "status = PASS if res.value > tol else FAIL"),
    ("exp_second_derivative", "jets.py",
     "e if f.order >= 2 else None)", "2 * e if f.order >= 2 else None)"),
    ("product_hessian_cross_term", "jets.py",
     "g0[..., None] * self.hess + cross", "g0[..., None] * self.hess"),
    ("reducer_argmin", "fields.py",
     "k = int(np.argmax(size))", "k = int(np.argmin(size))"),
    ("gate_any_hypothesis", "fields.py",
     "if all(res.within(tol) for _, res in hypotheses):",
     "if any(res.within(tol) for _, res in hypotheses):"),
    ("lower_triangle_frame_scan", "fields.py",
     "        for j in range(n):\n            for name, value in rows(i, j):",
     "        for j in range(i + 1):\n            for name, value in rows(i, j):"),
    ("levi_civita_half_weight", "connections.py",
     "gammas[k][i][j] = gammas[k][j][i] = total * 0.5",
     "gammas[k][i][j] = gammas[k][j][i] = total * 0.5000001"),
    ("contract_slots_swapped", "fields.py",
     "c = plane[i][j]", "c = plane[j][i]"),
    ("strict_within", "reporting.py",
     "return self.value <= tol", "return self.value < tol"),
    ("along_on_argument", "connections.py",
     "ys = [_frame_image(ctx, self.arg, j) for j in range(n)]",
     "ys = [_word(ctx, _slot(self.arg), _frame_image(ctx, self.along, j)) for j in range(n)]"),
    ("inverse_metric_gradient_sign", "connections.py",
     "dGinv = -(Ginv", "dGinv = (Ginv"),
    ("structure_derivative_slot", "connections.py",
     "(1.0, Sandwiched(base, arg=structure))", "(1.0, Sandwiched(base, along=structure))"),
    ("suite_tolerance_unreplaced", "checks.py",
     "return tol if a is TOL else a", "return a"),
    ("suite_args_reversed", "checks.py",
     "for a in args))", "for a in reversed(args)))"),
    ("equality_ignores_along", "connections.py",
     "self._key = (op, out, arg, along)", "self._key = (op, out, arg)"),
    ("equality_ignores_coefficients", "connections.py",
     "self._key = terms\n", "self._key = tuple(op for _, op in terms)\n"),
    ("equality_compares_label", "connections.py",
     "self._key = terms\n", "self._key = terms, label\n"),
    ("distribution_equality_compares_label", "distributions.py",
     "self._key = (span, pair, side)", "self._key = (label, span, pair, side)"),
    ("skip_note_dropped", "checks.py",
     'suffix = "skip expected here"', 'suffix = ""'),
    ("leibniz_scale_dropped", "connections.py",
     "vscale(xf * coefficient_sum, y)", "vscale(xf, y)"),
    ("pencil_axes_swapped", "conjugation.py",
     "for a, b in ((1, 0), (0, 1)))", "for a, b in ((0, 1), (1, 0)))"),
    ("case_needs_unchecked", "scenario.py",
     'raise _bad(line, f"{key} = {text} needs {spec.needs}")', "pass"),
    ("sandwiched_weight_reversed", "connections.py",
     "{(out + outs + _slot(self.arg), alongs",
     "{((out + outs + _slot(self.arg))[::-1], alongs"),
    ("along_word_order", "connections.py",
     "alongs + _slot(self.along)): c", "_slot(self.along) + alongs): c"),
    ("frame_pair_lookup_transposed", "connections.py",
     "_fold((c, t[k][i][j]) for c, _, t in forms)", "_fold((c, t[k][j][i]) for c, _, t in forms)"),
    ("weight_term_dropped", "connections.py",
     "_evaluate(ctx, weight, table, xs[i], ys[j])", "_evaluate(ctx, {}, table, xs[i], ys[j])"),
    ("combination_weight_without_coefficient", "connections.py",
     "sum(c * w.get(word, 0.0) for c, w, _ in forms)", "sum(w.get(word, 0.0) for c, w, _ in forms)"),
    ("zero_skip_without_finite_guard", "fields.py",
     "return (a.const == 0.0 and b.finite()) or (b.const == 0.0 and a.finite())",
     "return a.const == 0.0 or b.const == 0.0"),
    ("zero_skip_order_untruncated", "fields.py",
     "return acc.truncated(min(acc.order, k))", "return acc"),
    ("zero_skip_before_the_overflow", "fields.py",
     "if p is None or _vanishes(p, yj):",
     "if p is None or yj.const == 0.0 and c.finite() and xi.finite() or _vanishes(p, yj):"),
    ("rank_drops_constant_rows", "distributions.py",
     "rows = [row for row in P if any(e.const != 0.0 for e in row)]",
     "rows = [row for row in P if any(e.const is None for e in row)]"),
    ("norm_rank_without_finite_fallback", "distributions.py",
     "if not np.isfinite(M).all():", "if False:"),
    ("shared_zero_key_drops_order", "jets.py",
     "key = (_PACK(c), dim, order, batch_shape)", "key = (_PACK(c), dim, batch_shape)"),
    ("shared_zero_key_drops_shape", "jets.py",
     "key = (_PACK(c), dim, order, batch_shape)", "key = (_PACK(c), dim, order)"),
    ("certify_reference_first_sample", "distributions.py",
     "rank = counts.max()", "rank = counts[0]"),
    ("curvature_table_indices_swapped", "connections.py",
     "columns = [vsub(A(i, j, k), A(j, i, k))", "columns = [vsub(A(j, i, k), A(i, j, k))"),
    ("frame_read_transposed", "connections.py",
     "plane[i][j] or zero", "plane[j][i] or zero"),
    ("curvature_table_without_gamma_gamma", "connections.py",
     "return _evaluate(ctx, weight, values, frame[i], pairs[j][k])",
     "return _evaluate(ctx, weight, _empty_table(n), frame[i], pairs[j][k])"),
    ("self_cancel_without_finite_guard", "jets.py",
     "if other is self and self.finite():", "if other is self:"),
    ("constant_residual_last_sample", "fields.py",
     "ctx.points[0]) if jets[0].value.ndim", "ctx.points[-1]) if jets[0].value.ndim"),
    ("column_read_transposed", "fields.py",
     "[row[j] for row in self.endo(F)]", "list(self.endo(F)[j])"),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               "*.egg-info")


def run_mutant(file: str, old: str, new: str) -> tuple[bool, float, str]:
    """(caught, seconds, first failing test or '') for one mutant; an empty
    `old` runs the copy unmutated."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        if old:
            path = copy / "src" / "prodconj" / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore", ANCHOR_TEST],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        seconds = time.perf_counter() - start
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode != 0, seconds, failed[0] if failed else ""


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no mutant named {sorted(unknown)}")
    failed, seconds, first = run_mutant("", "", "")
    if failed:
        raise SystemExit(f"the unmutated suite fails ({first}); no mutant can be judged")
    print(f"{'baseline':9s} {'unmutated suite passes':30s} {seconds:6.1f} s", flush=True)
    survived = 0
    for name, file, old, new in MUTANTS:
        if names and name not in names:
            continue
        caught, seconds, first = run_mutant(file, old, new)
        survived += not caught
        print(f"{'caught' if caught else 'SURVIVED':9s} {name:30s} {seconds:6.1f} s  {first}",
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
