"""Generated instances: the identities that hold for every input, on random geometry.

A Hypothesis strategy writes scenario text for charts of dimension 2-4: a
Christoffel table of random polynomials of degree <= 2 with integer
coefficients in -2..2, and the structure E = I - 2 v (x) e^0 with
v = (1, p_1, ..., p_{n-1}) for random polynomials p_k, so that E^2 = I
holds exactly and no division is needed.  The text goes through
`load_scenario`, so the loader is on the route.  Every row of the kinds
whose statements hold for every instance must pass, and the conjugate's
coefficients must match the pointwise expansion in tests/oracles.py.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prodconj.conjugation import ConjugateConnection
from prodconj.fields import EvalContext
from prodconj.reporting import PASS
from prodconj.runner import run_scenario
from prodconj.scenario import load_scenario

from oracles import conjugate_gamma, eval_scalar, fd_grad

NAMES = ("x", "y", "z", "w")
UNCONDITIONAL_KINDS = ("almost_product", "prop11", "kirichenko", "mean_decomposition",
                       "psi_laws", "connection_laws")
SAMPLES = 20


@st.composite
def polynomials(draw, dim):
    """Up to three terms c * monomial, c in -2..2, monomial of degree <= 2."""
    monomials = [()] + [(i,) for i in range(dim)] + [
        (i, j) for i in range(dim) for j in range(i, dim)]
    terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(monomials)),
                          max_size=3))
    parts = [f"(* {c} {' '.join(NAMES[i] for i in m)})" if m else str(c) for c, m in terms]
    return f"(+ {' '.join(parts)})" if parts else "0"


@st.composite
def instances(draw, dim):
    """Scenario text for one random base connection and structure."""
    v = ["1"] + [draw(polynomials(dim)) for _ in range(dim - 1)]
    lines = ["[chart]", f"dim = {dim}", f"names = {', '.join(NAMES[:dim])}", "",
             "[samples]", f"count = {SAMPLES}", "seed = 5", "", "[endo E]"]
    for k in range(dim):
        # row k of I - 2 v (x) e^0: only column 0 carries v
        first = f"(- {int(k == 0)} (* 2 {v[k]}))"
        lines.append(f"row {k} = {first} " + " ".join(str(int(k == j)) for j in range(1, dim)))
    lines += ["", "[connection base]", "kind = christoffel"]
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                lines.append(f"gamma {k} {i} {j} = {draw(polynomials(dim))}")
    for kind in UNCONDITIONAL_KINDS:
        lines += ["", f"[check {kind}]", f"kind = {kind}"]
        if kind != "almost_product":
            lines.append("connection = base")
        if kind != "connection_laws":
            lines.append("structure = E")
    return "\n".join(lines) + "\n"


def _conjugate_coefficients(scn, points):
    """Gamma^E[m, k, i, j] from the engine: the conjugate applied to frame pairs."""
    ctx = EvalContext(scn.chart, points)
    conj = ConjugateConnection(scn.connections["base"], scn.endos["E"])
    n = scn.chart.dim
    out = np.empty((len(points), n, n, n))
    frame = ctx.frame()
    for i in range(n):
        for j in range(n):
            for k, jet in enumerate(conj.apply(ctx, frame[i], frame[j])):
                out[:, k, i, j] = jet.value
    return out


def _oracle_coefficients(scn, point):
    gamma = np.array([[[float(eval_scalar(e, point)) for e in row] for row in plane]
                      for plane in scn.connections["base"].table.components])
    entries = scn.endos["E"].entries
    E = np.array([[float(eval_scalar(e, point)) for e in row] for row in entries])
    grads = np.array([[fd_grad(e, point) for e in row] for row in entries])  # [k, j, i]
    dE = [grads[:, :, i] for i in range(len(point))]
    return conjugate_gamma(gamma, E, dE)


@pytest.mark.parametrize("dim", (2, 3, 4))
@settings(max_examples=7, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_generated_instances_pass_every_unconditional_row(dim, data):
    """Seven instances per dimension, the same ones on every run."""
    text = data.draw(instances(dim), label="scenario")
    scn = load_scenario(text, name="generated")
    report = run_scenario(scn)
    assert report.rows
    bad = [(r.row_id, r.status, r.residual) for r in report.rows if r.status != PASS]
    assert not bad, text
    kinds = {spec.kind.name for spec in scn.checks}
    assert kinds == set(UNCONDITIONAL_KINDS)

    points = np.random.default_rng(0).uniform(-0.9, 0.9, size=(3, scn.chart.dim))
    got = _conjugate_coefficients(scn, points)
    for m, point in enumerate(points):
        want = _oracle_coefficients(scn, point)
        assert np.allclose(got[m], want, rtol=1e-9, atol=1e-8), text
