"""Generated instances: the identities that hold for every input, on random geometry.

A Hypothesis strategy writes scenario text for charts of dimension 2-4: a
Christoffel table of random polynomials of degree <= 2 with integer
coefficients in -2..2, and the structure E = I - 2 v (x) e^0 with
v = (1, p_1, ..., p_{n-1}) for random polynomials p_k, so that E^2 = I
holds exactly and no division is needed.  The text goes through
`load_scenario`, so the loader is on the route.  Every row of the kinds
whose statements hold for every instance must pass, and the conjugate's
coefficients and the tables of nabla E and of the structural and virtual
tensors must match the pointwise expansions in tests/oracles.py.

Some instances also carry the projector pair h = I - v (x) e^0, which is
idempotent because e^0 . v = 1 and whose difference structure h - (I - h)
is the same E, and a random one-form eta.  The pair kinds must pass on
them; the gated kinds may find their hypotheses false, but every row they
report is a finite measurement, and no conclusion fails.  Those instances
declare three distributions: both sides of the pair, and the line spanned
by v, which is the vertical side again through the spanning-field route.
All three are invariant under E exactly (E h = h, E v = -v), and a
multiple of v lies in the line under both routes.

A third set of instances carries a metric and a second pair.  The metric
is g = h + E^T h E with h = I + A^T A for a random polynomial matrix A,
that is the sum of M^T M over M in {I, E, A, AE}: positive definite, and
compatible with E exactly, because E^2 = I permutes those four terms.
(I + A^T A alone is compatible only with an E that is orthogonal for it.)
The second pair has h_Q = P D P^-1 for a coordinate projector D and
P = I + N, where N maps odd coordinates to even ones and kills even ones,
so N^2 = 0, P^-1 = I - N exactly and no division is needed; its sides are
not the line of v.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from prodconj.conjugation import ConjugateConnection, structural_tensor, virtual_tensor
from prodconj.connections import structure_derivative_twist
from prodconj.fields import EvalContext, vmax_abs
from prodconj.checks import REGISTRY
from prodconj.reporting import PASS, SKIP
from prodconj.runner import run_scenario
from prodconj.scenario import load_scenario, make_context

from oracles import conjugate_gamma, eval_scalar, fd_grad, structure_derivative

NAMES = ("x", "y", "z", "w")
SAMPLES = 20
# The same instances on every run.  No shrinking: one failing instance is
# reported as drawn, because shrinking whole scenarios takes minutes.
FIXED = settings(derandomize=True, database=None, deadline=None,
                 phases=(Phase.explicit, Phase.generate),
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@st.composite
def polynomials(draw, dim):
    """Up to three terms c * monomial, c in -2..2, monomial of degree <= 2."""
    monomials = [()] + [(i,) for i in range(dim)] + [
        (i, j) for i in range(dim) for j in range(i, dim)]
    terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(monomials)),
                          max_size=3))
    parts = [f"(* {c} {' '.join(NAMES[i] for i in m)})" if m else str(c) for c, m in terms]
    return f"(+ {' '.join(parts)})" if parts else "0"


def _mat_mul(a, b):
    """The product of two square matrices of expression texts."""
    n = len(a)
    return [[f"(+ {' '.join(f'(* {a[i][k]} {b[k][j]})' for k in range(n))})"
             for j in range(n)] for i in range(n)]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _metric_and_split(draw, dim, E) -> list[str]:
    """Sections for the metric g, its Levi-Civita connection lc, and the
    pair Q = (h_Q, I - h_Q), given the structure's matrix E."""
    eye = [[str(int(i == j)) for j in range(dim)] for i in range(dim)]
    A = [[draw(polynomials(dim)) for _ in range(dim)] for _ in range(dim)]
    terms = [_mat_mul(_transpose(M), M) for M in (eye, E, A, _mat_mul(A, E))]
    lines = ["", "[metric g]"]
    for a in range(dim):
        lines.append(f"upper {a} = " + " ".join(
            f"(+ {' '.join(t[a][b] for t in terms)})" for b in range(a, dim)))
    lines += ["", "[connection lc]", "kind = levi_civita", "metric = g"]
    # N maps odd coordinates to even ones and kills even ones, so N^2 = 0
    N = [[draw(polynomials(dim)) if i % 2 == 0 and j % 2 else "0" for j in range(dim)]
         for i in range(dim)]
    P = [[f"(+ {eye[i][j]} {N[i][j]})" for j in range(dim)] for i in range(dim)]
    P_inv = [[f"(- {eye[i][j]} {N[i][j]})" for j in range(dim)] for i in range(dim)]
    D = [[str(int(i == j and i % 2 == 1)) for j in range(dim)] for i in range(dim)]
    h_Q = _mat_mul(_mat_mul(P, D), P_inv)
    lines += ["", "[endo hq]"] + [f"row {k} = {' '.join(row)}" for k, row in enumerate(h_Q)]
    return lines + ["", "[pair Q]", "h = hq"]


@st.composite
def instances(draw, dim, with_pair=False, with_metric=False):
    """Scenario text for one random base connection and structure, with
    `with_pair` the projector pair P and a one-form eta, and with
    `with_metric` the metric g, lc and the pair Q as well; no checks."""
    v = ["1"] + [draw(polynomials(dim)) for _ in range(dim - 1)]
    lines = ["[chart]", f"dim = {dim}", f"names = {', '.join(NAMES[:dim])}", "",
             "[samples]", f"count = {SAMPLES}", "seed = 5", "", "[endo E]"]
    # I - 2 v (x) e^0: only column 0 carries v
    E = [[f"(- {int(k == 0)} (* 2 {v[k]}))"] + [str(int(k == j)) for j in range(1, dim)]
         for k in range(dim)]
    lines += [f"row {k} = {' '.join(row)}" for k, row in enumerate(E)]
    lines += ["", "[connection base]", "kind = christoffel"]
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                lines.append(f"gamma {k} {i} {j} = {draw(polynomials(dim))}")
    if with_pair:
        lines += ["", "[endo h]"]
        for k in range(dim):
            # row k of I - v (x) e^0
            lines.append(f"row {k} = (- {int(k == 0)} {v[k]}) "
                         + " ".join(str(int(k == j)) for j in range(1, dim)))
        eta = " ".join(draw(polynomials(dim)) for _ in range(dim))
        lines += ["", "[pair P]", "h = h", "", "[oneform eta]", f"components = {eta}"]
        for side in ("horizontal", "vertical"):
            lines += ["", f"[distribution D{side[0]}]", "pair = P", f"side = {side}"]
        q = draw(polynomials(dim))
        lines += ["", "[vector v]", f"components = {' '.join(v)}",
                  "", "[distribution line]", "span = v",
                  "", "[vector qv]", "components = " + " ".join(f"(* {q} {c})" for c in v)]
    if with_metric:
        lines += _metric_and_split(draw, dim, E)
    return "\n".join(lines) + "\n"


def _checks(checks: dict) -> str:
    """`[check NAME]` sections, from NAME -> {key: value}."""
    return "".join(f"\n[check {name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in checks.items())


UNCONDITIONAL = {
    "almost_product": {"kind": "almost_product", "structure": "E"},
    "connection_laws": {"kind": "connection_laws", "connection": "base"},
    **{kind: {"kind": kind, "connection": "base", "structure": "E"}
       for kind in ("prop11", "kirichenko", "mean_decomposition", "psi_laws")},
}
DISTRIBUTIONS = ("Dh", "Dv", "line")
PAIR_IDENTITIES = {
    "pair_axioms": {"kind": "pair_axioms", "pair": "P"},
    "structure_from_pair": {"kind": "structure_from_pair", "pair": "P"},
    "conjugate_hv": {"kind": "conjugate_hv", "connection": "base", "pair": "P"},
    "prop27": {"kind": "prop27", "connection": "base", "pair": "P"},
    **{f"invariant_{d}": {"kind": "invariant_distribution", "distribution": d,
                          "structure": "E"} for d in DISTRIBUTIONS},
}
GATED = {
    "prop25": {"kind": "prop25", "connection": "base", "pair": "P"},
    **{f"recurrent_{mode}": {"kind": "recurrent", "connection": "base", "structure": "E",
                             "eta": "eta", "mode": mode}
       for mode in ("structure", "identity")},
    **{f"{kind}_{d}": {"kind": kind, "connection": "base", "distribution": d,
                       "structure": "E"} for kind in ("prop22", "prop23") for d in DISTRIBUTIONS},
}


METRIC_AND_SPLIT = {
    "levi_civita_props": {"kind": "levi_civita_props", "connection": "lc", "structure": "E",
                          "metric": "g"},
    "prop11": {"kind": "prop11", "connection": "base", "structure": "E", "metric": "g"},
    **{kind: {"kind": kind, "connection": "base", "pair": "Q"}
       for kind in ("conjugate_hv", "prop27", "prop25")},
    **{kind: {"kind": kind, "pair": "Q"} for kind in ("pair_axioms", "structure_from_pair")},
    "skew_bridge": {"kind": "skew_bridge", "pair": "P", "other": "Q"},
}
MAY_SKIP = {"levi_civita_props.parallel_collapse",
            "prop25.vertical_involutive", "prop25.horizontal_involutive"}


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


def _oracle_parts(scn, point):
    """Gamma, E and the difference-quotient partials of E at one point."""
    gamma = np.array([[[float(eval_scalar(e, point)) for e in row] for row in plane]
                      for plane in scn.connections["base"].table.components])
    entries = scn.endos["E"].entries
    E = np.array([[float(eval_scalar(e, point)) for e in row] for row in entries])
    grads = np.array([[fd_grad(e, point) for e in row] for row in entries])  # [k, j, i]
    return gamma, E, [grads[:, :, i] for i in range(len(point))]


def _oracle_coefficients(scn, point):
    return conjugate_gamma(*_oracle_parts(scn, point))


def _derivative_tables(scn, points):
    """The engine's frame-pair tables of nabla E and of the structural and
    virtual tensors, [m, k, i, j] with None read as 0."""
    ctx = EvalContext(scn.chart, points)
    base, E = scn.connections["base"], scn.endos["E"]
    out = {}
    for name, op in (("nabla_E", structure_derivative_twist(base, E)),
                     ("structural", structural_tensor(base, E)),
                     ("virtual", virtual_tensor(base, E))):
        _, table = op.normal_form(ctx)
        out[name] = np.moveaxis(np.array([[[np.zeros(len(points)) if e is None else e.value
                                            for e in row] for row in plane]
                                          for plane in table]), -1, 0)
    return out


def _oracle_derivative_tables(scn, point):
    """nabla E from `oracles.structure_derivative`, and the halves
    ((nabla_{Ex} E)y +- (nabla_x E)Ey) / 2 written out in components."""
    gamma, E, dE = _oracle_parts(scn, point)
    D = structure_derivative(gamma, E, dE)
    along = np.einsum("mi,kmj->kij", E, D)
    rotated = np.einsum("kim,mj->kij", D, E)
    return {"nabla_E": D, "structural": (along + rotated) / 2, "virtual": (along - rotated) / 2}


@pytest.mark.parametrize("dim", (2, 3, 4))
@settings(FIXED, max_examples=7)
@given(data=st.data())
def test_generated_instances_pass_every_unconditional_row(dim, data):
    """Seven instances per dimension, the same ones on every run."""
    text = data.draw(instances(dim), label="scenario") + _checks(UNCONDITIONAL)
    scn = load_scenario(text, name="generated")
    report = run_scenario(scn)
    assert report.rows
    bad = [(r.row_id, r.status, r.residual) for r in report.rows if r.status != PASS]
    assert not bad, text
    kinds = {spec.kind.name for spec in scn.checks}
    assert kinds == set(UNCONDITIONAL)

    points = np.random.default_rng(0).uniform(-0.9, 0.9, size=(3, scn.chart.dim))
    got = _conjugate_coefficients(scn, points)
    tables = _derivative_tables(scn, points)
    for m, point in enumerate(points):
        want = _oracle_coefficients(scn, point)
        assert np.allclose(got[m], want, rtol=1e-9, atol=1e-8), text
        for name, table in _oracle_derivative_tables(scn, point).items():
            assert np.allclose(tables[name][m], table, rtol=1e-9, atol=1e-8), (name, text)


@pytest.mark.parametrize("dim", (2, 3, 4))
@settings(FIXED, max_examples=3)
@given(data=st.data())
def test_generated_pairs_pass_every_identity_and_measure_every_gate(dim, data):
    """Three instances per dimension with a projector pair and a one-form."""
    text = data.draw(instances(dim, with_pair=True), label="scenario")
    scn = load_scenario(text + _checks(PAIR_IDENTITIES | GATED), name="generated")
    rows = {r.row_id: r for r in run_scenario(scn).rows}
    for check, keys in (PAIR_IDENTITIES | GATED).items():
        kind = REGISTRY[keys["kind"]]
        mine = {rid.split(".", 1)[1]: r for rid, r in rows.items()
                if rid.startswith(check + ".")}
        assert mine, (check, text)
        for name, row in mine.items():
            if name in kind.hypotheses:  # a measurement: finite, may fail
                assert np.isfinite(row.residual), (check, name, text)
            else:
                allowed = (PASS, SKIP) if check in GATED else (PASS,)
                assert row.status in allowed, (check, name, row.status, row.residual, text)

    ctx = make_context(scn)
    qv = ctx.vector(scn.vectors["qv"])
    for d in ("line", "Dv"):  # the spanning-field route and the pair route
        outside = scn.distributions[d].complement_values(ctx, qv)
        assert np.all(outside <= 1e-12 * vmax_abs(qv)), (d, np.max(outside), text)


@pytest.mark.parametrize("dim", (2, 3, 4))
@settings(FIXED, max_examples=3)
@given(data=st.data())
def test_generated_metrics_and_split_pairs_pass_every_identity(dim, data):
    """Three instances per dimension with the metric g and the pair Q.  A
    random E is seldom parallel and Q's sides seldom involutive, so the
    rows behind those gates may be skipped; every other row passes."""
    text = data.draw(instances(dim, with_pair=True, with_metric=True), label="scenario")
    report = run_scenario(load_scenario(text + _checks(METRIC_AND_SPLIT), name="generated"))
    assert {r.row_id.split(".", 1)[0] for r in report.rows} == set(METRIC_AND_SPLIT)
    for row in report.rows:
        check, name = row.row_id.split(".", 1)
        if name in REGISTRY[METRIC_AND_SPLIT[check]["kind"]].hypotheses:
            assert np.isfinite(row.residual), (row.row_id, text)
        elif row.row_id in MAY_SKIP:
            assert row.status in (PASS, SKIP), (row.row_id, row.status, text)
        else:
            assert row.status == PASS, (row.row_id, row.status, row.residual, text)
