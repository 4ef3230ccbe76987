"""Scenario files: a line-oriented description of one verification setup.

Grammar.  Lines are either blank, comments (# or ;), section headers
`[type]` / `[type name]`, or `key = value` entries belonging to the open
section.  Values embed scalar expressions as prefix s-expressions, read by
`expr.parse_exprs`; keys that address components carry 0-based indices in
the key itself, e.g. `gamma 1 0 0 = (* 2 x)` or `row 0 = 1 (coord 0)`.

Section types:
  chart                dim, names (comma list, optional), box (lo:hi list)
  samples              seed, count
  tolerance            identity (default judging tolerance)
  vector NAME          components = expr expr ...
  oneform NAME         components = expr expr ...
  endo NAME            row K = expr ...            (output component K)
  metric NAME          upper K = expr ...          (entries (K,K)..(K,n-1))
  tensor NAME          comp K I J = expr, or kind = structure_derivative
                       (with connection = and structure =), or kind =
                       derivative_mix (adds lam = and mu = weights)
  connection NAME      kind = flat | christoffel | levi_civita | sum
  pair NAME            h = endo name (v derived), optionally v = endo name
  pencil NAME          first, second (endo names), alpha, beta (rationals)
  distribution NAME    span = vector names, or pair = name + side =
  check NAME           kind = registry kind, its parameters, and the
                       judging controls expect / floor / tol

Every section reads its entries the same way: a key its type (or kind)
does not allow, a repeated key, a malformed or out-of-range index, a
non-finite number or a negative tolerance is an error.  Loading never
evaluates a check; it does probe structural invariants (involutivity of
endos used as structures, pencil skew commutation) on a small
deterministic point batch so misconfigured inputs fail before any
residual is computed.  Whatever goes wrong while building or probing a
section becomes a message with its source line; all of them are raised
together as one ScenarioError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property

import numpy as np

from .checks import EXPECTATIONS, DEFAULT_FLOOR, REGISTRY, CheckKind
from .conjugation import Pencil, skew_commutation_residual
from .connections import (
    ChristoffelConnection,
    ConnectionOp,
    LeviCivitaConnection,
    SumConnection,
    flat_connection,
    structure_derivative_twist,
)
from .distributions import DistributionSpec, ProjectorPair, pair_from_h
from .errors import ConfigError, ScenarioError
from .expr import ZERO, Expr, parse_exprs, validate_expr
from .fields import (
    Chart,
    EndoField,
    EvalContext,
    MetricField,
    OneFormField,
    Tensor12Field,
    VectorField,
    almost_product_residual,
    context_for,
)
from .generalized import mixed_derivative_twist
from .sampling import SamplePlan

_HEADER = re.compile(r"\[\s*([a-z_]+)(?:\s+([A-Za-z_][\w.-]*))?\s*\]$")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BARE_SECTIONS = ("chart", "samples", "tolerance")
# build order: a section may refer to objects of an earlier phase, or of
# its own phase defined earlier in the file; tensors with a `kind` are
# derived from connections and wait for them (phase 4)
_PHASE = {"chart": 0, "samples": 1, "tolerance": 1,
          "vector": 2, "oneform": 2, "endo": 2, "metric": 2, "tensor": 2,
          "connection": 3, "pair": 5, "pencil": 5, "distribution": 5, "check": 6}
_MAX_DIM = 16
_DEFAULT_TOL = 1e-9
_PROBE_COUNT = 8
_PROBE_TOL = 1e-9

# indexed keys: name -> (index count, expressions wanted given dim and indices)
_INDEXED = {
    "row": (1, lambda n, k: n),
    "upper": (1, lambda n, k: n - k),
    "comp": (3, lambda n, *ijk: 1),
    "gamma": (3, lambda n, *ijk: 1),
}
# keys allowed beside `kind` in a [connection] / derived [tensor], by kind
_CONNECTION_KEYS = {"flat": (), "christoffel": ("gamma",),
                    "levi_civita": ("metric",), "sum": ("base", "tensor")}
_TWIST_KEYS = {"structure_derivative": ("connection", "structure"),
               "derivative_mix": ("connection", "structure", "lam", "mu")}
# per check kind: the keys its section allows, and those it requires
_CHECK_KEYS = {name: (("kind", "expect", "floor", "tol") + tuple(kind.params),
                      tuple(p for p, spec in kind.params.items() if spec.required))
               for name, kind in REGISTRY.items()}
# reference roles and the scenario table each one names an object of
_TABLES = {"connection": "connections", "structure": "endos", "endo": "endos",
           "metric": "metrics", "oneform": "oneforms", "tensor": "tensors",
           "vector": "vectors", "pair": "pairs", "pencil": "pencils",
           "distribution": "distributions"}


class CheckSpec:
    def __init__(self, name: str, kind: CheckKind, params: dict, expect: str,
                 floor: float, tol: float | None, line: int):
        self.name = name
        self.kind = kind
        self.params = params
        self.expect = expect
        self.floor = floor
        self.tol = tol
        self.line = line


class Scenario:
    """A loaded scenario: its chart, plan and tolerance, each declared
    object by name in its table, and its checks in file order."""

    def __init__(self, name: str, chart: Chart, plan: SamplePlan, tol: float):
        self.name = name
        self.chart = chart
        self.plan = plan
        self.tol = tol
        self.connections: dict[str, ConnectionOp] = {}
        self.endos: dict[str, EndoField] = {}
        self.metrics: dict[str, MetricField] = {}
        self.oneforms: dict[str, OneFormField] = {}
        self.vectors: dict[str, VectorField] = {}
        self.tensors: dict[str, Tensor12Field | ConnectionOp] = {}
        self.pairs: dict[str, ProjectorPair] = {}
        self.pencils: dict[str, Pencil] = {}
        self.distributions: dict[str, DistributionSpec] = {}
        self.checks: list[CheckSpec] = []


_Entry = tuple[str, str, int]  # key, value, line: one `key = value` line


class _Section:
    def __init__(self, type: str, name: str | None, line: int, entries: list[_Entry]):
        self.type = type
        self.name = name
        self.line = line
        self.entries = entries
        self.kind: _Entry | None = None  # the first `kind` entry

    @property
    def title(self) -> str:
        return self.type if self.name is None else f"{self.type} {self.name}"

    @property
    def phase(self) -> int:
        derived = self.type == "tensor" and self.kind is not None
        return 4 if derived else _PHASE[self.type]


def _bad(line: int, message: str) -> ScenarioError:
    return ScenarioError(f"line {line}: {message}")


def _describe(exc: Exception) -> str:
    return str(exc) if isinstance(exc, ConfigError) else f"{type(exc).__name__}: {exc}"


def _sections(text: str, errors: list) -> list[_Section]:
    out: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line[0] == "[":
            m = _HEADER.match(line)
            current = None
            if not m:
                errors.append(f"line {lineno}: malformed section header {line!r}")
                continue
            stype, name = m.group(1), m.group(2)
            if stype not in _PHASE:
                errors.append(f"line {lineno}: unknown section type {stype!r}")
                continue
            if stype in _BARE_SECTIONS and name is not None:
                errors.append(f"line {lineno}: section [{stype}] takes no name")
            elif stype not in _BARE_SECTIONS and name is None:
                errors.append(f"line {lineno}: section [{stype}] needs a name")
                continue
            current = _Section(stype, name, lineno, [])
            out.append(current)
        elif "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
        elif current is None:
            errors.append(f"line {lineno}: entry outside any section")
        else:
            key, _, value = line.partition("=")
            entry = (key.strip(), value.strip(), lineno)
            current.entries.append(entry)
            if entry[0] == "kind" and current.kind is None:
                current.kind = entry
    return out


class _Loader:
    def __init__(self, text: str, name: str):
        self.errors: list[str] = []
        self.name = name
        self.sections = _sections(text, self.errors)
        self.chart: Chart | None = None
        self.scn: Scenario | None = None
        self.where: dict[tuple[str, str | None], int] = {}

    def fail(self, line: int, message: str) -> None:
        self.errors.append(f"line {line}: {message}")

    def guarded(self, line: int, build, *args) -> None:
        """Run one section's build or probe, recording what goes wrong.

        A reader's ScenarioError already names its lines; any other input
        problem is reported at `line`, the section's header.
        """
        try:
            build(*args)
        except ScenarioError as exc:
            self.errors.extend(exc.messages)
        except (ConfigError, ValueError, ArithmeticError, RecursionError) as exc:
            self.fail(line, _describe(exc))

    # -- entry readers ----------------------------------------------------

    def entries_map(self, sec: _Section, allowed: tuple[str, ...],
                    required: tuple[str, ...] = ()) -> dict:
        """A section's entries by key, reporting every bad or missing one.

        Plain keys map to their `_Entry`, indexed keys by their index
        tuple to their expressions (see `indexed`).
        """
        got, errors = {}, []
        for entry in sec.entries:
            key, item = entry[0], entry
            try:
                if key not in allowed or key in _INDEXED:
                    key, item = self.indexed(sec, entry, allowed)
                if key in got:
                    raise _bad(entry[2], f"duplicate key {entry[0]!r}")
                got[key] = item
            except ScenarioError as exc:
                errors.extend(exc.messages)
        for key in required:
            if key not in got:
                errors.append(f"line {sec.line}: [{sec.title}] needs {key}")
        if errors:
            raise ScenarioError(errors)
        return got

    def indexed(self, sec: _Section, entry: _Entry, allowed) -> tuple[tuple, list[Expr]]:
        """An indexed entry's index tuple and expressions.

        The one reader of `row K`, `upper K`, `comp K I J` and `gamma K I J`
        keys: each index must be an integer in 0..dim-1, and the value must
        hold as many expressions as the key addresses.
        """
        text, _, line = entry
        name, *index = text.split() or [""]
        if name not in allowed or name not in _INDEXED or len(index) != _INDEXED[name][0]:
            raise _bad(line, f"[{sec.type}] takes no key {text!r}")
        n = self.chart.dim
        try:
            key = tuple(int(i) for i in index)
        except ValueError:
            key = (-1,)
        if not all(0 <= i < n for i in key):
            raise _bad(line, f"indices in {text!r} must be integers in 0..{n - 1}")
        return key, self.exprs(entry, _INDEXED[name][1](n, *key))

    def kind_of(self, sec: _Section, kinds, default: str | None = None) -> str:
        entry = sec.kind
        if entry is None and default is None:
            raise _bad(sec.line, f"[{sec.title}] needs kind")
        if entry is None:
            return default
        _, kind, line = entry
        if kind not in kinds:
            raise _bad(line, f"unknown {sec.type} kind {kind!r}; "
                             f"known kinds: {', '.join(sorted(kinds))}")
        return kind

    def ref(self, role: str, entry: _Entry):
        """The object an entry names, from the scenario table of its role."""
        _, name, line = entry
        table = getattr(self.scn, _TABLES[role])
        if name not in table:
            raise _bad(line, f"unknown {role} {name!r}")
        return table[name]

    def refs(self, role: str, entry: _Entry) -> list:
        key, names, line = entry
        return [self.ref(role, (key, n.strip(), line)) for n in names.split(",")]

    def integer(self, entry: _Entry, lo: int, hi: int | None = None) -> int:
        key, text, line = entry
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo or (hi is not None and value > hi):
            span = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
            raise _bad(line, f"{key} must be an integer {span}, got {text!r}")
        return value

    def number(self, entry: _Entry, exact: bool = False):
        """A finite decimal or ratio: a float, or a Fraction when `exact`."""
        key, text, line = entry
        try:
            value = Fraction(text)
            return value if exact else float(value)
        except (ValueError, ArithmeticError):
            raise _bad(line, f"bad number {text!r} for {key}, "
                             "want a finite decimal or ratio") from None

    def tolerance(self, entry: _Entry) -> float:
        key, text, line = entry
        value = self.number(entry)
        if value < 0:
            raise _bad(line, f"{key} must be nonnegative, got {text!r}")
        return value

    def interval(self, entry: _Entry) -> tuple[float, float]:
        key, text, line = entry
        lo, sep, hi = text.partition(":")
        if sep:
            lo, hi = self.number((key, lo, line)), self.number((key, hi, line))
        if not sep or not lo < hi:
            raise _bad(line, f"bad interval {text!r}, want lo:hi with lo < hi")
        return lo, hi

    def exprs(self, entry: _Entry, want: int) -> list[Expr]:
        """The `want` expressions of an entry's value, each valid on the chart."""
        _, text, line = entry
        try:
            exprs = parse_exprs(text, self.chart.names)
            for e in exprs:
                validate_expr(e, self.chart.dim)
        except (ConfigError, ArithmeticError, RecursionError) as exc:
            raise _bad(line, _describe(exc)) from None
        if len(exprs) != want:
            raise _bad(line, f"expected {want} expressions, got {len(exprs)}")
        return exprs

    def param(self, spec, entry: _Entry):
        key, text, line = entry
        role = spec.role
        if role in _TABLES:
            return self.ref(role, entry)
        if role == "vectors":  # probe fields, only ever used in pairs
            vectors = self.refs("vector", entry)
            if len(vectors) < 2:
                raise _bad(line, f"{key} needs at least two vector fields, got {text!r}")
            return vectors
        if role == "float":
            return self.number(entry)
        if role == "str":
            if spec.choices is not None and text not in spec.choices:
                raise _bad(line, f"value {text!r} not one of {spec.choices}")
            return text
        raise _bad(line, f"unhandled parameter role {role!r}")

    # -- per-section builders -----------------------------------------------

    def build_chart(self, sec: _Section) -> None:
        got = self.entries_map(sec, ("dim", "names", "box"), required=("dim",))
        dim = self.integer(got["dim"], 1, _MAX_DIM)
        names = tuple(f"x{i}" for i in range(dim))
        if "names" in got:
            key, text, line = got["names"]
            names = tuple(n.strip() for n in text.split(","))
            for name in names:  # an expression can only refer to an identifier
                if not _IDENTIFIER.fullmatch(name):
                    raise _bad(line, f"coordinate name {name!r} is not an identifier")
        box = ((-1.0, 1.0),) * dim
        if "box" in got:
            key, text, line = got["box"]
            box = tuple(self.interval((key, part.strip(), line)) for part in text.split(","))
        self.chart = Chart(dim, names, box)

    def build_samples(self, sec: _Section) -> None:
        got = self.entries_map(sec, ("seed", "count"))
        self.scn.plan = self.scn.plan.replace(
            seed=self.integer(got["seed"], 0) if "seed" in got else None,
            count=self.integer(got["count"], 1) if "count" in got else None)

    def build_tolerance(self, sec: _Section) -> None:
        got = self.entries_map(sec, ("identity",))
        if "identity" in got:
            self.scn.tol = self.tolerance(got["identity"])

    def components(self, sec: _Section) -> tuple[Expr, ...]:
        entry = self.entries_map(sec, ("components",), required=("components",))["components"]
        return tuple(self.exprs(entry, self.chart.dim))

    def build_vector(self, sec: _Section) -> None:
        self.scn.vectors[sec.name] = VectorField(self.chart, self.components(sec),
                                                 label=sec.name)

    def build_oneform(self, sec: _Section) -> None:
        self.scn.oneforms[sec.name] = OneFormField(self.chart, self.components(sec),
                                                   label=sec.name)

    def rows(self, sec: _Section, key: str) -> tuple:
        n = self.chart.dim
        rows = self.entries_map(sec, (key,))
        if len(rows) != n:
            raise _bad(sec.line, f"[{sec.title}] needs {key} rows 0..{n - 1}")
        return tuple(tuple(rows[(k,)]) for k in range(n))

    def build_endo(self, sec: _Section) -> None:
        self.scn.endos[sec.name] = EndoField(self.chart, self.rows(sec, "row"),
                                             label=sec.name)

    def build_metric(self, sec: _Section) -> None:
        self.scn.metrics[sec.name] = MetricField(self.chart, self.rows(sec, "upper"),
                                                 label=sec.name)

    def coefficients(self, got: dict) -> list:
        """The (K, I, J) table of an indexed section; absent entries are zero."""
        n = self.chart.dim
        table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for key, value in got.items():
            if isinstance(key, tuple):
                k, i, j = key
                table[k][i][j] = value[0]
        return table

    def build_tensor(self, sec: _Section) -> None:
        if sec.kind is None:
            self.scn.tensors[sec.name] = Tensor12Field.from_components(
                self.chart, self.coefficients(self.entries_map(sec, ("comp",))),
                label=sec.name)
            return
        kind = self.kind_of(sec, _TWIST_KEYS)
        keys = _TWIST_KEYS[kind]
        got = self.entries_map(sec, ("kind",) + keys, required=keys)
        nabla = self.ref("connection", got["connection"])
        endo = self.ref("endo", got["structure"])
        if kind == "structure_derivative":
            tensor = structure_derivative_twist(nabla, endo, label=sec.name)
        else:
            tensor = mixed_derivative_twist(nabla, endo, self.number(got["lam"]),
                                            self.number(got["mu"]), label=sec.name)
        self.scn.tensors[sec.name] = tensor

    def build_connection(self, sec: _Section) -> None:
        kind = self.kind_of(sec, _CONNECTION_KEYS, default="christoffel")
        keys = _CONNECTION_KEYS[kind]
        got = self.entries_map(sec, ("kind",) + keys,
                               required=keys if kind != "christoffel" else ())
        if kind == "flat":
            conn = flat_connection(self.chart, label=sec.name)
        elif kind == "christoffel":
            conn = ChristoffelConnection(self.chart, self.coefficients(got), label=sec.name)
        elif kind == "levi_civita":
            conn = LeviCivitaConnection(self.ref("metric", got["metric"]), label=sec.name)
        else:
            conn = SumConnection(self.ref("connection", got["base"]),
                                 self.ref("tensor", got["tensor"]), label=sec.name)
        self.scn.connections[sec.name] = conn

    def build_pair(self, sec: _Section) -> None:
        got = self.entries_map(sec, ("h", "v"), required=("h",))
        h = self.ref("endo", got["h"])
        self.scn.pairs[sec.name] = (ProjectorPair(h, self.ref("endo", got["v"]))
                                    if "v" in got else pair_from_h(h))

    def build_pencil(self, sec: _Section) -> None:
        keys = ("first", "second", "alpha", "beta")
        got = self.entries_map(sec, keys, required=keys)
        pencil = Pencil(self.ref("endo", got["first"]), self.ref("endo", got["second"]),
                        self.number(got["alpha"], exact=True),
                        self.number(got["beta"], exact=True))
        self.scn.pencils[sec.name] = pencil
        res = skew_commutation_residual(self.probes, pencil.first, pencil.second)
        if not res.within(_PROBE_TOL):
            raise ConfigError(f"pencil {sec.name!r}: members do not skew-commute "
                              f"(residual {res.value:.3e} at probe points)")

    def build_distribution(self, sec: _Section) -> None:
        got = self.entries_map(sec, ("span", "pair", "side"))
        if set(got) == {"span"}:
            spec = DistributionSpec.from_span(self.refs("vector", got["span"]),
                                              label=sec.name)
        elif set(got) == {"pair", "side"}:
            spec = DistributionSpec.from_pair(self.ref("pair", got["pair"]),
                                              got["side"][1], label=sec.name)
        else:
            raise ConfigError(f"[{sec.title}] needs either span or pair + side")
        self.scn.distributions[sec.name] = spec

    def build_check(self, sec: _Section) -> None:
        kind = REGISTRY[self.kind_of(sec, REGISTRY)]
        got = self.entries_map(sec, *_CHECK_KEYS[kind.name])
        _, expect, line = got.get("expect", ("expect", "pass", sec.line))
        if expect not in EXPECTATIONS:
            raise _bad(line, f"expect must be one of {EXPECTATIONS}, got {expect!r}")
        floor = self.tolerance(got["floor"]) if "floor" in got else DEFAULT_FLOOR
        tol = self.tolerance(got["tol"]) if "tol" in got else None
        params = {p: self.param(spec, got[p]) if p in got else spec.default
                  for p, spec in kind.params.items()}
        for p, spec in kind.params.items():
            if p in got and spec.needs is not None and params[spec.needs] is None:
                key, text, line = got[p]
                raise _bad(line, f"{key} = {text} needs {spec.needs}")
        need = kind.hypotheses_need
        unmet = need is not None and params[need] is None
        if expect == "hypothesis_fail" and (not kind.hypotheses or unmet):
            without = f" without {need}" if kind.hypotheses else ""
            raise _bad(line, f"kind {kind.name!r} reports no hypothesis rows{without}, "
                             "so it cannot expect hypothesis_fail")
        if expect == "fail" and not kind.invertible:
            raise _bad(line, f"kind {kind.name!r} has no invertible rows, "
                             "so it cannot expect fail")
        self.scn.checks.append(CheckSpec(sec.name, kind, params, expect, floor, tol, sec.line))

    # -- load-time probes -----------------------------------------------------

    @cached_property
    def probes(self) -> EvalContext:
        plan = SamplePlan(seed=self.scn.plan.seed, count=_PROBE_COUNT, box=self.chart.box)
        return context_for(self.chart, plan)

    def probe_structures(self) -> None:
        """Refuse structures that do not square to the identity.

        Every endo a check uses as a structure, and both members of every
        pencil a check uses, are probed; a check whose kind measures
        involution itself and is expected to fail probes none of its own.
        Endos that only serve as raw projectors (pair members, skew probes)
        are exempt.
        """
        probed = set()
        for check in self.scn.checks:
            if check.kind.probe_exempt and check.expect == "fail":
                continue
            for pname, spec in check.kind.params.items():
                value = check.params[pname]
                if value is not None and spec.role in ("structure", "pencil"):
                    members = (value.first, value.second) if spec.role == "pencil" else (value,)
                    probed.update(m.label for m in members)
        for name in sorted(probed):
            self.guarded(self.where[("endo", name)], self.probe_involution, name)

    def probe_involution(self, name: str) -> None:
        res = almost_product_residual(self.probes, self.scn.endos[name])
        if not res.within(_PROBE_TOL):
            raise ConfigError(f"endo {name!r} is not involutive (residual {res.value:.3e} "
                              f"at probe points); refusing to conjugate by it")

    def load(self) -> Scenario:
        for sec in self.sections:
            if (sec.type, sec.name) in self.where:
                self.fail(sec.line, f"duplicate [{sec.title}]")
            self.where.setdefault((sec.type, sec.name), sec.line)
        charts = [s for s in self.sections if s.type == "chart"]
        if not charts:
            self.errors.append("need a [chart] section")
        else:
            self.guarded(charts[0].line, self.build_chart, charts[0])
        if self.chart is None:
            raise ScenarioError(self.errors)

        self.scn = Scenario(self.name, self.chart,
                            SamplePlan(seed=7, count=200, box=self.chart.box), _DEFAULT_TOL)
        with np.errstate(all="ignore"):  # a non-finite probe shows in its message
            for sec in sorted(self.sections, key=lambda s: s.phase):
                if sec.type != "chart":
                    self.guarded(sec.line, getattr(self, f"build_{sec.type}"), sec)
            self.probe_structures()
        if self.errors:
            raise ScenarioError(self.errors)
        return self.scn


def load_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate; raises ScenarioError carrying every problem found."""
    return _Loader(text, name).load()


def make_context(scenario: Scenario, seed: int | None = None,
                 count: int | None = None) -> EvalContext:
    return context_for(scenario.chart, scenario.plan.replace(seed=seed, count=count))
