"""Executes a loaded scenario's checks, in order on one evaluation
context, and assembles the report."""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from .checks import judge, error_row
from .errors import ConfigError
from .reporting import Report
from .scenario import CheckSpec, Scenario, make_context


def _run_one(ctx, spec: CheckSpec, default_tol: float):
    """The judged rows of one check, or its error row if it raised.  numpy's
    floating-point warnings are off: a non-finite value shows as the row's
    error, never as warning text on stderr."""
    tol = spec.tol if spec.tol is not None else default_tol
    kind = spec.kind
    try:
        with np.errstate(all="ignore"):
            raw = kind.runner(ctx, spec.params, tol)
            return judge(spec.name, kind, raw, spec.params, tol, spec.floor, spec.expect)
    except Exception as exc:  # noqa: BLE001 - one failing check must not stop the rest
        return [error_row(spec.name, kind, exc)]


def run_scenario(scenario: Scenario, seed: int | None = None,
                 samples: int | None = None, tol: float | None = None,
                 filter_substr: str | None = None, jobs: int = 1) -> Report:
    """Run the checks and return the report.

    `tol` replaces the scenario-wide default; a check's own explicit
    tolerance still wins, since those mark deliberate strictness choices.
    `filter_substr` matches against check names and kind names.
    `jobs` stays only because the benchmark passes `jobs=1`; checks always
    run serially, so any other value is refused.
    """
    if jobs != 1:
        raise ConfigError(f"checks run serially; jobs must be 1, got {jobs!r}")
    plan = scenario.plan.replace(seed=seed, count=samples)  # checks the flags
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tolerance must be finite and nonnegative, got {tol}")
    report = Report(scenario.name, plan.seed, plan.count)
    default_tol = scenario.tol if tol is None else tol
    specs = scenario.checks
    if filter_substr:
        specs = [s for s in specs
                 if filter_substr in s.name or filter_substr in s.kind.name]
    if not specs:
        return report
    ctx = make_context(scenario, seed=seed, count=samples)
    for spec in specs:
        report.rows.extend(_run_one(ctx, spec, default_tol))
    return report


# ---- shipped corpus ---------------------------------------------------


def corpus_names() -> list[str]:
    root = resources.files("prodconj").joinpath("scenarios")
    names = [entry.name[:-4] for entry in root.iterdir()
             if entry.name.endswith(".scn")]
    return sorted(names)


def corpus_text(name: str) -> str:
    path = resources.files("prodconj").joinpath("scenarios", f"{name}.scn")
    if not path.is_file():
        known = ", ".join(corpus_names())
        raise ConfigError(f"no shipped scenario {name!r}; shipped: {known}")
    return path.read_text(encoding="utf-8")
