"""Executes a loaded scenario's checks and assembles the report.

Checks are independent, so a worker pool may run them concurrently; each
worker then gets its own evaluation context over the same sample plan,
which keeps results identical to the serial path (the context is a pure
cache).  Rows are sorted by id during rendering, so parallelism never
changes output bytes.  `concurrent.futures`, and the `logging` it
imports, are loaded only when a run asks for more than one job.
"""

from __future__ import annotations

import math
from importlib import resources

from .checks import judge, error_row
from .errors import ConfigError
from .reporting import Report
from .scenario import CheckSpec, Scenario, load_scenario, make_context


def _run_one(ctx, spec: CheckSpec, default_tol: float):
    """The judged rows of one check, or its error row if it raised."""
    tol = spec.tol if spec.tol is not None else default_tol
    kind = spec.kind
    try:
        raw = kind.runner(ctx, kind.runner_params(ctx, spec.params), tol)
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
    """
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
    if jobs <= 1:
        ctx = make_context(scenario, seed=seed, count=samples)
        for spec in specs:
            report.rows.extend(_run_one(ctx, spec, default_tol))
    else:
        from concurrent.futures import ThreadPoolExecutor

        def work(spec: CheckSpec):
            ctx = make_context(scenario, seed=seed, count=samples)
            return _run_one(ctx, spec, default_tol)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for rows in pool.map(work, specs):
                report.rows.extend(rows)
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


def load_shipped(name: str) -> Scenario:
    return load_scenario(corpus_text(name), name=name)
