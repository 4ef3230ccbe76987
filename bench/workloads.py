"""The benchmark's workloads: what each one runs and what it must report.

Every workload drives the library through the calls `prodconj verify` and
`prodconj corpus` make -- `load_scenario`, `run_scenario` and
`Report.render_lines` -- from one thread with `jobs=1`.  The seed is the
only input the benchmark chooses; it becomes `run_scenario(seed=...)`.
Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus_200", "r3_wide", "single_check_cold")
DEFAULT_SEED = 7
R3_SCENARIO = "involutivity_r3"
R3_SAMPLES = 5000
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
NO_FILTER = "-"


def import_program(root: Path):
    """Import `prodconj` from `<root>/src` and nowhere else.

    A benchmark that silently measured an installed copy would report
    numbers for code that is not in the checkout.
    """
    src = (root / "src").resolve()
    if not (src / "prodconj" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src / 'prodconj'}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    prodconj = importlib.import_module("prodconj")
    if Path(prodconj.__file__).resolve().parent != src / "prodconj":
        raise SystemExit(f"error: imported prodconj from {prodconj.__file__}, not {src}")
    return prodconj


@dataclass(frozen=True)
class Call:
    """One `run_scenario` call, as `prodconj verify` would make it."""

    scenario: str
    filter: str | None
    samples: int | None
    seed: int

    def key(self, row_id: str) -> tuple[str, str, str]:
        return (self.scenario, self.filter or NO_FILTER, row_id)


def scenario_texts(prodconj) -> dict[str, str]:
    folder = Path(prodconj.__file__).parent / "scenarios"
    return {name: (folder / f"{name}.scn").read_text(encoding="utf-8")
            for name in prodconj.corpus_names()}


def starting_scenarios(workload: str, prodconj, texts: dict[str, str]) -> dict:
    """The scenarios a workload loads before its first `run_scenario`."""
    names = [R3_SCENARIO] if workload == "r3_wide" else sorted(texts)
    return {name: prodconj.load_scenario(texts[name], name=name) for name in names}


def plan(workload: str, seed: int, scenarios: dict) -> list[Call]:
    """The workload's calls, in order; identical seeds give identical calls."""
    if workload == "corpus_200":
        return [Call(name, None, None, seed) for name in sorted(scenarios)]
    if workload == "r3_wide":
        return [Call(R3_SCENARIO, None, R3_SAMPLES, seed)]
    if workload == "single_check_cold":
        return [Call(name, spec.name, None, seed)
                for name in sorted(scenarios) for spec in scenarios[name].checks]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def timed_setup(workload: str, root: Path) -> float:
    """Seconds for package import plus every starting `load_scenario`."""
    start = time.perf_counter()
    prodconj = import_program(root)
    starting_scenarios(workload, prodconj, scenario_texts(prodconj))
    return time.perf_counter() - start


@dataclass
class PassResult:
    wall_s: float
    slowest_call_s: float
    rows: dict  # Call.key(row_id) -> (status, residual)
    lines: list[str]


def run_pass(workload: str, prodconj, calls: list[Call], scenarios: dict,
             texts: dict[str, str], clock=time.perf_counter) -> PassResult:
    """One pass over the workload's calls, timed from the first call to the
    last rendered line.  `single_check_cold` loads its scenario afresh for
    every call, as a separate `prodconj verify --filter` process would."""
    rows: dict = {}
    lines: list[str] = []
    slowest = 0.0
    cold = workload == "single_check_cold"
    start = clock()
    for call in calls:
        scenario = (prodconj.load_scenario(texts[call.scenario], name=call.scenario)
                    if cold else scenarios[call.scenario])
        t0 = clock()
        report = prodconj.run_scenario(scenario, seed=call.seed, samples=call.samples,
                                       filter_substr=call.filter, jobs=1)
        slowest = max(slowest, clock() - t0)
        lines.extend(report.render_lines())
        for row in report.rows:
            rows[call.key(row.row_id)] = (row.status, row.residual)
    return PassResult(clock() - start, slowest, rows, lines)


# ---- expected statuses ---------------------------------------------------


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.tsv"


def read_expected(workload: str) -> dict:
    table = {}
    for line in expected_path(workload).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            scenario, filt, row_id, status = line.split("\t")
            table[(scenario, filt, row_id)] = status
    return table


def format_expected(rows: dict) -> str:
    out = ["# scenario\tfilter\trow\tstatus"]
    out += ["\t".join(key + (status,)) for key, (status, _) in sorted(rows.items())]
    return "\n".join(out) + "\n"


def row_problems(expected: dict, rows: dict) -> tuple[int, list[str]]:
    """Compare one pass's rows with the expected status table.

    Returns (rows attempted, problems).  A row is a problem when its status
    is fail or error, differs from the table, or is a pass whose residual is
    not finite; a row missing from the output or absent from the table is
    one too.
    """
    problems = []
    for key in sorted(expected.keys() | rows.keys()):
        want = expected.get(key)
        status, residual = rows.get(key, (None, None))
        where = "/".join(key)
        if status is None:
            problems.append(f"{where}: missing, expected {want}")
        elif want is None:
            problems.append(f"{where}: unexpected row with status {status}")
        elif status in ("fail", "error"):
            problems.append(f"{where}: {status}")
        elif status != want:
            problems.append(f"{where}: {status}, expected {want}")
        elif status == "pass" and not math.isfinite(residual):
            problems.append(f"{where}: pass with residual {residual}")
    return len(expected.keys() | rows.keys()), problems
