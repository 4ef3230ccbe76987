"""Write expected/<workload>.tsv: the status of every row at the default seed.

    python3 bench/make_expected.py

The committed tables were written from the program as it stood when the
benchmark was added.  Rewrite them only in a change that alters report
statuses on purpose, and say so in that change.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402


def main() -> int:
    prodconj = wl.import_program(BENCH_DIR.parent)
    texts = wl.scenario_texts(prodconj)
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS:
        scenarios = wl.starting_scenarios(workload, prodconj, texts)
        calls = wl.plan(workload, wl.DEFAULT_SEED, scenarios)
        result = wl.run_pass(workload, prodconj, calls, scenarios, texts)
        wl.expected_path(workload).write_text(wl.format_expected(result.rows),
                                              encoding="utf-8")
        print(f"{workload}: {len(result.rows)} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
