"""Write the five gate reports of the checkout this script sits in.

    python3 tests/reports.py OUTDIR

Each report is one `python -m prodconj` run in its own process, written
with `--report` to OUTDIR under the name below.  Two checkouts give
byte-identical reports when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.  A run that exits 0 (every row passes) or 1 (some row
fails) wrote its report; any other exit code stops the script.  It is not
collected by pytest (its name has no `test_` prefix).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (report file name, prodconj arguments), paths relative to the checkout
REPORTS = [
    ("corpus.txt", ["corpus"]),
    ("corpus_seed3.txt", ["corpus", "--seed", "3"]),
    ("corpus_samples37_seed11.txt", ["corpus", "--samples", "37", "--seed", "11"]),
    ("verify_split_r4.txt", ["verify", "tests/data/split_r4.scn"]),
    ("verify_involutivity_r3_samples5000.txt",
     ["verify", "src/prodconj/scenarios/involutivity_r3.scn", "--samples", "5000"]),
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: python3 tests/reports.py OUTDIR")
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, args in REPORTS:
        done = subprocess.run([sys.executable, "-m", "prodconj", *args, "--report", str(out / name)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        if done.returncode not in (0, 1):
            raise SystemExit(f"prodconj {' '.join(args)} exited {done.returncode}")
        print(f"{name:40s} exit {done.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
