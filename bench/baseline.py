"""Run bench/run.py on several seeds per workload and summarise the runs.

    python3 bench/baseline.py --out bench/baseline.json

For each workload of BENCHMARK.json it makes ten end-to-end runs (seeds
1..10) and two traced runs at the default seed, using the command and `run_seconds`
of BENCHMARK.json.  It records every run, each metric's median and
quartiles, the spread (quartile distance over median) that BENCHMARK.json
bounds, and the facts of the machine the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10


def run(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def cpu_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


def environment() -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return dict(cpu_facts(), python=platform.python_version(),
                numpy=numpy.__version__, git_commit=commit)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, RUNS + 1))
    result = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "traced_seed": 7, "workloads": {}}
    for name in names:
        runs = [run(command, name, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "end_to_end": summarise(runs)}
        traced = [run(command, name, 7, spec["run_seconds"], 1) for _ in range(2)]
        entry["correct"] = entry["correct"] and all(r["correct"] for r in traced)
        entry["per_layer"] = summarise(traced)
        result["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:18s} {metric:16s} median {s['median']:.6g} {s['unit']}"
                  f"  spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
