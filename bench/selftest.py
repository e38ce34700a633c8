#!/usr/bin/env python3
"""Fast self-test of the benchmark harness, run from the repository root.

    python3 bench/selftest.py

One k12-hamilton seed, untraced and traced, must print every end-to-end and
every per-layer metric of BENCHMARK.json with its unit, do identical work
in both modes (tracing must not change the program's outputs), and record
spans for every module it reaches; one k12-wide-leftover seed must add
spans for the absorber modules (walks, absorbing).  Finally the harness must
fail without a result in a directory that has no ``src/``.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

HERE = Path(__file__).resolve().parent


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_line(line: dict, declared: list, attempted: int) -> None:
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(line)}")
    check(line["correct"] and line["failed"] == 0, f"run not correct: {line}")
    check(line["attempted"] == attempted, f"attempted {line['attempted']}")
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    check(got == units, f"metrics/units differ from BENCHMARK.json: {set(got) ^ set(units)}")
    for name, metric in line["metrics"].items():
        value = metric["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{name} = {value!r}")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    check(spec["command"][1] == "bench/run.py", "BENCHMARK.json names another harness")
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), "unknown workload")
    run.load_package()

    plain = run.measure("k12-hamilton", 0, 1, trace=False)
    line = run.result_line(plain)
    check_line(line, spec["end_to_end"], 1)
    for name, metric in line["metrics"].items():
        check(metric["value"] > 0, f"end-to-end metric {name} is {metric['value']}")

    traced = run.measure("k12-hamilton", 0, 1, trace=True)
    check_line(run.result_line(traced), spec["per_layer"], 1)
    check(traced["per_seed"] == plain["per_seed"],
          f"tracing changed the work: {traced['per_seed']} vs {plain['per_seed']}")
    reached = {"cli", "hypergraph", "fractional", "cover", "assemble", "tightpaths", "bruteforce"}
    check(reached <= set(traced["modules_seen"]),
          f"k12-hamilton spans miss {reached - set(traced['modules_seen'])}")

    wide = run.measure("k12-wide-leftover", 0, 1, trace=True)
    check_line(run.result_line(wide), spec["per_layer"], 1)
    check(set(tracer.MODULES) <= set(wide["modules_seen"]) | reached,
          f"no spans for {set(tracer.MODULES) - set(wide['modules_seen']) - reached}")
    check(wide["metrics"]["absorbing.build_calls"] > 0 and wide["metrics"]["walks.sample_walk_calls"] > 0,
          "k12-wide-leftover seed 0 did not reach the absorbing structure")

    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copytree(HERE, Path(bare) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "k12-hamilton",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        check(proc.returncode != 0 and "correct" not in proc.stdout,
              f"harness without src/ exited {proc.returncode} with {proc.stdout!r}")

    print("selftest passed: every metric with its unit, identical work traced and untraced, "
          f"spans for {', '.join(tracer.MODULES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
