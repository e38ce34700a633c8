#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/sweep.py --seeds 1-10 --out .bench_run/sweeps/a.json
    python3 bench/sweep.py --seeds 1-10 --out .bench_run/sweeps/b.json \\
        --compare .bench_run/sweeps/a.json

Each run is ``bench/run.py`` in its own interpreter, workloads interleaved
seed by seed.  For every metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  ``--compare`` adds, per metric, how
much worse this sweep's median is than the other's (as a share of the
other's median) and whether both did identical work: the same fingerprint
for every program seed in every run.
Bounds and the default run length come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record_path = lines[-2].rsplit("; ", 1)[1].rstrip(")")
    record = json.loads(Path(record_path).read_text())
    return {
        "seed": seed,
        "result": result,
        "fingerprint": record["fingerprint"],
        "per_seed": record["per_seed"],
        "environment": record["environment"],
    }


def work_by_program_seed(runs: list) -> dict:
    """Program seed -> the distinct fingerprints it had across the runs."""
    out = {}
    for run in runs:
        for p in run["per_seed"]:
            entries = out.setdefault(str(p["seed"]), [])
            if p not in entries:
                entries.append(p)
    return out


def summarize(runs: list, bounds: dict) -> dict:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
    return out


def worse_by(name: str, new: float, old: float, better: dict) -> float:
    """Share of the old median by which the new one is worse (negative: better)."""
    if not old:
        return 0.0
    change = (new - old) / old
    return -change if better.get(name) == "higher" else change


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="summary JSON to write")
    parser.add_argument("--compare", help="an earlier summary JSON")
    args = parser.parse_args(argv)
    if len(parse_seeds(args.seeds)) < 2:
        parser.error("quartiles need at least two seeds")

    runs = {w: [] for w in args.workloads}
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(run)
            print(f"{workload} seed {seed}: correct={run['result']['correct']} "
                  f"failed={run['result']['failed']} fingerprint={run['fingerprint'][:12]}",
                  flush=True)
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload, r in runs.items():
        summary["workloads"][workload] = {
            "environment": r[0]["environment"],
            "summary": summarize(r, bounds),
            "work": work_by_program_seed(r),
            "runs": [{k: run[k] for k in ("seed", "fingerprint", "result")} for run in r],
        }
    other = json.loads(Path(args.compare).read_text()) if args.compare else None
    steady = True
    for workload, entry in summary["workloads"].items():
        print(f"\n{workload}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
              + (f" {'worse':>7}" if other else ""))
        for name, s in entry["summary"].items():
            bound = s["bound"]
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] >= bound / 3:
                flag, steady = " spread >= bound/3", False
            line = (f"  {name:34} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                    f"{s['spread']:7.3f} {bound if bound is not None else '-':>6}")
            if other and workload in other["workloads"]:
                old = other["workloads"][workload]["summary"][name]["median"]
                w = worse_by(name, s["median"], old, better)
                entry["summary"][name]["worse_than_compared"] = w
                line += f" {w:7.3f}"
                if bound is not None and w > bound:
                    flag += " worse than bound"
            print(line + flag)
        if other and workload in other["workloads"]:
            mine, theirs = entry["work"], other["workloads"][workload]["work"]
            same = mine == theirs and all(len(v) == 1 for v in mine.values())
            entry["fingerprints_identical"] = same
            print(f"  identical work in every run of both sweeps: {same} "
                  f"({len(mine)} program seeds)")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nspreads below a third of their bounds: {steady}; summary in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
