#!/usr/bin/env python3
"""Benchmark of `cyclefactors decompose`, run from the repository root.

    python3 bench/run.py --workload k12-hamilton --seed 1 --seconds 15 --trace 0

One run is this one interpreter.  It imports the package from ``src/``,
writes the workload's complete host through ``format_hypergraph``, then
calls ``cyclefactors.cli.main(["decompose", ...])`` once per program seed,
one call at a time (closed loop, one client, ``--parallel-seeds 1``).
Every emitted factors file is re-checked with ``cyclefactors verify``.

The program seeds are a fixed panel, ``0 .. calls - 1`` with
``calls = round(seconds * calls_per_s)``, a rate fixed per workload, so a
run lasts about ``--seconds`` on the machine the rates were measured on and
does the same work on every machine.  ``--seed`` sets the order in which the
panel is called.  The panel is fixed because one seed's cost is set by how
many pipeline attempts its random choices need (a K_12 seed takes 0.1-2.9 s,
a K_18 seed 16-54 s); with a panel drawn per run, runs differed by 13-31%
from that luck alone (bench/NOTES.md).

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the same calls run under the tracer
(bench/tracer.py) and the line carries the per-layer metrics instead.  A
record with per-seed work fingerprints (and, traced, the spans) is written
under ``.bench_run/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
HERE = Path(__file__).resolve().parent

SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median

# Times the harness prints are scaled to a reference machine speed (except
# in a run of one call, see measure()).  The speed of the 2-vCPU VM that
# measured the baseline drifts by +-20% from minute to minute, and a run
# lasts about one such period, so raw totals of identical work differed by
# 16-24% (IQR/median) across runs.  A fixed pure-Python task timed between
# the calls tracked that drift (correlation 0.9-0.98 with the run's total),
# and scaling by it cut the spread to 3-8% (bench/NOTES.md).  REFERENCE_S is
# the task's median time in that VM's fast periods; raw times stay in the
# record.
REFERENCE_S = 0.021
REFERENCE_TAIL = 5  # extra reference samples after the last call


@dataclass(frozen=True)
class Workload:
    k: int
    n: int
    calls_per_s: float  # decompose calls per second, measured on a 2-vCPU VM
    extra: tuple = ()

    @property
    def targets(self) -> str:
        return f"{self.n};{self.n}"

    def calls(self, seconds: int) -> int:
        return max(1, round(seconds * self.calls_per_s))


# Why each workload is here: bench/NOTES.md.
WORKLOADS = {
    "k18-hamilton": Workload(3, 18, calls_per_s=1 / 28),
    "k12-hamilton": Workload(3, 12, calls_per_s=2.0),
    "k12-wide-leftover": Workload(
        3, 12, calls_per_s=1.0, extra=("--set", "delta=0.7", "--set", "theta=0.4")
    ),
}

# name -> unit; --trace 0 prints exactly these (BENCHMARK.json end_to_end)
END_TO_END = {
    "decompose_total_s": "s",
    "factors_per_min": "1/min",
    "verified_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def load_package():
    if not (SRC / "cyclefactors" / "__init__.py").is_file():
        raise HarnessError(f"no package at {SRC / 'cyclefactors'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import cyclefactors

    if Path(cyclefactors.__file__).resolve().parent != (SRC / "cyclefactors").resolve():
        raise HarnessError(f"imported cyclefactors from {cyclefactors.__file__}, not {SRC}")
    return cyclefactors


def write_host(wl: Workload) -> Path:
    from cyclefactors import complete_hypergraph, format_hypergraph

    hosts = WORK / "hosts"
    hosts.mkdir(parents=True, exist_ok=True)
    path = hosts / f"k{wl.k}n{wl.n}.txt"
    fd, tmp = tempfile.mkstemp(dir=hosts)
    with os.fdopen(fd, "w") as fh:
        fh.write(format_hypergraph(complete_hypergraph(wl.k, wl.n)))
    os.replace(tmp, path)
    return path.relative_to(ROOT)


def reference_task() -> float:
    """Seconds for a fixed pure-Python task: the machine's current speed."""
    started = time.perf_counter()
    seen = set()
    for i in range(30000):
        key = (i % 97, i % 89, i % 83)
        if key not in seen:
            seen.add(key)
    sorted(seen)
    return time.perf_counter() - started


def at_reference_speed(metrics: dict, speed: float) -> dict:
    """Times times speed, per-minute rates divided by it; counts unchanged."""
    out = {}
    for name, value in metrics.items():
        if name.endswith("_s"):
            value *= speed
        elif name.endswith("_per_min"):
            value /= speed
        out[name] = value
    return out


def measure_setup(host: Path, refs: list) -> list:
    """Seconds to import the CLI and parse the host, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_PROBES + 1):
        refs.append(reference_task())
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(host)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:  # the first probe compiles bytecode, which users pay once
            samples.append(float(proc.stdout.split()[-1]))
    return samples


@contextmanager
def lp_columns(counter: list):
    """Add the column count of every LP the package solves to counter[0]."""
    from cyclefactors import cover, fractional
    from tracer import patched

    def counting(fn):
        def wrapper(c, *args, **kwargs):
            counter[0] += len(c)
            return fn(c, *args, **kwargs)
        return wrapper

    with patched([(m, "linprog", counting(m.linprog)) for m in (cover, fractional)]):
        yield


def check_call(wl: Workload, code: int, doc: dict, verdict) -> list:
    """Reasons the call's outputs disagree with each other; empty if none."""
    from cyclefactors.cli import EXIT_OK, EXIT_PARTIAL, EXIT_STAGE

    reasons = []
    achieved, requested = doc["achieved"], doc["requested"]
    expected = EXIT_OK if doc["ok"] else (EXIT_PARTIAL if achieved else EXIT_STAGE)
    if code != expected:
        reasons.append(f"exit {code}, but the document implies {expected}")
    if requested != len(wl.targets.split(";")):
        reasons.append(f"requested {requested}, targets are {wl.targets}")
    if doc["ok"] and achieved != requested:
        reasons.append(f"ok with {achieved} of {requested}")
    manifest = doc.get("manifest")
    listed = len(manifest["factors"]["factors"]) if manifest else 0
    if listed != achieved:
        reasons.append(f"manifest lists {listed} factors, achieved says {achieved}")
    if achieved and verdict is None:
        reasons.append("no factors file to verify")
    if verdict is not None:
        vcode, vdoc = verdict
        if vcode != 0 or not vdoc["ok"]:
            reasons.append(f"verify rejects: {vdoc.get('reasons') or vdoc.get('error')}")
        elif vdoc["factors"] != achieved:
            reasons.append(f"verify counts {vdoc['factors']} factors, achieved {achieved}")
        elif any(lengths != [wl.n] for lengths in vdoc["lengths"]):
            reasons.append(f"factor lengths {vdoc['lengths']} differ from the targets")
    return reasons


def run_calls(wl: Workload, host: Path, seeds, refs: list, tracer=None) -> dict:
    """Decompose once per seed, verify, fingerprint; totals for the metrics."""
    from cyclefactors import cli

    tmp = Path(tempfile.mkdtemp(dir=WORK))
    out, factors, vout = tmp / "run.json", tmp / "factors.json", tmp / "verify.json"
    times, prints, problems = [], [], []
    verified = requested = attempts = failed_attempts = 0
    lp = [0]

    def argv(seed):
        return [
            "decompose", str(host), "--targets", wl.targets, "--seed", str(seed),
            "--parallel-seeds", "1", "--normalize-timings", "-q",
            "--output", str(out), "--factors-out", str(factors), *wl.extra,
        ]

    try:
        with lp_columns(lp):
            for seed in seeds:
                for path in (out, factors, vout):
                    path.unlink(missing_ok=True)
                lp[0] = 0
                refs.append(reference_task())
                decompose = cli.main
                if tracer is not None:
                    tracer.request, tracer.active = seed, True
                    decompose = tracer.span("cli.decompose", cli.main)
                try:
                    started = time.perf_counter()
                    code = decompose(argv(seed))
                    times.append(time.perf_counter() - started)
                except Exception:
                    # a call that escapes the CLI's own error handling is a
                    # failed operation; keep measuring the others
                    problems.append({"seed": seed, "reasons": [traceback.format_exc()]})
                    continue
                finally:
                    if tracer is not None:
                        tracer.active = False
                if not out.exists():
                    problems.append({"seed": seed, "reasons": [f"exit {code}, no document"]})
                    continue
                raw = out.read_bytes()
                doc = json.loads(raw)
                verdict = None
                if factors.exists():
                    vcode = cli.main(["verify", str(host), str(factors), "-q",
                                      "--output", str(vout)])
                    verdict = (vcode, json.loads(vout.read_text()))
                reasons = check_call(wl, code, doc, verdict)
                if reasons:
                    problems.append({"seed": seed, "reasons": reasons})
                else:
                    verified += doc["achieved"]
                requested += doc["requested"]
                attempts += doc["pipeline"]["attempts"]
                failed_attempts += len(doc["pipeline"]["log"])
                prints.append({
                    "seed": seed,
                    "exit": code,
                    "attempts": doc["pipeline"]["attempts"],
                    "lp_columns": lp[0],
                    "manifest_sha256": hashlib.sha256(raw).hexdigest(),
                })
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "times": times, "fingerprints": prints, "problems": problems,
        "verified": verified, "requested": requested,
        "attempts": attempts, "failed_attempts": failed_attempts,
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def end_to_end(totals: dict, setup: list) -> dict:
    total = sum(totals["times"])
    return {
        "decompose_total_s": total,
        "factors_per_min": totals["verified"] / (total / 60),
        "verified_frac": totals["verified"] / totals["requested"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(totals: dict, tracer) -> dict:
    metrics = tracer.metrics()
    metrics.update({
        "cli.pipeline_attempts": totals["attempts"],
        "cli.failed_attempts": totals["failed_attempts"],
        "cli.call_p50_s": statistics.median(totals["times"]),
        "cli.call_max_s": max(totals["times"]),
        "trace.decompose_total_s": sum(totals["times"]),
        "trace.spans": len(tracer.spans),
    })
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def measure(name: str, seed: int, calls: int, trace: bool) -> dict:
    """One benchmark run of ``calls`` program seeds; the record it writes."""
    wl = WORKLOADS[name]
    host = write_host(wl)
    seeds = list(range(calls))
    random.Random(seed).shuffle(seeds)
    refs = []
    if trace:
        from tracer import Tracer, installed

        tracer, setup = Tracer(), []
        with installed(tracer):
            totals = run_calls(wl, host, seeds, refs, tracer)
        raw = per_layer(totals, tracer)
    else:
        tracer, setup = None, measure_setup(host, refs)
        totals = run_calls(wl, host, seeds, refs)
        raw = end_to_end(totals, setup)
    refs += [reference_task() for _ in range(REFERENCE_TAIL)]
    speed = REFERENCE_S / statistics.median(refs)
    # a single call has no reference timing inside it, and the timings
    # around one 30 s LP-bound call tracked its time poorly (correlation
    # 0.43 over ten runs, against 0.9 for the many-call runs): keep it raw
    scale = speed if calls > 1 else 1.0
    totals["fingerprints"].sort(key=lambda p: p["seed"])
    fingerprint = hashlib.sha256(
        json.dumps(totals["fingerprints"], sort_keys=True).encode()
    ).hexdigest()
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "calls": calls, "order": seeds,
        "environment": environment(),
        "fingerprint": fingerprint,
        "per_seed": totals["fingerprints"],
        "problems": totals["problems"],
        "call_seconds": totals["times"],
        "setup_seconds": setup,
        "reference_seconds": refs,
        "speed": speed,
        "scale": scale,
        "raw_metrics": raw,
        "metrics": at_reference_speed(raw, scale),
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = records / f"{name}-seed{seed}-calls{calls}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
        record["modules_seen"] = sorted(tracer.modules_seen())
    record["path"] = str(stem.with_suffix(".json").relative_to(ROOT))
    return record


def result_line(record: dict) -> dict:
    problems = record["problems"]
    return {
        "correct": not problems,
        "attempted": record["calls"],
        "failed": len(problems),
        "metrics": {
            key: {"value": value, "unit": unit_of(key)}
            for key, value in record["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        load_package()
        calls = WORKLOADS[args.workload].calls(args.seconds)
        record = measure(args.workload, args.seed, calls, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    for problem in record["problems"]:
        print(f"incorrect: seed {problem['seed']}: {'; '.join(problem['reasons'])}",
              file=sys.stderr)
    print(f"machine speed {record['speed']:.3f} of the reference, times scaled by "
          f"{record['scale']:.3f}; raw decompose seconds {sum(record['call_seconds']):.3f}")
    print(f"fingerprint {record['fingerprint']} ({record['calls']} calls; {record['path']})")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
