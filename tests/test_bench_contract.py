"""The benchmark harness under bench/ still sees every cover LP solve, and a
run's own manifest accounts for every failed layer attempt the tracer sees.

bench/tracer.py patches ``cover.linprog`` from outside and reads the column
count from its first positional argument and the nonzeros from ``A_eq``; a
refactor that moved the solve elsewhere would make it report zeros.  It
counts ``assemble.layer_transform`` calls and reads the stage log of each
result or LayerFailure, which the manifest must list in full.
"""

import json
from pathlib import Path

from cyclefactors import cli
from cyclefactors.hypergraph import complete_hypergraph, format_hypergraph

ROOT = Path(__file__).resolve().parents[1]


def test_traced_k12_call_counts_the_cover_lp(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run

    # the harness writes its hosts and records under the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "WORK", tmp_path / ".bench_run")
    record = run.measure("k12-hamilton", seed=0, calls=1, trace=True)
    assert run.result_line(record)["correct"], record["problems"]
    metrics = record["metrics"]
    assert metrics["cover.lp_calls"] >= 1
    assert metrics["cover.lp_nnz"] > 0
    assert metrics["cover.family_size"] > 0


def test_manifest_failure_counts_equal_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import LAYER_STAGES, Tracer, installed

    host = tmp_path / "k12.txt"
    host.write_text(format_hypergraph(complete_hypergraph(3, 12)))
    out = tmp_path / "run.json"
    tracer = Tracer()
    with installed(tracer):
        tracer.active = True
        code = cli.main(
            ["decompose", str(host), "--targets", "12;12", "--seed", "0",
             "--normalize-timings", "-q", "--output", str(out)]
        )
        tracer.active = False
    assert code == cli.EXIT_OK
    layers = json.loads(out.read_text())["manifest"]["layers"]
    metrics = tracer.metrics()
    for stage in LAYER_STAGES:
        logged = sum(
            entry["stage"] == stage for layer in layers for entry in layer["failed_stages"]
        )
        assert logged == metrics["assemble.layer_failed." + stage], stage
    assert metrics["assemble.layer_calls"] == len(layers)
    assert all(layer["attempts"] == len(layer["failed_stages"]) + 1 for layer in layers)
