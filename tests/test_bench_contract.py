"""The benchmark harness under bench/ still sees every cover LP solve.

bench/tracer.py patches ``cover.linprog`` from outside and reads the column
count from its first positional argument and the nonzeros from ``A_eq``; a
refactor that moved the solve elsewhere would make it report zeros.
"""

from pathlib import Path

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
