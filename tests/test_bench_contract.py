"""The benchmark harness under bench/ still traces the cover stage, and a
run's own manifest accounts for every failed layer attempt the tracer sees.

bench/tracer.py patches ``cover.linprog`` from outside, and the cover no
longer solves an LP (``fractional.scale_to_ones`` weights its cycle family),
so a traced call reports no LP calls while ``cover.family`` times the
whole weighting.  The tracer counts ``assemble.layer_transform`` calls and
reads the stage log of each result or LayerFailure, which the manifest must
list in full.  It also times the layer's building blocks by name
(``assemble.build_reservoir``, ``assemble.connect``).  It still patches
``assemble.build_absorbing_structure``, ``assemble.absorb`` and
``absorbing.sample_walk``, which no stage calls: the package builds no
absorbing structure and binds the first two names to None, so a traced
wide-leftover call connects through the whole leftover and counts no
build and no walk.

bench/run.py wraps ``linprog`` on both ``cover`` and ``fractional`` in every
untraced run, so both modules must bind it; it is ``fractional``'s, which
imports scipy only when an LP runs.  A regular host never loads scipy.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from cyclefactors import cli
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph, format_hypergraph

ROOT = Path(__file__).resolve().parents[1]


def test_traced_k12_call_counts_the_cover_lp(tmp_path, monkeypatch):
    """The tracer's cover spans on a traced K_12^(3) call: the cycle family
    is built and timed, and no LP is solved (``scale_to_ones`` weights it)."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run

    # the harness writes its hosts and records under the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "WORK", tmp_path / ".bench_run")
    record = run.measure("k12-hamilton", seed=0, calls=1, trace=True)
    assert run.result_line(record)["correct"], record["problems"]
    metrics = record["metrics"]
    assert metrics["cover.lp_calls"] == 0
    assert metrics["cover.family_s"] > 0


def traced_decompose(tmp_path, monkeypatch, *extra):
    """One traced K_12^(3) two-Hamilton decompose call, program seed 0: the
    exit code, the manifest and the tracer's metrics."""
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
             "--normalize-timings", "-q", "--output", str(out), *extra]
        )
        tracer.active = False
    manifest = json.loads(out.read_text())["manifest"]
    metrics = tracer.metrics()
    layers = manifest["layers"]
    for stage in LAYER_STAGES:
        logged = sum(
            entry["stage"] == stage for layer in layers for entry in layer["failed_stages"]
        )
        assert logged == metrics["assemble.layer_failed." + stage], stage
    assert metrics["assemble.layer_calls"] == len(layers)
    assert all(layer["attempts"] == len(layer["failed_stages"]) + 1 for layer in layers)
    return code, manifest, metrics


def test_manifest_failure_counts_equal_the_tracer(tmp_path, monkeypatch):
    code, _, _ = traced_decompose(tmp_path, monkeypatch)
    assert code == cli.EXIT_OK


def test_traced_wide_leftover_call_reaches_the_layer_building_blocks(tmp_path, monkeypatch):
    # the k12-wide-leftover workload's seed 0: leftovers above 2k go to the
    # connectors, with no absorbing structure or walk
    code, manifest, metrics = traced_decompose(
        tmp_path, monkeypatch, "--set", "delta=0.7", "--set", "theta=0.4"
    )
    assert code == cli.EXIT_OK
    assert manifest["failed_layer"] is None
    assert metrics["assemble.reservoir_calls"] >= 1
    assert metrics["absorbing.build_calls"] == 0
    assert metrics["walks.sample_walk_calls"] == 0
    assert metrics["assemble.connect_calls"] >= 1


NO_SCIPY_SCRIPT = """
import sys
from cyclefactors import cli, cover, fractional
from cyclefactors.hypergraph import complete_hypergraph, format_hypergraph

assert "linprog" in cover.__dict__ and "linprog" in fractional.__dict__
with open("k12.txt", "w") as fh:
    fh.write(format_hypergraph(complete_hypergraph(3, 12)))
assert cli.main(["decompose", "k12.txt", "--targets", "12;12", "--seed", "0",
                 "-q", "--output", "run.json", "--factors-out", "factors.json"]) == 0
assert cli.main(["verify", "k12.txt", "factors.json", "-q"]) == 0
assert "scipy" not in sys.modules, "a regular-host decompose loaded scipy"
with open("gap.txt", "w") as fh:
    fh.write(format_hypergraph(complete_hypergraph(3, 8).remove_edges([(0, 1, 2)])))
assert cli.main(["pfm", "gap.txt", "--mode", "lp", "-q"]) == 0
assert "scipy.optimize" in sys.modules, "the LP ran without scipy"
"""


def test_regular_host_decomposes_without_scipy_and_the_lp_loads_it(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_the_matching_lp_is_one_linprog_call_with_a_column_per_edge_and_z(
    tmp_path, monkeypatch
):
    """bench/run.py's ``lp_columns`` wraps ``fractional.linprog`` and adds up
    len(c): ``pfm_lp`` must look ``linprog`` up through its module and pass
    one column per edge plus z."""
    from cyclefactors import fractional

    sizes = []
    real = fractional.linprog

    def counted(c, *args, **kwargs):
        sizes.append(len(c))
        return real(c, *args, **kwargs)

    monkeypatch.setattr(fractional, "linprog", counted)
    rng = random.Random(1)
    H = Hypergraph(3, 12, [e for e in itertools.combinations(range(12), 3) if rng.random() < 0.6])
    host = tmp_path / "g12.txt"
    host.write_text(format_hypergraph(H))
    assert cli.main(["pfm", str(host), "--mode", "lp", "-q"]) == cli.EXIT_OK
    assert sizes == [H.m + 1]
