"""Command-line walkthrough: analyze a host, weight it, cover it, decompose
it into two edge-disjoint Hamilton factors, and re-verify the result.

Runs every step through the same entry point the ``cyclefactors`` console
script uses, so the artifacts on disk are exactly what the CLI produces.
"""

import json
import tempfile
from pathlib import Path

from cyclefactors.cli import main
from cyclefactors.hypergraph import complete_hypergraph, format_hypergraph


def run(argv):
    print(f"$ cyclefactors {' '.join(argv)}")
    code = main(argv)
    print(f"  -> exit code {code}")
    assert code == 0, f"step failed with exit code {code}"


def show(path, keys):
    doc = json.loads(Path(path).read_text())
    for key in keys:
        print(f"  {key} = {json.dumps(doc[key])}")


def main_demo():
    with tempfile.TemporaryDirectory(prefix="cyclefactors-demo-") as workdir:
        walkthrough(Path(workdir))


def walkthrough(workdir):
    host = workdir / "k12.txt"
    host.write_text(format_hypergraph(complete_hypergraph(3, 12)))
    print(f"host file: {host} (complete 3-uniform hypergraph on 12 vertices)\n")

    analysis = workdir / "analysis.json"
    run(["analyze", str(host), "-q", "--output", str(analysis)])
    show(analysis, ["degree_histogram"])
    print()

    weights = workdir / "weights.json"
    run(["pfm", str(host), "--mode", "exact", "-q", "--output", str(weights)])
    show(weights, ["is_pfm", "balancedness"])
    print()

    cover = workdir / "cover.json"
    run(
        [
            "cover",
            str(host),
            "--collections",
            "2",
            "-q",
            "--output",
            str(cover),
        ]
    )
    show(cover, ["ok", "coverages"])
    print()

    manifest = workdir / "decomposition.json"
    factors = workdir / "factors.json"
    run(
        [
            "decompose",
            str(host),
            "--targets",
            "12;12",
            "--seed",
            "0",
            "--normalize-timings",
            "-q",
            "--output",
            str(manifest),
            "--factors-out",
            str(factors),
        ]
    )
    doc = json.loads(manifest.read_text())
    print(f"  achieved {doc['achieved']}/{doc['requested']} factors")
    for i, factor in enumerate(doc["manifest"]["factors"]["factors"]):
        print(f"  factor {i}: cycles {factor['cycles']}")
    print()

    run(["verify", str(host), str(factors), "-q"])
    print("\nboth Hamilton factors re-verified against the host")


if __name__ == "__main__":
    main_demo()
