"""Byte-identity of command outputs under ``--normalize-timings``.

The sha256 of each document (and of ``decompose``'s factors file) is
pinned, so a change meant to leave the outputs alone (a speed-up, a
refactor) is checked here rather than by hand.  A change that means to move
them updates these values and says why.  The input is named by a relative
path because the document records it.
"""

import hashlib
import itertools
import json
import random

import pytest

from cyclefactors import cli
from cyclefactors.cli import main
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph, format_hypergraph


def seeded_random_host(n, p):
    """G(n, p): each 3-set of 0..n-1 an edge with probability p, rng seed 1."""
    rng = random.Random(1)
    return Hypergraph(3, n, [e for e in itertools.combinations(range(n), 3) if rng.random() < p])


HOSTS = {
    "K12": lambda: complete_hypergraph(3, 12),
    "K18": lambda: complete_hypergraph(3, 18),
    "K24": lambda: complete_hypergraph(3, 24),
    "K30": lambda: complete_hypergraph(3, 30),
    "G(9,0.7)": lambda: seeded_random_host(9, 0.7),
    "G(18,0.8)": lambda: seeded_random_host(18, 0.8),
    "K16x4": lambda: complete_hypergraph(4, 16),
    "K7": lambda: complete_hypergraph(3, 7),
}

# name -> (host, command line after the input, the sha256 of its document,
# then of its factors file for decompose)
WIDE = "--set delta=0.7 --set theta=0.4"
GOLDEN = {
    "k12-decompose-0": ("K12", "decompose --targets 12;12 --seed 0", (
        "1561ba5cdfbf2fd61b347d22d5cf1ec9c319f1beb554ba8f4495d2d754fe8da8",
        "47e630212fad6bf795e13d67f82e40ec4806a3ccc7cd9c84849d71f462810ebc",
    )),
    "k12-decompose-1": ("K12", "decompose --targets 12;12 --seed 1", (
        "4247c488285fde893a71106b942a74db02d1334410d2eae666316d26456d0461",
        "1a89798dc4b3f95004f3b5d2db7ea1ef46adbb927f5e5efef1a966708da40516",
    )),
    "k12-decompose-2": ("K12", "decompose --targets 12;12 --seed 2", (
        "9c7d62aba9cff30d93963c1084f8e5a99e7d8a844d5fa56e8cc2979eb74d60d0",
        "4f7b66041aa55b9ed7afb0d0ffca3c4dee3dc509a9df21c9245454f75d02b844",
    )),
    # an extraction completed by the one-for-two repair on an enumerated family
    "k12-decompose-3": ("K12", "decompose --targets 12;12 --seed 3", (
        "aad3e4ef849e4d5e54e57b4aeaef9385468ae90967e10ef220c79ce3a9990fe7",
        "e1876109a09dd4be05c6feef30d6731963ad5bb3f8dcb1427869b055dad6c932",
    )),
    "k12-decompose-wide-0": ("K12", f"decompose --targets 12;12 --seed 0 {WIDE}", (
        "4486a32ba645e51272243923ba0931a02af90d7b7e330175929fa905d8efabf9",
        "af835c4063b871ef5263c90828dd3b1701370e02d428ba84bfe2ada1871326c0",
    )),
    "g9-absorbers": ("G(9,0.7)", "absorbers", (
        "34c21b2689da637a3455de6da527f527cbb506eb5cabeca22c8303322c26e1c3",
    )),
    # the exact weighting grows its walk registry with grow_paths
    "g9-walk-exact": ("G(9,0.7)", "walk --mode exact", (
        "088905df9e6a6f247a7839dc467e29a8572836cfc504f54be6f77349906cb8fd",
    )),
    # the walks are drawn together by walks.sample_walks from one Generator
    "g9-walk-sampled": ("G(9,0.7)", "walk --samples 200 --mode exact", (
        "f4b07a9e97f9041c4b34b6d9cc0554369f0bd2b002178ae65a36346de5330aed",
    )),
    "g9-pfm-exact": ("G(9,0.7)", "pfm --mode exact", (
        "b81f84dd81b8e8ee82ebd2d6f4915cd439ff01faca1bf5053284b0454d31e266",
    )),
    # the max-min LP of a non-regular host and its polish
    "g9-pfm-lp": ("G(9,0.7)", "pfm --mode lp", (
        "3d9c27bce32da4371971c8427053cf8362274c94dab65ca884b2943bccea33c6",
    )),
    # the only pinned run whose reserve is drawn by LP weights
    "g18-decompose-0": ("G(18,0.8)", "decompose --targets 18;18 --seed 0", (
        "0e0e1a9e34c5000c67379693cd9b4d610a53aa0ed66e0565d1fdecb6a1699e82",
        "902b41fd445e07eb7e4f60238a7fd70a782771de86656afd95b699e38df8bcbe",
    )),
    "k24-cover-0": ("K24", "cover --collections 2 --seed 0", (
        "d5cc6bd006b3b3a2767ebcf6979948e1b5a05e13bbc2598ff64a0b242dcb1ecf",
    )),
    # the residual's cycle family is sampled (walks from every edge) end to end;
    # all 40 draws of its first attempt miss, and a one-for-two swap repairs one
    "k24-decompose-0": ("K24", "decompose --targets 24;24 --seed 0", (
        "844b3bef1179158e34be30ca6f6ba56ab807769603d039c4bb2551bfe9d33888",
        "f2e91cf441aa0682f5cd30c9874fb28c227228238a2c0d9700ef983d9b9763cd",
    )),
    # a sampled family of 36,540 six-cycles, weighted without an assembled
    # Gram matrix; the first attempt passes
    "k30-decompose-0": ("K30", "decompose --targets 30;30 --seed 0", (
        "83b9609180fb6a7249aa5d4138341661e159cab5b16ea8b94b2d0da29142d840",
        "7192fb7593483e04ccfc96bb898a492ab9881bae0a3206b1adc4207789bbd899",
    )),
    # the regularity report: rho*, both eta* minima and delta_{k-1}
    "g18-analyze": ("G(18,0.8)", "analyze", (
        "d3b8920fcbb8f6cdfc3d85cc82747aead89cc83543020c7cd3b91082b0512607",
    )),
    "k16x4-analyze": ("K16x4", "analyze", (
        "a9173039690b2d06c49cbc89e4b021e81711020d8af77dbeafeb34e306b2da8b",
    )),
    # the one 4-uniform run: the cover's family of 8-cycles, connectors of
    # up to 8 inner vertices, one pipeline attempt and one per layer
    "k16x4-decompose-L8-0": ("K16x4", "decompose --targets 16;16 --seed 0 --set L=8 --set ell1=8", (
        "0ae211d53ceca681f26177fa93aad5dfd8708f082acabdbd59863113610bbed0",
        "a2a79e2c63d0b98553635e529fb88dbc4e69e1c51f6a6e9b47359284af324c33",
    )),
    # the exact-regular subgraph search and its witness
    "k7-regsub": ("K7", "regsub --cap 40", (
        "bdbe0153087c4e251c762c2620c4e9a52eb877c9a60789621b216b02d00cf0ef",
    )),
    # the largest enumerated family (14,957 six-cycles) and assembled Gram
    "k18-decompose-0": ("K18", "decompose --targets 18;18 --seed 0", (
        "bf4e971d02e0aded3d0626114f64714391b2f272585c69026183b5f60023ecfa",
        "9dd5faeb23bdedbcf947b238afd1c2e19aa0655c5db05958e0e96568b9165f88",
    )),
}


def digests(host, command):
    """The sha256 of each file ``command host.txt ...`` writes in the current
    directory: its document, and its factors file for decompose."""
    with open("host.txt", "w") as fh:
        fh.write(format_hypergraph(HOSTS[host]()))
    name, *args = command.split()
    files = ["run.json"] + (["factors.json"] if name == "decompose" else [])
    extra = ["--factors-out", "factors.json"] if name == "decompose" else []
    code = main([name, "host.txt", *args, "--normalize-timings", "-q", "--output", "run.json", *extra])
    assert code == 0
    return tuple(hashlib.sha256(open(f, "rb").read()).hexdigest() for f in files)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_outputs_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    host, command, pinned = GOLDEN[name]
    assert digests(host, command) == pinned


@pytest.mark.parametrize("name", list(GOLDEN))
def test_documents_encode_as_json_dumps(tmp_path, monkeypatch, name):
    # every document a golden run emits (and verify's, for decompose), as
    # built in memory: emit's encoder against json.dumps
    monkeypatch.chdir(tmp_path)
    docs = []
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda doc, output: docs.append(doc) or emit(doc, output))
    host, command, _ = GOLDEN[name]
    digests(host, command)
    if command.startswith("decompose"):
        assert main(["verify", "host.txt", "factors.json", "-q", "--output", "verify.json"]) == 0
    assert len(docs) == (3 if command.startswith("decompose") else 1)
    for doc in docs:
        assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


# verify's document for each outcome, checking k12-decompose-0's factors file
VERIFY = {
    "valid": (0, "e9c0aab8a4f3a9fb0f07c08bcd7d31263addfe78718c82c7bbfff46cc1edf24a"),
    "empty": (0, "fee6b027b6cb7f1b6607b936dbdb108658324ebe490c393d65b8c5163f061010"),
    "invalid": (30, "2874fa51c53ea00deb36ed76977d0f9cadfddd967e084325a6d631cff6802fc4"),
}


@pytest.mark.parametrize("how", list(VERIFY))
def test_verify_documents_are_pinned(tmp_path, monkeypatch, how):
    monkeypatch.chdir(tmp_path)
    digests("K12", GOLDEN["k12-decompose-0"][1])
    doc = json.load(open("factors.json"))
    if how == "empty":
        doc = {"factors": []}
    elif how == "invalid":  # factor 0 written twice
        doc["factors"][1] = doc["factors"][0]
    with open("factors.json", "w") as fh:
        json.dump(doc, fh)
    code, pinned = VERIFY[how]
    argv = ["verify", "host.txt", "factors.json", "--normalize-timings", "-q", "--output", "run.json"]
    assert main(argv) == code
    assert hashlib.sha256(open("run.json", "rb").read()).hexdigest() == pinned


def test_decompose_stdout_is_pinned(tmp_path, monkeypatch, capsys):
    # without --output the document goes to stdout, then the "achieved" line
    monkeypatch.chdir(tmp_path)
    digests("K12", GOLDEN["k12-decompose-0"][1])
    capsys.readouterr()
    argv = ["decompose", "host.txt", *GOLDEN["k12-decompose-0"][1].split()[1:],
            "--normalize-timings", "--factors-out", "factors.json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(open("run.json").read())
    pinned = "fc60ca0e786b401f7ff688f151c25af2b6fefedc217877a4f2e10693670eec63"
    assert hashlib.sha256(out.encode()).hexdigest() == pinned
