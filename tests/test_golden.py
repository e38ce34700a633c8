"""Byte-identity of ``decompose`` outputs under ``--normalize-timings``.

The sha256 of each document and factors file is pinned, so a change meant
to leave the outputs alone (a speed-up, a refactor) is checked here rather
than by hand.  A change that means to move them updates these values and
says why.  The input is named by a relative path because the document
records it.
"""

import hashlib

import pytest

from cyclefactors.cli import main
from cyclefactors.hypergraph import complete_hypergraph, format_hypergraph

WIDE_LEFTOVER = ("--set", "delta=0.7", "--set", "theta=0.4")

# (extra arguments, seed) -> (document sha256, factors sha256)
GOLDEN = {
    ((), 0): (
        "1561ba5cdfbf2fd61b347d22d5cf1ec9c319f1beb554ba8f4495d2d754fe8da8",
        "47e630212fad6bf795e13d67f82e40ec4806a3ccc7cd9c84849d71f462810ebc",
    ),
    ((), 1): (
        "4247c488285fde893a71106b942a74db02d1334410d2eae666316d26456d0461",
        "1a89798dc4b3f95004f3b5d2db7ea1ef46adbb927f5e5efef1a966708da40516",
    ),
    ((), 2): (
        "9c7d62aba9cff30d93963c1084f8e5a99e7d8a844d5fa56e8cc2979eb74d60d0",
        "4f7b66041aa55b9ed7afb0d0ffca3c4dee3dc509a9df21c9245454f75d02b844",
    ),
    (WIDE_LEFTOVER, 0): (
        "4486a32ba645e51272243923ba0931a02af90d7b7e330175929fa905d8efabf9",
        "af835c4063b871ef5263c90828dd3b1701370e02d428ba84bfe2ada1871326c0",
    ),
}


def decompose_digests(extra, seed):
    """(document sha256, factors sha256) of ``decompose host.txt --targets
    12;12`` on K_12^(3) in the current directory."""
    with open("host.txt", "w") as fh:
        fh.write(format_hypergraph(complete_hypergraph(3, 12)))
    code = main([
        "decompose", "host.txt", "--targets", "12;12", "--seed", str(seed),
        "--normalize-timings", "-q", "--output", "run.json",
        "--factors-out", "factors.json", *extra,
    ])
    assert code == 0
    return tuple(
        hashlib.sha256(open(name, "rb").read()).hexdigest()
        for name in ("run.json", "factors.json")
    )


@pytest.mark.parametrize("extra, seed", list(GOLDEN), ids=lambda x: str(x))
def test_decompose_outputs_are_pinned(tmp_path, monkeypatch, extra, seed):
    monkeypatch.chdir(tmp_path)
    assert decompose_digests(extra, seed) == GOLDEN[extra, seed]
