"""The command line's contract on small configurations, and the refusal of a
coverage gate that no whole number of L-cycles can meet.

A collection of vertex-disjoint L-cycles covers jL vertices, and extraction
accepts it only when ceil((1 - mu) n) <= jL <= n.  When no j >= 1 fits, every
draw and every repair must miss, so ``cover`` and ``decompose`` refuse with
exit 21 before any randomness.  The panel runs fixed configurations end to
end: each exits with a documented code, writes factors that ``verify``
accepts, and writes the same bytes again when rerun.
"""

import itertools
import math
import random

import pytest

from cyclefactors import cli
from cyclefactors.cli import EXIT_OK, EXIT_PARAMS, EXIT_PARTIAL, EXIT_STAGE, main
from cyclefactors.cover import CoverError, check_granularity
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph, format_hypergraph


class Reached(Exception):
    """Raised by a patched stage: the command got past its refusals."""


def reached(*args, **kwargs):
    raise Reached


def write_host(tmp_path, H, name="host.txt"):
    path = tmp_path / name
    path.write_text(format_hypergraph(H))
    return str(path)


def random_host(k, n, p, seed):
    rng = random.Random(seed)
    return Hypergraph(k, n, [e for e in itertools.combinations(range(n), k) if rng.random() < p])


class TestGranularityRefusal:
    @pytest.mark.parametrize("n,gate,covers", [(11, 9, "6 or 12"), (16, 13, "12 or 18")])
    def test_decompose_refuses_before_weighting_or_sparsifying(
        self, n, gate, covers, tmp_path, monkeypatch, capsys
    ):
        # the default profile's L = 6 and mu = 0.2: no multiple of 6 lies in
        # [ceil(0.8 n), n] for n = 11 or 16
        monkeypatch.setattr(cli, "pipeline_weighting", reached)
        monkeypatch.setattr(cli, "sparsify_intersecting", reached)
        host = write_host(tmp_path, complete_hypergraph(3, n))
        assert main(["decompose", host, "--targets", f"{n};{n}"]) == EXIT_PARAMS
        assert capsys.readouterr().err == (
            f"error: decompose: no multiple of L = 6 lies in [gate, n] = [{gate}, {n}]: "
            f"a collection of 6-cycles covers {covers} vertices\n"
        )

    def test_cover_refuses_before_its_family(self, tmp_path, monkeypatch, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 16))
        assert main(["cover", host, "--collections", "0", "-q"]) == EXIT_OK
        monkeypatch.setattr(cli, "fractional_cycle_decomposition", reached)
        assert main(["cover", host]) == EXIT_PARAMS
        assert "cover: no multiple of L = 6 lies in [gate, n] = [13, 16]" in capsys.readouterr().err
        # a wider leftover lets 12 vertices pass: ceil(0.7 * 16) = 12
        with pytest.raises(Reached):
            main(["cover", host, "--set", "mu=0.3"])

    def test_refusal_is_exactly_no_fitting_multiple(self):
        refusals = 0
        for k in (2, 3, 4):
            for n in range(5, 41):
                H = Hypergraph(k, n, [])
                for L, mu in itertools.product(range(k + 1, n + 1), (0, 0.1, 0.2, 0.5)):
                    gate = math.ceil((1 - mu) * n)
                    fits = any(gate <= j * L <= n for j in range(1, n + 1))
                    try:
                        check_granularity(H, L, mu, 2)
                    except CoverError:
                        refusals += 1
                        assert not fits, (k, n, L, mu)
                    else:
                        assert fits, (k, n, L, mu)
                    check_granularity(H, L, mu, 0)  # no collections, no gate
        assert refusals > 1000


# (name, host, targets, profile overrides, seed)
PANEL = [
    ("K12", complete_hypergraph(3, 12), "12;12", [], 0),
    ("K12-three", complete_hypergraph(3, 12), "12;12;12", [], 1),
    ("K11", complete_hypergraph(3, 11), "11;11", [], 0),
    ("K16", complete_hypergraph(3, 16), "16;16", [], 0),
    ("K16-mu", complete_hypergraph(3, 16), "16;16", ["mu=0.3"], 0),
    ("K16-two-cycles", complete_hypergraph(3, 16), "8,8;16", ["mu=0.3"], 0),
    ("K14", complete_hypergraph(3, 14), "14;14", [], 0),
    ("K14-L7", complete_hypergraph(3, 14), "14", ["L=7"], 1),
    ("K12-short", complete_hypergraph(3, 12), "6,6", [], 0),
    ("G12-partial", random_host(3, 12, 0.6, 1), "12;12", [], 7),
    ("G16", random_host(3, 16, 0.5, 3), "16", ["mu=0.3"], 1),
    ("K10-k4", complete_hypergraph(4, 10), "10", ["L=8", "ell1=8"], 1),
]


@pytest.mark.parametrize("name,H,targets,sets,seed", PANEL, ids=[c[0] for c in PANEL])
def test_panel_exits_with_a_contract_code_verified_and_reproducible(
    name, H, targets, sets, seed, tmp_path
):
    host = write_host(tmp_path, H)
    runs = []
    for run in ("first", "again"):
        out, factors = tmp_path / f"{run}.json", tmp_path / f"{run}.factors.json"
        argv = ["decompose", host, "--targets", targets, "--seed", str(seed),
                "--pipeline-retries", "2", "--normalize-timings", "-q",
                "--output", str(out), "--factors-out", str(factors)]
        for item in sets:
            argv += ["--set", item]
        code = main(argv)
        assert code in (EXIT_OK, EXIT_PARTIAL, EXIT_PARAMS, EXIT_STAGE)
        written = [path.read_bytes() if path.exists() else None for path in (out, factors)]
        if code == EXIT_PARAMS:
            assert written == [None, None]
        elif written[1] is not None:
            assert main(["verify", host, str(factors), "-q"]) == EXIT_OK
        runs.append((code, written))
    assert runs[0] == runs[1]
