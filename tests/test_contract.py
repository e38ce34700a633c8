"""The command line's contract on small configurations, and the refusals of
what the arithmetic of the gates rules out.

A collection of vertex-disjoint L-cycles covers jL vertices, and extraction
accepts it only when ceil((1 - mu) n) <= jL <= n.  When no j >= 1 fits, every
draw and every repair must miss, so ``cover`` and ``decompose`` refuse with
exit 21 before any randomness.  Likewise a target cycle of ``decompose``
holds z kept L-paths and z connectors of ell0 to ell1 inner vertices, so a
length outside every [z(L + ell0), z(L + ell1)] is refused.  The panel runs
fixed configurations end to end: each exits with its recorded code, passes
both refusals when it packs a factor, writes factors that ``verify``
accepts, and writes the same bytes again when rerun.
"""

import itertools
import math
import random

import pytest

from cyclefactors import cli
from cyclefactors.assemble import AssembleParamError, Profile, check_path_fit
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


class TestPathFitRefusal:
    FIT = (
        "fits no whole number of kept L-paths: z of them and their connectors hold "
        "z(L + ell0) to z(L + ell1) = 8z to 12z vertices (L = 6, ell0 = 2, ell1 = 6)"
    )

    @pytest.mark.parametrize("n,targets", [(13, "13"), (14, "14;14"), (15, "15;15")])
    def test_decompose_refuses_before_weighting_or_sparsifying(
        self, n, targets, tmp_path, monkeypatch, capsys
    ):
        # the default L = 6, ell0 = 2 and ell1 = 6: one path fills 8-12
        # vertices and two fill 16-24, and each of these hosts has a fitting
        # multiple of L in its coverage window
        monkeypatch.setattr(cli, "pipeline_weighting", reached)
        monkeypatch.setattr(cli, "sparsify_intersecting", reached)
        H = complete_hypergraph(3, n)
        check_granularity(H, 6, 0.2, len(targets.split(";")))
        host = write_host(tmp_path, H)
        assert main(["decompose", host, "--targets", targets]) == EXIT_PARAMS
        assert capsys.readouterr().err == f"error: target cycle {n} {self.FIT}\n"

    def test_a_connector_long_enough_lets_the_run_start(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "pipeline_weighting", reached)
        host = write_host(tmp_path, complete_hypergraph(3, 15))
        with pytest.raises(Reached):
            main(["decompose", host, "--targets", "15;15", "--set", "ell1=9"])

    def test_the_girth_gate_keeps_its_own_message(self, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        assert main(["decompose", host, "--targets", "6,6;12"]) == EXIT_PARAMS
        assert capsys.readouterr().err == "error: target girth 6 < L + ell0 = 6 + 2 = 8\n"

    def test_refusal_is_exactly_no_whole_number_of_paths(self):
        refusals = 0
        for L, ell0, ell1 in itertools.product(range(2, 11), range(1, 6), range(1, 10)):
            if ell1 < ell0:
                continue
            prof = Profile(L=L, ell0=ell0, ell1=ell1)
            for T in range(1, 81):
                fits = any(z * (L + ell0) <= T <= z * (L + ell1) for z in range(1, T + 1))
                try:
                    check_path_fit([T], prof)
                except AssembleParamError:
                    refusals += 1
                    assert not fits, (L, ell0, ell1, T)
                else:
                    assert fits, (L, ell0, ell1, T)
        assert refusals > 1000
        # every cycle of a shape is checked: K_30^(3) `10,10,10;15,15`
        check_path_fit([10, 10, 10], Profile())
        with pytest.raises(AssembleParamError, match="target cycle 15 "):
            check_path_fit([15, 15], Profile())


# (name, host, targets, profile overrides, seed, exit code)
PANEL = [
    ("K12", complete_hypergraph(3, 12), "12;12", [], 0, EXIT_OK),
    ("K12-three", complete_hypergraph(3, 12), "12;12;12", [], 1, EXIT_OK),
    ("K11", complete_hypergraph(3, 11), "11;11", [], 0, EXIT_PARAMS),
    ("K16", complete_hypergraph(3, 16), "16;16", [], 0, EXIT_PARAMS),
    ("K16-mu", complete_hypergraph(3, 16), "16;16", ["mu=0.3"], 0, EXIT_OK),
    ("K16-two-cycles", complete_hypergraph(3, 16), "8,8;16", ["mu=0.3"], 0, EXIT_OK),
    ("K14", complete_hypergraph(3, 14), "14;14", [], 0, EXIT_PARAMS),
    ("K14-L7", complete_hypergraph(3, 14), "14", ["L=7"], 1, EXIT_PARAMS),
    ("K12-short", complete_hypergraph(3, 12), "6,6", [], 0, EXIT_PARAMS),
    ("G12-partial", random_host(3, 12, 0.6, 1), "12;12", [], 7, EXIT_PARTIAL),
    ("G16", random_host(3, 16, 0.5, 3), "16", ["mu=0.3"], 1, EXIT_OK),
    ("K10-k4", complete_hypergraph(4, 10), "10", ["L=8", "ell1=8"], 1, EXIT_OK),
    # nine factors pass the host's matching bound (55 / 3) but not the
    # residual's, so every attempt ends at extraction
    ("K12-nine", complete_hypergraph(3, 12), ";".join(["12"] * 9), [], 0, EXIT_STAGE),
    ("K13", complete_hypergraph(3, 13), "13", [], 0, EXIT_PARAMS),
    ("K14-L7-fit", complete_hypergraph(3, 14), "14", ["L=7", "ell1=7"], 1, EXIT_OK),
    # a 15-cycle fits one path, but a draw that keeps two cannot be grouped
    ("K15-ell1", complete_hypergraph(3, 15), "15;15", ["ell1=9"], 0, EXIT_STAGE),
    ("K12-ell0", complete_hypergraph(3, 12), "12;12", ["ell0=1"], 2, EXIT_OK),
    ("K12-k4-mu", complete_hypergraph(4, 12), "12", ["L=8", "ell1=8", "mu=0.4"], 0, EXIT_OK),
]


def test_panel_holds_every_contract_code():
    assert {c[-1] for c in PANEL} == {EXIT_OK, EXIT_PARTIAL, EXIT_PARAMS, EXIT_STAGE}


@pytest.mark.parametrize("name,H,targets,sets,seed,expected", PANEL, ids=[c[0] for c in PANEL])
def test_panel_exits_with_a_contract_code_verified_and_reproducible(
    name, H, targets, sets, seed, expected, tmp_path
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
        assert code == expected
        if code in (EXIT_OK, EXIT_PARTIAL):
            # a run that packs a factor passes every refusal
            prof = cli.load_profile(None, sets)
            shapes = cli.parse_targets(targets)
            check_granularity(H, prof.L, prof.mu, len(shapes))
            for shape in shapes:
                check_path_fit(shape, prof)
        written = [path.read_bytes() if path.exists() else None for path in (out, factors)]
        if code == EXIT_PARAMS:
            assert written == [None, None]
        elif written[1] is not None:
            assert main(["verify", host, str(factors), "-q"]) == EXIT_OK
        runs.append((code, written))
    assert runs[0] == runs[1]
