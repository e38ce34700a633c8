import itertools
import json
import random

import pytest

from cyclefactors import absorbing, assemble, cli, cover, fractional
from cyclefactors.cli import (
    CLIError,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PARTIAL,
    EXIT_PARAMS,
    EXIT_STAGE,
    load_profile,
    main,
    parse_targets,
)
from cyclefactors.hypergraph import (
    Hypergraph,
    RegularityReport,
    complete_hypergraph,
    format_hypergraph,
)
from cyclefactors.tightpaths import TightCycle


def seeded_random_host(n, p):
    """G(n, p): each 3-set of 0..n-1 an edge with probability p, rng seed 1."""
    rng = random.Random(1)
    return Hypergraph(3, n, [e for e in itertools.combinations(range(n), 3) if rng.random() < p])


class Sampled(Exception):
    """Raised by a patched sampling step: the command got past its checks."""


def refuse_to_sample(*args, **kwargs):
    raise Sampled


def write_host(tmp_path, H, name="host.txt"):
    path = tmp_path / name
    path.write_text(format_hypergraph(H))
    return str(path)


@pytest.fixture(scope="module")
def decompose_artifacts(tmp_path_factory):
    """One successful K_12 two-Hamilton pipeline run, reused by many tests."""
    tmp = tmp_path_factory.mktemp("decompose")
    host = write_host(tmp, complete_hypergraph(3, 12))
    manifest = str(tmp / "manifest.json")
    factors = str(tmp / "factors.json")
    code = main(
        [
            "decompose", host,
            "--targets", "12;12",
            "--seed", "0",
            "--normalize-timings",
            "--quiet",
            "--output", manifest,
            "--factors-out", factors,
        ]
    )
    assert code == EXIT_OK
    return host, manifest, factors


class TestParseTargets:
    def test_semicolons_split_factors(self):
        assert parse_targets("12;12") == [[12], [12]]

    def test_commas_split_cycle_lengths(self):
        assert parse_targets("6,6;12") == [[6, 6], [12]]
        assert parse_targets("6 6 ; 12") == [[6, 6], [12]]

    def test_junk_tokens_are_parameter_errors(self):
        with pytest.raises(CLIError) as info:
            parse_targets("12;ham")
        assert info.value.code == EXIT_PARAMS

    def test_empty_targets_is_a_parameter_error(self):
        with pytest.raises(CLIError) as info:
            parse_targets(" ; ")
        assert info.value.code == EXIT_PARAMS


class TestProfileFiles:
    def test_comments_blanks_and_inline_comments(self, tmp_path):
        path = tmp_path / "prof.txt"
        path.write_text("# desk profile\nmu = 0.25\n\neps=0.4 # inline\n")
        prof = load_profile(str(path), [])
        assert prof.mu == 0.25
        assert prof.eps == 0.4

    def test_flag_overrides_win(self, tmp_path):
        path = tmp_path / "prof.txt"
        path.write_text("mu=0.25\n")
        prof = load_profile(str(path), ["mu=0.1", "L=8"])
        assert prof.mu == 0.1
        assert prof.L == 8

    def test_unknown_keys_are_parameter_errors(self):
        with pytest.raises(CLIError) as info:
            load_profile(None, ["turbo=1"])
        assert info.value.code == EXIT_PARAMS

    def test_malformed_lines_name_the_line(self, tmp_path):
        path = tmp_path / "prof.txt"
        path.write_text("mu=0.25\nthis is not a pair\n")
        with pytest.raises(CLIError) as info:
            load_profile(str(path), [])
        assert info.value.code == EXIT_PARSE
        assert "line 2" in str(info.value)

    def test_missing_file_is_a_parse_error(self):
        with pytest.raises(CLIError) as info:
            load_profile("/nonexistent/prof.txt", [])
        assert info.value.code == EXIT_PARSE

    def test_values_parse_as_int_or_float(self, tmp_path):
        path = tmp_path / "prof.txt"
        path.write_text("L=8\ndelta=0.4\n")
        prof = load_profile(str(path), [])
        assert prof.L == 8
        assert prof.delta == 0.4
        # no profile entry is a flag
        with pytest.raises(CLIError) as info:
            load_profile(None, ["theta=true"])
        assert info.value.code == EXIT_PARSE


class TestAnalyze:
    def test_prints_the_regularity_summary(self, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        assert main(["analyze", host]) == EXIT_OK
        out = capsys.readouterr().out
        assert "k = 3" in out
        assert "n = 5" in out
        assert "m = 10" in out
        assert "delta_2 = 3" in out
        assert "rho_star = 0/1" in out
        assert "6: 5" in out  # degree histogram line

    def test_artifact_embeds_the_resolved_config(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        artifact = tmp_path / "analyze.json"
        assert main(["analyze", host, "-q", "--output", str(artifact)]) == EXIT_OK
        doc = json.loads(artifact.read_text())
        assert doc["config"]["command"] == "analyze"
        assert doc["config"]["profile"]["mu"] == 0.2
        assert doc["report"]["delta_codegree"] == 3
        assert doc["degree_histogram"] == {"6": 5}

    def test_parse_errors_name_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("k=3 n=5\n0 1 2\n")
        assert main(["analyze", str(bad)]) == EXIT_PARSE
        assert "line 1" in capsys.readouterr().err

    def test_duplicate_edges_are_rejected(self, tmp_path, capsys):
        bad = tmp_path / "dup.txt"
        bad.write_text("3 5 2\n0 1 2\n2 1 0\n")
        assert main(["analyze", str(bad)]) == EXIT_PARSE
        assert "duplicate" in capsys.readouterr().err

    def test_missing_file_is_a_parse_error(self):
        assert main(["analyze", "/nonexistent/host.txt"]) == EXIT_PARSE


class TestRegsub:
    def test_complete_graphs(self, tmp_path, capsys):
        host4 = write_host(tmp_path, complete_hypergraph(3, 4), "k4.txt")
        assert main(["regsub", host4]) == EXIT_OK
        assert "reg_3 = 3" in capsys.readouterr().out
        host5 = write_host(tmp_path, complete_hypergraph(3, 5), "k5.txt")
        artifact = tmp_path / "regsub.json"
        assert main(["regsub", host5, "-q", "--output", str(artifact)]) == EXIT_OK
        assert json.loads(artifact.read_text())["result"]["r"] == 6

    def test_cap_refusal_is_a_parameter_error(self, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        assert main(["regsub", host, "--cap", "5"]) == EXIT_PARAMS
        assert "cap" in capsys.readouterr().err


class TestPfm:
    def test_exact_mode_on_a_complete_host(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        artifact = tmp_path / "pfm.json"
        code = main(["pfm", host, "--mode", "exact", "-q", "--output", str(artifact)])
        assert code == EXIT_OK
        doc = json.loads(artifact.read_text())
        assert doc["is_pfm"] is True
        assert doc["balancedness"] == "1/1"
        assert len(doc["weights"]) == 10

    def test_lp_mode(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        assert main(["pfm", host, "--mode", "lp", "-q"]) == EXIT_OK

    def test_non_pfm_weighting_is_a_stage_failure(self, tmp_path):
        sparse = tmp_path / "sparse.txt"
        sparse.write_text("3 5 2\n0 1 2\n1 2 3\n")
        assert main(["pfm", str(sparse), "--mode", "uniform", "-q"]) == EXIT_STAGE


class TestWalk:
    def test_exact_marginals_are_uniform_rationals(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        artifact = tmp_path / "walk.json"
        code = main(
            ["walk", host, "--steps", "3", "-q", "--output", str(artifact)]
        )
        assert code == EXIT_OK
        doc = json.loads(artifact.read_text())["exact"]
        assert doc["sequences"] == 60
        assert doc["total_mass"] == "1/1"
        assert set(doc["final_marginal"].values()) == {"1/5"}

    def test_sampled_marginals_stay_near_uniform(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        artifact = tmp_path / "walks.json"
        code = main(
            [
                "walk", host,
                "--steps", "4",
                "--samples", "4000",
                "--seed", "1",
                "-q",
                "--output", str(artifact),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(artifact.read_text())["sampled"]
        assert doc["samples"] == 4000
        assert sum(doc["final_counts"].values()) == 4000
        assert doc["max_deviation_from_uniform"] < 0.05

    def test_zero_steps_is_a_parameter_error(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        assert main(["walk", host, "--steps", "0", "-q"]) == EXIT_PARAMS


class TestAbsorbers:
    def test_k7_has_720_per_vertex(self, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 7))
        artifact = tmp_path / "abs.json"
        code = main(["absorbers", host, "--x", "0", "--output", str(artifact)])
        assert code == EXIT_OK
        assert "720 absorbers" in capsys.readouterr().out
        doc = json.loads(artifact.read_text())
        assert doc["per_vertex"]["0"] == {"count": 720, "insertion_check": True}
        assert doc["all_insertion_checks_pass"] is True

    def test_cap_truncates_enumeration(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 7))
        artifact = tmp_path / "abs.json"
        code = main(
            ["absorbers", host, "--x", "0", "--cap", "10", "-q",
             "--output", str(artifact)]
        )
        assert code == EXIT_OK
        doc = json.loads(artifact.read_text())
        assert doc["per_vertex"]["0"]["count"] == 10


class TestCover:
    def test_k12_two_collections(self, tmp_path):
        H = complete_hypergraph(3, 12)
        host = write_host(tmp_path, H)
        artifact = tmp_path / "cover.json"
        code = main(
            [
                "cover", host,
                "--collections", "2",
                "-q",
                "--output", str(artifact),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(artifact.read_text())
        assert doc["ok"] is True
        assert doc["coverages"] == [12, 12]
        collections = [
            [TightCycle(H, tuple(seq)) for seq in coll] for coll in doc["collections"]
        ]
        assert len(collections) == 2
        cover.validate_collections(H, collections)
        for coll, coverage in zip(collections, doc["coverages"]):
            assert all(len(C) == 6 for C in coll)
            assert len(set().union(*(C.vertex_set for C in coll))) == coverage


@pytest.mark.parametrize(
    "command,flag",
    [("decompose", "--cover-length"), ("decompose", "--per-edge"),
     ("cover", "--cycle-length"), ("cover", "--per-edge")],
)
def test_the_cover_length_and_sample_size_have_no_flags(command, flag, capsys):
    # Profile.L and cli.PIPELINE_PER_EDGE set them for both commands
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert flag not in capsys.readouterr().out


class TestDecompose:
    def test_k12_two_hamiltons_succeeds(self, decompose_artifacts):
        _, manifest, factors = decompose_artifacts
        doc = json.loads(open(manifest).read())
        assert doc["ok"] is True
        assert (doc["achieved"], doc["requested"]) == (2, 2)
        assert len(doc["manifest"]["layers"]) == 2
        assert doc["wall_time"] == 0.0
        assert doc["config"]["command"] == "decompose"
        bare = json.loads(open(factors).read())
        assert len(bare["factors"]) == 2

    def test_identical_config_and_seed_is_byte_identical(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "decompose", host,
                    "--targets", "12;12",
                    "--seed", "0",
                    "--normalize-timings",
                    "-q",
                    "--output", str(out),
                ]
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_decompose_never_computes_the_full_regularity_report(
        self, tmp_path, monkeypatch
    ):
        # eta* is a hypothesis on the input, which decompose never sweeps
        def refuse(H):
            raise AssertionError("decompose swept eta* for a regularity report")

        monkeypatch.setattr(RegularityReport, "from_hypergraph", staticmethod(refuse))
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        code = main(
            [
                "decompose", host,
                "--targets", "12;12",
                "--seed", "0",
                "--set", "delta=0.7",
                "--set", "theta=0.4",
                "-q",
                "--output", str(tmp_path / "run.json"),
            ]
        )
        assert code == EXIT_OK

    def test_input_is_weighted_once_per_job(self, tmp_path, monkeypatch):
        calls = []
        real = cli.pipeline_weighting

        def counted(H):
            calls.append(H.m)
            return real(H)

        monkeypatch.setattr(cli, "pipeline_weighting", counted)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "12;12", "--seed", "8", "-q",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["pipeline"]["attempts"] >= 2
        assert calls == [220]

    def _record_extractions(self, monkeypatch):
        """Wrap the pipeline's extraction: each call's result is recorded next
        to a 10-draw extraction from the same fractional solution."""
        seen = []
        real = cli.extract_cycle_collections

        def recorded(H, frac, r, **kwargs):
            got = real(H, frac, r, **kwargs)
            ten = real(H, frac, r, **{**kwargs, "retries": 10})
            seen.append((kwargs["retries"], got, ten))
            return got

        monkeypatch.setattr(cli, "extract_cycle_collections", recorded)
        return seen

    def _count_cover_solves(self, monkeypatch):
        solves = []
        real = cover.linprog

        def counted(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cover, "linprog", counted)
        return solves

    def test_missed_gates_are_redrawn_from_the_same_solution(self, tmp_path, monkeypatch):
        # seed 6: ten draws miss the gates on the first pipeline attempt
        seen = self._record_extractions(monkeypatch)
        solves = self._count_cover_solves(monkeypatch)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "12;12", "--seed", "6", "-q",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["pipeline"]["attempts"] == 1
        assert len(solves) == 1
        [(retries, got, ten)] = seen
        assert retries == cli.PIPELINE_EXTRACTION_DRAWS == 40
        assert not ten.ok
        assert got.ok and 10 < got.attempts <= retries
        assert got.diagnostics[:10] == ten.diagnostics

    def test_a_first_draw_pass_is_unchanged_by_the_budget(self, tmp_path, monkeypatch):
        # seed 0: the first pipeline attempt passes within ten draws
        seen = self._record_extractions(monkeypatch)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "12;12", "--seed", "0", "-q",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        [(_, got, ten)] = seen
        assert ten.ok
        assert [[C.seq for C in coll] for coll in got.collections] == [
            [C.seq for C in coll] for coll in ten.collections
        ]
        assert (got.attempts, got.diagnostics) == (ten.attempts, ten.diagnostics)

    def test_decompose_never_redistributes_along_walk_registries(
        self, tmp_path, monkeypatch
    ):
        # the exact walk redistribution serves only `pfm --mode exact`
        def refuse(*args, **kwargs):
            raise AssertionError("decompose ran the exact walk redistribution")

        for module in (fractional, absorbing, assemble, cli):
            for name in ("redistribute_pfm", "build_walk_registry"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        code = main(
            [
                "decompose", host,
                "--targets", "12;12",
                "--seed", "0",
                "--set", "delta=0.7",
                "--set", "theta=0.4",
                "-q",
                "--output", str(tmp_path / "run.json"),
            ]
        )
        assert code == EXIT_OK

    def test_decompose_hands_cycle_collections_to_the_packer(self, tmp_path):
        # every layer attempt opens the cycles itself
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "12;12", "--seed", "0", "-q",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        for layer in json.loads(out.read_text())["manifest"]["layers"]:
            assert layer["attempts"] == len(layer["failed_stages"]) + 1

    def test_parallel_seeds_picks_the_first_success_deterministically(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "par.json"
        code = main(
            [
                "decompose", host,
                "--targets", "12;12",
                "--seed", "0",
                "--parallel-seeds", "2",
                "--normalize-timings",
                "-q",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["pipeline"]["winning_seed"] == 0
        assert [s["seed"] for s in doc["pipeline"]["seeds"]] == [0, 1]

    def test_partial_packing_exits_10_with_its_verified_factor(self, tmp_path):
        # with one pipeline attempt, seed 12 on the non-regular G(12, 0.6)
        # packs its first layer and then exhausts every attempt of the second
        host = write_host(tmp_path, seeded_random_host(12, 0.6))
        out, factors, check = (tmp_path / name for name in ("run.json", "f.json", "v.json"))
        code = main(
            ["decompose", host, "--targets", "12;12", "--seed", "12",
             "--pipeline-retries", "1", "--normalize-timings", "-q",
             "--output", str(out), "--factors-out", str(factors)]
        )
        assert code == EXIT_PARTIAL
        doc = json.loads(out.read_text())
        assert (doc["ok"], doc["achieved"], doc["requested"]) == (False, 1, 2)
        manifest = doc["manifest"]
        assert len(manifest["factors"]["factors"]) == 1
        failed = manifest["failed_layer"]
        assert failed["layer"] == 1
        assert failed["attempts"] == len(failed["failed_stages"]) == 20
        last = failed["failed_stages"][-1]
        assert doc["pipeline"]["log"][-1]["detail"].endswith(
            f"last failed at {last['stage']}: {last['detail']}"
        )
        assert main(["verify", host, str(factors), "-q", "--output", str(check)]) == EXIT_OK
        assert json.loads(check.read_text())["factors"] == 1

    def test_packer_graph_is_the_reserve_plus_the_idle_edges(self, tmp_path, monkeypatch):
        # F = H minus every extracted cycle: it holds the whole reserve and
        # no collection edge, and the document counts both parts
        H = seeded_random_host(12, 0.8)
        seen = []
        real_sparsify, real_pack = cli.sparsify_intersecting, cli.pack_factors

        def sparsify(*args):
            seen.append(real_sparsify(*args))
            return seen[-1]

        def pack(H, F, collections, targets, **kwargs):
            seen.append((F, collections))
            return real_pack(H, F, collections, targets, **kwargs)

        monkeypatch.setattr(cli, "sparsify_intersecting", sparsify)
        monkeypatch.setattr(cli, "pack_factors", pack)
        out = tmp_path / "run.json"
        code = main(
            ["decompose", write_host(tmp_path, H), "--targets", "12;12", "--seed", "0",
             "--pipeline-retries", "1", "-q", "--output", str(out)]
        )
        assert code == EXIT_OK
        reserve, (F, collections) = seen
        cycle_edges = {e for coll in collections for C in coll for e in C.edges()}
        assert set(reserve.edges) <= set(F.edges)
        assert not cycle_edges & set(F.edges)
        assert set(F.edges) | cycle_edges == set(H.edges)
        assert F.m > reserve.m
        edges = json.loads(out.read_text())["manifest"]["edges"]
        assert edges == {"reserve": reserve.m, "idle": F.m - reserve.m}

    def test_non_regular_g18_packs_two_hamilton_cycles(self, tmp_path):
        # G(18, 0.8): its sparse reserve alone held no connectors
        host = write_host(tmp_path, seeded_random_host(18, 0.8))
        out, factors, check = (tmp_path / name for name in ("run.json", "f.json", "v.json"))
        code = main(
            ["decompose", host, "--targets", "18;18", "--seed", "0", "-q",
             "--output", str(out), "--factors-out", str(factors)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["achieved"] == 2
        assert main(["verify", host, str(factors), "-q", "--output", str(check)]) == EXIT_OK

    def test_k21_packs_two_hamilton_cycles_in_one_attempt(self, tmp_path):
        # |V1| = 9 leaves no room beside a sampled reservoir for an absorbing
        # structure; connectors through the whole leftover pack it at once
        host = write_host(tmp_path, complete_hypergraph(3, 21))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "21;21", "--seed", "0", "-q",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["achieved"] == 2
        assert doc["pipeline"]["attempts"] == 1

    def test_k12_packs_three_hamilton_cycles_in_one_attempt(self, tmp_path):
        # each layer draws from F minus the earlier layers' reserve edges,
        # whatever codegree those edges leave behind
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "12;12;12", "--seed", "2", "-q",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["achieved"] == 3
        assert doc["pipeline"]["attempts"] == 1

    def test_failed_extraction_names_its_best_draw(self, tmp_path, monkeypatch):
        # four Hamilton targets on K_12^(3): no draw reaches the coverage gate
        seen = self._record_extractions(monkeypatch)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "12;12;12;12", "--seed", "0",
             "--pipeline-retries", "1", "-q", "--output", str(out)]
        )
        assert code == EXIT_STAGE
        [(draws, got, _)] = seen
        assert not got.ok and len(got.diagnostics) == draws == 40
        best = got.diagnostics[got.returned]
        assert got.coverages() == best["coverages"]
        assert all(len(d["failures"]) >= len(best["failures"]) for d in got.diagnostics)
        [entry] = json.loads(out.read_text())["pipeline"]["log"]
        assert entry["stage"] == "CoverError"
        assert entry["detail"] == (
            f"collection extraction gates failed in 40 draws; "
            f"best draw {best['attempt']}: coverages {best['coverages']}, "
            f"failures {best['failures']}"
        )

    def test_target_sum_mismatch_is_a_parameter_error(self, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        assert main(["decompose", host, "--targets", "11;12"]) == EXIT_PARAMS
        assert "sums to 11" in capsys.readouterr().err

    def test_girth_below_gate_is_a_parameter_error(self, tmp_path, capsys):
        # the default gate is L + ell0 = 6 + 2 = 8
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        assert main(["decompose", host, "--targets", "6,6;12"]) == EXIT_PARAMS
        assert "target girth 6 < L + ell0 = 6 + 2 = 8" in capsys.readouterr().err

    def test_short_cycles_are_rejected_before_any_sampling(
        self, tmp_path, monkeypatch, capsys
    ):
        # with ell0 = 1 the gate is 7: 6-cycles sit one below it
        monkeypatch.setattr(cli, "sparsify_intersecting", refuse_to_sample)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        code = main(["decompose", host, "--set", "ell0=1", "--targets", "6,6;12"])
        assert code == EXIT_PARAMS
        assert "L + ell0 = 6 + 1 = 7" in capsys.readouterr().err

    def test_a_target_at_the_gate_reaches_sampling(self, tmp_path, monkeypatch):
        # with ell0 = 1 the gate is 7: 7-cycles pass it
        monkeypatch.setattr(cli, "sparsify_intersecting", refuse_to_sample)
        host = write_host(tmp_path, complete_hypergraph(3, 14))
        with pytest.raises(Sampled):
            main(["decompose", host, "--set", "ell0=1", "--targets", "7,7;14"])

    @pytest.mark.parametrize("n", [12, 15])
    def test_cover_length_below_2k_is_refused_before_sampling(
        self, n, tmp_path, monkeypatch, capsys
    ):
        # a kept 5-path has overlapping end edges for k = 3; without the check
        # every layer attempt fails, at group on K_12^(3) and at connect on
        # K_15^(3).  cover keeps its [k+1, n] rule.
        monkeypatch.setattr(cli, "sparsify_intersecting", refuse_to_sample)
        monkeypatch.setattr(cli, "fractional_cycle_decomposition", refuse_to_sample)
        host = write_host(tmp_path, complete_hypergraph(3, n))
        code = main(["decompose", host, "--set", "L=5", "--targets", f"{n};{n}"])
        assert code == EXIT_PARAMS
        assert "cover cycle length L = 5 < 2k = 6" in capsys.readouterr().err
        with pytest.raises(Sampled):
            main(["cover", host, "--set", "L=5"])

    @pytest.mark.parametrize("L", [3, 13])
    def test_cover_length_outside_k_plus_1_to_n_is_refused(
        self, L, tmp_path, monkeypatch, capsys
    ):
        # L = k and L = n + 1 on K_12^(3); cover refuses before its family
        monkeypatch.setattr(cli, "sparsify_intersecting", refuse_to_sample)
        monkeypatch.setattr(cli, "fractional_cycle_decomposition", refuse_to_sample)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        for argv in (["decompose", host, "--targets", "12;12"], ["cover", host]):
            assert main([*argv, "--set", f"L={L}"]) == EXIT_PARAMS
            assert f"L = {L} outside [k+1, n] = [4, 12]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "r,why",
        [("-1", "r must be nonnegative"),
         ("19", "r=19 exceeds the matching bound min degree / k = 18.333")],
    )
    def test_cover_collections_outside_0_to_min_degree_over_k_are_refused(
        self, r, why, tmp_path, monkeypatch, capsys
    ):
        # K_12^(3) has min degree 55, so at most 55 / 3 = 18.33 collections;
        # cover refuses before its family
        monkeypatch.setattr(cli, "fractional_cycle_decomposition", refuse_to_sample)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        assert main(["cover", host, "--collections", r]) == EXIT_PARAMS
        assert f"cover: {why}" in capsys.readouterr().err
        for fits in ("0", "18"):
            with pytest.raises(Sampled):
                main(["cover", host, "--collections", fits])

    @pytest.mark.parametrize("flag", ["--pipeline-retries", "--parallel-seeds"])
    def test_fewer_than_one_attempt_or_seed_is_refused(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "sparsify_intersecting", refuse_to_sample)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        assert main(["decompose", host, "--targets", "12;12", flag, "0"]) == EXIT_PARAMS
        assert f"{flag} 0 is below 1" in capsys.readouterr().err

    def test_profile_L_is_the_cover_length_of_decompose_and_cover(
        self, tmp_path, monkeypatch
    ):
        seen = []

        def recorded(H, L, **kwargs):
            seen.append((L, kwargs["per_edge"]))
            raise Sampled

        monkeypatch.setattr(cli, "fractional_cycle_decomposition", recorded)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        for argv in (["decompose", host, "--targets", "12;12"], ["cover", host]):
            with pytest.raises(Sampled):
                main([*argv, "--set", "L=7"])
        assert seen == [(7, cli.PIPELINE_PER_EDGE)] * 2

    def test_edgeless_host_fails_fast_naming_the_weighting(self, tmp_path, capsys):
        host = tmp_path / "empty.txt"
        host.write_text("3 12 0\n")
        assert main(["decompose", str(host), "--targets", "12;12"]) == EXIT_STAGE
        assert "at least one edge" in capsys.readouterr().err

    def test_unparsable_input_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        assert main(["decompose", str(bad), "--targets", "12"]) == EXIT_PARSE


class TestVerify:
    def test_accepts_decompose_manifest_and_factors_file(
        self, decompose_artifacts, capsys
    ):
        host, manifest, factors = decompose_artifacts
        assert main(["verify", host, manifest]) == EXIT_OK
        assert "valid: True" in capsys.readouterr().out
        assert main(["verify", host, factors, "-q"]) == EXIT_OK

    def test_duplicated_factor_fails_naming_the_edge(
        self, decompose_artifacts, tmp_path, capsys
    ):
        host, _, factors = decompose_artifacts
        doc = json.loads(open(factors).read())
        doc["factors"][1] = doc["factors"][0]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert main(["verify", host, str(tampered)]) == EXIT_STAGE
        assert "used by factors 0 and 1" in capsys.readouterr().out

    def test_tampered_vertex_fails_as_a_stage_error(
        self, decompose_artifacts, tmp_path
    ):
        host, _, factors = decompose_artifacts
        doc = json.loads(open(factors).read())
        doc["factors"][0]["cycles"][0][0] = 99
        tampered = tmp_path / "badvertex.json"
        tampered.write_text(json.dumps(doc))
        assert main(["verify", host, str(tampered), "-q"]) == EXIT_STAGE

    def test_empty_factors_pass_vacuously_with_a_warning(self, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"factors": []}))
        artifact = tmp_path / "report.json"
        assert main(["verify", host, str(empty), "--output", str(artifact)]) == EXIT_OK
        assert "vacuously" in capsys.readouterr().out
        assert json.loads(artifact.read_text())["warning"] == "empty factors list"

    def test_malformed_json_is_a_parse_error(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["verify", host, str(broken)]) == EXIT_PARSE

    def test_document_without_factors_is_a_parse_error(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"cycles": [[0, 1, 2]]}))
        assert main(["verify", host, str(odd)]) == EXIT_PARSE
