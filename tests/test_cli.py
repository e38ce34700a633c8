import itertools
import json
import random

import numpy as np
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
from cyclefactors.walks import WalkError, sample_walks


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

    @pytest.mark.parametrize(
        "setting", ["L=6.5", "ell0=1.5", "ell1=6.0", "layer_retries=2.5"]
    )
    def test_integer_keys_refuse_other_numbers(self, setting, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        code = main(["decompose", host, "--targets", "12;12", "--set", setting])
        assert code == EXIT_PARAMS
        key, _, value = setting.partition("=")
        assert f"{key} = {value} is not an integer" in capsys.readouterr().err

    def test_float_keys_take_integers(self):
        prof = load_profile(None, ["eps=1", "mu=0"])
        assert (prof.eps, prof.mu) == (1, 0)


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

    @pytest.mark.parametrize("text", ["3 5 0\n", "3 3 1\n0 1 2\n"])
    def test_eta_star_is_undefined_without_a_disjoint_pair(self, tmp_path, capsys, text):
        # an edgeless host, and one with n < 2(k-1)
        host = tmp_path / "host.txt"
        host.write_text(text)
        assert main(["analyze", str(host)]) == EXIT_OK
        assert "eta_star = undefined" in capsys.readouterr().out
        artifact = tmp_path / "analyze.json"
        assert main(["analyze", str(host), "-q", "--output", str(artifact)]) == EXIT_OK
        assert json.loads(artifact.read_text())["report"]["eta_star"] is None
        assert capsys.readouterr().out == ""

    def test_a_host_with_no_vertices_is_refused(self, tmp_path, capsys):
        # it parses, but a host on no vertices has no regularity report
        host = tmp_path / "empty.txt"
        host.write_text("3 0 0\n")
        assert main(["analyze", str(host)]) == EXIT_PARAMS
        assert "analyze: the host has no vertices" in capsys.readouterr().err

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

    def test_an_unwritable_output_is_named(self, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 8))
        out = tmp_path / "missing" / "a.json"
        assert main(["analyze", host, "-q", "--output", str(out)]) == EXIT_PARAMS
        assert f"error: cannot write {out}: " in capsys.readouterr().err


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

    def test_samples_are_drawn_in_blocks_of_walk_vertices(self, tmp_path, monkeypatch):
        sizes = []

        def recorded(H, w, L, t_star, count, rng):
            sizes.append((t_star, count))
            return sample_walks(H, w, L, t_star, count, rng)

        monkeypatch.setattr(cli, "WALK_SAMPLE_BLOCK", 40)
        monkeypatch.setattr(cli, "sample_walks", recorded)
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        artifact = tmp_path / "walks.json"
        code = main(["walk", host, "--steps", "4", "--samples", "101", "-q",
                     "--output", str(artifact)])
        assert code == EXIT_OK
        assert sizes == [(4, 10)] * 10 + [(4, 1)]
        assert sum(json.loads(artifact.read_text())["sampled"]["final_counts"].values()) == 101

    def test_zero_steps_is_a_parameter_error(self, tmp_path):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        assert main(["walk", host, "--steps", "0", "-q"]) == EXIT_PARAMS

    @pytest.mark.parametrize(
        "flag,value,why",
        [("--walk-length", "0", "walk length must be at least 1"),
         ("--samples", "-3", "samples must be nonnegative")],
    )
    def test_zero_length_or_negative_samples_is_refused_before_any_work(
        self, flag, value, why, tmp_path, monkeypatch, capsys
    ):
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        monkeypatch.setattr(cli, "load_hypergraph", refuse_to_sample)
        assert main(["walk", host, flag, value, "-q"]) == EXIT_PARAMS
        assert f"walk: {why}" in capsys.readouterr().err
        with pytest.raises(Sampled):
            main(["walk", host, flag, "1", "-q"])

    def test_other_walk_errors_are_parameter_errors(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise WalkError("weighting belongs to a different host")

        monkeypatch.setattr(cli, "walk_distribution", fail)
        host = write_host(tmp_path, complete_hypergraph(3, 5))
        assert main(["walk", host, "-q"]) == EXIT_PARAMS
        assert "different host" in capsys.readouterr().err


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

    def test_negative_cap_is_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 7))
        monkeypatch.setattr(cli, "load_hypergraph", refuse_to_sample)
        assert main(["absorbers", host, "--cap", "-1", "-q"]) == EXIT_PARAMS
        assert "absorbers: cap must be nonnegative" in capsys.readouterr().err
        with pytest.raises(Sampled):
            main(["absorbers", host, "--cap", "0", "-q"])


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

    def test_k12_cover_solves_no_lp(self, tmp_path, monkeypatch):
        # the cycle weights come from scale_to_ones, not from an LP solver
        def refuse(*args, **kwargs):
            raise AssertionError("the cover solved an LP")

        for module in (cover, fractional):
            monkeypatch.setattr(module, "linprog", refuse)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        artifact = tmp_path / "cover.json"
        code = main(["cover", host, "--collections", "2", "-q", "--output", str(artifact)])
        assert code == EXIT_OK
        assert json.loads(artifact.read_text())["ok"] is True


class TestParserReuse:
    """``main`` parses every call with the one parser of the process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_value_leaks_into_the_next_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_host(tmp_path, complete_hypergraph(3, 12))

        def decompose(name, *extra):
            code = main(["decompose", "host.txt", "--targets", "12;12", "--seed", "0",
                         "--normalize-timings", "-q", "--output", name, *extra])
            assert code == EXIT_OK
            return (tmp_path / name).read_bytes()

        cli.build_parser.cache_clear()
        first = decompose("first.json")
        wide = decompose("wide.json", "--set", "delta=0.7")
        assert json.loads(wide)["config"]["profile"]["delta"] == 0.7
        assert decompose("after-set.json") == first
        # usage errors, one of them after --set was already appended
        for argv in (["decompose", "host.txt", "--bogus"],
                     ["decompose", "host.txt", "--set", "delta=0.7", "--targets"]):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        assert decompose("after-errors.json") == first


class TestEmit:
    """``emit``'s encoder writes ``json.dumps(doc, indent=2, sort_keys=True)``
    byte for byte (the golden documents are compared in test_golden.py)."""

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [[], {}], "d": [{"e": [()]}]},
            [[[[1]]], {"x": {"y": {"z": None}}}],
            {"zeta": 1, "alpha": 2, "Beta": 3, "_": 4, "10": 5, "9": 6, "": 7},
            "plain",
            "quote \" backslash \\ slash / tab \t newline \n cr \r",
            "controls \x00\x01\x1f\x7f",
            "non-ASCII: é ß 日本 \u2028 \ud7ff 😀",
            {"é": "key", "\n": "escaped key"},
            [True, False, None, 0, -1, 2**70, -(2**70)],
            [0.0, -0.0, 1e-07, 1e16, 1e22, 0.1, 1 / 3, -2.5, 5e-324, 1.7976931348623157e308],
            [float("inf"), float("-inf"), float("nan")],
            (1, (2, [3, (4,)])),
            np.float64(0.1),
            [np.float64(-0.0), np.float64("inf")],
        ],
    )
    def test_same_bytes_as_json(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value", [{1: "int key"}, {None: 0}, {1, 2}, np.int64(3), b"bytes", object()]
    )
    def test_anything_else_raises_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json(value)
        with pytest.raises(TypeError):
            cli._json({"nested": [value]})

    def test_emit_writes_the_encoding_and_a_newline(self, tmp_path, capsys):
        doc = {"b": [1, 2.5, None], "a": {"c": "d"}}
        cli.emit(doc, str(tmp_path / "out.json"))
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert (tmp_path / "out.json").read_text() == text + "\n"
        cli.emit(doc, None)
        assert capsys.readouterr().out == text + "\n"


# subcommand -> (its arguments after the input, the keys of config.options)
OWN_OPTIONS = {
    "analyze": ([], set()),
    "regsub": (["--cap", "40"], {"cap"}),
    "pfm": ([], {"mode"}),
    "walk": ([], {"mode", "samples", "steps", "walk_length"}),
    "absorbers": (["--x", "0"], {"cap", "x"}),
    "cover": (["--collections", "2"], {"collections"}),
    "decompose": (["--targets", "12;12", "--factors-out"],
                  {"targets", "pipeline_retries", "parallel_seeds"}),
    "verify": ([], {"factors"}),
}


@pytest.mark.parametrize("command", list(OWN_OPTIONS))
def test_every_artifact_records_its_command_input_and_own_options(
    command, decompose_artifacts, tmp_path
):
    extra, keys = OWN_OPTIONS[command]
    if command == "verify":
        host, _, factors = decompose_artifacts
        extra = [factors]
    elif command == "regsub":
        host = write_host(tmp_path, complete_hypergraph(3, 7))
    elif command in ("cover", "decompose"):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
    else:
        host = write_host(tmp_path, seeded_random_host(9, 0.7))
    if command == "decompose":
        extra = [*extra, str(tmp_path / "factors.json")]
    out = tmp_path / "out.json"
    assert main([command, host, *extra, "-q", "--output", str(out)]) == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert (config["command"], config["input"]) == (command, host)
    assert set(config["options"]) == keys
    assert config["options"].get("factors") == (extra[0] if command == "verify" else None)


@pytest.mark.parametrize(
    "command,flag",
    [("decompose", "--cover-length"), ("decompose", "--per-edge"),
     ("cover", "--cycle-length"), ("cover", "--per-edge")],
)
def test_the_cover_length_and_sample_size_have_no_flags(command, flag, capsys):
    # Profile.L and cover.PER_EDGE set them for both commands
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

    def test_input_is_weighted_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        real = cli.pipeline_weighting

        def counted(H):
            calls.append(H.m)
            return real(H)

        monkeypatch.setattr(cli, "pipeline_weighting", counted)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        # seed 57: the first pipeline attempt finds no weighting and retries
        code = main(
            ["decompose", host, "--targets", "12;12", "--seed", "57", "-q",
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
        real = cover.scale_to_ones

        def counted(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cover, "scale_to_ones", counted)
        return solves

    def test_missed_gates_are_redrawn_from_the_same_solution(self, tmp_path, monkeypatch):
        # seed 2: ten draws miss the gates on the first pipeline attempt
        seen = self._record_extractions(monkeypatch)
        solves = self._count_cover_solves(monkeypatch)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "12;12", "--seed", "2", "-q",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["pipeline"]["attempts"] == 1
        assert len(solves) == 1
        [(retries, got, ten)] = seen
        assert retries == cli.PIPELINE_EXTRACTION_DRAWS == 40
        assert ten.attempts == 10 and all(d["failures"] for d in ten.diagnostics)
        assert got.ok and 10 < got.attempts <= retries
        # the ten-draw extraction repairs its best draw; the draws are the same
        draws = [{key: d[key] for key in ("attempt", "coverages", "failures")}
                 for d in ten.diagnostics]
        assert got.diagnostics[:10] == draws

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

    def test_parallel_seeds_start_at_most_one_worker_per_cpu(self, tmp_path, monkeypatch):
        # a stand-in pool runs every seed in this process and records how
        # many workers it was asked for, so no process starts
        import concurrent.futures

        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        docs = []
        for cpus in (2, None, 8):
            monkeypatch.setattr(cli.os, "cpu_count", lambda cpus=cpus: cpus)
            code = main(
                ["decompose", host, "--targets", "12;12", "--seed", "0",
                 "--parallel-seeds", "3", "--normalize-timings", "-q", "--output", str(out)]
            )
            assert code == EXIT_OK
            docs.append(json.loads(out.read_text()))
        assert asked == [2, 1, 3]
        assert [s["seed"] for s in docs[0]["pipeline"]["seeds"]] == [0, 1, 2]
        assert docs[0] == docs[1] == docs[2]

    def test_parallel_seeds_share_one_weighting_and_match_a_single_seed_run(
        self, tmp_path, monkeypatch
    ):
        # the workers get the parsed host and its weighting as objects
        calls = []
        real = cli.pipeline_weighting

        def counted(H):
            calls.append(H.m)
            return real(H)

        monkeypatch.setattr(cli, "pipeline_weighting", counted)
        H = seeded_random_host(12, 0.6)
        host = write_host(tmp_path, H)

        def run(*extra):
            out = tmp_path / "run.json"
            code = main(
                ["decompose", host, "--targets", "12;12", "--seed", "3",
                 "--normalize-timings", "-q", "--output", str(out), *extra]
            )
            assert code == EXIT_OK
            return json.loads(out.read_text())

        par = run("--parallel-seeds", "2")
        assert calls == [H.m]
        one = run()
        assert par["pipeline"]["winning_seed"] == 3
        assert [s["seed"] for s in par["pipeline"]["seeds"]] == [3, 4]
        assert par["manifest"] == one["manifest"]

    def test_partial_packing_exits_10_with_its_verified_factor(self, tmp_path, capsys):
        # with one pipeline attempt, seed 7 on the non-regular G(12, 0.6)
        # packs its first layer and then exhausts every attempt of the second
        host = write_host(tmp_path, seeded_random_host(12, 0.6))
        out, factors, check = (tmp_path / name for name in ("run.json", "f.json", "v.json"))
        code = main(
            ["decompose", host, "--targets", "12;12", "--seed", "7",
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
        assert capsys.readouterr().err.startswith(
            "decompose: 1 pipeline attempt(s); last failed at pack: partial 1 of 2; "
        )
        assert main(["verify", host, str(factors), "-q", "--output", str(check)]) == EXIT_OK
        assert json.loads(check.read_text())["factors"] == 1

    def test_a_failed_run_names_its_last_failure_on_stderr_even_when_quiet(
        self, tmp_path, capsys
    ):
        # K_12 holds no nine edge-disjoint near-spanning collections of
        # 6-cycles, so the one attempt fails at extraction
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", ";".join(["12"] * 9), "--seed", "0",
             "--pipeline-retries", "1", "-q", "--output", str(out)]
        )
        assert code == EXIT_STAGE
        last = json.loads(out.read_text())["pipeline"]["log"][-1]
        assert last["stage"] == "CoverError"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"decompose: 1 pipeline attempt(s); last failed at "
            f"{last['stage']}: {last['detail']}\n"
        )

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

    @pytest.mark.parametrize("seed", range(3))
    def test_k12_reads_every_extension_off_extension_rows(self, tmp_path, monkeypatch, seed):
        # the cycle family and the connectors grow their paths over the rows
        # of their host's edge table, and no stage probes N(x) vertex by
        # vertex; every row read matches has_edge probes
        seen = []
        extension_rows = Hypergraph.extension_rows

        def rows(self, tails):
            got = extension_rows(self, tails)
            seen.append((self, np.array(tails), got.copy()))  # callers AND into got
            return got

        monkeypatch.setattr(Hypergraph, "extension_rows", rows)
        monkeypatch.setattr(Hypergraph, "extensions", refuse_to_sample)
        code = main(
            ["decompose", write_host(tmp_path, complete_hypergraph(3, 12)),
             "--targets", "12;12", "--seed", str(seed), "-q"]
        )
        assert code == EXIT_OK
        assert len({id(H) for H, _, _ in seen}) >= 2  # the residual and F
        probed = {}
        for H, tails, got in seen:
            tails, got = tails.reshape(-1, H.k - 1), got.reshape(-1, H.n)
            for tail, row in zip(map(tuple, tails.tolist()), got.tolist()):
                if (id(H), tail) not in probed:
                    probed[id(H), tail] = [H.has_edge(tail + (v,)) for v in range(H.n)]
                assert row == probed[id(H), tail]

    def test_one_edge_table_per_host_per_pipeline_pass(self, tmp_path, monkeypatch):
        # the residual's enumeration and its id lookup share one table, and
        # every attempt of a layer reads the table of that layer's F
        builds, reads, hosts = [], [], []
        edge_table = Hypergraph.edge_table

        def counted(self):
            if self._edge_table is None:
                builds.append(self)
            reads.append(self)
            return edge_table(self)

        real_cover, real_layer = cli._cover_stage, assemble.layer_transform

        def cover_stage(H, *args):
            hosts.append(H)
            return real_cover(H, *args)

        def layer(H, F, *args, **kwargs):
            hosts.append(F)
            return real_layer(H, F, *args, **kwargs)

        monkeypatch.setattr(Hypergraph, "edge_table", counted)
        monkeypatch.setattr(cli, "_cover_stage", cover_stage)
        monkeypatch.setattr(assemble, "layer_transform", layer)
        out = tmp_path / "run.json"
        code = main(
            ["decompose", write_host(tmp_path, complete_hypergraph(3, 12)),
             "--targets", "12;12", "--seed", "0", "-q", "--output", str(out)]
        )
        assert code == EXIT_OK
        attempts = json.loads(out.read_text())["pipeline"]["attempts"]
        assert len(hosts) == 3 * attempts
        assert [id(H) for H in builds] == [id(H) for H in hosts]
        residuals = hosts[::3]
        assert all(sum(R is H for R in reads) >= 2 for H in residuals)

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
            ["decompose", host, "--targets", "12;12;12", "--seed", "6", "-q",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["achieved"] == 3
        assert doc["pipeline"]["attempts"] == 1

    def test_failed_extraction_names_its_best_draw(self, tmp_path, monkeypatch):
        # four Hamilton targets on K_12^(3), seed 2: no draw reaches the
        # coverage gate, and no one-for-two swap completes the best one
        seen = self._record_extractions(monkeypatch)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        out = tmp_path / "run.json"
        code = main(
            ["decompose", host, "--targets", "12;12;12;12", "--seed", "2",
             "--pipeline-retries", "1", "-q", "--output", str(out)]
        )
        assert code == EXIT_STAGE
        [(draws, got, _)] = seen
        assert not got.ok and len(got.diagnostics) == draws == 40
        best = got.diagnostics[got.returned]
        assert got.coverages() == best["coverages"]
        assert all(len(d["failures"]) >= len(best["failures"]) for d in got.diagnostics)
        repair = best["repair"]
        assert repair["failures"]
        assert [d for d in got.diagnostics if "repair" in d] == [best]
        [entry] = json.loads(out.read_text())["pipeline"]["log"]
        assert entry["stage"] == "CoverError"
        assert entry["detail"] == (
            f"collection extraction gates failed in 40 draws and a one-for-two "
            f"repair; best draw {best['attempt']}: coverages {best['coverages']}, "
            f"failures {best['failures']}; repair stopped after {repair['swaps']} "
            f"swaps at coverages {repair['coverages']}"
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

    def test_more_targets_than_min_degree_over_k_are_refused(
        self, tmp_path, monkeypatch, capsys
    ):
        # K_12^(3) has min degree 55, so at most 55 / 3 = 18.33 factors;
        # decompose refuses before its reserve, as cover does
        monkeypatch.setattr(cli, "sparsify_intersecting", refuse_to_sample)
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        assert main(["decompose", host, "--targets", ";".join(["12"] * 19)]) == EXIT_PARAMS
        why = "decompose: r=19 exceeds the matching bound min degree / k = 18.333"
        assert why in capsys.readouterr().err
        with pytest.raises(Sampled):
            main(["decompose", host, "--targets", ";".join(["12"] * 18)])

    @pytest.mark.parametrize("flag", ["--output", "--factors-out"])
    def test_an_unwritable_output_is_named(self, flag, tmp_path, capsys):
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        files = {"--output": tmp_path / "run.json", "--factors-out": tmp_path / "factors.json"}
        files[flag] = tmp_path / "missing" / "out.json"
        argv = ["decompose", host, "--targets", "12;12", "--seed", "0", "-q"]
        for name, path in files.items():
            argv += [name, str(path)]
        assert main(argv) == EXIT_PARAMS
        assert f"error: cannot write {files[flag]}: " in capsys.readouterr().err

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
            seen.append((L, sorted(kwargs)))
            raise Sampled

        monkeypatch.setattr(cli, "fractional_cycle_decomposition", recorded)
        # 14 is a multiple of 7 in the coverage window [12, 14]; a 14-cycle
        # holds one kept 7-path and a connector of 7 inner vertices
        host = write_host(tmp_path, complete_hypergraph(3, 14))
        for argv in (["decompose", host, "--targets", "14;14"], ["cover", host]):
            with pytest.raises(Sampled):
                main([*argv, "--set", "L=7", "--set", "ell1=7"])
        # the sample size is cover.PER_EDGE's: no command passes one
        assert seen == [(7, ["seed"])] * 2

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

    @pytest.mark.parametrize("which", ["host", "profile", "factors"])
    def test_an_undecodable_input_is_a_parse_error(self, which, tmp_path, capsys):
        # a byte that is no UTF-8 in the host, the profile or the factors file
        files = {
            "host": write_host(tmp_path, complete_hypergraph(3, 6)),
            "profile": str(tmp_path / "profile.txt"),
            "factors": str(tmp_path / "factors.json"),
        }
        (tmp_path / "profile.txt").write_text("L = 6\n")
        (tmp_path / "factors.json").write_text(json.dumps({"factors": []}))
        bad = tmp_path / "bad"
        bad.write_bytes(b"3 6 1\n0 1 \xff\n")
        files[which] = str(bad)
        argv = ["verify", files["host"], files["factors"], "--profile", files["profile"]]
        assert main(argv) == EXIT_PARSE
        name = f"profile {bad}" if which == "profile" else str(bad)
        assert f"error: cannot read {name}: " in capsys.readouterr().err

    @pytest.mark.parametrize("cycle", [
        [0.0, 4.0, 8.0, 1.0, 5.0, 9.0, 2.0, 6.0, 10.0, 3.0, 7.0, 11.0],
        [False, True, 9, 2, 3, 4, 5, 6, 7, 8, 10, 11],
    ], ids=["float", "bool"])
    def test_vertex_ids_that_are_not_ints_are_refused(self, cycle, tmp_path):
        # 0.0 == 0 and True == 1 hash like the host's int ids; the document
        # is refused before any of its cycles is checked
        host = write_host(tmp_path, complete_hypergraph(3, 12))
        doc = tmp_path / "factors.json"
        doc.write_text(json.dumps({"factors": [{"cycles": [cycle]}]}))
        out = tmp_path / "report.json"
        assert main(["verify", host, str(doc), "-q", "--output", str(out)]) == EXIT_STAGE
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert report["error"] == "vertex ids must be integers"
