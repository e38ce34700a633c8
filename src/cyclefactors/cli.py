"""Batch command-line front end for the cycle-factor toolkit.

Subcommands
-----------
analyze     regularity summary of a hypergraph file
regsub      exact-regular spanning subgraph search
pfm         perfect fractional matchings (exact walk-shift, LP, or uniform)
walk        weighted tight-walk marginals, exact or sampled
absorbers   absorber enumeration with insertion checks
cover       fractional cycle decomposition extracted into cycle collections
decompose   the full reserve/cover/pack pipeline emitting a manifest
verify      validate a factors artifact against its host

Every artifact embeds the fully resolved run configuration; identical
configuration and seed produce byte-identical artifacts (pass
``--normalize-timings`` to zero the only nondeterministic fields).

Exit codes: 0 success, 10 partial packing, 20 parse error, 21 parameter or
target error, 30 stage or verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .absorbing import are_absorbers_for, enumerate_absorbers
from .assemble import (
    AssembleError,
    AssembleParamError,
    Profile,
    check_cover_length,
    check_target,
    pack_factors,
)
from .bruteforce import OracleError, reg_k, validate_packing, walk_distribution
from .cover import (
    CoverError,
    check_collections,
    check_granularity,
    extract_cycle_collections,
    fractional_cycle_decomposition,
)
from .fractional import (
    FractionalError,
    balancedness,
    build_walk_registry,
    pfm_lp,
    pipeline_weighting,
    redistribute_pfm,
    sparsify_intersecting,
    uniform_weighting,
)
from .hypergraph import Hypergraph, HypergraphError, parse_hypergraph
from .tightpaths import TightnessError, factors_from_document
from .walks import OracleCapError, StuckWalkError, WalkError, sample_walks

EXIT_OK = 0
EXIT_PARTIAL = 10
EXIT_PARSE = 20
EXIT_PARAMS = 21
EXIT_STAGE = 30

# Extraction draws per fractional solution in one pipeline attempt.  On
# K_12^(3) `12;12`, seeds 0-29 (2-vCPU VM), a draw costs about 0.15 ms
# against about 7 ms (6-9 ms over runs) for the cycle family and weighting
# it reuses, so missed gates are redrawn from the same solution before the
# pipeline sparsifies and solves again.
PIPELINE_EXTRACTION_DRAWS = 40

# Walk vertices (walks x steps) drawn per ``sample_walks`` call by ``walk
# --samples``, so that its memory grows with the block, not with the sample.
WALK_SAMPLE_BLOCK = 10**6


class CLIError(Exception):
    """Abort with a message and a specific exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """The fully resolved configuration embedded in every artifact."""

    command: str
    input: Optional[str]
    seed: int
    profile: Profile
    options: dict
    normalize_timings: bool
    verbosity: int

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "input": self.input,
            "seed": self.seed,
            "profile": self.profile.as_dict(),
            "options": dict(sorted(self.options.items())),
            "normalize_timings": self.normalize_timings,
        }


def _parse_scalar(text: str, where: str):
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    raise CLIError(EXIT_PARSE, f"{where}: cannot parse value {text!r}")


def read_input(path: str, name: str) -> str:
    """The text of an input file; one that cannot be opened or decoded is a
    parse error, reported as "cannot read <name>"."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIError(EXIT_PARSE, f"cannot read {name}: {exc}")


def load_profile(path: Optional[str], overrides: Sequence[str]) -> Profile:
    """Line-oriented key=value files with # comments, then flag overrides."""
    data: dict = {}
    if path:
        text = read_input(path, f"profile {path}")
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CLIError(
                    EXIT_PARSE,
                    f"{path} line {lineno}: expected key=value, got {raw.strip()!r}",
                )
            key, _, value = line.partition("=")
            data[key.strip()] = _parse_scalar(
                value.strip(), f"{path} line {lineno}"
            )
    for item in overrides:
        if "=" not in item:
            raise CLIError(EXIT_PARSE, f"--set {item!r}: expected key=value")
        key, _, value = item.partition("=")
        data[key.strip()] = _parse_scalar(value.strip(), f"--set {item!r}")
    try:
        return Profile.from_mapping(data)
    except AssembleParamError as exc:
        raise CLIError(EXIT_PARAMS, f"profile: {exc}")


def load_hypergraph(path: str) -> Hypergraph:
    text = read_input(path, path)
    try:
        return parse_hypergraph(text)
    except HypergraphError as exc:
        raise CLIError(EXIT_PARSE, f"{path}: {exc}")


def parse_targets(text: str) -> list:
    """Factor shapes: cycle lengths joined by ',', factors joined by ';'."""
    factors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        lengths = []
        for token in chunk.replace(",", " ").split():
            try:
                lengths.append(int(token))
            except ValueError:
                raise CLIError(
                    EXIT_PARAMS, f"targets: {token!r} is not a cycle length"
                )
        if lengths:
            factors.append(lengths)
    if not factors:
        raise CLIError(EXIT_PARAMS, f"targets: no factor shapes in {text!r}")
    return factors


def _rational(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def _json(o, indent="\n") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)``, byte for byte, for dicts
    with str keys, lists, tuples, str, int, float, bool and None (TypeError
    on anything else): json itself indents only in pure Python."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):  # inf and nan as json writes them
        return float.__repr__(o) if math.isfinite(o) else json.dumps(o)
    inner = indent + "  "
    if isinstance(o, dict):  # a key that is no str fails to encode
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(o.items())]
        ends = "{}"
    elif isinstance(o, (list, tuple)):
        items, ends = [_json(v, inner) for v in o], "[]"
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def emit(doc: dict, output: Optional[str]) -> None:
    text = _json(doc)
    if output:
        try:
            Path(output).write_text(text + "\n")
        except OSError as exc:
            raise CLIError(EXIT_PARAMS, f"cannot write {output}: {exc}")
    else:
        print(text)


def _say(config: RunConfig, message: str) -> None:
    if config.verbosity > 0:
        print(message)


def _make_config(args, command: str, **options) -> RunConfig:
    profile = load_profile(args.profile, args.set or [])
    return RunConfig(
        command=command,
        input=getattr(args, "input", None),
        seed=args.seed,
        profile=profile,
        options=options,
        normalize_timings=args.normalize_timings,
        verbosity=0 if args.quiet else 1,
    )


def _weighting_for(H: Hypergraph, mode: str, seed: int):
    if mode == "uniform":
        return uniform_weighting(H)
    if mode == "lp":
        return pfm_lp(H)
    if mode == "exact":
        return redistribute_pfm(H, build_walk_registry(H, seed=seed))
    raise CLIError(EXIT_PARAMS, f"unknown weighting mode {mode!r}")


# ---------------------------------------------------------------- analyze

def cmd_analyze(args) -> int:
    config = _make_config(args, "analyze")
    H = load_hypergraph(args.input)
    if H.n == 0:
        raise CLIError(EXIT_PARAMS, "analyze: the host has no vertices, so no regularity report")
    report = H.regularity_report()
    histogram = Counter(H.degree(v) for v in range(H.n))
    _say(config, f"k = {H.k}")
    _say(config, f"n = {H.n}")
    _say(config, f"m = {H.m}")
    _say(config, f"delta_{H.k - 1} = {report.delta_codegree}")
    eta = report.eta_star
    _say(config, f"eta_star = {'undefined' if eta is None else _rational(eta)}")
    _say(config, f"rho_star = {_rational(report.rho_star)}")
    _say(config, "degree histogram:")
    for degree in sorted(histogram):
        _say(config, f"  {degree}: {histogram[degree]}")
    if args.output:
        emit(
            {
                "config": config.as_dict(),
                "report": report.as_dict(),
                "degree_histogram": {str(d): histogram[d] for d in sorted(histogram)},
            },
            args.output,
        )
    return EXIT_OK


# ---------------------------------------------------------------- regsub

def cmd_regsub(args) -> int:
    config = _make_config(args, "regsub", cap=args.cap)
    H = load_hypergraph(args.input)
    try:
        result = reg_k(H, cap=args.cap)
    except OracleError as exc:
        raise CLIError(EXIT_PARAMS, f"regsub: {exc}")
    _say(config, f"reg_{H.k} = {result.r}")
    _say(config, f"witness edges: {result.witness.m}")
    if args.output:
        emit({"config": config.as_dict(), "result": result.as_dict()}, args.output)
    return EXIT_OK


# ---------------------------------------------------------------- pfm

def cmd_pfm(args) -> int:
    config = _make_config(args, "pfm", mode=args.mode)
    H = load_hypergraph(args.input)
    w = _weighting_for(H, args.mode, args.seed)
    is_pfm = bool(w.is_pfm())
    ratio = balancedness(w)
    _say(config, f"mode = {args.mode}")
    _say(config, f"is_pfm = {is_pfm}")
    _say(config, f"balancedness = {_rational(ratio)}")
    doc = {
        "config": config.as_dict(),
        "mode": args.mode,
        "is_pfm": is_pfm,
        "balancedness": _rational(ratio),
        "max_weight": _rational(w.max_weight()),
        "min_weight": _rational(w.min_weight()),
        "weights": [
            [list(e), _rational(w.weight_of(e))] for e in H.edges
        ],
    }
    if args.output:
        emit(doc, args.output)
    return EXIT_OK if is_pfm else EXIT_STAGE


# ---------------------------------------------------------------- walk

def cmd_walk(args) -> int:
    config = _make_config(
        args,
        "walk",
        mode=args.mode,
        walk_length=args.walk_length,
        steps=args.steps,
        samples=args.samples,
    )
    if args.steps < 1:
        raise CLIError(EXIT_PARAMS, "walk: steps must be at least 1")
    if args.walk_length < 1:
        raise CLIError(EXIT_PARAMS, "walk: walk length must be at least 1")
    if args.samples < 0:
        raise CLIError(EXIT_PARAMS, "walk: samples must be nonnegative")
    H = load_hypergraph(args.input)
    w = _weighting_for(H, args.mode, args.seed)
    doc = {"config": config.as_dict()}
    if args.samples == 0:
        try:
            dist = walk_distribution(H, w, args.walk_length, args.steps)
        except OracleCapError as exc:
            raise CLIError(EXIT_PARAMS, f"walk: {exc}")
        marginal: dict = {}
        mass = Fraction(0)
        for seq, p in dist.items():
            marginal[seq[-1]] = marginal.get(seq[-1], Fraction(0)) + p
            mass += p
        doc["exact"] = {
            "sequences": len(dist),
            "total_mass": _rational(mass),
            "final_marginal": {str(v): _rational(marginal[v]) for v in sorted(marginal)},
        }
        _say(config, f"exact distribution over {len(dist)} sequences, mass {mass}")
    else:
        rng = np.random.default_rng(args.seed)
        counts = np.zeros(H.n, dtype=np.int64)
        rows = max(1, WALK_SAMPLE_BLOCK // args.steps)
        for start in range(0, args.samples, rows):
            size = min(rows, args.samples - start)
            walks = sample_walks(H, w, args.walk_length, args.steps, size, rng)
            counts += np.bincount(walks[:, -1], minlength=H.n)
        counts = counts.tolist()
        deviation = max(abs(c / args.samples - 1.0 / H.n) for c in counts)
        doc["sampled"] = {
            "samples": args.samples,
            "final_counts": {str(v): c for v, c in enumerate(counts)},
            "max_deviation_from_uniform": deviation,
        }
        _say(
            config,
            f"{args.samples} samples, max final-vertex deviation from 1/n: "
            f"{deviation:.5f}",
        )
    if args.output:
        emit(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------- absorbers

def cmd_absorbers(args) -> int:
    config = _make_config(args, "absorbers", x=args.x, cap=args.cap)
    if args.cap is not None and args.cap < 0:
        raise CLIError(EXIT_PARAMS, "absorbers: cap must be nonnegative")
    H = load_hypergraph(args.input)
    found = {}
    for x in range(H.n) if args.x is None else [args.x]:
        try:
            found[x] = enumerate_absorbers(H, x, cap=args.cap)
        except HypergraphError as exc:
            raise CLIError(EXIT_PARAMS, f"absorbers: {exc}")
    pairs = [(x, seq) for x, seqs in found.items() for seq in seqs]
    checks = are_absorbers_for(H, [seq for _, seq in pairs], [x for x, _ in pairs])
    failed = {x for (x, _), ok in zip(pairs, checks.tolist()) if not ok}
    per_vertex = {}
    for x, seqs in found.items():
        per_vertex[str(x)] = {"count": len(seqs), "insertion_check": x not in failed}
        _say(
            config,
            f"x = {x}: {len(seqs)} absorbers, insertion check "
            f"{'FAILED' if x in failed else 'passed'}",
        )
    if args.output:
        emit(
            {
                "config": config.as_dict(),
                "per_vertex": per_vertex,
                "all_insertion_checks_pass": not failed,
            },
            args.output,
        )
    return EXIT_STAGE if failed else EXIT_OK


# ---------------------------------------------------------------- cover

def _cover_stage(H, prof, r, seed):
    """Weight H's L-cycle family (L = ``prof.L``) and extract r cycle
    collections from it, redrawing missed gates from the same weights and
    repairing the best draw when every one misses."""
    weights = fractional_cycle_decomposition(H, prof.L, seed=seed)
    return extract_cycle_collections(
        H, weights, r, seed=seed, mu=prof.mu, retries=PIPELINE_EXTRACTION_DRAWS
    )


def cmd_cover(args) -> int:
    config = _make_config(args, "cover", collections=args.collections)
    H = load_hypergraph(args.input)
    prof = config.profile
    check_cover_length(H, prof)
    try:
        check_collections(H, args.collections)
        check_granularity(H, prof.L, prof.mu, args.collections)
    except CoverError as exc:
        raise CLIError(EXIT_PARAMS, f"cover: {exc}")
    ext = _cover_stage(H, prof, args.collections, args.seed)
    doc = {
        "config": config.as_dict(),
        "ok": bool(ext.ok),
        "gamma": _rational(ext.gamma),
        "coverages": ext.coverages(),
        "attempts": ext.attempts,
        "diagnostics": list(ext.diagnostics),
    }
    if ext.ok:
        doc["collections"] = [
            [list(C.canonical()) for C in coll] for coll in ext.collections
        ]
        _say(config, f"{args.collections} collections extracted, coverages {ext.coverages()}")
    else:
        _say(config, "extraction gates failed; partial diagnostics written")
    if args.output:
        emit(doc, args.output)
    return EXIT_OK if ext.ok else EXIT_STAGE


# ---------------------------------------------------------------- decompose

def _pipeline_once(H, weighting, targets, prof, seed):
    """One sparsify -> cover -> pack pass; raises on any stage failure.
    ``weighting`` is fixed per run.

    The cycle family (L-cycles, L = ``prof.L``) and the extraction run on H
    minus the sparsified reserve.  The packer's graph F is H minus the edges
    of every extracted cycle: the reserve plus the idle edges, the ones no
    extracted cycle uses.  Returns the packing and the edge counts
    {"reserve", "idle"}.
    """
    reserve = sparsify_intersecting(H, prof.eps, weighting, seed)
    ext = _cover_stage(H.remove_edges(reserve.edges), prof, len(targets), seed)
    if not ext.ok:
        best = ext.diagnostics[ext.returned]
        repair = best["repair"]
        raise CoverError(
            f"collection extraction gates failed in {len(ext.diagnostics)} draws "
            f"and a one-for-two repair; best draw {best['attempt']}: coverages "
            f"{best['coverages']}, failures {best['failures']}; repair stopped after "
            f"{repair['swaps']} swaps at coverages {repair['coverages']}"
        )
    F = H.remove_edges(e for coll in ext.collections for C in coll for e in C.edges())
    result = pack_factors(H, F, ext.collections, targets, prof=prof, seed=seed)
    return result, {"reserve": reserve.m, "idle": F.m - reserve.m}


def _decompose_job(H, weighting, prof, targets, retries, normalize, seed) -> dict:
    """Retry the pipeline with sub-seeds of ``seed``; JSON-ready summary of
    the best run.  ``weighting`` is H's ``pipeline_weighting``."""
    master = random.Random(seed)
    log = []
    best = None
    for attempt in range(retries):
        sub = master.randrange(2**63)
        try:
            result, edges = _pipeline_once(H, weighting, targets, prof, sub)
        except AssembleParamError:
            raise
        except (CoverError, FractionalError, AssembleError) as exc:
            log.append(
                {"attempt": attempt, "stage": type(exc).__name__, "detail": str(exc)}
            )
            continue
        manifest = {**result.manifest(normalize), "edges": edges}
        if result.ok:
            return {
                "ok": True,
                "achieved": result.achieved,
                "requested": result.requested,
                "seed": seed,
                "attempts": attempt + 1,
                "log": log,
                "manifest": manifest,
            }
        detail = f"partial {result.achieved} of {result.requested}"
        if result.failed_log:
            _, stage, why = result.failed_log[-1]
            detail += f"; layer {result.achieved} last failed at {stage}: {why}"
        log.append({"attempt": attempt, "stage": "pack", "detail": detail})
        if best is None or result.achieved > best["achieved"]:
            best = manifest
    return {
        "ok": False,
        "achieved": best["achieved"] if best is not None else 0,
        "requested": len(targets),
        "seed": seed,
        "attempts": retries,
        "log": log,
        "manifest": best,
    }


def cmd_decompose(args) -> int:
    config = _make_config(
        args,
        "decompose",
        targets=args.targets,
        pipeline_retries=args.pipeline_retries,
        parallel_seeds=args.parallel_seeds,
    )
    for flag, value in (("--pipeline-retries", args.pipeline_retries),
                        ("--parallel-seeds", args.parallel_seeds)):
        if value < 1:
            raise CLIError(EXIT_PARAMS, f"decompose: {flag} {value} is below 1")
    H = load_hypergraph(args.input)
    prof = config.profile
    targets = parse_targets(args.targets)
    for shape in targets:
        check_target(shape, H, prof)
    try:
        check_granularity(H, prof.L, prof.mu, len(targets))
    except CoverError as exc:
        raise CLIError(EXIT_PARAMS, f"decompose: {exc}")
    started = time.perf_counter()
    # weighted first, so that an edgeless host is named as such
    weighting = pipeline_weighting(H)
    try:
        check_collections(H, len(targets))
    except CoverError as exc:
        raise CLIError(EXIT_PARAMS, f"decompose: {exc}")
    job = functools.partial(
        _decompose_job, H, weighting, prof, targets,
        args.pipeline_retries, args.normalize_timings,
    )
    if args.parallel_seeds == 1:
        results = [job(args.seed)]
    else:
        # imported here: its multiprocessing chain slows every start-up
        from concurrent.futures import ProcessPoolExecutor

        workers = min(args.parallel_seeds, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, range(args.seed, args.seed + args.parallel_seeds)))
    # deterministic winner: first full success in seed order, else most factors
    winner = None
    for res in results:
        if res["ok"]:
            winner = res
            break
    if winner is None:
        winner = max(results, key=lambda r: (r["achieved"], -r["seed"]))
    wall = 0.0 if args.normalize_timings else time.perf_counter() - started
    doc = {
        "config": config.as_dict(),
        "targets": targets,
        "ok": winner["ok"],
        "achieved": winner["achieved"],
        "requested": winner["requested"],
        "wall_time": wall,
        "pipeline": {
            "winning_seed": winner["seed"],
            "attempts": winner["attempts"],
            "log": winner["log"],
            "seeds": [
                {"seed": r["seed"], "ok": r["ok"], "achieved": r["achieved"]}
                for r in results
            ],
        },
        "manifest": winner["manifest"],
    }
    emit(doc, args.output)
    if args.factors_out and winner["manifest"]:
        emit(
            {
                "config": config.as_dict(),
                "factors": winner["manifest"]["factors"]["factors"],
            },
            args.factors_out,
        )
    _say(
        config,
        f"achieved {winner['achieved']} of {winner['requested']} factors "
        f"(seed {winner['seed']}, {winner['attempts']} pipeline attempts)",
    )
    if winner["ok"]:
        return EXIT_OK
    # on stderr even under -q: a failed run names its last failure
    last = winner["log"][-1]
    print(f"decompose: {winner['attempts']} pipeline attempt(s); last failed at "
          f"{last['stage']}: {last['detail']}", file=sys.stderr)
    return EXIT_PARTIAL if winner["achieved"] > 0 else EXIT_STAGE


# ---------------------------------------------------------------- verify

def _locate_factors(doc):
    """Accept decompose manifests or bare factors documents."""
    if isinstance(doc, dict):
        sub = doc.get("factors")
        if isinstance(sub, dict) and isinstance(sub.get("factors"), list):
            return sub["factors"]
        if isinstance(sub, list):
            return sub
        inner = doc.get("manifest")
        if isinstance(inner, dict):
            return _locate_factors(inner)
    raise CLIError(EXIT_PARSE, "factors file: no factors list found")


def cmd_verify(args) -> int:
    config = _make_config(args, "verify", factors=args.factors)
    H = load_hypergraph(args.input)
    text = read_input(args.factors, args.factors)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIError(EXIT_PARSE, f"{args.factors}: {exc}")
    items = _locate_factors(doc)
    if not items:
        _say(config, "warning: empty factors list; vacuously valid")
        if args.output:
            emit(
                {"config": config.as_dict(), "ok": True, "factors": 0,
                 "warning": "empty factors list"},
                args.output,
            )
        return EXIT_OK
    try:
        factors = factors_from_document({"factors": items}, H)
    except (TightnessError, HypergraphError, ValueError, KeyError, TypeError) as exc:
        _say(config, f"invalid factors: {exc}")
        if args.output:
            emit(
                {"config": config.as_dict(), "ok": False, "error": str(exc)},
                args.output,
            )
        return EXIT_STAGE
    report = validate_packing(H, factors)
    _say(config, f"factors: {len(factors)}")
    _say(config, f"valid: {bool(report.ok)}")
    for reason in report.reasons:
        _say(config, f"  {reason}")
    if args.output:
        emit(
            {
                "config": config.as_dict(),
                "ok": bool(report.ok),
                "factors": len(factors),
                "lengths": [f.lengths() for f in factors],
                "reasons": list(report.reasons),
            },
            args.output,
        )
    return EXIT_OK if report.ok else EXIT_STAGE


# ---------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared by every
    ``main`` call of the process: parsing reads it and never changes it
    (each call gets a fresh namespace, and ``--set`` appends to a copy)."""
    parser = argparse.ArgumentParser(
        prog="cyclefactors",
        description="Tight-cycle factor toolkit for k-uniform hypergraphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--profile", help="key=value parameter file")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one profile entry (repeatable)",
    )
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--output", help="write the JSON artifact here")
    common.add_argument(
        "--normalize-timings",
        action="store_true",
        help="zero all timing fields for byte-identical artifacts",
    )
    common.add_argument("-q", "--quiet", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="regularity summary")
    p.add_argument("input")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser(
        "regsub", parents=[common], help="largest exact-regular spanning subgraph"
    )
    p.add_argument("input")
    p.add_argument("--cap", type=int, default=64, help="edge-count search cap")
    p.set_defaults(handler=cmd_regsub)

    p = sub.add_parser("pfm", parents=[common], help="perfect fractional matching")
    p.add_argument("input")
    p.add_argument(
        "--mode", choices=["exact", "lp", "uniform"], default="exact"
    )
    p.set_defaults(handler=cmd_pfm)

    p = sub.add_parser("walk", parents=[common], help="weighted tight walks")
    p.add_argument("input")
    p.add_argument("--walk-length", type=int, default=6, metavar="L")
    p.add_argument("--steps", type=int, default=3, metavar="T")
    p.add_argument(
        "--samples",
        type=int,
        default=0,
        help="sample count; 0 runs the exact enumeration",
    )
    p.add_argument(
        "--mode", choices=["exact", "lp", "uniform"], default="uniform"
    )
    p.set_defaults(handler=cmd_walk)

    p = sub.add_parser("absorbers", parents=[common], help="absorber enumeration")
    p.add_argument("input")
    p.add_argument("--x", type=int, help="vertex to absorb (default: all)")
    p.add_argument("--cap", type=int, help="stop after this many per vertex")
    p.set_defaults(handler=cmd_absorbers)

    p = sub.add_parser("cover", parents=[common], help="cycle cover extraction")
    p.add_argument("input")
    p.add_argument("--collections", type=int, default=3, metavar="R")
    p.set_defaults(handler=cmd_cover)

    p = sub.add_parser(
        "decompose", parents=[common], help="full packing pipeline"
    )
    p.add_argument("input")
    p.add_argument(
        "--targets",
        required=True,
        help="factor shapes, e.g. '12;12' or '6,6;12'",
    )
    p.add_argument("--pipeline-retries", type=int, default=8)
    p.add_argument("--factors-out", help="also write a bare factors file")
    p.add_argument(
        "--parallel-seeds",
        type=int,
        default=1,
        metavar="N",
        help="run N seeds in parallel processes, keep the best",
    )
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("verify", parents=[common], help="validate factors")
    p.add_argument("input")
    p.add_argument("factors")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except HypergraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (AssembleParamError, OracleCapError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except (
        AssembleError,
        CoverError,
        FractionalError,
        StuckWalkError,
        TightnessError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except WalkError as exc:  # after StuckWalkError, its subclass
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
