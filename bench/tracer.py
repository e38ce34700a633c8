"""Spans and counts recorded from outside the program.

The tracer replaces module globals of ``cyclefactors`` with wrappers at the
places where the pipeline looks them up (for example
``cyclefactors.assemble.build_reservoir``, which ``_attempt_layer`` reads
from its own module), so nothing under ``src/`` changes.  Each wrapped call
is either a span (name, start, end, parent span, request id) or a plain
count.  Spans stay in memory until the run ends; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Failure stages a layer attempt can report (assemble._attempt_layer and the
# post-attempt check in layer_transform).
LAYER_STAGES = (
    "keep", "reservoir", "extend", "absorbing", "cover",
    "group", "budget", "connect", "absorb", "verify",
)

# Span name -> (per-layer metric of its summed self time, metric of its call
# count or None).
TIMED = {
    "cli.decompose": ("cli.self_s", None),
    "hypergraph.parse": ("hypergraph.parse_s", None),
    "hypergraph.regularity_report": (
        "hypergraph.regularity_report_s", "hypergraph.regularity_report_calls"),
    "fractional.sparsify": ("fractional.sparsify_s", "fractional.sparsify_calls"),
    "fractional.pfm_lp": ("fractional.pfm_lp_s", "fractional.pfm_lp_calls"),
    "walks.sample_walk": ("walks.sample_walk_s", "walks.sample_walk_calls"),
    "absorbing.build": ("absorbing.build_s", "absorbing.build_calls"),
    "absorbing.absorb": ("absorbing.absorb_s", "absorbing.absorb_calls"),
    "cover.family": ("cover.family_s", None),
    "cover.lp_solve": ("cover.lp_solve_s", "cover.lp_calls"),
    "cover.extract": ("cover.extract_s", "cover.extract_calls"),
    "assemble.pack": ("assemble.pack_s", None),
    "assemble.reservoir": ("assemble.reservoir_s", "assemble.reservoir_calls"),
    "assemble.connect": ("assemble.connect_s", "assemble.connect_calls"),
    "tightpaths.verify": ("tightpaths.verify_s", None),
    "bruteforce.validate_packing": ("bruteforce.validate_packing_s", None),
}

# Counts kept by the wrappers' callbacks, reported as they are.
COUNTED = (
    "cover.lp_iters", "cover.lp_nnz", "cover.family_size",
    "cover.cycles_through_edge_calls", "cover.decomposition_failed",
    "absorbing.build_failed", "assemble.layer_calls",
)

MODULES = (
    "cli", "hypergraph", "fractional", "walks", "absorbing",
    "cover", "assemble", "tightpaths", "bruteforce",
)


class Tracer:
    """Records spans and counts while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.request = None
        self.spans = []  # [name, parent index, request, start, end, error]
        self.counts = Counter()
        self._stack = []

    def span(self, name, fn, on_result=None, on_error=None):
        """Wrap ``fn`` so each call while active records a span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            record = [name, parent, self.request, time.perf_counter(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                self._raised(name, exc, on_error)
                raise
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, result, args, kwargs)
            return result

        return wrapper

    def count(self, name, fn, on_result=None, on_error=None):
        """Wrap ``fn`` so each call while active adds to ``<name>_calls``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[name + "_calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._raised(name, exc, on_error)
                raise
            if on_result is not None:
                on_result(self.counts, result, args, kwargs)
            return result

        return wrapper

    def _raised(self, name, exc, on_error):
        self.counts[name.split(".")[0] + ".raised"] += 1
        if on_error is not None:
            on_error(self.counts, exc)

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        selfs = [end - start for _, _, _, start, end, _ in self.spans]
        for name, parent, _, start, end, _ in self.spans:
            if parent is not None:
                selfs[parent] -= end - start
        return selfs

    def metrics(self) -> dict:
        """Per-layer totals over every recorded span and count."""
        out = {}
        time_of = defaultdict(float)
        calls_of = Counter()
        for (name, *_), own in zip(self.spans, self.self_times()):
            time_of[name] += own
            calls_of[name] += 1
        for name, (time_key, calls_key) in TIMED.items():
            out[time_key] = time_of[name]
            if calls_key:
                out[calls_key] = calls_of[name]
        c = self.counts
        for key in COUNTED:
            out[key] = c[key]
        out["cover.extract_ok_frac"] = _frac(c["cover.extract_ok"], calls_of["cover.extract"])
        out["assemble.layer_ok_frac"] = _frac(c["assemble.layer_ok"], c["assemble.layer_calls"])
        for stage in LAYER_STAGES:
            key = "assemble.layer_failed." + stage
            out[key] = c[key]
        for module in MODULES:
            out[module + ".raised"] = c[module + ".raised"]
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line, in start order, times in seconds."""
        with open(path, "w") as fh:
            for i, (name, parent, request, start, end, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name, "request": request,
                    "start": start, "end": end, "error": error,
                }) + "\n")

    def modules_seen(self) -> set:
        return {name.split(".")[0] for name, *_ in self.spans}


def _frac(part, whole):
    return part / whole if whole else 0.0


# ---------------------------------------------------------------- callbacks

def _lp_result(counts, res, args, kwargs):
    counts["cover.lp_iters"] += int(getattr(res, "nit", 0) or 0)
    counts["cover.lp_nnz"] += sum(
        kwargs[key].nnz for key in ("A_ub", "A_eq") if kwargs.get(key) is not None
    )
    counts["cover.family_size"] += len(args[0]) - 1  # one column is the max-min z


def _extract_result(counts, res, args, kwargs):
    counts["cover.extract_ok"] += bool(res.ok)


def _build_error(counts, exc):
    counts["absorbing.build_failed"] += 1


def _layer_result(counts, res, args, kwargs):
    counts["assemble.layer_ok"] += 1
    _count_stages(counts, res.stage_log)


def _layer_error(counts, exc):
    # pack_factors swallows LayerFailure and drops its stage log; read it here
    _count_stages(counts, getattr(exc, "stage_log", ()))


def _count_stages(counts, stage_log):
    for _attempt, stage, _detail in stage_log:
        counts["assemble.layer_failed." + stage] += 1


@contextmanager
def installed(tracer: Tracer):
    """Patch the package's lookup sites for the duration of the block."""
    from cyclefactors import absorbing, assemble, cli, cover, hypergraph

    def family_error(counts, exc):
        if isinstance(exc, cover.DecompositionError):
            counts["cover.decomposition_failed"] += 1

    sp, ct = tracer.span, tracer.count
    patches = [
        (cli, "parse_hypergraph", sp("hypergraph.parse", cli.parse_hypergraph)),
        (hypergraph.Hypergraph, "regularity_report",
         sp("hypergraph.regularity_report", hypergraph.Hypergraph.regularity_report)),
        (cli, "sparsify_intersecting", sp("fractional.sparsify", cli.sparsify_intersecting)),
        (cli, "pfm_lp", sp("fractional.pfm_lp", cli.pfm_lp)),
        (absorbing, "sample_walk", sp("walks.sample_walk", absorbing.sample_walk)),
        (assemble, "build_absorbing_structure",
         sp("absorbing.build", assemble.build_absorbing_structure, on_error=_build_error)),
        (assemble, "absorb", sp("absorbing.absorb", assemble.absorb)),
        (cover, "linprog", sp("cover.lp_solve", cover.linprog, on_result=_lp_result)),
        (cover, "cycles_through_edge", ct("cover.cycles_through_edge", cover.cycles_through_edge)),
        (assemble, "layer_transform",
         ct("assemble.layer", assemble.layer_transform,
            on_result=_layer_result, on_error=_layer_error)),
        (assemble, "build_reservoir", sp("assemble.reservoir", assemble.build_reservoir)),
        (assemble, "connect", sp("assemble.connect", assemble.connect)),
        (assemble, "verify_factor_copy", sp("tightpaths.verify", assemble.verify_factor_copy)),
        (assemble, "validate_packing",
         sp("bruteforce.validate_packing", assemble.validate_packing)),
        (cli, "pack_factors", sp("assemble.pack", cli.pack_factors)),
    ]
    for module in (cli, assemble):
        patches.append((module, "fractional_cycle_decomposition",
                        sp("cover.family", module.fractional_cycle_decomposition,
                           on_error=family_error)))
        patches.append((module, "extract_cycle_collections",
                        sp("cover.extract", module.extract_cycle_collections,
                           on_result=_extract_result)))
    with patched(patches):
        yield tracer


@contextmanager
def patched(patches):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, value in patches:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
