"""Probabilistic connection, the layer transform, and packing.

This module turns one near-spanning cycle collection plus a reserve graph F
into a cycle factor of prescribed shape, then repeats the construction on
what earlier layers left of F to pack several edge-disjoint factors.  Each
layer attempt opens every cycle into a path at a fresh rotation, drops a
random subset of paths (rejection-sampled until it keeps a path per target
cycle and the leftover size lands in a window), groups the kept paths into
one bin per target cycle, and closes each bin into a cycle with connectors
whose inner vertices come from the whole leftover.

The source paper's layer differs here: it sets aside a random reservoir of
leftover vertices for the connectors and absorbs the rest of the leftover
into an absorbing structure.  At the host sizes this package runs, that
step put no vertex into any emitted factor (the reservoir was the whole
leftover in every layer emitted on the hosts measured).  On K_21^(3) and
K_27^(3) a sampled reservoir held 1 to 4 of the 9 leftover vertices and no
absorbing structure was built for the rest, so no seed tried packed.  The
package therefore builds no absorbing structure and absorbs nothing; the
paper's x-absorbers stay in ``absorbing`` for the ``absorbers`` command.

Randomness is seeded everywhere and every probabilistic guarantee of the
source material is replaced by explicit post-checks plus retries;
``layer_transform`` owns the only retry loop and logs the failed stage of
every attempt.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .bruteforce import validate_packing
from .cover import coverage_gate, open_cycle
from .hypergraph import Hypergraph
from .tightpaths import CycleFactor, TightCycle, closing_rows, grow_paths, verify_factor_copy

# No code here calls these four; bench/tracer.py patches them on this module.
# The package no longer implements absorb or build_absorbing_structure (see
# the module docstring), so those two names are bound to None.
from .cover import extract_cycle_collections, fractional_cycle_decomposition

absorb = build_absorbing_structure = None

__all__ = [
    "AssembleError",
    "AssembleParamError",
    "ConnectionFailure",
    "LayerFailure",
    "Profile",
    "LayerPlan",
    "LayerResult",
    "PackResult",
    "check_cover_length",
    "check_target",
    "build_reservoir",
    "connectors",
    "connect",
    "layer_transform",
    "pack_factors",
    "absorb",
    "build_absorbing_structure",
    "extract_cycle_collections",
    "fractional_cycle_decomposition",
]

KEEP_DRAWS = 200  # rejection budget for the leftover-window draw


class AssembleError(ValueError):
    """Raised for invalid assembly inputs or violated invariants."""


class AssembleParamError(AssembleError):
    """Raised before any randomized work for out-of-contract parameters."""


class ConnectionFailure(AssembleError):
    """Raised when some endpoint pair has no remaining connector candidate;
    the message names the pair's index."""


class LayerFailure(AssembleError):
    """Raised when every layer attempt failed; carries the per-attempt log."""

    def __init__(self, message, stage_log=()):
        super().__init__(message)
        self.stage_log = tuple(stage_log)


class _StageFail(Exception):
    """Internal: aborts one layer attempt, naming the failed stage."""

    def __init__(self, stage, detail):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


# ---------------------------------------------------------------------------
# parameter profile


@dataclass(frozen=True)
class Profile:
    """Every tunable of the assembly pipeline, with desk-scale defaults.

    The asymptotic parameter hierarchy admits no finite instantiation, so all
    constants live here and are serialized with every output.
    """

    mu: float = 0.2  # path-cover leftover fraction
    delta: float = 0.3  # path-drop probability in the layer transform
    # read by no stage; the benchmark's k12-wide-leftover workload sets it
    theta: float = 0.5  # absorbing-structure density parameter
    ell0: int = 2  # min connector inner vertices
    ell1: int = 6  # max connector inner vertices
    L: int = 6  # cycle length (vertices) of the cover
    eps: float = 0.5  # sparsification split parameter
    layer_retries: int = 20  # full-pipeline attempts per layer

    def __post_init__(self):
        for key in ("L", "ell0", "ell1", "layer_retries"):
            value = getattr(self, key)
            if not isinstance(value, int):
                raise AssembleParamError(f"{key} = {value!r} is not an integer")
        if not 0 <= self.mu < 1:
            raise AssembleParamError(f"mu = {self.mu} outside [0, 1)")
        if not 0 < self.delta < 1:
            raise AssembleParamError(f"delta = {self.delta} outside (0, 1)")
        if not 0 <= self.theta <= 1:
            raise AssembleParamError(f"theta = {self.theta} outside [0, 1]")
        if not 1 <= self.ell0 <= self.ell1:
            raise AssembleParamError(
                f"need 1 <= ell0 <= ell1, got ell0 = {self.ell0}, ell1 = {self.ell1}"
            )
        if self.L < 2:
            raise AssembleParamError(f"cover cycle length L = {self.L} is below 2")
        if not 0 < self.eps <= 1:
            raise AssembleParamError(f"eps = {self.eps} outside (0, 1]")
        if self.layer_retries < 1:
            raise AssembleParamError("layer_retries must be positive")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_mapping(cls, m: Mapping) -> "Profile":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(m) - known)
        if unknown:
            raise AssembleParamError(f"unknown profile key(s): {unknown}")
        return cls(**dict(m))


# ---------------------------------------------------------------------------
# connection


def connectors(F: Hypergraph, R: frozenset, s: tuple, t: tuple, lam: int) -> np.ndarray:
    """Every connector for the ordered edges (s, t) with lam inner vertices
    drawn from the vertex set R, as the rows of a (count x lam) int array in
    lexicographic order.

    A connector is a tuple w of lam distinct vertices of R off s and t such
    that s + w + t is tight, where every window that contains at least one
    inner vertex must be an edge of the reserve graph F; the pure end
    windows are the callers' edges.  ``tightpaths.grow_paths`` grows
    s + w[:-1] over the pool (R off s and t), and the last inner vertex,
    which lies in exactly the k windows left to check, comes from the
    ``tightpaths.closing_rows`` of each grown row against t, as
    ``cover._enumerate_all`` closes cycles.  The growth keeps lexicographic
    order, and so do the rows.  Overlapping ends or an empty pool give no
    rows.
    """
    k = F.k
    ends = set(s) | set(t)
    found = [np.empty((0, lam), dtype=np.intp)]
    if len(ends) < 2 * k:
        return found[0]
    pool = np.zeros((1, F.n), dtype=bool)
    pool[0, sorted(R - ends)] = True
    for paths, free in grow_paths(F, np.array([s]), pool, k + lam - 1):
        rows, last = np.nonzero(free & closing_rows(F, paths, np.tile(t, (len(paths), 1))))
        found.append(np.column_stack((paths[rows, k:], last)))
    return np.concatenate(found)


def build_reservoir(V1) -> frozenset:
    """The connectors' vertex pool: the whole leftover V1."""
    # bench/tracer.py times the layer's reservoir stage through this name
    return frozenset(V1)


def connect(
    F: Hypergraph,
    R: frozenset,
    Q: Sequence[tuple],
    budgets: Sequence[int],
    seed: int = 0,
):
    """Pick one connector per endpoint pair, uniformly among survivors.

    Q is a sequence of ordered edge pairs (s, t); the i-th connector is a
    tuple of budgets[i] inner vertices w drawn from the vertex pool R such
    that s + w + t is a connector path in F (``connectors``), w is disjoint
    from every earlier connector and from all endpoint vertices.  Each pair
    lists its survivors as the rows of one array, draws a row with one
    ``rng.randrange`` and turns only that row into a tuple.  Returns the
    list of inner tuples.  A pair with no remaining candidate raises
    ConnectionFailure naming its index.
    """
    Q = [(tuple(s), tuple(t)) for s, t in Q]
    budgets = list(budgets)
    if len(Q) != len(budgets):
        raise AssembleParamError("one budget per endpoint pair required")
    k = F.k
    all_ends: set = set()
    for i, ((s, t), lam) in enumerate(zip(Q, budgets)):
        if len(s) != k or len(t) != k:
            raise AssembleParamError(f"pair {i}: endpoint tuples must have k vertices")
        if set(s) & set(t):
            raise AssembleParamError(f"pair {i}: endpoint edges share vertices")
        if lam < 1:
            raise AssembleParamError(f"pair {i}: connectors need at least one inner vertex")
        all_ends |= set(s) | set(t)
    if len(all_ends) != 2 * k * len(Q):
        raise AssembleParamError("endpoint edges must be pairwise disjoint")
    rng = random.Random(seed)
    pool = R - all_ends
    out = []
    for i, ((s, t), lam) in enumerate(zip(Q, budgets)):
        survivors = connectors(F, pool, s, t, lam)
        if not len(survivors):
            raise ConnectionFailure(f"pair {i}: no connector with {lam} inner vertices remains")
        w = tuple(survivors[rng.randrange(len(survivors))].tolist())
        pool -= set(w)
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# layer transform


@dataclass(frozen=True)
class LayerPlan:
    """Everything the layer transform decided before splicing."""

    lengths: tuple
    groups: tuple  # per cycle: its kept paths' vertex tuples, in splice order
    lambdas: tuple  # per cycle: tuple of inner-vertex budgets
    endpoints: tuple  # per connector: ((s tuple), (t tuple))
    leftover: tuple  # sorted V1, the vertices the connectors take

    def as_dict(self) -> dict:
        return {
            "lengths": list(self.lengths),
            "groups": [[list(seq) for seq in g] for g in self.groups],
            "lambdas": [list(l) for l in self.lambdas],
            "endpoints": [[list(s), list(t)] for s, t in self.endpoints],
            "leftover": list(self.leftover),
        }


@dataclass(frozen=True)
class LayerResult:
    """A constructed factor plus the plan, usage, and attempt bookkeeping."""

    factor: CycleFactor
    plan: LayerPlan
    f_edges: tuple  # sorted F-edges used by the factor
    attempts: int
    stage_log: tuple  # (attempt, stage, detail) for failed attempts
    timings: dict


def check_cover_length(H: Hypergraph, prof: Profile) -> None:
    """AssembleParamError unless the cover cycle length L lies in [k+1, n]."""
    if not H.k + 1 <= prof.L <= H.n:
        raise AssembleParamError(
            f"cover cycle length L = {prof.L} outside [k+1, n] = [{H.k + 1}, {H.n}]"
        )


def check_target(target, H: Hypergraph, prof: Profile) -> tuple:
    """The target's cycle lengths, or AssembleParamError when no layer could
    build them in H: no cycles, a sum other than n, a cover length L outside
    [k+1, n] or below 2k, or a cycle shorter than the cheapest piece a layer
    can place.  A kept L-path below 2k vertices has overlapping end edges,
    which no connector can join.  Every target cycle holds at least one kept
    L-path plus at least ell0 connector vertices after it, so the girth gate
    is L + ell0, above k + 1."""
    lengths = tuple(target.lengths()) if isinstance(target, CycleFactor) else tuple(target)
    if not lengths:
        raise AssembleParamError("target factor has no cycles")
    if sum(lengths) != H.n:
        raise AssembleParamError(
            f"target shape {list(lengths)} sums to {sum(lengths)}, host has {H.n} vertices"
        )
    check_cover_length(H, prof)
    if prof.L < 2 * H.k:
        raise AssembleParamError(
            f"cover cycle length L = {prof.L} < 2k = {2 * H.k}: a kept path "
            "needs disjoint end edges for its connectors"
        )
    gate = prof.L + prof.ell0
    if min(lengths) < gate:
        raise AssembleParamError(
            f"target girth {min(lengths)} < L + ell0 = {prof.L} + {prof.ell0} = {gate}"
        )
    return lengths


def layer_transform(
    H: Hypergraph,
    F: Hypergraph,
    cycles,
    target,
    prof: Profile = Profile(),
    seed=0,
) -> LayerResult:
    """Transform a cycle collection plus reserve graph into a cycle factor.

    ``cycles`` are vertex-disjoint tight cycles of H that avoid F and cover
    at least (1 - mu) n vertices.  The emitted factor is a copy of the target
    shape whose edges come only from the opened cycles and from F.  Each of
    the profile's ``layer_retries`` attempts opens every cycle into a path at
    a fresh rotation and runs the full pipeline (drop, grouping, budgets,
    connection, splice); when all fail, LayerFailure carries the failed
    stage of each attempt.  ``seed`` is an int or a ``random.Random`` whose
    stream the attempts use.
    """
    if F.k != H.k or F.n != H.n:
        raise AssembleParamError("reserve graph must span the same vertex set")
    # F's edges and the cycles' windows are canonical tuples, the keys of
    # the hosts' edge ids as they are
    in_host, in_reserve = H._edge_ids.__contains__, F._edge_ids.__contains__
    if not all(map(in_host, F.edges)):
        e = next(e for e in F.edges if not in_host(e))
        raise AssembleParamError(f"reserve edge {e} is not an edge of the host")
    lengths = check_target(target, H, prof)
    cycles = tuple(cycles)
    covered: set = set()
    for C in cycles:
        if not isinstance(C, TightCycle):
            raise AssembleParamError(f"{C!r} is not a TightCycle")
        if covered & C.vertex_set:
            raise AssembleParamError("input cycles must be vertex-disjoint")
        covered |= C.vertex_set
        for e in C.edges():
            if not in_host(e):
                raise AssembleParamError(f"cycle edge {e} is not an edge of the host")
            if in_reserve(e):
                raise AssembleParamError(
                    f"cycle {C.seq} uses reserve edge {e}; cycles must avoid F"
                )
    need = coverage_gate(H.n, prof.mu)
    if len(covered) < need:
        raise AssembleParamError(
            f"cycles cover {len(covered)} vertices, below (1 - mu) n = {need}"
        )

    master = seed if isinstance(seed, random.Random) else random.Random(seed)
    stage_log = []
    for attempt in range(1, prof.layer_retries + 1):
        sub = master.randrange(2**63)
        opener = random.Random(sub)
        seqs = [open_cycle(C, opener) for C in cycles]
        rng = random.Random(random.Random(sub).randrange(2**63))
        try:
            factor, plan, f_edges, timings = _attempt_layer(
                H, F, seqs, lengths, prof, rng
            )
        except _StageFail as exc:
            stage_log.append((attempt, exc.stage, exc.detail))
            continue
        check = verify_factor_copy(H, factor, lengths)
        if not check:
            stage_log.append((attempt, "verify", "; ".join(check.reasons)))
            continue
        return LayerResult(
            factor=factor,
            plan=plan,
            f_edges=f_edges,
            attempts=attempt,
            stage_log=tuple(stage_log),
            timings=timings,
        )
    raise LayerFailure(
        f"layer transform failed in all {prof.layer_retries} attempts; "
        f"last failure: {stage_log[-1][1]}: {stage_log[-1][2]}",
        stage_log=stage_log,
    )


def _attempt_layer(H, F, seqs, lengths, prof, rng):
    k = H.k
    n = H.n
    timings = {}
    clock = time.perf_counter

    # (1) keep each path with probability 1 - delta; a draw must keep a path
    # for every target cycle (step (2) refuses an empty bin) and leave |V1|
    # inside the window
    t0 = clock()
    lo = math.floor(prof.delta * n / 2)
    hi = math.ceil(3 * prof.delta * n / 2)
    kept = None
    for _ in range(KEEP_DRAWS):
        cand = [s for s in seqs if rng.random() < 1 - prof.delta]
        if len(cand) < len(lengths):
            continue
        leftover = set(range(n)).difference(*cand)
        if lo <= len(leftover) <= hi:
            kept = cand
            V1 = leftover
            break
    if kept is None:
        raise _StageFail(
            "keep", f"no draw kept {len(lengths)} path(s) and left |V1| inside "
            f"[{lo}, {hi}] in {KEEP_DRAWS} tries"
        )
    timings["keep"] = clock() - t0

    # (2) group the kept paths into one bin per target cycle, in index order;
    # a path costs its vertices plus the ell0 connector vertices after it
    t0 = clock()
    groups = [[] for _ in lengths]
    placed = set()
    for gi, L_i in enumerate(lengths):
        used = 0
        for i, seq in enumerate(kept):
            if i not in placed and used + len(seq) + prof.ell0 <= L_i:
                groups[gi].append(seq)
                used += len(seq) + prof.ell0
                placed.add(i)
    if len(placed) < len(kept):
        raise _StageFail(
            "group", f"{len(kept) - len(placed)} kept path(s) fit in no target cycle"
        )
    for gi, group in enumerate(groups):
        if not group:
            raise _StageFail("group", f"target cycle {gi} received no path")
        if len(group) == 1 and len(group[0]) < 2 * k:
            raise _StageFail(
                "group", f"cycle {gi}: a single path of {len(group[0])} < 2k vertices"
            )
    timings["group"] = clock() - t0

    # (3) inner-vertex budgets per connector; they sum to |V1|, since the
    # target lengths sum to n and every kept path is placed
    lambdas = []
    for group, L_i in zip(groups, lengths):
        z = len(group)
        need = L_i - sum(len(seq) for seq in group)
        if need > z * prof.ell1:
            raise _StageFail(
                "budget", f"need {need} inner vertices over {z} connectors "
                f"exceeds z * ell1 = {z * prof.ell1}"
            )
        extra = need - z * prof.ell0
        if extra < 0:
            raise _StageFail("budget", f"need {need} < z * ell0 = {z * prof.ell0}")
        # the extra vertices go round-robin from connector 0; none passes
        # ell1, since need <= z * ell1
        each, rest = divmod(extra, z)
        lambdas.append(tuple(prof.ell0 + each + (j < rest) for j in range(z)))

    # (4) connect each group cyclically through the leftover
    t0 = clock()
    Q = []
    budgets = []
    for group, lam in zip(groups, lambdas):
        z = len(group)
        for g in range(z):
            Q.append((group[g][-k:], group[(g + 1) % z][:k]))
            budgets.append(lam[g])
    try:
        inners = connect(F, build_reservoir(V1), Q, budgets, seed=rng.randrange(2**63))
    except (ConnectionFailure, AssembleParamError) as exc:
        raise _StageFail("connect", str(exc))
    timings["connect"] = clock() - t0

    # (5) splice each cycle: every kept path followed by its connector
    t0 = clock()
    inner_of = iter(inners)
    cycles = []
    for group in groups:
        seq = []
        for path in group:
            seq.extend(path)
            seq.extend(next(inner_of))
        cycles.append(TightCycle(H, seq))
    factor = CycleFactor(cycles, target_n=n)
    timings["splice"] = clock() - t0

    # the factor's windows are canonical tuples, F's edge id keys as they are
    in_reserve = F._edge_ids.__contains__
    f_edges = sorted({e for C in cycles for e in C.edges() if in_reserve(e)})
    path_edges = {
        tuple(sorted(s[i : i + k])) for s in seqs for i in range(len(s) - k + 1)
    }
    for C in cycles:
        for e in C.edges():
            if not in_reserve(e) and e not in path_edges:
                raise _StageFail(
                    "verify", f"factor edge {e} is neither a path edge nor a reserve edge"
                )

    plan = LayerPlan(
        lengths=tuple(lengths),
        groups=tuple(tuple(group) for group in groups),
        lambdas=tuple(lambdas),
        endpoints=tuple(Q),
        leftover=tuple(sorted(V1)),
    )
    return factor, plan, tuple(f_edges), timings


# ---------------------------------------------------------------------------
# packing


def _failed_stages(stage_log) -> list:
    return [{"attempt": a, "stage": s, "detail": d} for a, s, d in stage_log]


@dataclass(frozen=True)
class PackResult:
    """Factors achieved by the packing loop plus all bookkeeping.

    ``failed_log`` is the stage log of the layer that ended the loop early
    (empty when every layer succeeded)."""

    factors: tuple
    ok: bool
    achieved: int
    requested: int
    layer_results: tuple
    failed_log: tuple
    packing_report: object
    profile: Profile
    seed: int

    def __bool__(self):
        return self.ok

    def manifest(self, normalize_timings: bool = False) -> dict:
        from .tightpaths import factors_document

        layers = []
        for i, lr in enumerate(self.layer_results):
            timings = {
                stage: (0.0 if normalize_timings else t)
                for stage, t in lr.timings.items()
            }
            layers.append(
                {
                    "layer": i,
                    "attempts": lr.attempts,
                    "failed_stages": _failed_stages(lr.stage_log),
                    "f_edges": [list(e) for e in lr.f_edges],
                    "timings": timings,
                    "plan": lr.plan.as_dict(),
                }
            )
        failed = None
        if self.failed_log:
            failed = {
                "layer": self.achieved,
                "attempts": len(self.failed_log),
                "failed_stages": _failed_stages(self.failed_log),
            }
        return {
            "seed": self.seed,
            "profile": self.profile.as_dict(),
            "requested": self.requested,
            "achieved": self.achieved,
            "ok": self.ok,
            "layers": layers,
            "failed_layer": failed,
            "factors": factors_document(self.factors),
            "packing": {
                "ok": bool(self.packing_report.ok),
                "reasons": list(self.packing_report.reasons),
            },
        }


def pack_factors(
    H: Hypergraph,
    F: Hypergraph,
    collections: Sequence,
    targets: Sequence,
    prof: Profile = Profile(),
    seed: int = 0,
) -> PackResult:
    """Emit edge-disjoint cycle factors, one per target shape.

    F is the graph connectors draw from; it must avoid every collection's
    edges.  ``decompose`` passes H minus the edges of all extracted cycles,
    that is the sparsified reserve plus the idle edges.  Target i is built
    by one ``layer_transform`` call from the i-th cycle collection and F
    minus the reserve edges (``f_edges``) of the layers before it, so no two
    factors share an edge; ``validate_packing`` re-checks that.  All layers
    draw from one master stream seeded by ``seed``.  A layer that fails all
    its attempts ends the loop early with a partial result that keeps the
    failure's stage log.
    """
    shapes = [check_target(target, H, prof) for target in targets]
    if len(targets) > len(collections):
        raise AssembleParamError(
            f"{len(targets)} targets but only {len(collections)} cycle collections"
        )
    master = random.Random(seed)
    factors = []
    layer_results = []
    failed_log = ()
    for cycles, lengths in zip(collections, shapes):
        try:
            res = layer_transform(H, F, cycles, lengths, prof=prof, seed=master)
        except LayerFailure as exc:
            failed_log = exc.stage_log
            break
        factors.append(res.factor)
        layer_results.append(res)
        F = F.remove_edges(res.f_edges)
    report = validate_packing(H, factors)
    return PackResult(
        factors=tuple(factors),
        ok=len(factors) == len(targets) and bool(report.ok),
        achieved=len(factors),
        requested=len(targets),
        layer_results=tuple(layer_results),
        failed_log=failed_log,
        packing_report=report,
        profile=prof,
        seed=seed,
    )
