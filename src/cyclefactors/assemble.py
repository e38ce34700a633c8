"""Reservoirs, probabilistic connection, the layer transform, and packing.

This module turns one near-spanning cycle collection plus a reserve graph F
into a cycle factor of prescribed shape, then repeats the construction with
usage budgets to pack several edge-disjoint factors.  Each layer attempt
opens every cycle into a path at a fresh rotation and follows a fixed
pipeline: drop a random subset of paths (rejection-sampled until the
leftover size lands in a window), set aside a reservoir of leftover
vertices, optionally extend the kept paths by reserve edges, build an
absorbing structure and a near-spanning cover in the untouched leftover,
group everything into one bin per target cycle, connect the groups into
cycles through the reservoir, and absorb whatever remains.  Randomness is
seeded everywhere and every probabilistic guarantee of the source material
is replaced by explicit post-checks plus retries; ``layer_transform`` owns
the only retry loop and logs the failed stage of every attempt.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Optional, Sequence

from .absorbing import (
    AbsorbingError,
    AbsorbingFailure,
    absorb,
    build_absorbing_structure,
)
from .bruteforce import validate_packing
from .cover import (
    CoverError,
    DecompositionError,
    extract_cycle_collections,
    fractional_cycle_decomposition,
    open_cycle,
)
from .hypergraph import Hypergraph
from .tightpaths import (
    CycleFactor,
    TightCycle,
    closing_mask,
    tight_extensions,
    verify_factor_copy,
)

__all__ = [
    "AssembleError",
    "AssembleParamError",
    "ReservoirError",
    "ConnectionFailure",
    "LayerFailure",
    "PackBudgetError",
    "Profile",
    "LayerPlan",
    "LayerResult",
    "UsageLedger",
    "PackResult",
    "check_cover_length",
    "check_target",
    "build_reservoir",
    "connectors",
    "connect",
    "layer_transform",
    "pack_factors",
]

KEEP_DRAWS = 200  # rejection budget for the leftover-window draw
RESERVOIR_SAMPLES = 100  # reservoir draws before the reservoir stage fails
# Endpoint pairs audited per sampled reservoir.  A light audit: every layer
# attempt samples a fresh reservoir, and a 50-pair audit per attempt would
# dominate the running time.
RESERVOIR_AUDIT_PAIRS = 10


class AssembleError(ValueError):
    """Raised for invalid assembly inputs or violated invariants."""


class AssembleParamError(AssembleError):
    """Raised before any randomized work for out-of-contract parameters."""


class ReservoirError(AssembleError):
    """Raised when reservoir sampling exhausts retries; the message names the
    last property a sample failed."""


class ConnectionFailure(AssembleError):
    """Raised when some endpoint pair has no remaining connector candidate."""

    def __init__(self, message, pair_index):
        super().__init__(message)
        self.pair_index = pair_index


class LayerFailure(AssembleError):
    """Raised when every layer attempt failed; carries the per-attempt log."""

    def __init__(self, message, stage_log=()):
        super().__init__(message)
        self.stage_log = tuple(stage_log)


class PackBudgetError(AssembleError):
    """Raised when the usage ledger's codegree cap is violated."""

    def __init__(self, message, culprit, snapshot, factors=()):
        super().__init__(message)
        self.culprit = culprit
        self.snapshot = snapshot
        self.factors = tuple(factors)


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
    beta: float = 0.4  # reservoir size parameter
    theta: float = 0.5  # absorbing-structure density parameter
    ell0: int = 2  # min connector inner vertices
    ell1: int = 6  # max connector inner vertices
    L: int = 6  # cycle length (vertices) of the primary cover
    L_prime: int = 6  # path length of the in-layer cover and absorber paths
    a: int = 1  # absorber slots per block (a * (2k + ell) must fit in L_prime)
    ell: int = 0  # spacer vertices after each block slot
    eps: float = 0.5  # sparsification split parameter
    r_prime: int = 3  # in-layer cover choices to draw one collection from
    cap_fraction: float = 0.25  # ledger codegree cap as a fraction of n
    layer_retries: int = 20  # full-pipeline attempts per layer
    extend: bool = False  # grow kept paths by reserve edges before connecting

    def __post_init__(self):
        if not 0 <= self.mu < 1:
            raise AssembleParamError(f"mu = {self.mu} outside [0, 1)")
        if not 0 < self.delta < 1:
            raise AssembleParamError(f"delta = {self.delta} outside (0, 1)")
        if not 0 < self.beta <= 1:
            raise AssembleParamError(f"beta = {self.beta} outside (0, 1]")
        if not 0 <= self.theta <= 1:
            raise AssembleParamError(f"theta = {self.theta} outside [0, 1]")
        if not 1 <= self.ell0 <= self.ell1:
            raise AssembleParamError(
                f"need 1 <= ell0 <= ell1, got ell0 = {self.ell0}, ell1 = {self.ell1}"
            )
        if self.L < 2 or self.L_prime < 2:
            raise AssembleParamError("path lengths must be at least 2")
        if self.a < 1 or self.ell < 0:
            raise AssembleParamError(f"invalid block shape a = {self.a}, ell = {self.ell}")
        if not 0 < self.eps <= 1:
            raise AssembleParamError(f"eps = {self.eps} outside (0, 1]")
        if self.r_prime < 1:
            raise AssembleParamError("r_prime must be positive")
        if self.cap_fraction <= 0:
            raise AssembleParamError("cap_fraction must be positive")
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
# reservoir


def connectors(F: Hypergraph, R: frozenset, s: tuple, t: tuple, lam: int):
    """Every connector for the ordered edges (s, t) with lam inner vertices
    drawn from the vertex set R, ascending.

    A connector is a tuple w of lam distinct vertices of R off s and t such
    that s + w + t is tight, where every window that contains at least one
    inner vertex must be an edge of the reserve graph F; the pure end
    windows are the callers' edges.  The search grows s + w[:-1] through R,
    then closes the last inner vertex against t: every window left to check
    contains it, so its candidates are the ``closing_mask`` of the grown head
    against t, ascending.
    """
    k = F.k
    ends = set(s) | set(t)
    if len(ends) < 2 * k:
        return
    allowed = R - ends
    for head in tight_extensions(F, s, k + lam - 1, allowed):
        closers = closing_mask(F, head, t)
        while closers:
            low = closers & -closers
            closers ^= low
            u = low.bit_length() - 1
            if u in allowed and u not in head:
                yield head[k:] + (u,)


def _falling(n: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= max(0, n - i)
    return out


def build_reservoir(
    F: Hypergraph,
    beta: float,
    ell0: int,
    ell1: int,
    seed: int = 0,
    inside: Optional[Iterable[int]] = None,
) -> frozenset:
    """Sample a reservoir R by independent inclusion with probability 3*beta/4.

    A sample is accepted when (i) |R| lies in the integer-relaxed window
    [floor(beta*n1/2), ceil(beta*n1)] over the n1 eligible vertices, (ii) an
    audit over up to ``RESERVOIR_AUDIT_PAIRS`` sampled disjoint ordered edge
    pairs finds, for every lam in [ell0, ell1], at least
    beta * falling(|R - (s+t)|, lam) connectors, and (iii) the reserve graph
    off R stays within twice the measured regularity defect.  Hosts with at
    most 2k eligible vertices skip sampling and take everything.  Raises
    ReservoirError after ``RESERVOIR_SAMPLES`` rejected samples.
    """
    if not 0 < beta <= 1:
        raise AssembleParamError(f"beta = {beta} outside (0, 1]")
    if not 1 <= ell0 <= ell1:
        raise AssembleParamError(f"need 1 <= ell0 <= ell1, got {ell0}, {ell1}")
    inside = sorted(set(range(F.n)) if inside is None else set(inside))
    for v in inside:
        F._check_vertex(v)
    n1 = len(inside)
    k = F.k
    if n1 <= 2 * k:
        return frozenset(inside)

    lo = math.floor(beta * n1 / 2)
    hi = math.ceil(beta * n1)
    rho_inside = float(F.induced(inside).rho_star())
    inset = set(inside)
    inside_edges = [e for e in F.edges if inset.issuperset(e)]
    rng = random.Random(seed)
    last_fail = "size"
    for _ in range(RESERVOIR_SAMPLES):
        R = frozenset(v for v in inside if rng.random() < 3 * beta / 4)
        if not lo <= len(R) <= hi:
            last_fail = f"size |R| = {len(R)} outside [{lo}, {hi}]"
            continue
        failed = _audit_reservoir(F, R, beta, ell0, ell1, inside_edges, rng)
        if failed:
            last_fail = f"audit {failed}"
            continue
        rest = sorted(inset - R)
        if rho_inside and len(rest) >= k:
            rho_off = float(F.induced(rest).rho_star())
            if rho_off > 2 * rho_inside:
                last_fail = f"regularity off R: {rho_off:.4f} > 2 * {rho_inside:.4f}"
                continue
        return R
    raise ReservoirError(
        f"no reservoir after {RESERVOIR_SAMPLES} samples; last failure: {last_fail}"
    )


def _audit_reservoir(F, R, beta, ell0, ell1, edges: list, rng: random.Random):
    """None, or a string describing the first failed audit pair.

    ``edges`` are the host edges inside the eligible vertices, in host
    order.  Each pair is checked as soon as it is drawn, so a failing sample
    draws no pair past its first failure, and each count stops at
    ceil(need).
    """
    pairs = 0
    for _ in range(50 * RESERVOIR_AUDIT_PAIRS if len(edges) >= 2 else 0):
        if pairs >= RESERVOIR_AUDIT_PAIRS:
            break
        e, f = rng.sample(edges, 2)
        if set(e) & set(f):
            continue
        pairs += 1
        s = tuple(rng.sample(e, len(e)))
        t = tuple(rng.sample(f, len(f)))
        avail = len(R - set(s) - set(t))
        for lam in range(ell0, ell1 + 1):
            need = beta * _falling(avail, lam)
            got = sum(1 for _ in itertools.islice(connectors(F, R, s, t, lam), math.ceil(need)))
            if got < need:
                return f"pair {s}->{t}, lam={lam}: {got} < {need:.2f}"
    return None


# ---------------------------------------------------------------------------
# connection


def connect(
    F: Hypergraph,
    R: frozenset,
    Q: Sequence[tuple],
    budgets: Sequence[int],
    seed: int = 0,
):
    """Pick one connector per endpoint pair, uniformly among survivors.

    Q is a sequence of ordered edge pairs (s, t); the i-th connector is a
    tuple of budgets[i] inner vertices w drawn from the reservoir R such
    that s + w + t is a connector path in F (``connectors``), w is disjoint
    from every earlier connector and from all endpoint vertices.  Returns
    the list of inner tuples.  A pair with no remaining candidate raises
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
        survivors = list(connectors(F, pool, s, t, lam))
        if not survivors:
            raise ConnectionFailure(
                f"pair {i}: no connector with {lam} inner vertices remains",
                pair_index=i,
            )
        w = survivors[rng.randrange(len(survivors))]
        pool -= set(w)
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# layer transform


@dataclass(frozen=True)
class _Piece:
    kind: str  # "kept" | "absorber" | "cover"
    seq: tuple
    sigma: int = 0
    local_index: int = -1  # absorber: path index inside the structure

    def cost(self, ell0: int) -> int:
        return ell0 + len(self.seq) + self.sigma


@dataclass(frozen=True)
class LayerPlan:
    """Everything the layer transform decided before splicing."""

    lengths: tuple
    groups: tuple  # per cycle: tuple of (kind, seq, sigma)
    lambdas: tuple  # per cycle: tuple of inner-vertex budgets
    endpoints: tuple  # per connector: ((s tuple), (t tuple))
    reservoir: tuple  # sorted reservoir vertices
    leftover: tuple  # sorted V1
    X: tuple  # sorted absorbed set
    capacity: int  # total sigma of placed absorber paths
    sizes: dict  # {"V1": ..., "V2": ..., "V3": ...}
    extended: bool

    def as_dict(self) -> dict:
        return {
            "lengths": list(self.lengths),
            "groups": [
                [{"kind": kind, "seq": list(seq), "sigma": sig} for kind, seq, sig in g]
                for g in self.groups
            ],
            "lambdas": [list(l) for l in self.lambdas],
            "endpoints": [[list(s), list(t)] for s, t in self.endpoints],
            "reservoir": list(self.reservoir),
            "leftover": list(self.leftover),
            "X": list(self.X),
            "capacity": self.capacity,
            "sizes": dict(self.sizes),
            "extended": self.extended,
        }


@dataclass(frozen=True)
class LayerResult:
    """A constructed factor plus the plan, usage, and attempt bookkeeping."""

    factor: CycleFactor
    plan: LayerPlan
    f_edges: tuple  # sorted F-edges used by the factor
    check: object  # FactorCheck
    attempts: int
    stage_log: tuple  # (attempt, stage, detail) for failed attempts
    timings: dict

    def __bool__(self):
        return bool(self.check)


def check_cover_length(H: Hypergraph, prof: Profile) -> None:
    """AssembleParamError unless the cover cycle length L lies in [k+1, n]."""
    if not H.k + 1 <= prof.L <= H.n:
        raise AssembleParamError(
            f"cover cycle length L = {prof.L} outside [k+1, n] = [{H.k + 1}, {H.n}]"
        )


def check_target(target, H: Hypergraph, prof: Profile) -> tuple:
    """The target's cycle lengths, or AssembleParamError when no layer could
    build them in H: no cycles, a sum other than n, a cover length L outside
    [k+1, n], a cycle below k+1 vertices, or a cycle shorter than the
    cheapest piece a layer can place.  Every target cycle holds at least one
    piece, a kept L-path or an L_prime-path of the in-layer cover or the
    absorbing structure, plus at least ell0 connector vertices after it, so
    the girth gate is min(L, L_prime) + ell0 (``_Piece.cost``)."""
    lengths = tuple(target.lengths()) if isinstance(target, CycleFactor) else tuple(target)
    if not lengths:
        raise AssembleParamError("target factor has no cycles")
    if sum(lengths) != H.n:
        raise AssembleParamError(
            f"target shape {list(lengths)} sums to {sum(lengths)}, host has {H.n} vertices"
        )
    check_cover_length(H, prof)
    gate = min(prof.L, prof.L_prime) + prof.ell0
    if min(lengths) < gate:
        raise AssembleParamError(
            f"target girth {min(lengths)} < min(L, L_prime) + ell0 = "
            f"min({prof.L}, {prof.L_prime}) + {prof.ell0} = {gate}"
        )
    if min(lengths) < H.k + 1:
        raise AssembleParamError("every target cycle needs at least k+1 vertices")
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
    a fresh rotation and runs the full pipeline (drop, reservoir, extensions,
    absorbing structure, cover, grouping, connection, absorption, splice);
    when all fail, LayerFailure carries the failed stage of each attempt.
    ``seed`` is an int or a ``random.Random`` whose stream the attempts use.
    """
    if F.k != H.k or F.n != H.n:
        raise AssembleParamError("reserve graph must span the same vertex set")
    for e in F.edges:
        if not H.has_edge(e):
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
            if not H.has_edge(e):
                raise AssembleParamError(f"cycle edge {e} is not an edge of the host")
            if F.has_edge(e):
                raise AssembleParamError(
                    f"cycle {C.seq} uses reserve edge {e}; cycles must avoid F"
                )
    need = math.ceil((1 - prof.mu) * H.n)
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
            check=check,
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

    # (1) keep each path with probability 1 - delta; leftover window gate
    t0 = clock()
    lo = math.floor(prof.delta * n / 2)
    hi = math.ceil(3 * prof.delta * n / 2)
    kept = None
    for _ in range(KEEP_DRAWS):
        cand = [s for s in seqs if rng.random() < 1 - prof.delta]
        leftover = set(range(n)) - set().union(*(set(s) for s in cand)) if cand else set(range(n))
        if lo <= len(leftover) <= hi:
            kept = cand
            V1 = leftover
            break
    if kept is None:
        raise _StageFail("keep", f"no draw left |V1| inside [{lo}, {hi}] in {KEEP_DRAWS} tries")
    timings["keep"] = clock() - t0

    # (2) reservoir inside V1
    t0 = clock()
    try:
        R = build_reservoir(
            F, prof.beta, prof.ell0, prof.ell1, seed=rng.randrange(2**63), inside=V1
        )
    except ReservoirError as exc:
        raise _StageFail("reservoir", str(exc))
    timings["reservoir"] = clock() - t0

    # (3) extensions by reserve edges, only with room for 2k fresh vertices per path
    t0 = clock()
    free = V1 - R
    extended = prof.extend and bool(kept) and len(free) >= 2 * k * len(kept)
    pieces_kept = []
    ext_used: set = set()
    if extended:
        for seq in kept:
            u = _extend_forward(F, seq[::-1], free - ext_used, rng)
            if u is None:
                raise _StageFail("extend", f"no reserve extension before path {seq[:k]}")
            v = _extend_forward(F, seq, free - ext_used - set(u), rng)
            if v is None:
                raise _StageFail("extend", f"no reserve extension after path {seq[-k:]}")
            ext_used |= set(u) | set(v)
            pieces_kept.append(_Piece("kept", u[::-1] + seq + v))
    else:
        pieces_kept = [_Piece("kept", seq) for seq in kept]
    timings["extend"] = clock() - t0

    # (4) absorbing structure in the reserve graph on V2
    t0 = clock()
    V2 = V1 - R - ext_used
    structure = None
    g_of = None  # local label -> global
    l_of = None  # global -> local
    pieces_S = []
    # a single-slot block cannot absorb its own 2k-2 middle vertices, so when
    # the bad-vertex cap is below that and a block is demanded, no build can
    # pass its post-checks; skip the attempt outright
    hopeless = (
        prof.a == 1
        and math.ceil(prof.theta**4 * len(V2)) < 2 * k - 2
        and math.floor(3 * prof.theta**4 * len(V2)) >= 1
    )
    if (
        not hopeless
        and prof.theta > 0
        and len(V2) >= max(prof.L_prime, k + 1)
        and prof.theta**2 * len(V2) >= 1
        and prof.a * (2 * k + prof.ell) <= prof.L_prime
    ):
        F1 = F.induced(V1)
        g_of = F1.parent_ids
        l_of = {g: i for i, g in enumerate(g_of)}
        try:
            structure = build_absorbing_structure(
                F1,
                [l_of[v] for v in V2],
                prof.L_prime,
                prof.a,
                prof.ell,
                prof.theta,
                seed=rng.randrange(2**63),
            )
        except AbsorbingFailure:
            # best effort: proceed without a structure; the budget identity
            # then forces X = empty for the attempt to close
            structure = None
        for idx, P in enumerate(structure.paths if structure else ()):
            pieces_S.append(
                _Piece(
                    "absorber",
                    tuple(g_of[v] for v in P.seq),
                    sigma=structure.sigma[idx],
                    local_index=idx,
                )
            )
    timings["absorbing"] = clock() - t0

    # (5) near-spanning cover of the reserve graph on V3
    t0 = clock()
    V3 = V2 - set().union(*(set(p.seq) for p in pieces_S)) if pieces_S else V2
    pieces_W = []
    if len(V3) >= max(prof.L_prime, k + 1):
        F3 = F.induced(V3)
        g3 = F3.parent_ids
        r_p = min(prof.r_prime, int(min(F3.degrees()) // k)) if F3.m else 0
        if r_p >= 1:
            try:
                # small family cap: a per-edge sample keeps the solve cheap
                weights = fractional_cycle_decomposition(
                    F3, prof.L_prime, seed=rng.randrange(2**63), enumerate_cap=800
                )
                coll = extract_cycle_collections(
                    F3, weights, r_p, seed=rng.randrange(2**63), mu=prof.mu
                )
            except DecompositionError:
                coll = None
            except CoverError as exc:
                raise _StageFail("cover", str(exc))
            if coll is not None and coll.ok:
                chosen = coll.collections[rng.randrange(len(coll.collections))]
                for C in chosen:
                    local = open_cycle(C, rng)
                    pieces_W.append(_Piece("cover", tuple(g3[v] for v in local)))
    timings["cover"] = clock() - t0

    # (6) group pieces into one bin per target cycle: absorbers first, then
    # kept paths, then cover paths, all in index order
    t0 = clock()
    groups = [[] for _ in lengths]
    pool_S = list(pieces_S)
    pool_O = list(pieces_kept) + list(pieces_W)
    for gi, L_i in enumerate(lengths):
        used = 0
        for pool in (pool_S, pool_O):
            taken = []
            for p in pool:
                if used + p.cost(prof.ell0) <= L_i:
                    groups[gi].append(p)
                    used += p.cost(prof.ell0)
                    taken.append(p)
            for p in taken:
                pool.remove(p)
    unplaced_kept = [p for p in pool_O if p.kind == "kept"]
    if unplaced_kept:
        raise _StageFail(
            "group", f"{len(unplaced_kept)} kept path(s) fit in no target cycle"
        )
    for gi, group in enumerate(groups):
        if not group:
            raise _StageFail("group", f"target cycle {gi} received no path")
        if len(group) == 1 and len(group[0].seq) < 2 * k:
            raise _StageFail(
                "group", f"cycle {gi}: a single path of {len(group[0].seq)} < 2k vertices"
            )
    timings["group"] = clock() - t0

    # (7) inner-vertex budgets per connector
    lambdas = []
    for group, L_i in zip(groups, lengths):
        z = len(group)
        need = L_i - sum(len(p.seq) + p.sigma for p in group)
        if need > z * prof.ell1:
            raise _StageFail(
                "budget", f"need {need} inner vertices over {z} connectors "
                f"exceeds z * ell1 = {z * prof.ell1}"
            )
        lam = [prof.ell0] * z
        extra = need - z * prof.ell0
        if extra < 0:
            raise _StageFail("budget", f"need {need} < z * ell0 = {z * prof.ell0}")
        j = 0
        while extra > 0:
            if lam[j] < prof.ell1:
                lam[j] += 1
                extra -= 1
            j = (j + 1) % z
        lambdas.append(tuple(lam))

    # (8) connect each group cyclically through the reservoir
    t0 = clock()
    Q = []
    budgets = []
    for group, lam in zip(groups, lambdas):
        z = len(group)
        for g in range(z):
            Q.append((group[g].seq[-k:], group[(g + 1) % z].seq[:k]))
            budgets.append(lam[g])
    try:
        inners = connect(F, R, Q, budgets, seed=rng.randrange(2**63))
    except (ConnectionFailure, AssembleParamError) as exc:
        raise _StageFail("connect", str(exc))
    timings["connect"] = clock() - t0

    # (9) the leftover set X, which no piece or connector covers, must match
    # the placed absorption capacity
    X = V1.difference(*(p.seq for group in groups for p in group), *inners)
    placed_sigma = sum(p.sigma for group in groups for p in group)
    if len(X) != placed_sigma:
        raise _StageFail(
            "budget",
            f"|X| = {len(X)} but the placed absorption capacity is {placed_sigma}",
        )

    # (10) absorb X, then splice each cycle: every piece (absorbed where it
    # took vertices of X) followed by its connector
    t0 = clock()
    placed_absorbers = [p for group in groups for p in group if p.kind == "absorber"]
    phi = {}
    if placed_absorbers or X:
        if structure is None:
            raise _StageFail("absorb", f"{len(X)} leftover vertices but no structure")
        keep_idx = sorted(p.local_index for p in placed_absorbers)
        remap = {old: new for new, old in enumerate(keep_idx)}
        restricted = structure.restricted_to(keep_idx)
        try:
            result = absorb(
                restricted,
                [l_of[x] for x in sorted(X)],
                seed=rng.randrange(2**63),
            )
        except AbsorbingError as exc:
            raise _StageFail("absorb", str(exc))
        for p in placed_absorbers:
            new_seq = result.phi[remap[p.local_index]].seq
            phi[p.seq] = tuple(g_of[v] for v in new_seq)
    inner_of = iter(inners)
    cycles = []
    for group in groups:
        seq = []
        for p in group:
            seq.extend(phi.get(p.seq, p.seq))
            seq.extend(next(inner_of))
        cycles.append(TightCycle(H, seq))
    factor = CycleFactor(cycles, target_n=n)
    timings["absorb"] = clock() - t0

    f_edges = sorted(
        {e for C in cycles for e in C.edges() if F.has_edge(e)}
    )
    path_edges = {
        tuple(sorted(s[i : i + k])) for s in seqs for i in range(len(s) - k + 1)
    }
    for C in cycles:
        for e in C.edges():
            if not F.has_edge(e) and e not in path_edges:
                raise _StageFail(
                    "verify", f"factor edge {e} is neither a path edge nor a reserve edge"
                )

    plan = LayerPlan(
        lengths=tuple(lengths),
        groups=tuple(
            tuple((p.kind, phi.get(p.seq, p.seq), p.sigma) for p in group)
            for group in groups
        ),
        lambdas=tuple(lambdas),
        endpoints=tuple(Q),
        reservoir=tuple(sorted(R)),
        leftover=tuple(sorted(V1)),
        X=tuple(sorted(X)),
        capacity=placed_sigma,
        sizes={"V1": len(V1), "V2": len(V2), "V3": len(V3)},
        extended=extended,
    )
    return factor, plan, tuple(f_edges), timings


def _extend_forward(F, seq, allowed, rng):
    """Choose k fresh vertices v so every window of seq[-(k-1):] + v mixing
    both parts is a reserve edge; returns None when some neighborhood is
    empty.  On the reversed path it extends the path's start."""
    k = F.k
    v = [None] * k
    chosen: set = set()
    for j in range(k):
        query = tuple(seq[len(seq) - (k - 1 - j) :]) + tuple(v[:j])
        cand = [w for w in F.extensions(query) if w in allowed and w not in chosen]
        if not cand:
            return None
        v[j] = cand[rng.randrange(len(cand))]
        chosen.add(v[j])
    return tuple(v)


# ---------------------------------------------------------------------------
# usage ledger and packing


class UsageLedger:
    """Per-(k-1)-set consumption of reserve edges across layers.

    The ledger counts, for every (k-1)-set x, how many consumed reserve edges
    contain x (the consumed codegree), plus the same count per layer.  The
    cap gates the start of each layer: ``pack_factors`` refuses another layer
    when any codegree already exceeds it.  The last layer's usage is
    reported (``snapshot``), not gated, so it may end above the cap.
    """

    def __init__(self, k: int, n: int, cap: int):
        if k < 2 or n < k or cap < 0:
            raise AssembleParamError(f"invalid ledger shape k={k}, n={n}, cap={cap}")
        self.k = k
        self.n = n
        self.cap = cap
        self.layers: list = []
        self.codegree: dict = {}

    def record_layer(self, f_edges: Iterable[Sequence[int]]) -> None:
        edges = frozenset(tuple(sorted(e)) for e in f_edges)
        per_layer: dict = {}
        for e in edges:
            if len(e) != self.k:
                raise AssembleParamError(f"edge {e} is not a {self.k}-set")
            for x in itertools.combinations(e, self.k - 1):
                self.codegree[x] = self.codegree.get(x, 0) + 1
                per_layer[x] = per_layer.get(x, 0) + 1
        self.layers.append((edges, per_layer))

    def y(self, i: int, x: Iterable[int]) -> int:
        """Consumed codegree of x within layer i alone."""
        return self.layers[i][1].get(tuple(sorted(x)), 0)

    def usage(self, x: Iterable[int]) -> int:
        return self.codegree.get(tuple(sorted(x)), 0)

    def violation(self):
        """The lexicographically first (k-1)-set over the cap, or None."""
        bad = [x for x, c in self.codegree.items() if c > self.cap]
        return min(bad) if bad else None

    def max_usage(self):
        if not self.codegree:
            return (0, None)
        x = max(sorted(self.codegree), key=lambda x: self.codegree[x])
        return (self.codegree[x], x)

    def snapshot(self) -> dict:
        top, arg = self.max_usage()
        return {
            "cap": self.cap,
            "layers": len(self.layers),
            "edges_per_layer": [len(layer[0]) for layer in self.layers],
            "max_usage": top,
            "argmax": list(arg) if arg else None,
        }

    def __eq__(self, other):
        if not isinstance(other, UsageLedger):
            return NotImplemented
        return (
            (self.k, self.n, self.cap) == (other.k, other.n, other.cap)
            and self.codegree == other.codegree
            and [layer[0] for layer in self.layers]
            == [layer[0] for layer in other.layers]
        )

    @classmethod
    def recomputed(cls, k, n, cap, F: Hypergraph, factors) -> "UsageLedger":
        """Rebuild the ledger from scratch out of the emitted factors."""
        fresh = cls(k, n, cap)
        for factor in factors:
            consumed = {
                e for C in factor.cycles for e in C.edges() if F.has_edge(e)
            }
            fresh.record_layer(consumed)
        return fresh


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
    ledger: UsageLedger
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
            "ledger": self.ledger.snapshot(),
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

    F is the graph that reservoirs, connectors, extensions and absorbers
    draw from; it must avoid every collection's edges.  ``decompose`` passes
    H minus the edges of all extracted cycles, that is the sparsified
    reserve plus the idle edges.  Target i is built by one
    ``layer_transform`` call from the i-th cycle collection and F minus
    everything consumed by earlier layers; all layers draw from one master
    stream seeded by ``seed``.  The ledger gate runs at the start of each
    layer and aborts with PackBudgetError when some (k-1)-set's consumed
    codegree in F already exceeds ceil(cap_fraction * n); the last layer's
    usage is reported in the ledger, not gated.  A layer that fails all its
    attempts ends the loop early with a partial result that keeps the
    failure's stage log.
    """
    shapes = [check_target(target, H, prof) for target in targets]
    if len(targets) > len(collections):
        raise AssembleParamError(
            f"{len(targets)} targets but only {len(collections)} cycle collections"
        )
    cap = math.ceil(prof.cap_fraction * H.n)
    ledger = UsageLedger(H.k, H.n, cap)
    master = random.Random(seed)
    factors = []
    layer_results = []
    failed_log = ()
    for i, lengths in enumerate(shapes):
        culprit = ledger.violation()
        if culprit is not None:
            raise PackBudgetError(
                f"usage cap {cap} exceeded at {culprit} before layer {i}",
                culprit=culprit,
                snapshot=ledger.snapshot(),
                factors=factors,
            )
        consumed = [e for layer in ledger.layers for e in layer[0]]
        F_i = F.remove_edges(consumed) if consumed else F
        try:
            res = layer_transform(
                H, F_i, collections[i], lengths, prof=prof, seed=master
            )
        except LayerFailure as exc:
            failed_log = exc.stage_log
            break
        factors.append(res.factor)
        layer_results.append(res)
        ledger.record_layer(res.f_edges)
    report = validate_packing(H, factors)
    recheck = UsageLedger.recomputed(H.k, H.n, cap, F, factors)
    if recheck != ledger:
        raise AssembleError("ledger recomputation does not match incremental state")
    return PackResult(
        factors=tuple(factors),
        ok=len(factors) == len(targets) and bool(report.ok),
        achieved=len(factors),
        requested=len(targets),
        ledger=ledger,
        layer_results=tuple(layer_results),
        failed_log=failed_log,
        packing_report=report,
        profile=prof,
        seed=seed,
    )
