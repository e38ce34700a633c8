"""Fractional cycle decompositions and edge-disjoint near-spanning cycle collections.

The pipeline has three steps.  First, ``fractional_cycle_decomposition``
assigns a positive weight to a family of tight cycles on L vertices so that
the weights of the cycles through each edge sum to exactly 1 (the
maximum-entropy weights of ``fractional.scale_to_ones`` over an enumerated
or sampled cycle family); the result is a plain dict {TightCycle: weight},
checked by ``check_edge_sums``.  The family's edge-by-cycle incidence is a
``fractional.Incidence``, so the weighting runs on numpy alone and never
loads scipy.  The enumeration grows tight (L-1)-vertex
paths and closes each one by intersection: the closing vertex must extend
all k cyclic windows that contain it, so it is drawn from
``tightpaths.closing_mask`` of the path against its own start.
Second, ``extract_cycle_collections`` rounds the fractional solution into r
edge-disjoint collections of vertex-disjoint L-cycles by a weight-driven
randomized greedy, with coverage gates checked per collection; it redraws up
to ``retries`` times from the same solution.  The
``decompose`` pipeline hands these cycle collections straight to
``assemble.pack_factors``, whose layer transform opens each cycle afresh on
every attempt with ``open_cycle`` (deleting k-1 consecutive edges at a
uniformly random rotation).  The ``cover`` command writes the cycle
collections themselves.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .fractional import Incidence, ScalingError, linprog, polish, scale_to_ones
from .hypergraph import Hypergraph
from .tightpaths import TightCycle, closing_mask, tight_extensions

__all__ = [
    "CoverError",
    "DecompositionError",
    "ExtractionResult",
    "check_collections",
    "check_edge_sums",
    "cycles_through_edge",
    "fractional_cycle_decomposition",
    "extract_cycle_collections",
    "validate_collections",
    "open_cycle",
    "linprog",  # fractional's; no code here calls it, bench/run.py and bench/tracer.py patch it
]


class CoverError(ValueError):
    """Raised for invalid cover-stage inputs or violated invariants."""


class DecompositionError(CoverError):
    """Raised when no fractional cycle decomposition exists over the family."""


# ---------------------------------------------------------------------------
# cycle enumeration


def _enumerate_all(H: Hypergraph, L: int, cap: Optional[int]):
    """All tight cycles on exactly L vertices, or None when cap is exceeded.

    Anchored search: the first vertex of the sequence is the cycle's minimum
    and the reflection duplicate is skipped by requiring the second vertex
    to be smaller than the last.  ``tight_extensions`` grows the tight
    (L-1)-vertex paths; the closing vertex lies in exactly the k cyclic
    windows that the path does not check, so its candidates are
    ``closing_mask(H, seq, seq)`` cut to the bits above seq[1], ascending,
    skipping vertices on the path.
    """
    out = []
    for v0 in range(H.n):
        for seq in tight_extensions(H, (v0,), L - 1, range(v0 + 1, H.n)):
            closers = closing_mask(H, seq, seq) & (-1 << (seq[1] + 1))
            while closers:
                low = closers & -closers
                closers ^= low
                u = low.bit_length() - 1
                if u not in seq:
                    out.append(TightCycle(H, seq + (u,)))
                    if cap is not None and len(out) > cap:
                        return None
    return out


def cycles_through_edge(
    H: Hypergraph,
    L: int,
    edge: Iterable[int],
    limit: Optional[int] = None,
    seed: Optional[int] = None,
):
    """Distinct tight L-vertex cycles containing ``edge``, up to ``limit``.

    The search is exhaustive when fewer than ``limit`` cycles exist (an empty
    result is therefore a proof that no L-cycle passes through the edge).
    With a seed, branch orders are shuffled so that truncated searches draw
    a scattered sample instead of a lexicographic prefix.
    """
    _check_cycle_length(H, L)
    edge = tuple(sorted(edge))
    if not H.has_edge(edge):
        raise CoverError(f"{edge!r} is not an edge of the host")
    k = H.k
    rng = random.Random(seed) if seed is not None else None
    found = {}

    def order(items):
        items = list(items)
        if rng is not None:
            rng.shuffle(items)
        return items

    def rec(seq):
        if limit is not None and len(found) >= limit:
            return
        cands = order(H.extensions(seq[1 - k :]))
        closers = closing_mask(H, seq, seq) if len(seq) == L - 1 else 0
        for v in cands:
            if v in seq:
                continue
            if len(seq) < L - 1:
                rec(seq + (v,))
            elif limit is not None and len(found) >= limit:
                return
            elif closers >> v & 1:
                C = TightCycle(H, seq + (v,))
                found.setdefault(C.canonical(), C)

    for start in order(list(itertools.permutations(edge))):
        if limit is not None and len(found) >= limit:
            break
        rec(start)
    return sorted(found.values(), key=lambda C: C.canonical())


def _check_cycle_length(H: Hypergraph, L: int) -> None:
    if L < H.k + 1:
        raise CoverError(f"cycle length {L} below the minimum {H.k + 1}")
    if L > H.n:
        raise CoverError(f"cycle length {L} exceeds the host order {H.n}")


# ---------------------------------------------------------------------------
# fractional decomposition


EDGE_SUM_TOL = 1e-9  # how far a cycle weighting's per-edge sum may stray from 1
ENUMERATE_CAP = 20000  # largest cycle family enumerated in full, not sampled


def check_edge_sums(H: Hypergraph, weights: Mapping) -> None:
    """CoverError unless every weight is positive and, for every edge of H,
    the weights of the cycles through it sum to 1 within ``EDGE_SUM_TOL``."""
    edge_weights = {e: [] for e in H.edges}
    for C, w in weights.items():
        if not w > 0:
            raise CoverError(f"weight for {C!r} must be positive")
        for e in C.edges():
            edge_weights[e].append(w)
    for e, ws in edge_weights.items():
        total = float(sum(ws))
        if abs(total - 1.0) > EDGE_SUM_TOL:
            raise CoverError(
                f"edge {e!r} has weight sum {total!r}, not 1 within {EDGE_SUM_TOL}"
            )


def fractional_cycle_decomposition(
    H: Hypergraph,
    L: int,
    family: Optional[Iterable[TightCycle]] = None,
    per_edge: int = 12,
    seed: int = 0,
) -> dict:
    """Solve for positive per-edge-sum-1 cycle weights over a cycle family.

    The family is the full set of L-vertex cycles when it fits under
    ``ENUMERATE_CAP``; otherwise a seeded sample of up to ``per_edge`` cycles
    through each edge.  An edge through which no L-cycle passes at all makes
    the problem infeasible.  The weights are the maximum-entropy solution
    (``fractional.scale_to_ones``), polished onto the per-edge sums; the
    extraction uses them only as draw probabilities.  When some positive
    solution exists, every family cycle gets a positive weight; when only
    solutions with zero weights exist, the cycles that must weigh 0 shrink
    below the tolerance and are left out.  DecompositionError, naming the
    residual and the Newton steps, when no solution is found.  Returns
    {TightCycle: weight} in canonical cycle order, after ``check_edge_sums``.
    """
    _check_cycle_length(H, L)
    if H.m == 0:
        raise CoverError("host has no edges")
    if family is None:
        cycles = _enumerate_all(H, L, ENUMERATE_CAP)
        if cycles is None:
            rng = random.Random(seed)
            pool = {}
            for e in H.edges:
                got = cycles_through_edge(
                    H, L, e, limit=per_edge, seed=rng.randrange(2**63)
                )
                if not got:
                    raise DecompositionError(
                        f"no cycle on {L} vertices passes through edge {e!r}"
                    )
                for C in got:
                    pool.setdefault(C.canonical(), C)
            cycles = list(pool.values())
    else:
        cycles = []
        seen = set()
        for C in family:
            if not isinstance(C, TightCycle):
                C = TightCycle(H, C)
            if C.host != H or len(C) != L:
                raise CoverError("family cycle host or length mismatch")
            if C.canonical() not in seen:
                seen.add(C.canonical())
                cycles.append(C)
    cycles.sort(key=lambda C: C.canonical())

    edge_index = {e: i for i, e in enumerate(H.edges)}
    uncovered = set(edge_index)
    rows, cols = [], []
    for j, C in enumerate(cycles):
        for e in C.edges():
            rows.append(edge_index[e])
            cols.append(j)
            uncovered.discard(e)
    if uncovered:
        e = min(uncovered)
        raise DecompositionError(
            f"no cycle on {L} vertices passes through edge {e!r}"
        )

    A = Incidence(rows, cols, (H.m, len(cycles)))
    try:
        w = scale_to_ones(A)
    except ScalingError as exc:
        raise DecompositionError(
            "no per-edge-sum-1 weighting over the cycle family "
            f"({len(cycles)} cycles): {exc}; enlarge the family or change L"
        ) from exc
    weights = {C: float(x) for C, x in zip(cycles, polish(A, w)) if x > 0}
    check_edge_sums(H, weights)
    return weights


# ---------------------------------------------------------------------------
# collection extraction


def validate_collections(H: Hypergraph, collections) -> None:
    """Independent structural check: vertex-disjoint within each collection,
    edge-disjoint across all of them."""
    seen_edges = set()
    for i, coll in enumerate(collections):
        used = set()
        for C in coll:
            if not isinstance(C, TightCycle) or C.host != H:
                raise CoverError(f"collection {i} holds a foreign object")
            if used & C.vertex_set:
                raise CoverError(f"collection {i} has vertex-sharing cycles")
            used |= C.vertex_set
            for e in C.edges():
                if e in seen_edges:
                    raise CoverError(f"edge {e!r} appears in two collections")
                seen_edges.add(e)


def _covered(coll) -> set:
    """The vertices a collection of cycles covers."""
    return set().union(*(C.vertex_set for C in coll))


@dataclass(frozen=True)
class ExtractionResult:
    """Cycle collections plus gate diagnostics; ``ok`` when all gates pass.

    ``returned`` indexes the draw in ``diagnostics`` whose collections these
    are: the passing draw, else the first draw with the fewest gate
    failures (None when r = 0 and nothing was drawn).
    """

    collections: list
    ok: bool
    attempts: int
    diagnostics: list
    gamma: float
    returned: Optional[int]

    def coverages(self):
        return [len(_covered(coll)) for coll in self.collections]


def check_collections(H: Hypergraph, r: int) -> None:
    """CoverError unless 0 <= r <= min degree / k, the most edge-disjoint
    collections of near-spanning cycles that H can hold."""
    if r < 0:
        raise CoverError("r must be nonnegative")
    if r > 0 and r > min(H.degrees()) / H.k:
        raise CoverError(
            f"r={r} exceeds the matching bound min degree / k = "
            f"{min(H.degrees()) / H.k:.3f}"
        )


def extract_cycle_collections(
    H: Hypergraph,
    weights: Mapping,
    r: int,
    seed: int = 0,
    mu: float = 0.2,
    retries: int = 10,
) -> ExtractionResult:
    """Round a fractional decomposition into r edge-disjoint collections.

    ``weights`` is a decomposition {TightCycle: weight} of H, as
    ``fractional_cycle_decomposition`` returns it.  Collections are built one
    at a time by a randomized greedy: candidates are its cycles, drawn with
    probability proportional to their normalized weight omega(C)/Gamma among
    those still vertex-disjoint within the current collection and
    edge-disjoint from everything already chosen.  The candidates form a
    live pool in the order of ``weights``: a collection
    starts from the cycles that share no edge with an earlier pick, and each
    pick drops the cycles that meet it in a vertex (which covers every cycle
    sharing one of its edges).  So no pick rescans the family.  An attempt is
    accepted when every collection covers at least ceil((1-mu) n) vertices;
    otherwise the extraction reseeds, up to ``retries`` attempts, and finally
    returns the best attempt (the first with the fewest gate failures, named
    by ``returned``) with diagnostics (``ok`` False) rather than discarding
    the work.
    """
    check_collections(H, r)
    coverage_min = math.ceil((1 - mu) * H.n)

    rho = H.rho_star()
    gamma = float((1 + rho) * r) if r else 1.0
    if r == 0:
        return ExtractionResult([], True, 0, [], gamma, None)

    family = list(weights)
    fam_weights = [float(w) / gamma for w in weights.values()]
    masks = [sum(1 << v for v in C.seq) for C in family]
    by_edge: dict = {}
    for i, C in enumerate(family):
        for e in C.edges():
            by_edge.setdefault(e, []).append(i)
    master = random.Random(seed)
    best = None
    diagnostics = []
    for attempt in range(max(1, retries)):
        rng = random.Random(master.randrange(2**63))
        dead = [False] * len(family)
        collections = []
        for _ in range(r):
            coll: list = []
            used = 0
            pool = [i for i, gone in enumerate(dead) if not gone]
            while pool:
                i = rng.choices(pool, weights=[fam_weights[j] for j in pool])[0]
                C = family[i]
                coll.append(C)
                used |= masks[i]
                for e in C.edges():
                    for j in by_edge[e]:
                        dead[j] = True
                pool = [j for j in pool if not masks[j] & used]
            collections.append(tuple(coll))
        validate_collections(H, collections)
        coverages = [len(_covered(coll)) for coll in collections]
        failures = []
        for i, c in enumerate(coverages):
            if c < coverage_min:
                failures.append(f"collection {i} coverage {c} < {coverage_min}")
        diagnostics.append(
            {"attempt": attempt, "coverages": coverages, "failures": failures}
        )
        if not failures:
            return ExtractionResult(
                collections, True, attempt + 1, diagnostics, gamma, attempt
            )
        if best is None or len(failures) < len(best[1]):
            best = (collections, failures, attempt)
    return ExtractionResult(
        best[0], False, max(1, retries), diagnostics, gamma, best[2]
    )


# ---------------------------------------------------------------------------
# opening cycles


def open_cycle(C: TightCycle, rng: random.Random) -> tuple:
    """C's canonical sequence rotated to start at a uniformly random position
    (one ``rng.randrange`` call); as a path it lacks the k-1 closing edges."""
    base = C.canonical()
    s = rng.randrange(len(base))
    return base[s:] + base[:s]
