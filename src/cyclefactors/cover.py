"""Fractional cycle decompositions and edge-disjoint near-spanning cycle collections.

The pipeline has three steps.  First, ``fractional_cycle_decomposition``
assigns a positive weight to a family of tight cycles on L vertices so that
the weights of the cycles through each edge sum to exactly 1 (the
maximum-entropy weights of ``fractional.scale_to_ones`` over an enumerated
or sampled cycle family).  The family is one N x L int32 array of vertex
rows from enumeration or sampling to extraction, of which no call keeps a
second copy; the lookups and checks over it run ``ENUMERATE_BLOCK`` rows
at a time.  The result is a pair (cycles, weights), that array of
canonical vertex sequences in canonical order and their N positive
weights, checked by ``check_edge_sums``.  Every cycle's edges are
one lookup of its cyclic windows in the host's edge table
(``Hypergraph.window_ids``), the one tightness check of the family.  That
lookup gives one N x L int32 id matrix, which is sorted along its rows
once and then read by everything after it: the weighting wraps it as the
edge-by-cycle ``fractional.Incidence`` (so the weighting runs on numpy
alone and never loads scipy), and the pair (a ``Decomposition``) carries
its kept rows to ``check_edge_sums`` and the extraction.  The table is
built once per host and kept on it; ``assemble.connectors`` searches the
same table of its graph F.  The enumeration grows tight (L-1)-vertex paths
with ``tightpaths.grow_paths``, in blocks of rows of the host's
``extension_rows``, and closes each path with ``tightpaths.closing_rows``:
the closing vertex must extend all k cyclic windows that contain it.  Past
``ENUMERATE_CAP`` random walks from every edge grow and close on the same
rows, all at once.
Second, ``extract_cycle_collections`` rounds the fractional solution into r
edge-disjoint collections of vertex-disjoint L-cycles by a weight-driven
randomized greedy, with coverage gates checked per collection
(``check_granularity`` refuses a gate that no multiple of L meets); it
redraws up to ``retries`` times from the same solution.  When every draw
misses, the best one is repaired rather than given up: a collection below
the gate swaps one pick for two vertex-disjoint family cycles that lie in
the uncovered vertices and the pick's and share no edge with another
collection, the lowest family indices first, as long as it stays below.
The gate is the same for a repaired draw.  Only the cycles of the returned
draw become ``TightCycle`` objects.  The ``decompose`` pipeline hands these
cycle collections straight to ``assemble.pack_factors``, whose layer
transform opens each cycle afresh on every attempt with ``open_cycle``
(deleting k-1 consecutive edges at a uniformly random rotation).  The
``cover`` command writes the cycle collections themselves.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .fractional import Incidence, ScalingError, linprog, polish, scale_to_ones
from .hypergraph import Hypergraph
from .tightpaths import ENUMERATE_BLOCK, TightCycle, closing_rows, grow_paths

__all__ = [
    "CoverError",
    "Decomposition",
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

    Returns an N x L int32 array of canonical sequences in canonical order,
    each block's closed cycles written straight into int32 rows.
    Anchored search: a sequence starts at the cycle's minimum v0, and the
    reflection duplicate is skipped by requiring seq[1] < seq[-1].
    ``tightpaths.grow_paths`` grows the paths on L-1 vertices from every
    anchor, over the vertices above it.  The closing vertex of such a path
    lies in exactly the k cyclic windows that the path does not check, so
    its candidates are the ``tightpaths.closing_rows`` of the path against
    its own start, cut to the vertices above seq[1].  The growth hands
    over its paths in blocks, in lexicographic order, which for canonical
    sequences is canonical order; the count stops at the first block past
    the cap.
    """
    vertices = np.arange(H.n)
    found, count = [], 0
    for paths, free in grow_paths(H, vertices[:, None], vertices > vertices[:, None], L - 1):
        free &= vertices > paths[:, 1:2]
        free &= closing_rows(H, paths, paths)
        rows, last = np.nonzero(free)
        count += len(rows)
        if cap is not None and count > cap:
            return None
        block = np.empty((len(rows), L), dtype=np.int32)
        block[:, :-1], block[:, -1] = paths[rows], last
        found.append(block)
    return np.concatenate(found) if found else np.empty((0, L), dtype=np.int32)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D int array in ascending lexicographic
    order, as ``np.unique(rows, axis=0)`` gives them (which imports
    ``numpy.ma`` on its first call): sorted, then each row that equals the
    one before it dropped."""
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[fresh]


def _edge_ids(H: Hypergraph, cycles: np.ndarray) -> np.ndarray:
    """The edge id of every cyclic k-window of every cycle: an int32 array
    shaped as cycles, whose entry j is the window that starts at column j.

    The cycles are read ``ENUMERATE_BLOCK`` rows at a time, so that the
    result is the only N-row array built.  Each block is closed into one
    int32 array of L + k - 1 columns (each row followed by its first k-1
    vertices), clipped in place, and ``Hypergraph.window_ids`` sums each
    window's table key from k column slices of it.  CoverError names the
    first row that is no tight cycle of H: fewer than k + 1 vertices, a
    vertex outside the host, a repeated vertex or a window that is no edge
    (the checks of the ``TightCycle`` constructor).
    """
    n, k = H.n, H.k
    L = cycles.shape[1]
    if L <= k and len(cycles):
        raise CoverError(f"{tuple(cycles[0].tolist())!r} is not a tight cycle in the host")
    ids = np.empty(cycles.shape, dtype=np.int32)
    for lo in range(0, len(cycles), ENUMERATE_BLOCK):
        part, out = cycles[lo : lo + ENUMERATE_BLOCK], ids[lo : lo + ENUMERATE_BLOCK]
        closed = np.empty((len(part), L + k - 1), dtype=np.int32)
        # clipped so that a vertex outside the host reads inside the table
        np.clip(part, 0, n - 1, out=closed[:, :L])
        closed[:, L:] = closed[:, : k - 1]
        out[:] = H.window_ids(closed)
        # a clipped row repeats a vertex only when it is outside already
        ordered = closed[:, :L]
        ordered.sort(axis=1)
        bad = (
            ((part < 0) | (part >= n)).any(axis=1)
            | (out < 0).any(axis=1)
            | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        )
        if bad.any():
            row = tuple(part[np.argmax(bad)].tolist())
            raise CoverError(f"{row!r} is not a tight cycle in the host")
    return ids


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of an N x L int array of cycles in its ``canonical_cycle``
    form: rotated to its minimum, then read towards its smaller neighbour."""
    L = rows.shape[1]
    first = rows.argmin(axis=1)[:, None]
    ahead, back = (np.take_along_axis(rows, (first + s) % L, axis=1) for s in (1, -1))
    step = np.where(ahead < back, 1, -1)
    return np.take_along_axis(rows, (first + step * np.arange(L)) % L, axis=1)


def cycles_through_edge(H: Hypergraph, L: int, edge: Iterable[int]) -> np.ndarray:
    """Every tight L-vertex cycle through ``edge``, as canonical rows in
    canonical order, so an empty result proves that none exists: the k!
    orderings of the edge grow to L-1 vertices (``grow_paths``) and close
    by ``closing_rows`` against their own start, as in ``_enumerate_all``.
    Each cycle is found once from either direction."""
    _check_cycle_length(H, L)
    edge = tuple(sorted(edge))
    if not H.has_edge(edge):
        raise CoverError(f"{edge!r} is not an edge of the host")
    starts = np.array(list(itertools.permutations(edge)), dtype=np.intp)
    found = [np.empty((0, L), dtype=np.intp)]
    for paths, free in grow_paths(H, starts, np.ones((len(starts), H.n), dtype=bool), L - 1):
        rows, last = np.nonzero(free & closing_rows(H, paths, paths))
        found.append(np.column_stack((paths[rows], last)))
    return _unique_rows(_canonical_rows(np.concatenate(found)))


def _pick(rng: random.Random, cand: np.ndarray) -> np.ndarray:
    """A uniformly random True column of each row of a boolean array (-1
    for a row with none), one ``rng.random()`` per row, in row order."""
    u = itertools.starmap(rng.random, itertools.repeat((), len(cand)))
    # u < 1, so u * count < count in floating point too
    rank = (np.fromiter(u, float, len(cand)) * cand.sum(axis=1)).astype(np.intp)
    cum = cand.cumsum(axis=1, dtype=np.min_scalar_type(cand.shape[1]))
    return np.where(cand.any(axis=1), (cum <= rank[:, None]).sum(axis=1), -1)


def _sample_family(H: Hypergraph, L: int, seed: int) -> np.ndarray:
    """A seeded sample of H's tight L-cycles, as canonical rows in canonical
    order.  ``PER_EDGE`` walks start from each edge, at a random ordering of
    it, and grow together in blocks of ``ENUMERATE_BLOCK``: each step gives
    every walk a random vertex off it (``_pick``) from its ``extension_rows``
    row, or at L-1 vertices its ``closing_rows``; a walk with none drops
    out.  An edge none of whose walks closed falls back to
    ``cycles_through_edge``, so a missed edge lies on no L-cycle.  The
    walks are int32 rows, put in canonical form a block at a time in
    place, and the sample is an N x L int32 array."""
    k, rng = H.k, random.Random(seed)
    orders = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    origin = np.repeat(np.arange(H.m), PER_EDGE)
    turns = orders[_pick(rng, np.ones((len(origin), len(orders)), dtype=bool))]
    paths = np.take_along_axis(np.array(H.edges, dtype=np.int32)[origin], turns, axis=1)
    del turns
    for d in range(k, L):
        picks = [np.empty(0, dtype=np.intp)]
        for lo in range(0, len(paths), ENUMERATE_BLOCK):
            part = paths[lo : lo + ENUMERATE_BLOCK]
            cand = H.extension_rows(part[:, 1 - k :]) if d < L - 1 else closing_rows(H, part, part)
            cand[np.arange(len(part))[:, None], part] = False
            picks.append(_pick(rng, cand))
        picks = np.concatenate(picks)
        live = picks >= 0
        paths = np.column_stack((paths[live], picks[live].astype(np.int32)))
        origin = origin[live]
    del picks, live  # per-walk arrays, like turns: freed before the sort
    for lo in range(0, len(paths), ENUMERATE_BLOCK):
        paths[lo : lo + ENUMERATE_BLOCK] = _canonical_rows(paths[lo : lo + ENUMERATE_BLOCK])
    missed = np.flatnonzero(np.bincount(origin, minlength=H.m) == 0)
    if len(missed):
        fallbacks = [cycles_through_edge(H, L, H.edges[e]) for e in missed]
        paths = np.concatenate([paths] + fallbacks, dtype=np.int32)
    return _unique_rows(paths)


def _check_cycle_length(H: Hypergraph, L: int) -> None:
    if L < H.k + 1:
        raise CoverError(f"cycle length {L} below the minimum {H.k + 1}")
    if L > H.n:
        raise CoverError(f"cycle length {L} exceeds the host order {H.n}")


# ---------------------------------------------------------------------------
# fractional decomposition


EDGE_SUM_TOL = 1e-9  # how far a cycle weighting's per-edge sum may stray from 1
ENUMERATE_CAP = 20000  # largest cycle family enumerated in full, not sampled
PER_EDGE = 20  # random walks started from each edge past ENUMERATE_CAP


class Decomposition(tuple):
    """The pair (cycles, weights) that ``fractional_cycle_decomposition``
    returns, an N x L int32 array of vertex rows and their N weights, with
    the host and ``ids``, the N x L int32 edge ids of its cycles' windows
    in that host (the rows of ``_edge_ids``, each sorted), so that
    ``check_edge_sums`` and the extraction need not look them up again.
    A cycle holds each edge at most once, so every reader of the ids sees
    the same cycles through each edge, in the same order, in either form."""

    host: Hypergraph
    ids: np.ndarray


def _pair_ids(H: Hypergraph, pair) -> np.ndarray:
    """The edge ids of the pair's cycle windows in H, each row sorted: a
    ``Decomposition``'s own when it decomposes H, else looked up (and each
    row checked) by ``_edge_ids``."""
    if isinstance(pair, Decomposition) and pair.host == H:
        return pair.ids
    ids = _edge_ids(H, pair[0])
    ids.sort(axis=1)
    return ids


def check_edge_sums(H: Hypergraph, pair) -> None:
    """CoverError unless every weight is positive and, for every edge of H,
    the weights of the cycles through it, added in the order of the cycles,
    sum to 1 within ``EDGE_SUM_TOL``.

    ``pair`` is (cycles, weights): an N x L int array of vertex sequences
    (int32, for a ``Decomposition``) and their N weights.  A
    ``Decomposition`` of H brings its cycles' edge ids; a plain pair's rows
    are looked up, each checked, and sorted along its rows, here.  The sums
    are ``fractional.Incidence.dot`` over the ids, which reads at most
    ``fractional.BLOCK`` ones per numpy call and adds each edge's terms in
    the order of the cycles."""
    cycles, weights = pair
    weights = np.asarray(weights, dtype=float)
    nonpositive = np.flatnonzero(~(weights > 0))
    if len(nonpositive):
        row = tuple(cycles[nonpositive[0]].tolist())
        raise CoverError(f"weight for cycle {row!r} must be positive")
    sums = Incidence(_pair_ids(H, pair), H.m).dot(weights)
    off = np.flatnonzero(np.abs(sums - 1.0) > EDGE_SUM_TOL)
    if len(off):
        raise CoverError(
            f"edge {H.edges[off[0]]!r} has weight sum {float(sums[off[0]])!r}, "
            f"not 1 within {EDGE_SUM_TOL}"
        )


def fractional_cycle_decomposition(
    H: Hypergraph,
    L: int,
    family: Optional[Iterable] = None,
    seed: int = 0,
) -> tuple:
    """Solve for positive per-edge-sum-1 cycle weights over a cycle family.

    The family is the full set of L-vertex cycles when it fits under
    ``ENUMERATE_CAP``; otherwise ``_sample_family``'s seeded sample, or the
    given ``family`` (cycles of H on L vertices) in canonical form,
    deduplicated.  An edge through which no L-cycle passes at all makes
    the problem infeasible.  The weights are the maximum-entropy solution
    (``fractional.scale_to_ones``), polished onto the per-edge sums; the
    extraction uses them only as draw probabilities.  When some positive
    solution exists, every family cycle gets a positive weight; otherwise
    the cycles whose weights shrink below ``fractional.SCALE_TOL`` are left
    out: every cycle that must weigh 0, and maybe others that some solution
    weighs positively.  DecompositionError, naming the residual and the
    Newton steps, when no solution is found.  Returns the pair (cycles,
    weights) as a ``Decomposition``, after ``check_edge_sums``: an N x L
    int32 array of canonical sequences in canonical order and their N
    positive weights.  The family's edge ids are looked up once, here, and
    sorted along their rows in place: that one N x L int32 array is the
    weighting's ``fractional.Incidence`` and the pair's ``ids``.  When
    every cycle keeps a positive weight, the pair wraps the family, its
    weights and its ids as they are; otherwise it keeps one copy of each,
    cut to the kept cycles.
    """
    _check_cycle_length(H, L)
    if H.m == 0:
        raise CoverError("host has no edges")
    if family is None:
        cycles = _enumerate_all(H, L, ENUMERATE_CAP)
        cycles = _sample_family(H, L, seed) if cycles is None else cycles
    else:
        seqs = []
        for C in family:
            seq = tuple(C.seq if isinstance(C, TightCycle) else C)
            if len(seq) != L or isinstance(C, TightCycle) and C.host != H:
                raise CoverError("family cycle host or length mismatch")
            seqs.append(seq)
        cycles = _unique_rows(_canonical_rows(np.array(seqs, dtype=np.intp).reshape(-1, L)))

    ids = _edge_ids(H, cycles)
    cycles = cycles.astype(np.int32, copy=False)  # each vertex is in the host now
    covered = np.zeros(H.m, dtype=bool)
    covered[ids] = True
    uncovered = np.flatnonzero(~covered)
    if len(uncovered):
        raise DecompositionError(
            f"no cycle on {L} vertices passes through edge {H.edges[uncovered[0]]!r}"
        )

    ids.sort(axis=1)  # in place: the incidence wraps it, the pair keeps it
    A = Incidence(ids, H.m)
    try:
        w = scale_to_ones(A)
    except ScalingError as exc:
        raise DecompositionError(
            "no per-edge-sum-1 weighting over the cycle family "
            f"({len(cycles)} cycles): {exc}; enlarge the family or change L"
        ) from exc
    w = polish(A, w)
    kept = w > 0
    if not kept.all():
        cycles, w, ids = cycles[kept], w[kept], ids[kept]
    pair = Decomposition((cycles, w))
    pair.host, pair.ids = H, ids
    check_edge_sums(H, pair)
    return pair


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


@dataclass(frozen=True)
class ExtractionResult:
    """Cycle collections plus gate diagnostics; ``ok`` when all gates pass.

    ``returned`` indexes the draw in ``diagnostics`` whose collections these
    are: the passing draw, else the first draw with the fewest gate
    failures, after its repair when the repair passed (its entry's
    "repair" says; None when r = 0 and nothing was drawn).
    """

    collections: list
    ok: bool
    attempts: int
    diagnostics: list
    gamma: float
    returned: Optional[int]

    def coverages(self):
        # validate_collections has checked each collection vertex-disjoint
        return [sum(map(len, coll)) for coll in self.collections]


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


def coverage_gate(n: int, mu: float) -> int:
    """The vertices a collection must cover to pass: ceil((1 - mu) n)."""
    return math.ceil((1 - mu) * n)


def check_granularity(H: Hypergraph, L: int, mu: float, r: int) -> None:
    """CoverError when r > 0 and no multiple jL (j >= 1) of the cycle
    length lies in [gate, n]: a collection of vertex-disjoint L-cycles
    covers jL vertices, so no draw and no repair could pass the gate."""
    gate, below = coverage_gate(H.n, mu), H.n // L * L
    if r > 0 and below < max(gate, L):
        raise CoverError(
            f"no multiple of L = {L} lies in [gate, n] = [{gate}, {H.n}]: a "
            f"collection of {L}-cycles covers {below} or {below + L} vertices"
        )


def _rows_through(ids: np.ndarray, size: int) -> tuple:
    """(rows, starts): for each value e below ``size``, the ascending
    indices of the rows of ``ids`` that hold it are
    rows[starts[e] : starts[e + 1]]."""
    keys = ids.astype(np.min_scalar_type(size)).ravel()
    # a stable sort of unsigned ints of 16 bits or fewer is a radix sort
    order = np.argsort(keys, kind="stable")
    # each value's first place among the sorted keys, searched in their own
    # dtype: an intp search would copy them, as bincount would copy ids
    starts = np.append(keys[order].searchsorted(np.arange(size, dtype=keys.dtype)), len(keys))
    order //= ids.shape[1]
    return order, starts


def _draw(rng: random.Random, weights: np.ndarray, cum: Optional[np.ndarray] = None) -> int:
    """The index ``rng.choices(range(len(weights)), weights)`` draws, bit for
    bit: ``cumsum`` adds in sequence, as ``itertools.accumulate`` does, and
    the sums are nondecreasing, so capping the search of all of them at
    n - 1 is the search ``rng.choices`` makes among the first n - 1 sums.
    ``cum``, when given, is ``weights.cumsum()`` summed once for many draws."""
    if cum is None:
        cum = weights.cumsum()
    return min(int(cum.searchsorted(rng.random() * cum[-1], "right")), len(cum) - 1)


def _vertex_words(cycles: np.ndarray, n: int) -> np.ndarray:
    """Each row's vertex set as bits of ceil(n/64) uint64 words, word j of
    every row in row j of the result: vertex v is bit v % 64 of word
    v // 64.  The columns are ORed in one at a time, so no temporary holds
    more than one entry per row."""
    words = np.zeros((-(-n // 64), len(cycles)), dtype=np.uint64)
    for column in cycles.T:
        bits = np.left_shift(np.uint64(1), (column % 64).astype(np.uint64))
        if len(words) == 1:
            words[0] |= bits
        else:
            word = column // 64
            for j, out in enumerate(words):
                out |= np.where(word == j, bits, 0)
    return words


def _gate_failures(coverages: list, coverage_min: int) -> list:
    return [
        f"collection {i} coverage {c} < {coverage_min}"
        for i, c in enumerate(coverages)
        if c < coverage_min
    ]


def _disjoint_pair(words: np.ndarray, cand: np.ndarray) -> Optional[np.ndarray]:
    """The lexicographically first pair [a, b], a < b, of vertex-disjoint
    cycles among ``cand`` (ascending family indices), or None."""
    sub = words[:, cand]
    for j in range(len(cand) - 1):
        hit = np.flatnonzero(~(sub[:, j + 1 :] & sub[:, j : j + 1]).any(axis=0))
        if len(hit):
            return cand[[j, j + 1 + hit[0]]]
    return None


def _swap(words: np.ndarray, free: np.ndarray, coll: np.ndarray) -> Optional[np.ndarray]:
    """``coll`` with one pick p replaced by two vertex-disjoint cycles of
    ``free`` that meet no other pick of ``coll``, so that they lie in the
    uncovered vertices and V(p); None when no pick has such a pair.  The
    first pick in draw order that has one is swapped, for its
    lexicographically first pair.  A pair may keep p itself beside a cycle
    on uncovered vertices."""
    meets = (words[:, None, free] & words[:, coll, None]).any(axis=0)
    count = meets.sum(axis=0)
    for pos in range(len(coll)):
        pair = _disjoint_pair(words, free[(count == 0) | (count == 1) & meets[pos]])
        if pair is not None:
            return np.concatenate((coll[:pos], pair, coll[pos + 1 :]))
    return None


def _repair(
    H: Hypergraph, ids: np.ndarray, words: np.ndarray, picks: list, coverage_min: int
) -> tuple:
    """(picks, swaps): a draw whose collections below the gate are completed,
    in order, by one-for-two swaps (``_swap``) over the cycles that share
    no edge with the picks of any other collection.  A collection no swap
    can complete stops the repair there, with the picks as they stand."""
    L = ids.shape[1]
    picks, swaps = list(picks), 0
    for i in range(len(picks)):
        if L * len(picks[i]) >= coverage_min:
            continue
        taken = np.zeros(H.m, dtype=bool)
        for other in picks[:i] + picks[i + 1 :]:
            taken[ids[other].ravel()] = True
        free = np.flatnonzero(~taken[ids].any(axis=1))
        while L * len(picks[i]) < coverage_min:
            swapped = _swap(words, free, picks[i])
            if swapped is None:
                return picks, swaps
            picks[i], swaps = swapped, swaps + 1
    return picks, swaps


def extract_cycle_collections(
    H: Hypergraph,
    pair,
    r: int,
    seed: int = 0,
    mu: float = 0.2,
    retries: int = 10,
) -> ExtractionResult:
    """Round a fractional decomposition into r edge-disjoint collections.

    ``pair`` is a decomposition (cycles, weights) of H, as
    ``fractional_cycle_decomposition`` returns it (a plain pair has its
    rows checked as ``check_edge_sums`` checks them).  Collections are built one
    at a time by a randomized greedy: candidates are its cycles, drawn with
    probability proportional to their normalized weight omega(C)/Gamma among
    those still vertex-disjoint within the current collection and
    edge-disjoint from everything already chosen (the draws of
    ``random.choices`` over the candidates in the order of ``pair``).  The
    candidates form a live pool of cycle indices: a collection starts from
    the cycles that share no edge with an earlier collection's picks, and
    each pick drops the cycles that meet it in a vertex (which covers every
    cycle sharing one of its edges), one AND of the cycles' vertex bit
    words.  So no pick rescans the family.  A draw's coverages are L per
    pick, since its picks are vertex-disjoint.  An attempt is accepted when
    every collection covers at least ceil((1-mu) n) vertices; otherwise the
    extraction reseeds, up to ``retries`` attempts.  The first pick of
    every draw reads the whole family, whose weights are summed once.
    When no draw passes, the best one (the first with the fewest gate
    failures, named by ``returned``) goes through ``_repair``: each
    collection below the gate, in order, swaps one pick for two cycles
    (``_swap``) while it stays below.  The swaps take no randomness, so
    every extraction that passes within its draws is unchanged by them.
    The draw's diagnostics entry records the repair as {"swaps",
    "coverages", "failures"}.  A repaired draw is returned with ``ok``
    True; when some collection has no swap left, the draw is returned as
    drawn, with ``ok`` False, rather than discarding the work.  Only the
    returned collections become ``TightCycle`` objects, and they are
    checked once, by ``validate_collections``.
    """
    check_collections(H, r)
    coverage_min = coverage_gate(H.n, mu)

    rho = H.rho_star()
    gamma = float((1 + rho) * r) if r else 1.0
    if r == 0:
        return ExtractionResult([], True, 0, [], gamma, None)

    cycles, weights = pair
    ids = _pair_ids(H, pair)
    scaled = np.asarray(weights, dtype=float) / gamma
    whole, everything = scaled.cumsum(), np.arange(len(cycles))
    words = _vertex_words(cycles, H.n)
    through, starts = _rows_through(ids, H.m)
    master = random.Random(seed)
    best = None
    diagnostics = []
    for attempt in range(max(1, retries)):
        rng = random.Random(master.randrange(2**63))
        dead = np.zeros(len(cycles), dtype=bool)
        picks = []
        for c in range(r):
            coll = []
            pool = np.flatnonzero(~dead) if c else everything
            while len(pool):
                # a draw's first pick reads the whole family, summed once
                i = pool[_draw(rng, scaled[pool])] if c or coll else _draw(rng, scaled, whole)
                coll.append(i)
                met = words[0][pool] & words[0][i]
                for word in words[1:]:
                    met |= word[pool] & word[i]
                pool = pool[met == 0]
            coll = np.array(coll, dtype=np.intp)
            if len(coll) and c < r - 1:
                edges = ids[coll].ravel()
                spans = zip(starts[edges].tolist(), starts[edges + 1].tolist())
                dead[np.concatenate([through[a:b] for a, b in spans])] = True
            picks.append(coll)
        coverages = [cycles.shape[1] * len(coll) for coll in picks]
        failures = _gate_failures(coverages, coverage_min)
        diagnostics.append(
            {"attempt": attempt, "coverages": coverages, "failures": failures}
        )
        if not failures:
            best = (picks, failures, attempt)
            break
        if best is None or len(failures) < len(best[1]):
            best = (picks, failures, attempt)
    picks, failures, returned = best
    if failures:
        repaired, swaps = _repair(H, ids, words, picks, coverage_min)
        coverages = [cycles.shape[1] * len(coll) for coll in repaired]
        gaps = _gate_failures(coverages, coverage_min)
        diagnostics[returned]["repair"] = {
            "swaps": swaps, "coverages": coverages, "failures": gaps
        }
        if not gaps:
            picks, failures = repaired, gaps
    collections = [
        tuple(TightCycle(H, cycles[i].tolist()) for i in coll) for coll in picks
    ]
    validate_collections(H, collections)
    return ExtractionResult(
        collections, not failures, len(diagnostics), diagnostics, gamma, returned
    )


# ---------------------------------------------------------------------------
# opening cycles


def open_cycle(C: TightCycle, rng: random.Random) -> tuple:
    """C's canonical sequence rotated to start at a uniformly random position
    (one ``rng.randrange`` call); as a path it lacks the k-1 closing edges."""
    base = C.canonical()
    s = rng.randrange(len(base))
    return base[s:] + base[:s]
