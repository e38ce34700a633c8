import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import lsqr

from cyclefactors import fractional
from cyclefactors.cover import (
    ExtractionResult,
    _enumerate_all,
    cycles_through_edge,
    extract_cycle_collections,
)
from cyclefactors.fractional import polish
from cyclefactors.tightpaths import TightCycle, canonical_cycle


def inequality_form_z(A):
    """z* of max z s.t. A w = 1, w >= z, with one row z - w_j <= 0 per column.

    The formulation ``pfm_lp`` replaces with a column for z, kept here only
    as an oracle; None when the equality rows have no nonnegative solution.
    """
    A = sparse.csr_matrix(A)
    rows, cols = A.shape
    c = np.zeros(cols + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=sparse.hstack([-sparse.identity(cols), np.ones((cols, 1))]),
        b_ub=np.zeros(cols),
        A_eq=sparse.hstack([A, sparse.csr_matrix((rows, 1))]),
        b_eq=np.ones(rows),
        bounds=(0, None),
        method="highs",
    )
    return res.x[-1] if res.success else None


@pytest.fixture
def newton_steps(monkeypatch):
    """A list that grows by one entry per Newton step of
    ``fractional.scale_to_ones``.  Each step is one preconditioned
    ``fractional.cg`` solve; the one solve of ``polish`` has no
    preconditioner and is not counted."""
    steps = []
    real = fractional.cg

    def counted(*args, **kwargs):
        if kwargs.get("precond") is not None:
            steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fractional, "cg", counted)
    return steps


@pytest.fixture
def gram_calls(monkeypatch):
    """A list that grows by one entry per ``Incidence.gram`` call: one
    assembled A diag(w) A^T."""
    calls = []
    real = fractional.Incidence.gram

    def counted(A, w, diagonal=None):
        calls.append(A.shape)
        return real(A, w, diagonal)

    monkeypatch.setattr(fractional.Incidence, "gram", counted)
    return calls


def one_block_dot(A, x):
    """A x as one bincount over all of A's ones: the formula of
    ``Incidence.dot`` for a matrix of at most ``fractional.BLOCK`` ones,
    kept as the oracle of its blocks."""
    return np.bincount(A.rows, np.repeat(x, len(A._grid)), A.shape[0])


def one_block_tdot(A, y):
    """A^T y as one gather of all of A's ones, summed by grid row."""
    terms = y.take(A.rows).reshape(A._grid.shape[::-1]).T
    total = terms[0] + 0.0
    for term in terms[1:]:
        total += term
    return total


def one_block_gram(A, w):
    """A diag(w) A^T, each grid row scattering w against the whole grid,
    with the diagonal A w."""
    rows = A.shape[0]
    gram = np.zeros((rows, rows))
    flat = gram.reshape(-1)
    grid = np.ascontiguousarray(A._grid, dtype=np.intp)
    weights = np.tile(w, len(grid))
    for a in grid:
        np.add.at(flat, (grid + a * rows).reshape(-1), weights)
    flat[:: rows + 1] = one_block_dot(A, w)
    return gram


@pytest.fixture
def check_against_one_block():
    """``check(A, x, y, products)``: each named product of A has the bits
    of its one-block formula: ``dot``, ``tdot``, ``gram`` and, for A above
    ``GRAM_ROWS`` rows, ``gram_product``'s matrix-free y -> A diag(x) A^T y;
    x weighs A's columns and y its rows."""

    def check(A, x, y, products=("dot", "tdot", "gram")):
        pairs = {
            "dot": (lambda: A.dot(x), lambda: one_block_dot(A, x)),
            "tdot": (lambda: A.tdot(y), lambda: one_block_tdot(A, y)),
            "gram": (lambda: A.gram(x), lambda: one_block_gram(A, x)),
            "gram_product": (
                lambda: fractional.gram_product(A, x)(y),
                lambda: one_block_dot(A, x * one_block_tdot(A, y)),
            ),
        }
        for name in products:
            got, want = pairs[name]
            assert got().tobytes() == want().tobytes(), name

    return check


@pytest.fixture
def check_against_oracle():
    """z* of A by the inequality form, for the cover's families."""
    return inequality_form_z


def lp_max_total_weight(A, columns):
    """max sum_{j in columns} w_j over A w = 1, w >= 0 (None when no such w).

    It is 0 exactly when every nonnegative solution gives each of those
    columns 0: the claim ``scale_to_ones`` makes of the columns it cuts as
    pinned to 0.  Kept only as an oracle."""
    A = sparse.csr_matrix(A)
    c = np.zeros(A.shape[1])
    c[list(columns)] = -1.0
    res = linprog(c, A_eq=A, b_eq=np.ones(A.shape[0]), bounds=(0, None), method="highs")
    return -res.fun if res.success else None


@pytest.fixture
def max_total_weight():
    """The LP oracle of the columns ``scale_to_ones`` cuts."""
    return lp_max_total_weight


@pytest.fixture
def pinned_columns(monkeypatch):
    """The columns that ``fractional.scale_to_ones`` has cut as pinned to 0
    since the last read, in one call: a function of that call's column
    count that returns their indices, ascending.  Each mask that
    ``fractional._pinned`` finds indexes the columns the cuts before it
    left; a mask that the call never cut (its step failed) is counted too."""
    cuts = []
    real = fractional._pinned

    def recorded(A, gram, w):
        pins, emptied = real(A, gram, w)
        if pins is not None:
            cuts.append(pins)
        return pins, emptied

    monkeypatch.setattr(fractional, "_pinned", recorded)

    def cut(cols):
        left, out = np.arange(cols), []
        for pins in cuts:
            out.extend(left[pins].tolist())
            left = left[~pins]
        cuts.clear()
        return sorted(out)

    return cut


def pairwise_eta_stars(H):
    """(eta_star, eta_star_all_pairs) of H by the pairwise loop that
    ``hypergraph._eta_minima`` replaces.

    It intersects N(x) and N(y) for every pair of (k-1)-sets (x = y too),
    each N(x) from n ``has_edge`` probes (``Hypergraph.neighborhood``), and
    keeps the least over all pairs and over the disjoint ones; None where
    the report has none.  Kept only as an oracle.
    """
    n, k = H.n, H.k
    if H.m == 0 or n < k - 1:
        return None, None
    sets = list(itertools.combinations(range(n), k - 1))
    hoods = {x: H.neighborhood(x) for x in sets}
    best_all = best_disjoint = None
    for x, y in itertools.combinations_with_replacement(sets, 2):
        inter = len(hoods[x] & hoods[y])
        if best_all is None or inter < best_all:
            best_all = inter
        if not set(x) & set(y) and (best_disjoint is None or inter < best_disjoint):
            best_disjoint = inter
    eta = Fraction(best_disjoint, n) if best_disjoint is not None else None
    return eta, Fraction(best_all, n)


@pytest.fixture
def check_against_pairwise_eta():
    """The report's eta_star and eta_star_all_pairs against the pairwise
    loop: the same Fractions, or None on both sides; and its
    delta_codegree against ``Hypergraph.delta_codegree``, which counts the
    edges' (k-1)-subsets."""

    def check(H):
        report = H.regularity_report()
        want = pairwise_eta_stars(H)
        assert (report.eta_star, report.eta_star_all_pairs) == want
        assert report.delta_codegree == H.delta_codegree()
        return want

    return check


def lsqr_polish(A, w):
    """The column-space ``polish`` that the row-space solve replaces.

    ``lsqr`` over the support's columns gives the same least-norm correction
    as S^T y with S S^T y = r, but iterates on vectors with one entry per
    column.  Kept only as an oracle; it skips exact inputs the same way.
    """
    A = sparse.csc_matrix(A)
    w = np.array(w, dtype=float)
    residual = 1.0 - A @ w
    if np.abs(residual).max(initial=0.0) <= 1e-12:
        return w
    support = np.flatnonzero(w > 0)
    w[support] += lsqr(A[:, support], residual, atol=1e-12, btol=1e-12)[0]
    return w


@pytest.fixture
def check_against_lsqr():
    """Polish through ``fractional.polish`` and compare it with the lsqr one
    on the same ones, for an ``Incidence`` A."""

    def check(A, w):
        cols = np.repeat(np.arange(A.shape[1]), len(A._grid))
        ones = sparse.csc_matrix((np.ones(A.rows.size), (A.rows, cols)), shape=A.shape)
        fixed = polish(A, w)
        assert np.abs(fixed - lsqr_polish(ones, w)).max() <= 1e-12
        assert np.abs(ones @ fixed - 1).max() <= 1e-12
        return fixed

    return check


def rescan_repair(H, family, collections, coverage_min):
    """The one-for-two repair that ``cover._repair`` runs on index arrays.

    Brute force over ``TightCycle`` objects: for each collection below the
    gate, in order, and while it stays below, the first pick p (in draw
    order) for which some pair of vertex-disjoint family cycles lies in the
    vertices no other pick of the collection covers and shares no edge with
    another collection is replaced by the first such pair in family order.
    Returns (collections, swaps), stopping at a collection no swap
    completes.  Kept only as an oracle.
    """
    collections = [list(coll) for coll in collections]
    swaps = 0
    for i, coll in enumerate(collections):
        taken = {e for j, other in enumerate(collections) if j != i
                 for C in other for e in C.edges()}
        free = [C for C in family if not taken & set(C.edges())]
        while len(set().union(*(C.vertex_set for C in coll))) < coverage_min:
            for pos in range(len(coll)):
                rest = coll[:pos] + coll[pos + 1:]
                room = set(range(H.n)).difference(*(C.vertex_set for C in rest))
                cand = [C for C in free if C.vertex_set <= room]
                pair = next((list(ab) for ab in itertools.combinations(cand, 2)
                             if not ab[0].vertex_set & ab[1].vertex_set), None)
                if pair is not None:
                    coll[:] = rest[:pos] + pair + rest[pos:]
                    swaps += 1
                    break
            else:
                return collections, swaps
    return collections, swaps


def _gate_failures(collections, coverage_min):
    coverages = [len(set().union(*(C.vertex_set for C in coll)))
                 for coll in collections]
    failures = [f"collection {i} coverage {c} < {coverage_min}"
                for i, c in enumerate(coverages) if c < coverage_min]
    return coverages, failures


def rescan_extraction(H, pair, r, seed=0, mu=0.2, retries=10):
    """The full-rescan greedy that ``extract_cycle_collections`` replaces.

    Before every pick it rebuilds the candidate list from the whole family:
    every cycle vertex-disjoint from the current collection and edge-disjoint
    from all chosen cycles, as ``TightCycle`` objects, and draws with
    ``rng.choices``.  When every draw misses a gate, the best draw goes
    through ``rescan_repair``.  Kept only as an oracle; it assumes the
    checks on ``pair`` and ``r`` already passed.
    """
    coverage_min = math.ceil((1 - mu) * H.n)
    gamma = float((1 + H.rho_star()) * r) if r else 1.0
    if r == 0:
        return ExtractionResult([], True, 0, [], gamma, None)
    cycles, weights = pair
    family = [TightCycle(H, seq) for seq in cycles.tolist()]
    fam_weights = [float(w) / gamma for w in weights]
    shortest = min(len(C) for C in family)
    master = random.Random(seed)
    best = None
    diagnostics = []
    for attempt in range(max(1, retries)):
        rng = random.Random(master.randrange(2**63))
        used_edges = set()
        collections = []
        for _ in range(r):
            coll = []
            used_vertices = set()
            while len(used_vertices) + shortest <= H.n:
                pool, wts = [], []
                for C, w in zip(family, fam_weights):
                    if used_vertices & C.vertex_set:
                        continue
                    if any(e in used_edges for e in C.edges()):
                        continue
                    pool.append(C)
                    wts.append(w)
                if not pool:
                    break
                C = rng.choices(pool, weights=wts, k=1)[0]
                coll.append(C)
                used_vertices |= C.vertex_set
                used_edges.update(C.edges())
            collections.append(tuple(coll))
        coverages, failures = _gate_failures(collections, coverage_min)
        diagnostics.append(
            {"attempt": attempt, "coverages": coverages, "failures": failures}
        )
        if not failures:
            return ExtractionResult(
                collections, True, attempt + 1, diagnostics, gamma, attempt
            )
        if best is None or len(failures) < len(best[1]):
            best = (collections, failures, attempt)
    collections, _, returned = best
    repaired, swaps = rescan_repair(H, family, collections, coverage_min)
    coverages, gaps = _gate_failures(repaired, coverage_min)
    diagnostics[returned]["repair"] = {"swaps": swaps, "coverages": coverages, "failures": gaps}
    if not gaps:
        collections = [tuple(coll) for coll in repaired]
    return ExtractionResult(
        collections, not gaps, max(1, retries), diagnostics, gamma, returned
    )


@pytest.fixture
def check_against_rescan():
    """Extract through the live pool and compare it with the full rescan."""

    def check(H, pair, r, **kwargs):
        got = extract_cycle_collections(H, pair, r, **kwargs)
        want = rescan_extraction(H, pair, r, **kwargs)
        assert [[C.seq for C in coll] for coll in got.collections] == [
            [C.seq for C in coll] for coll in want.collections
        ]
        assert (got.ok, got.attempts, got.gamma, got.returned) == (
            want.ok, want.attempts, want.gamma, want.returned
        )
        assert got.diagnostics == want.diagnostics
        return got

    return check


def _close_ok(H, seq):
    """Check the k-1 wrap-around windows that close seq into a cycle.

    The ``has_edge`` probe that ``tightpaths.closing_rows`` replaces in
    ``cover``; kept only for the oracles below.
    """
    k = H.k
    closed = tuple(seq) + tuple(seq[: k - 1])
    return all(H.has_edge(closed[i : i + k]) for i in range(len(seq) - k + 1, len(seq)))


def recursive_cycles_through_edge(H, L, edge):
    """The search ``cover.cycles_through_edge`` replaces.

    A depth-first search from every ordering of the edge that probes
    ``has_edge`` for each next vertex, grows every path to L vertices and
    then probes ``_close_ok``.  Kept only as an oracle; it assumes the
    argument checks already passed.  Returns the canonical sequences of
    the cycles found, in canonical order.
    """
    edge = tuple(sorted(edge))
    k = H.k
    found = set()

    def rec(seq, used):
        if len(seq) == L:
            if _close_ok(H, seq):
                found.add(canonical_cycle(seq))
            return
        tail = tuple(seq[-k + 1 :])
        for v in range(H.n):
            if v in used or not H.has_edge(tail + (v,)):
                continue
            seq.append(v)
            used.add(v)
            rec(seq, used)
            used.discard(v)
            seq.pop()

    for start in itertools.permutations(edge):
        rec(list(start), set(start))
    return sorted(found)


@pytest.fixture
def check_against_recursive_dfs():
    """Search through ``cycles_through_edge`` and compare it with the
    recursive DFS: the same cycles, as the same canonical rows in the same
    order."""

    def check(H, L, edge):
        got = cycles_through_edge(H, L, edge)
        want = recursive_cycles_through_edge(H, L, edge)
        assert got.shape == (len(want), L) and got.dtype == np.intp
        assert [tuple(row) for row in got.tolist()] == want
        return want

    return check


def anchored_dfs_cycles(H, L, cap):
    """The enumeration ``cover._enumerate_all`` replaces, as sequences.

    It grows tight L-vertex paths from each anchor v0 over vertices above v0
    in lexicographic order, probing ``has_edge`` for each next vertex, keeps
    those with seq[1] < seq[-1] and then probes the k-1 closing windows
    with ``_close_ok``.  Kept only as an oracle; None once more than ``cap``
    cycles are found.
    """
    k = H.k

    def grow(seq):
        if len(seq) == L:
            yield seq
            return
        for v in range(seq[0] + 1, H.n):
            if v not in seq and (len(seq) < k - 1 or H.has_edge(seq[1 - k :] + (v,))):
                yield from grow(seq + (v,))

    out = []
    for v0 in range(H.n):
        for seq in grow((v0,)):
            if seq[1] < seq[-1] and _close_ok(H, seq):
                out.append(seq)
                if cap is not None and len(out) > cap:
                    return None
    return out


@pytest.fixture
def check_against_dfs():
    """Enumerate through ``_enumerate_all`` and compare it with the anchored
    DFS: the same sequences in the same order, or None on both sides."""

    def check(H, L, cap):
        got = _enumerate_all(H, L, cap)
        want = anchored_dfs_cycles(H, L, cap)
        assert (None if got is None else [tuple(seq) for seq in got.tolist()]) == want
        return want

    return check
