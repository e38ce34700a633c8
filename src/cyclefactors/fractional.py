"""Perfect fractional matchings: uniform start, walk redistribution, the
max-min LP, balancedness, and weight-biased sparsification; and
``scale_to_ones``, the maximum-entropy positive solution of A w = 1 that
weights the cover's cycle family.

The 0/1 matrices of ``scale_to_ones`` and ``polish`` have the same number
of ones in every column (L edges per cycle, k vertices per edge), so each
is an ``Incidence``: one N x c int32 array listing each column's rows.  Its
products and the conjugate gradients of ``cg`` are plain numpy.  Only the
LP needs scipy: ``linprog`` and ``pfm_lp`` import it when they first run,
so a regular host is weighted and covered without loading it.

A perfect fractional matching (PFM) assigns a positive weight to every edge so
that the weights at each vertex sum to 1. ``redistribute_pfm`` turns the uniform
weighting into a PFM by shifting weight along short self-avoiding walks; in
exact (rational) mode the vertex sums come out equal to 1 identically.

``pipeline_weighting`` is the weighting policy of ``decompose``, which
weighs the input host once per run, in floats: uniform on regular hosts,
the max-min LP otherwise, uniform when no all-positive PFM exists.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .hypergraph import Hypergraph
from .tightpaths import grow_paths

FLOAT_TOL = 1e-9


class FractionalError(ValueError):
    pass


class NotConnectedError(FractionalError):
    """Some ordered vertex pair has no registered connecting walk."""


class BalanceViolationError(FractionalError):
    """Redistribution drove some edge weight to zero or below."""


class LPInfeasibleError(FractionalError):
    pass


class EdgeWeighting:
    """Positive edge weights with cached subset aggregates.

    omega(S) for a vertex set S is the total weight of edges containing S;
    omega(()) is the total weight. Weights are Fractions in exact mode,
    floats otherwise (tolerance FLOAT_TOL for the PFM check).
    """

    __slots__ = ("host", "weights", "exact", "_agg_cache")

    def __init__(self, host: Hypergraph, weights, exact: bool):
        weights = tuple(weights)
        if len(weights) != host.m:
            raise FractionalError("need one weight per edge")
        for e, w in zip(host.edges, weights):
            if w <= 0:
                raise BalanceViolationError(f"weight {w} on edge {e} is not positive")
        self.host = host
        self.weights = weights
        self.exact = exact
        self._agg_cache = None  # sub-set -> weight sum, filled by omega

    def weight_of(self, e) -> "Fraction | float":
        return self.weights[self.host.edge_id(e)]

    def omega(self, S: Iterable[int]):
        """Sum of weights of edges containing the vertex set S (S may be empty).

        The first call sums every sub-set of every edge in one pass over the
        edges in host order, the order a scan over the edges adds them.
        """
        agg = self._agg_cache
        if agg is None:
            agg = {}
            for e, w in zip(self.host.edges, self.weights):
                for j in range(len(e) + 1):
                    for sub in map(frozenset, itertools.combinations(e, j)):
                        agg[sub] = agg.get(sub, 0) + w
            self._agg_cache = agg
        return agg.get(frozenset(S), 0)

    def vertex_weight(self, v: int):
        return self.omega((v,))

    def min_weight(self):
        return min(self.weights)

    def max_weight(self):
        return max(self.weights)

    def is_pfm(self) -> bool:
        if self.exact:
            return all(self.omega((v,)) == 1 for v in range(self.host.n))
        return all(abs(self.omega((v,)) - 1) <= FLOAT_TOL for v in range(self.host.n))

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"EdgeWeighting({mode}, m={self.host.m})"


def uniform_weighting(H: Hypergraph, exact: bool = True) -> EdgeWeighting:
    """omega_0(e) = n/(k|E|); vertex weights then sum to n in total."""
    if H.m == 0:
        raise FractionalError("uniform weighting needs at least one edge")
    w = Fraction(H.n, H.k * H.m)
    if not exact:
        w = float(w)
    return EdgeWeighting(H, [w] * H.m, exact=exact)


def balancedness(w: EdgeWeighting):
    """max edge weight / min edge weight (Fraction in exact mode)."""
    return w.max_weight() / w.min_weight()


# ---------------------------------------------------------------------------
# walk registry + redistribution
# ---------------------------------------------------------------------------


def build_walk_registry(
    H: Hypergraph, cap: int = 500, seed: int = 0
) -> Dict[Tuple[int, int], List[tuple]]:
    """All self-avoiding (k+1)-vertex walks per ordered pair, capped per pair.

    A registered walk v_1..v_{k+1} runs from v_1 = s to v_{k+1} = t with both
    k-windows edges of H and no repeated vertex, grown by ``grow_paths`` one
    start at a time, so only one start's walks are held before the cap.
    Above the cap a seeded shuffle picks which walks survive.
    """
    rng = random.Random(seed)
    registry: Dict[Tuple[int, int], List[tuple]] = {}
    for s in range(H.n):
        by_end: Dict[int, List[tuple]] = {}
        for walks, _ in grow_paths(H, np.array([[s]]), np.ones((1, H.n), dtype=bool), H.k + 1):
            for walk in map(tuple, walks.tolist()):
                by_end.setdefault(walk[-1], []).append(walk)
        for t in range(H.n):
            if s == t:
                continue
            walks = by_end.get(t, [])
            if len(walks) > cap:
                rng.shuffle(walks)
                walks = sorted(walks[:cap])
            registry[(s, t)] = walks
    return registry


def redistribute_pfm(
    H: Hypergraph, W: Dict[Tuple[int, int], List[tuple]]
) -> EdgeWeighting:
    """Exact perfect fractional matching from uniform weights via walk shifts.

    Each walk in W[(s,t)] moves weight a = xi(s)/(n|W[(s,t)]|) from its first
    k-window to its last one, where xi(v) = omega_0(v) - 1. Summing the shifts
    over all ordered pairs cancels the deviation at every vertex:
    omega(v) = omega_0(v) - (n-1) xi(v)/n + sum_{u != v} xi(u)/n = 1.
    """
    k, n = H.k, H.n
    base = uniform_weighting(H, exact=True)
    xi = [base.vertex_weight(v) - 1 for v in range(n)]
    for s in range(n):
        for t in range(n):
            if s != t and not W.get((s, t)):
                raise NotConnectedError(
                    f"no connecting walks registered for the ordered pair ({s}, {t})"
                )
    weights = list(base.weights)
    for (s, t), walks in W.items():
        if s == t or xi[s] == 0:
            continue
        a = Fraction(xi[s], 1) / (n * len(walks))
        for walk in walks:
            if len(walk) != k + 1 or len(set(walk)) != k + 1:
                raise FractionalError(f"registered walk {walk} is not self-avoiding")
            if walk[0] != s or walk[-1] != t:
                raise FractionalError(f"walk {walk} filed under the wrong pair ({s},{t})")
            first = H.edge_id(walk[:k])
            last = H.edge_id(walk[1:])
            weights[first] -= a
            weights[last] += a
    worst = min(range(H.m), key=lambda i: weights[i])
    if weights[worst] <= 0:
        raise BalanceViolationError(
            f"redistribution drove edge {H.edges[worst]} to weight {weights[worst]}"
        )
    out = EdgeWeighting(H, weights, exact=True)
    assert out.is_pfm(), "telescoping identity violated (arithmetic bug)"
    return out


# ---------------------------------------------------------------------------
# 0/1 matrices and conjugate gradients
# ---------------------------------------------------------------------------


class Incidence:
    """A 0/1 matrix whose columns all hold the same number c of ones (every
    cycle has L edges, every edge k vertices): one N x c int32 array whose
    row j lists the rows of column j's ones, ascending.  ``rows`` reads it
    flat and ``_grid`` is its c x N transpose, both views.

    ``dot`` and ``tdot`` add the terms of every sum in the order that
    scipy's CSR products add them (ascending column in A x, ascending row
    in A^T y, each starting from 0), so they return the same bits, and
    ``gram`` assembles the dense A diag(w) A^T.  All three read at most
    BLOCK ones per numpy call, in an order that leaves every sum's order
    as it is, so a matrix of any size gives the bits of one pass.
    """

    __slots__ = ("rows", "shape", "_grid")

    def __init__(self, columns, rows: int):
        """The matrix with ``rows`` rows whose column j has its ones in the
        rows columns[j], for an N x c int array ``columns`` ascending along
        each row; an int32 one is wrapped, not copied."""
        columns = np.asarray(columns).astype(np.int32, copy=False)
        if np.any(columns[:, 1:] <= columns[:, :-1]):
            raise FractionalError("each column lists the rows of its ones once, ascending")
        self.shape = (rows, len(columns))
        self.rows, self._grid = columns.reshape(-1), columns.T

    def dot(self, x) -> np.ndarray:
        """A x."""
        c = len(self._grid)
        span = BLOCK // max(c, 1) or 1  # columns per block
        total = np.bincount(self.rows[: span * c], x[:span].repeat(c), self.shape[0])
        # each later block goes on adding to the same sums in column
        # order (np.add.at casts an int32 index slower than astype does)
        for j in range(span, len(x), span):
            ones = self.rows[j * c : (j + span) * c].astype(np.intp)
            np.add.at(total, ones, x[j : j + span].repeat(c))
        return total

    def tdot(self, y) -> np.ndarray:
        """A^T y."""
        c = len(self._grid)
        span = BLOCK // max(c, 1) or 1
        total = np.empty(self.shape[1])
        for j in range(0, len(total), span):
            # one gather of the block's grid rows (np.take reads the int32
            # indices faster than fancy indexing does, and lays each grid
            # row out contiguous), then the sums by grid row
            part = total[j : j + span]
            terms = y.take(self._grid[:, j : j + span])
            np.add(terms[0], 0.0, out=part)
            for term in terms[1:]:
                part += term
        return total

    def gram(self, w, diagonal=None) -> np.ndarray:
        """A diag(w) A^T as a dense rows x rows array.

        Entry (e, f) sums w_j over the columns j with ones in rows e and f.
        Each row a of the grid scatters w against every row b of the grid,
        and each entry's sum runs by a, then b, then column.  A matrix of
        at most BLOCK ones scatters row a against the whole grid at once,
        a larger one against one row b at a time in blocks of at most
        BLOCK columns.  So the result is the only rows x rows array.  The
        diagonal is then set to A w, the bits of ``dot`` and of the Jacobi
        preconditioner of ``scale_to_ones``: so set, the 30 K_12^(3)
        residual families take as many Newton steps as the matrix-free
        solves (summed by the scatter, seed 9's took 18 against 17).  A
        caller that holds ``dot(w)`` already passes it as ``diagonal``.
        """
        rows, cols = self.shape
        if diagonal is None:
            diagonal = self.dot(w)  # before the scatter's arrays exist
        gram = np.zeros((rows, rows))
        flat = gram.reshape(-1)
        if self._grid.size <= BLOCK:
            # one block: each row a of the grid scatters against all of it,
            # read from one C-contiguous intp copy, so that each index is
            # C-contiguous intp and np.add.at reads it without a cast.  A
            # copy of w, not a broadcast: np.add.at is 4x slower on a
            # broadcast view, and numpy 2.4.6 summed 1-D values against a
            # 2-D index to nan
            grid = np.ascontiguousarray(self._grid, dtype=np.intp)
            weights = np.tile(w, len(grid))
            for a in grid:
                np.add.at(flat, (grid + a * rows).reshape(-1), weights)
        else:
            grid = self._grid
            parts = [slice(j, j + BLOCK) for j in range(0, cols, BLOCK)]
            for i, a in enumerate(grid):
                # row a's ones scaled to their gram rows' starts, once for
                # every row b
                keys = [np.multiply(a[part], rows, dtype=np.intp) for part in parts]
                for b, ones in enumerate(grid):
                    if b != i:  # row a against itself adds only to the diagonal
                        for part, key in zip(parts, keys):
                            np.add.at(flat, np.add(ones[part], key), w[part])
        flat[:: rows + 1] = diagonal
        return gram


# Newton and polish assemble A diag(w) A^T while A has at most this many
# rows.  Scaling plus polish of seed-0 residual 6-cycle families, assembled
# against two passes over the ones (best of 9, 2-vCPU VM): K_15^(3)
# (m = 226 rows, 4,180 cycles) 5.3 against 7.1 ms, K_18^(3) (m = 400,
# 14,957 cycles) 23.5 against 26.2 ms; the sampled K_20^(3) family
# (m = 557, 6,106 cycles) 16.4 against 11.4 ms and K_24^(3) (m = 992)
# 31.7 against 16.6 ms.
GRAM_ROWS = 450

# ``Incidence``'s products read at most this many ones per numpy call, so
# that each temporary (an intp index or a float per one: 64 KiB) stays
# below glibc's 128 KiB mmap threshold: freed, it is reused from the heap
# rather than mapped and faulted in afresh by the next call.
BLOCK = 8192


def gram_product(A: Incidence, w, diagonal=None):
    """x -> A diag(w) A^T x: a product with ``A.gram(w, diagonal)`` while A
    has at most GRAM_ROWS rows, else two passes over its ones."""
    if A.shape[0] > GRAM_ROWS:
        return lambda x: A.dot(w * A.tdot(x))
    return A.gram(w, diagonal).dot


def cg(matvec, b, rtol, atol=0.0, precond=None) -> np.ndarray:
    """Conjugate gradients for matvec(x) = b, matvec symmetric positive
    definite, from x = 0 until |b - matvec(x)| < max(atol, rtol |b|).

    ``precond`` applies the preconditioner (the identity when None).  Step
    for step ``scipy.sparse.linalg.cg`` (scipy 1.17) with x0 = 0 and
    maxiter 10 len(b), so it returns the same bits; like it, the last
    iterate when the iterations run out.
    """
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b
    x = np.zeros(len(b))
    r = b.copy()
    for step in range(10 * len(b)):
        # np.linalg.norm of a float vector is sqrt(r.dot(r)): the same bits
        if math.sqrt(r @ r) < atol:
            break
        z = r if precond is None else precond(r)
        rho = r @ z
        if step:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / (p @ q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def polish(A: Incidence, w) -> np.ndarray:
    """w plus the least-norm correction on its positive support toward A w = 1.

    The solver meets the equality rows only within its feasibility tolerance
    (per-row residuals up to 1.6e-8 were seen on K_24^(3) cycle families);
    the correction removes that residual and moves each weight by about as
    much.  With S the support's columns, the correction is S^T y for any y
    with S S^T y = r, found by conjugate gradients on the row space, so
    every dense vector has one entry per row rather than per column.
    S S^T is A diag(1_support) A^T, applied by ``gram_product``: assembled
    when A is small, else by two passes over the ones, where the masked
    columns add only 0.0 to each row's sum.  A w already within 1e-12 of
    every row is returned as is.
    """
    w = np.array(w, dtype=float)
    residual = 1.0 - A.dot(w)
    if np.abs(residual).max(initial=0.0) <= 1e-12:
        return w
    support = w > 0
    y = cg(gram_product(A, support * 1.0), residual, 0.0, atol=1e-15)
    w[support] += A.tdot(y)[support]
    return w


# ---------------------------------------------------------------------------
# maximum-entropy scaling: the positive w with A w = 1 maximizing entropy
# ---------------------------------------------------------------------------


SCALE_TOL = 1e-9  # largest row residual |A w - 1| at which scaling stops
SCALE_STEPS = 100  # Newton step budget of scale_to_ones


class ScalingError(FractionalError):
    """``scale_to_ones`` found no positive w with A w = 1; the message names
    the residual reached and the step count."""


def _pinned(A: Incidence, gram, w):
    """The columns that row inclusion pins to 0, as a boolean mask (None
    when it pins none), and the rows that cutting them leaves with no column.

    When every column through row e also passes through row f, rows e and f
    both summing to 1 leave 0 for each column through f but not e (w >= 0).
    ``gram`` is A diag(w) A^T with the diagonal A w, so G[e, f] falls short
    of (A w)_e by the weight of e's columns that miss f, at least min(w)
    when there is one: the pairs within half of that are the candidates,
    each confirmed on the id rows.
    """
    rows = A.shape[0]
    near = np.flatnonzero(gram >= (np.diagonal(gram) - w.min() / 2)[:, None])
    e, f = np.divmod(near, rows)
    other = e != f  # every row is near itself
    if not other.any():
        return None, ()
    e, f = e[other], f[other]
    # the rows in some pair, ascending (np.unique would import numpy.ma)
    involved = np.zeros(rows, dtype=bool)
    involved[e] = involved[f] = True
    involved = np.flatnonzero(involved)
    on = np.zeros((len(involved), A.shape[1]), dtype=bool)  # involved x columns
    for ones in A._grid:
        on |= ones == involved[:, None]
    on_e, on_f = on[np.searchsorted(involved, e)], on[np.searchsorted(involved, f)]
    held = ~(on_e & ~on_f).any(axis=1)
    pinned = (on_f[held] & ~on_e[held]).any(axis=0)
    if not pinned.any():  # no inclusion, or only rows with the same columns
        return None, ()
    left = A.dot(~pinned * 1.0)  # each row's count of the columns kept
    return pinned, np.flatnonzero(left == 0)


def _start(A: Incidence):
    """Newton's first dual point y, its w = exp(-A^T y) and g(y): w_j near the
    geometric mean of 1 / (row sum) over column j's rows, exactly 1 when
    every row sum is 1."""
    row_sums = A.dot(np.ones(A.shape[1]))  # whole numbers, exact as floats
    y = np.log(np.maximum(row_sums, 1.0)) * A.shape[1] / max(len(A.rows), 1)
    w = np.exp(-A.tdot(y))
    return y, w, w.sum() + y.sum()


def scale_to_ones(A: Incidence) -> np.ndarray:
    """The maximum-entropy w >= 0 with A w = 1.

    Damped Newton on the convex dual g(y) = sum_j exp(-(A^T y)_j) + sum_i y_i,
    whose minimizer gives w = exp(-A^T y) with gradient 1 - A w (Darroch and
    Ratcliff's maximum-entropy weights, found by Newton steps rather than by
    iterative scaling).  Each step solves (A diag(w) A^T) d = A w - 1 by
    conjugate gradients with the Jacobi preconditioner A w, on the matrix
    that ``gram_product`` assembles once per step while A has at most
    GRAM_ROWS rows (matrix-free above), then backtracks on g (Armijo) from
    the full step, and doubles an accepted full step for as long as g keeps
    falling and stays above the floor below.  It stops once
    max |A w - 1| <= SCALE_TOL.

    Columns that no positive solution can carry leave in two ways.  Where
    the first step's matrix is assembled, it also shows the rows whose
    columns all pass through another row (``_pinned``).  The columns that
    such an inclusion pins to 0 are cut after that step, and the next
    step's matrix is searched the same way until a search finds none; a
    family with no inclusion builds nothing more and keeps its bits.  The
    rest shrink toward 0, and those below SCALE_TOL carry less than the
    tolerance on every row.  Both come back as exactly 0, so that
    ``polish`` rebalances the others without them.  A full step shrinks
    such a column by only about e^-1: the K_12^(3) residuals with forced
    zeros took 21-24 Newton steps, 13-17 with the longer steps, and 7-10
    with the cut (6-9 when no column must weigh 0).

    A feasible w bounds g below by sum_j w_j, which is rows / c when every
    column holds c ones, so a step below that bound proves that A w = 1 has
    no solution w >= 0, and so does a cut that leaves a row with no column.
    ScalingError then, naming that row, or when SCALE_STEPS steps or the
    line search run out.
    """
    rows, cols = A.shape
    floor = rows / len(A._grid)
    y, w, g = _start(A)
    kept = None  # the given columns that A keeps, once a cut drops some
    search = rows <= GRAM_ROWS  # for pinned columns, on the assembled matrix
    pins, emptied = None, ()
    for step in range(SCALE_STEPS + 1):
        aw = A.dot(w)
        r = aw - 1.0
        residual = np.abs(r).max(initial=0.0)
        if residual <= SCALE_TOL:
            w = np.where(w < SCALE_TOL, 0.0, w)
            if kept is not None:
                out = np.zeros(cols)
                out[kept] = w
                w = out
            return w
        if g < floor or len(emptied) or step == SCALE_STEPS:
            break
        if search:
            gram = A.gram(w, aw)
            pins, emptied = _pinned(A, gram, w)
            search = pins is not None
            product = gram.dot
            del gram
        else:
            product = gram_product(A, w, aw)
        diag = np.maximum(aw, np.finfo(float).tiny)
        # an infeasible A w = 1 may leave CG without a solution: d turns
        # nan or points uphill, and the line search below finds no step
        with np.errstate(all="ignore"):
            d = cg(product, r, min(0.1, residual**0.5), precond=lambda x: x / diag)
            del product  # the matrix, before the next step assembles its own
            u, slope = A.tdot(d), -(r @ d)
            for t in 0.5 ** np.arange(40):
                # g(y + t d) - g(y), summed term by term: the difference of
                # two values of g loses the digits Armijo needs near the end
                change = np.sum(w * np.expm1(-t * u)) + t * d.sum()
                if change <= 1e-4 * t * slope:
                    break
            else:
                break
            # a full step shrinks a column that must weigh 0 by only about
            # e^-1: double an accepted full step while g keeps falling, but
            # not below the floor: that proves A w = 1 infeasible, and along
            # such a direction g falls without bound
            while t >= 1 and g + change >= floor:
                longer = np.sum(w * np.expm1(-2 * t * u)) + 2 * t * d.sum()
                if not longer < change:
                    break
                t, change = 2 * t, longer
        y += t * d
        if pins is None:
            w = np.exp(-A.tdot(y))
            g += change
        else:
            # go on from the lower of g at y and at the cut family's start:
            # when the cut leaves each row one column, that start solves
            # A w = 1, where g meets the floor
            kept = np.flatnonzero(~pins) if kept is None else kept[~pins]
            A = Incidence(A._grid.T[~pins], rows)
            w = np.exp(-A.tdot(y))
            g = w.sum() + y.sum()
            start = _start(A)
            if start[2] < g:
                y, w, g = start
    message = (
        f"no positive solution of A w = 1: residual {residual:.3g} "
        f"after {step} Newton steps"
    )
    if len(emptied):
        message += f"; row {emptied[0]} lies only on columns that row inclusion pins to 0"
    raise ScalingError(message)


# ---------------------------------------------------------------------------
# the matching of non-regular hosts: max z subject to A w = 1, w >= z
# ---------------------------------------------------------------------------


def linprog(c, *args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(c, *args, **kwargs)


def pfm_lp(H: Hypergraph) -> EdgeWeighting:
    """The max-min PFM: maximize the minimum edge weight subject to PFM constraints.

    Solves max z s.t. A w = 1, w >= z over the sparse vertex-by-edge
    incidence A.  Substituting w = u + z with u >= 0 turns the bound w >= z
    into the extra column A 1 for z: one ``linprog`` call on [A | A 1] (u, z)
    = 1, u, z >= 0, with m + 1 columns and no inequality rows.  The weights
    u + z are then polished onto the vertex sums, on the ``Incidence`` of
    the same ones (the host's edges as its columns); every one is at least
    z*.
    """
    if H.m == 0:
        raise LPInfeasibleError("no edges to weight")
    from scipy import sparse

    inc = Incidence(np.array(H.edges), H.n)
    cols = np.repeat(np.arange(H.m), H.k)
    A = sparse.csr_matrix((np.ones(H.m * H.k), (inc.rows, cols)), shape=(H.n, H.m))
    c = np.zeros(H.m + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_eq=sparse.hstack([A, sparse.csr_matrix(A.sum(axis=1))], format="csr"),
        b_eq=np.ones(H.n),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise LPInfeasibleError(f"no perfect fractional matching: {res.message}")
    if res.x[-1] <= FLOAT_TOL:
        raise LPInfeasibleError(
            "perfect fractional matchings exist but none with all-positive weights"
        )
    return EdgeWeighting(H, polish(inc, res.x[:-1] + res.x[-1]).tolist(), exact=False)


def pipeline_weighting(H: Hypergraph) -> EdgeWeighting:
    """The pipeline's float weighting: uniform on regular hosts, else ``pfm_lp``.

    The uniform weighting is also the fallback when the LP finds no
    all-positive PFM. Raises FractionalError when H has no edges.
    The LP stays because the reserve draw keeps e with probability
    eps w(e)/w_max: its max-min weights reserve about 6-7% of the edges
    of G(12, 0.6) or G(24, 0.8), the maximum-entropy weights of
    ``scale_to_ones`` 25% and 44%, uniform weights 50%, and at the default
    eps those larger reserves pack fewer seeds.
    """
    if len(set(H.degrees())) == 1:
        return uniform_weighting(H, exact=False)
    try:
        return pfm_lp(H)
    except LPInfeasibleError:
        return uniform_weighting(H, exact=False)


# ---------------------------------------------------------------------------
# sparsification
# ---------------------------------------------------------------------------


def sparsify_intersecting(
    H: Hypergraph, eps: float, pfm: EdgeWeighting, seed: int
) -> Hypergraph:
    """Random spanning subgraph keeping e with probability eps*w(e)/w_max:
    the sparsification that intersects an edgeless F.

    One ``rng.random()`` draw per edge of H, in host order, against its
    weight read as a float.  The kept edges are a subsequence of H's, so
    the result is built without re-checking them.
    """
    if not (0.0 <= eps <= 1.0):
        raise FractionalError(f"eps must lie in [0, 1], got {eps}")
    if pfm.host != H:
        raise FractionalError("the matching must weight H's edges")
    ws = np.array(pfm.weights, dtype=float)
    rng = random.Random(seed)
    draws = np.array([rng.random() for _ in range(H.m)])
    kept = tuple(itertools.compress(H.edges, (draws < eps * ws / ws.max()).tolist()))
    return Hypergraph._from_canonical(H.k, H.n, kept)
