"""Perfect fractional matchings: uniform start, walk redistribution, the
max-min LP, balancedness, and weight-biased sparsification; and
``scale_to_ones``, the maximum-entropy positive solution of A w = 1 that
weights the cover's cycle family.

The 0/1 matrices of ``scale_to_ones`` and ``polish`` are ``Incidence``
objects, whose products and the conjugate gradients of ``cg`` are plain
numpy.  Only the LP needs scipy: ``linprog`` and ``pfm_lp`` import it when
they first run, so a regular host is weighted and covered without loading
it.

A perfect fractional matching (PFM) assigns a positive weight to every edge so
that the weights at each vertex sum to 1. ``redistribute_pfm`` turns the uniform
weighting into a PFM by shifting weight along short self-avoiding walks; in
exact (rational) mode the vertex sums come out equal to 1 identically.

``pipeline_weighting`` is the one weighting policy of ``decompose``, which
weighs the input host once per run, and of ``build_absorbing_structure``'s
residuals: uniform on regular hosts, the max-min LP otherwise, uniform when
no all-positive PFM exists.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .hypergraph import Hypergraph
from .tightpaths import tight_extensions

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

    __slots__ = ("host", "weights", "exact", "_agg_cache", "_table_cache")

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
        self._table_cache = {}  # walk-sampler cumulative tables, keyed by suffix set

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

    def as_floats(self) -> "EdgeWeighting":
        if not self.exact:
            return self
        return EdgeWeighting(self.host, [float(w) for w in self.weights], exact=False)

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
    k-windows edges of H and no repeated vertex. Above the cap a seeded
    shuffle picks which walks survive.
    """
    k = H.k
    rng = random.Random(seed)
    registry: Dict[Tuple[int, int], List[tuple]] = {}
    for s in range(H.n):
        by_end: Dict[int, List[tuple]] = {}
        for walk in tight_extensions(H, (s,), k + 1):
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
    """A 0/1 matrix: the positions of its ones, by column, then by row.

    ``dot`` and ``tdot`` add the terms of every sum in the order that
    scipy's CSR products add them (ascending column in A x, ascending row
    in A^T y, each starting from 0), so they return the same bits.  When
    every column holds the same number of ones, ``gram`` assembles the
    dense A diag(w) A^T from them.
    """

    __slots__ = ("rows", "cols", "shape", "col_counts", "_grid")

    def __init__(self, rows, cols, shape):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        key = cols * shape[0] + rows
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise FractionalError("a 0/1 matrix holds each position at most once")
        self.rows, self.cols, self.shape = rows[order], cols[order], tuple(shape)
        self.col_counts = np.bincount(self.cols, minlength=shape[1])
        # equal column counts (every cycle has L edges, every edge k
        # vertices): the rows of column j fill column j of the grid
        counts = self.col_counts
        if len(counts) and counts.min() == counts.max() > 0:
            self._grid = self.rows.reshape(shape[1], -1).T.copy()
        else:
            self._grid = None

    @classmethod
    def of(cls, A) -> "Incidence":
        """A itself, or the ones of a dense, nested-list or scipy 0/1 matrix."""
        if isinstance(A, cls):
            return A
        if hasattr(A, "tocoo"):
            A = A.tocoo()
            rows, cols, values = A.row, A.col, A.data
        else:
            A = np.asarray(A)
            rows, cols = np.nonzero(A)
            values = A[rows, cols]
        ones = values != 0
        if not np.all(values[ones] == 1):
            raise FractionalError("not a 0/1 matrix")
        return cls(rows[ones], cols[ones], A.shape)

    def dot(self, x) -> np.ndarray:
        """A x."""
        counts = self.col_counts if self._grid is None else len(self._grid)
        return np.bincount(self.rows, np.repeat(x, counts), self.shape[0])

    def tdot(self, y) -> np.ndarray:
        """A^T y."""
        if self._grid is None:
            return np.bincount(self.cols, y[self.rows], self.shape[1])
        terms = y[self._grid]
        total = terms[0] + 0.0
        for term in terms[1:]:
            total += term
        return total

    def gram(self, w) -> np.ndarray:
        """A diag(w) A^T as a dense rows x rows array, for equal column counts.

        Entry (e, f) sums w_j over the columns j with ones in rows e and f.
        Each row of the grid scatters w against every row of the grid, so
        no temporary is larger than the ones and the result is the only
        rows x rows array.  The diagonal is then set to A w, the bits of
        ``dot`` and of the Jacobi preconditioner of ``scale_to_ones``: so
        set, the 30 K_12^(3) residual families take as many Newton steps as
        the matrix-free solves (summed by the scatter, seed 9's took 18
        against 17).
        """
        if self._grid is None:
            raise FractionalError("gram needs equal column counts")
        rows = self.shape[0]
        gram = np.zeros((rows, rows))
        flat = gram.reshape(-1)
        # a copy, not a broadcast: np.add.at is 4x slower on a broadcast
        # view, and numpy 2.4.6 summed 1-D values against a 2-D index to nan
        weights = np.tile(w, len(self._grid))
        for e in self._grid * rows:
            np.add.at(flat, (e + self._grid).ravel(), weights)
        flat[:: rows + 1] = self.dot(w)
        return gram


# Newton and polish assemble A diag(w) A^T while A has at most this many
# rows.  Scaling plus polish of seed-0 residual 6-cycle families, assembled
# against two passes over the ones (best of 9, 2-vCPU VM): K_15^(3)
# (m = 226 rows, 4,180 cycles) 5.3 against 7.1 ms, K_18^(3) (m = 400,
# 14,957 cycles) 23.5 against 26.2 ms; the sampled K_20^(3) family
# (m = 557, 6,106 cycles) 16.4 against 11.4 ms and K_24^(3) (m = 992)
# 31.7 against 16.6 ms.
GRAM_ROWS = 450


def gram_product(A: Incidence, w):
    """x -> A diag(w) A^T x: a product with ``A.gram(w)`` while A has equal
    column counts and at most GRAM_ROWS rows, else two passes over its ones."""
    if A._grid is None or A.shape[0] > GRAM_ROWS:
        return lambda x: A.dot(w * A.tdot(x))
    return A.gram(w).dot


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
        if np.linalg.norm(r) < atol:
            break
        z = r if precond is None else precond(r)
        rho = np.dot(r, z)
        if step:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def polish(A, w) -> np.ndarray:
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
    A = Incidence.of(A)
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


def scale_to_ones(A) -> np.ndarray:
    """The maximum-entropy w >= 0 with A w = 1, for a 0/1 matrix A.

    Damped Newton on the convex dual g(y) = sum_j exp(-(A^T y)_j) + sum_i y_i,
    whose minimizer gives w = exp(-A^T y) with gradient 1 - A w (Darroch and
    Ratcliff's maximum-entropy weights, found by Newton steps rather than by
    iterative scaling).  Each step solves (A diag(w) A^T) d = A w - 1 by
    conjugate gradients with the Jacobi preconditioner A w, on the matrix
    that ``gram_product`` assembles once per step while A has at most
    GRAM_ROWS rows (matrix-free above), then backtracks on g (Armijo) from
    the full step, and doubles an accepted full step for as long as g keeps
    falling and stays above the floor below.  It stops once
    max |A w - 1| <= SCALE_TOL.  Columns that no positive solution can carry
    shrink toward 0; those below SCALE_TOL carry less than the tolerance on
    every row and come back as exactly 0, so that ``polish`` rebalances the
    rest without them.  A full step shrinks such a column by only about
    e^-1; the longer steps cut the Newton steps of K_12^(3) residuals with
    forced zeros from 21-24 to 13-17 (7 when no column must weigh 0).

    A feasible w bounds g below by sum_j w_j >= rows / (largest column sum),
    so a step below that bound proves that A w = 1 has no solution w >= 0.
    ScalingError then, or when SCALE_STEPS steps or the line search run out.
    """
    A = Incidence.of(A)
    rows, cols = A.shape
    floor = rows / A.col_counts.max(initial=1)
    # start near w_j = the geometric mean of 1 / (row sum) over column j's rows
    row_sums = np.bincount(A.rows, minlength=rows)
    y = np.log(np.maximum(row_sums, 1.0)) * cols / max(len(A.rows), 1)
    w = np.exp(-A.tdot(y))
    g = w.sum() + y.sum()
    for step in range(SCALE_STEPS + 1):
        aw = A.dot(w)
        r = aw - 1.0
        residual = np.abs(r).max(initial=0.0)
        if residual <= SCALE_TOL:
            return np.where(w < SCALE_TOL, 0.0, w)
        if g < floor or step == SCALE_STEPS:
            break
        diag = np.maximum(aw, np.finfo(float).tiny)
        # an infeasible A w = 1 may leave CG without a solution: d turns
        # nan or points uphill, and the line search below finds no step
        with np.errstate(all="ignore"):
            d = cg(
                gram_product(A, w),
                r,
                min(0.1, residual**0.5),
                precond=lambda x: x / diag,
            )
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
        w = np.exp(-A.tdot(y))
        g += change
    raise ScalingError(
        f"no positive solution of A w = 1: residual {residual:.3g} "
        f"after {step} Newton steps"
    )


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
    u + z are then polished onto the vertex sums; every one is at least z*.
    """
    if H.m == 0:
        raise LPInfeasibleError("no edges to weight")
    from scipy import sparse

    rows = [v for e in H.edges for v in e]
    cols = np.repeat(np.arange(H.m), H.k)
    A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(H.n, H.m))
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
    return EdgeWeighting(H, polish(A, res.x[:-1] + res.x[-1]).tolist(), exact=False)


def pipeline_weighting(H: Hypergraph) -> EdgeWeighting:
    """The pipeline's weighting: uniform on regular hosts, else ``pfm_lp``.

    The uniform weighting is also the fallback when the LP finds no
    all-positive PFM. Raises FractionalError when H has no edges.
    The LP stays because the reserve draw keeps e with probability
    eps w(e)/w_max: its max-min weights reserve about 6-7% of the edges
    of G(12, 0.6) or G(24, 0.8), the maximum-entropy weights of
    ``scale_to_ones`` 25% and 44%, uniform weights 50%, and at the default
    eps those larger reserves pack fewer seeds.
    """
    if len(set(H.degrees())) == 1:
        return uniform_weighting(H)
    try:
        return pfm_lp(H)
    except LPInfeasibleError:
        return uniform_weighting(H)


# ---------------------------------------------------------------------------
# sparsification
# ---------------------------------------------------------------------------


def sparsify_intersecting(
    H: Hypergraph, eps: float, pfm: EdgeWeighting, seed: int
) -> Hypergraph:
    """Random spanning subgraph keeping e with probability eps*w(e)/w_max:
    the sparsification that intersects an edgeless F.

    One ``rng.random()`` draw per edge of H, in host order.
    """
    if not (0.0 <= eps <= 1.0):
        raise FractionalError(f"eps must lie in [0, 1], got {eps}")
    if pfm.host != H:
        raise FractionalError("the matching must weight H's edges")
    wmax = float(pfm.max_weight())
    rng = random.Random(seed)
    kept = [
        e for e, w in zip(H.edges, pfm.weights) if rng.random() < eps * float(w) / wmax
    ]
    return Hypergraph(H.k, H.n, kept)
