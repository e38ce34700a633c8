import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as scipy_cg
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors import fractional
from cyclefactors.fractional import (
    FLOAT_TOL,
    SCALE_STEPS,
    SCALE_TOL,
    BalanceViolationError,
    EdgeWeighting,
    FractionalError,
    LPInfeasibleError,
    NotConnectedError,
    Incidence,
    ScalingError,
    balancedness,
    build_walk_registry,
    cg,
    gram_product,
    pfm_lp,
    pipeline_weighting,
    polish,
    redistribute_pfm,
    scale_to_ones,
    sparsify_intersecting,
    uniform_weighting,
)
from cyclefactors.cover import cycles_through_edge
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph


def k5_minus_edge():
    return complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])


def random_host(k, n, p, seed):
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), k) if rng.random() < p]
    return Hypergraph(k, n, edges)


def vertex_edge_incidence(H):
    A = np.zeros((H.n, H.m))
    for j, e in enumerate(H.edges):
        A[list(e), j] = 1.0
    return A


class TestUniformWeighting:
    def test_k4(self):
        w = uniform_weighting(complete_hypergraph(3, 4))
        assert w.weight_of((0, 1, 2)) == Fraction(1, 3)
        assert w.vertex_weight(0) == 1
        assert w.is_pfm()

    def test_k5(self):
        w = uniform_weighting(complete_hypergraph(3, 5))
        assert w.weight_of((0, 1, 2)) == Fraction(1, 6)
        assert all(w.vertex_weight(v) == 1 for v in range(5))

    def test_k5_minus_edge_deviations(self):
        w = uniform_weighting(k5_minus_edge())
        assert w.weight_of((0, 1, 3)) == Fraction(5, 27)
        assert w.vertex_weight(0) == Fraction(25, 27)
        assert w.vertex_weight(3) == Fraction(30, 27)
        assert not w.is_pfm()
        assert sum(w.vertex_weight(v) for v in range(5)) == 5  # total vertex mass is n exactly

    def test_needs_an_edge(self):
        with pytest.raises(FractionalError):
            uniform_weighting(Hypergraph(3, 5, []))


class TestAggregates:
    def test_omega_subsets_by_brute_force(self):
        H = k5_minus_edge()
        w = uniform_weighting(H)
        for j in (1, 2, 3):
            for S in itertools.combinations(range(5), j):
                expect = sum(
                    w.weight_of(e) for e in H.edges if set(S).issubset(e)
                )
                assert w.omega(S) == expect
        assert w.omega(()) == Fraction(5, 27) * 9

    @pytest.mark.parametrize("k,n", [(3, 8), (4, 8)])
    @pytest.mark.parametrize("exact", [True, False])
    def test_omega_equals_the_edge_scan_exactly(self, k, n, exact):
        rng = random.Random(k * 10 + exact)
        H = Hypergraph(k, n, [e for e in itertools.combinations(range(n), k) if rng.random() < 0.5])
        if exact:
            weights = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in H.edges]
        else:
            weights = [rng.random() + 1e-3 for _ in H.edges]
        w = EdgeWeighting(H, weights, exact=exact)
        empty = 0
        for j in range(k + 1):
            for S in itertools.combinations(range(n), j):
                scan = sum(x for e, x in zip(H.edges, weights) if set(S).issubset(e))
                assert w.omega(S) == scan
                empty += not any(set(S).issubset(e) for e in H.edges)
        assert empty > 0

    def test_oversized_sets_have_zero_weight(self):
        w = uniform_weighting(complete_hypergraph(3, 5))
        assert w.omega((0, 1, 2, 3)) == 0

    def test_positive_weights_enforced(self):
        H = complete_hypergraph(3, 4)
        with pytest.raises(BalanceViolationError):
            EdgeWeighting(H, [Fraction(1, 3)] * 3 + [Fraction(0)], exact=True)


class TestRedistribution:
    def test_regular_host_is_identity(self):
        H = complete_hypergraph(3, 6)
        W = build_walk_registry(H, seed=1)
        out = redistribute_pfm(H, W)
        assert out.weights == uniform_weighting(H).weights

    def test_k5_minus_edge_exact_pfm(self):
        H = k5_minus_edge()
        out = redistribute_pfm(H, build_walk_registry(H, seed=0))
        assert all(out.vertex_weight(v) == 1 for v in range(5))
        assert out.omega(()) == uniform_weighting(H).omega(())  # mass conserved

    def test_disconnected_host_raises(self):
        edges = list(itertools.combinations(range(4), 3)) + [
            tuple(v + 4 for v in e) for e in itertools.combinations(range(4), 3)
        ]
        H = Hypergraph(3, 8, edges)
        with pytest.raises(NotConnectedError):
            redistribute_pfm(H, build_walk_registry(H))

    def test_order_independence(self):
        H = k5_minus_edge()
        W = build_walk_registry(H, seed=3)
        items = list(W.items())
        random.Random(9).shuffle(items)
        assert redistribute_pfm(H, dict(items)).weights == redistribute_pfm(H, W).weights

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_near_regular_hosts_balance_exactly(self, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 8)
        # drop a couple of edges from the complete host; stays well-connected
        pool = list(itertools.combinations(range(n), 3))
        drop = rng.sample(pool, rng.randint(0, 2))
        H = complete_hypergraph(3, n).remove_edges(drop)
        out = redistribute_pfm(H, build_walk_registry(H, seed=seed))
        assert out.is_pfm()
        # deviations this small keep the weights within a 3:1 envelope even
        # when both dropped edges crowd one vertex
        assert balancedness(out) <= 3

    def test_registry_cap_is_respected_and_identity_cap_independent(self):
        H = k5_minus_edge()
        small = build_walk_registry(H, cap=2, seed=7)
        assert all(len(v) <= 2 for v in small.values())
        out = redistribute_pfm(H, small)
        assert out.is_pfm()


class TestBalancedness:
    def test_uniform_is_one(self):
        assert balancedness(uniform_weighting(complete_hypergraph(3, 6))) == 1

    def test_two_to_one(self):
        H = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        w = EdgeWeighting(H, [Fraction(1), Fraction(2)], exact=True)
        assert balancedness(w) == 2


class TestLPFallback:
    def test_matches_pfm_constraints(self):
        H = k5_minus_edge()
        w = pfm_lp(H)
        assert not w.exact
        assert w.is_pfm()
        assert min(w.weights) > 0

    def test_hopeless_host(self):
        # vertex 4 in only one edge forces w=1 there, starving vertex overlap:
        # actually a host with an isolated vertex has no PFM at all
        H = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3)])
        with pytest.raises(LPInfeasibleError):
            pfm_lp(H)

    def test_lp_on_complete_graph_is_balanced(self):
        w = pfm_lp(complete_hypergraph(3, 7))
        assert balancedness(w) < 1 + 1e-6

    def test_large_non_regular_host(self):
        # m is about 8.9k: a dense m x m block in the LP would take 0.6 GB
        H = random_host(3, 40, 0.9, seed=0)
        assert 8500 < H.m < 9300
        assert len(set(H.degrees())) > 1
        w = pfm_lp(H)
        assert w.is_pfm()
        assert w.min_weight() > 0


class TestPipelineWeighting:
    def test_regular_host_gets_exact_uniform_weights(self):
        H = complete_hypergraph(3, 7)
        w = pipeline_weighting(H)
        assert w.exact
        assert w.weights == uniform_weighting(H).weights
        assert set(w.weights) == {Fraction(1, 15)}

    def test_non_regular_host_gets_the_lp_matching(self):
        H = complete_hypergraph(3, 6).remove_edges([(0, 1, 2)])
        w = pipeline_weighting(H)
        assert not w.exact
        assert w.is_pfm()
        assert w.weights == pfm_lp(H).weights

    def test_host_without_a_pfm_falls_back_to_uniform(self):
        H = Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4)])
        with pytest.raises(LPInfeasibleError):
            pfm_lp(H)
        w = pipeline_weighting(H)
        assert w.exact
        assert w.weights == (Fraction(5, 6), Fraction(5, 6))
        assert not w.is_pfm()

    def test_needs_an_edge(self):
        with pytest.raises(FractionalError):
            pipeline_weighting(Hypergraph(3, 5, []))


class TestMaxminLP:
    @pytest.mark.parametrize("k,n", [(3, 7), (3, 9), (4, 8)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_inequality_form(self, k, n, seed, monkeypatch, check_against_oracle):
        # pfm_lp's z is the last entry of its one linprog solution
        from cyclefactors import fractional

        solved = []
        real = fractional.linprog

        def recorded(c, **kwargs):
            assert "A_ub" not in kwargs
            solved.append(real(c, **kwargs))
            return solved[-1]

        monkeypatch.setattr(fractional, "linprog", recorded)
        H = random_host(k, n, 0.6, seed)
        A = vertex_edge_incidence(H)
        want = check_against_oracle(A)
        try:
            w = np.array(pfm_lp(H).weights)
        except LPInfeasibleError:
            w = None
        [res] = solved
        assert res.success == (want is not None)
        if want is None:
            assert w is None
            return
        z = res.x[-1]
        assert abs(z - want) <= 1e-9
        assert (w is not None) == (z > FLOAT_TOL)
        if w is not None:
            assert w.min() >= z - 1e-12
            assert np.abs(A @ w - 1).max() <= 1e-12
            assert w.min() == pytest.approx(z, abs=1e-9)

    def test_polish_removes_a_perturbation(self):
        H = random_host(3, 9, 0.7, seed=1)
        A = vertex_edge_incidence(H)
        w = np.array(pfm_lp(H).weights)
        noisy = w + 1e-8 * np.random.default_rng(0).standard_normal(len(w))
        assert np.abs(A @ noisy - 1).max() > 1e-9
        fixed = polish(A, noisy)
        assert np.abs(A @ fixed - 1).max() <= 1e-12
        assert fixed.min() > 0

    def test_polish_returns_an_exact_input_without_solving(self, monkeypatch):
        from cyclefactors import fractional

        def refuse(*args, **kwargs):
            raise AssertionError("cg called on an exact input")

        H = complete_hypergraph(3, 6)
        A = vertex_edge_incidence(H)
        w = np.full(H.m, 0.1)
        assert np.abs(A @ w - 1).max() <= 1e-12
        monkeypatch.setattr(fractional, "cg", refuse)
        assert polish(A, w).tobytes() == w.tobytes()
        with pytest.raises(AssertionError, match="exact input"):
            polish(A, w + 1e-8 * np.random.default_rng(0).standard_normal(H.m))
        monkeypatch.undo()
        fixed = polish(A, w + 1e-8 * np.random.default_rng(0).standard_normal(H.m))
        assert np.abs(A @ fixed - 1).max() <= 1e-12


class TestScaleToOnes:
    @pytest.mark.parametrize("k,n,seed", [(3, 7, 0), (3, 9, 1), (4, 8, 2)])
    def test_maximum_entropy_positive_solution(self, k, n, seed):
        H = random_host(k, n, 0.6, seed)
        A = vertex_edge_incidence(H)
        w = scale_to_ones(A)
        assert w.min() > 0
        assert np.abs(A @ w - 1).max() <= SCALE_TOL
        # maximum entropy: log w lies in the row space of A (w = exp(-A^T y))
        y = np.linalg.lstsq(A.T, -np.log(w), rcond=None)[0]
        assert np.abs(A.T @ y + np.log(w)).max() <= 1e-6

    def test_columns_no_positive_solution_carries_come_back_zero(self):
        # w1 + w2 = w2 + w3 = w1 + w2 + w3 = 1 forces w1 = w3 = 0
        A = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
        w = scale_to_ones(A)
        assert w[0] == w[2] == 0.0
        assert abs(w[1] - 1) <= SCALE_TOL

    @pytest.mark.parametrize(
        "A,steps",
        [
            # only w3 = -1 solves it: one step takes g below the bound that
            # every feasible w keeps (without that check: 100 steps)
            ([[1, 1, 1], [1, 0, 0], [0, 1, 0]], 1),
            # no real solution: conjugate gradients find no descent direction
            ([[1, 0], [0, 1], [1, 1]], 0),
        ],
    )
    def test_no_nonnegative_solution_fails_fast(self, A, steps):
        with pytest.raises(ScalingError) as exc:
            scale_to_ones(A)
        named = re.search(r"residual \S+ after (\d+) Newton steps", str(exc.value))
        assert named and int(named[1]) == steps < SCALE_STEPS


def k12_cycle_family():
    """The edge-by-cycle 0/1 matrix of a sampled K_12^(3) family of 6-cycles,
    as the cover builds it: one column per cycle, 6 ones in each."""
    H = complete_hypergraph(3, 12)
    cycles = {}
    for seed, e in enumerate(H.edges):
        for C in cycles_through_edge(H, 6, e, limit=3, seed=seed):
            cycles.setdefault(C.canonical(), C)
    index = {e: i for i, e in enumerate(H.edges)}
    rows, cols = [], []
    for j, C in enumerate(sorted(cycles.values(), key=lambda C: C.canonical())):
        for e in C.edges():
            rows.append(index[e])
            cols.append(j)
    return rows, cols, (H.m, len(cycles))


def spread(rng, size):
    """Signed values over 16 orders of magnitude: sums that change bits
    when their terms are added in another order."""
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)


class TestNumpyPortIsBitIdentical:
    """``Incidence`` and ``cg`` return the bits of scipy's CSR products and
    ``scipy.sparse.linalg.cg``, which they replace."""

    @staticmethod
    def matrices():
        rows, cols, shape = k12_cycle_family()
        rng = np.random.default_rng(5)
        return [
            sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape),
            sparse.csr_matrix(np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=float)),
            sparse.csr_matrix((rng.random((40, 60)) < 0.2).astype(float)),
        ]

    def test_products_equal_scipy_csr(self):
        rng = np.random.default_rng(0)
        for A in self.matrices():
            inc = Incidence.of(A)
            # the K_12^(3) family (220 edge rows) takes the equal-count grid
            assert (inc._grid is not None) == (A.shape[0] == 220)
            for _ in range(3):
                x, y = spread(rng, A.shape[1]), spread(rng, A.shape[0])
                assert inc.dot(x).tobytes() == (A @ x).tobytes()
                assert inc.tdot(y).tobytes() == (A.T.tocsr() @ y).tobytes()
                assert inc.tdot(y).tobytes() == (A.T @ y).tobytes()

    def test_dense_lists_and_scipy_give_the_same_ones(self):
        dense = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
        for A in (dense, dense.tolist(), sparse.csc_matrix(dense)):
            inc = Incidence.of(A)
            assert inc.shape == (3, 3)
            assert inc.cols.tolist() == [0, 0, 1, 1, 1, 2, 2]
            assert inc.rows.tolist() == [0, 2, 0, 1, 2, 1, 2]
        with pytest.raises(FractionalError):
            Incidence.of([[1, 2], [0, 1]])
        with pytest.raises(FractionalError):
            Incidence([0, 0], [1, 1], (1, 2))

    def test_cg_equals_scipy_on_a_newton_system(self):
        rows, cols, shape = k12_cycle_family()
        A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)
        At = A.T.tocsr()
        inc = Incidence(rows, cols, shape)
        w = np.exp(np.random.default_rng(1).uniform(-3, 0, shape[1]))
        r = A @ w - 1.0
        diag = A @ w
        rtol = 1e-10  # far below a Newton step's, so many iterations are compared
        want = scipy_cg(
            LinearOperator(A.shape[:1] * 2, matvec=lambda x: A @ (w * (At @ x))),
            r,
            rtol=rtol,
            M=LinearOperator(A.shape[:1] * 2, matvec=lambda x: x / diag),
        )[0]
        got = cg(lambda x: inc.dot(w * inc.tdot(x)), r, rtol, precond=lambda x: x / diag)
        assert got.tobytes() == want.tobytes()

    def test_cg_equals_scipy_on_the_polish_system(self):
        # polish's S S^T on the positive support, against its masked A A^T
        rows, cols, shape = k12_cycle_family()
        rng = np.random.default_rng(2)
        A = sparse.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)
        inc = Incidence(rows, cols, shape)
        w = np.where(rng.random(shape[1]) < 0.1, 0.0, rng.random(shape[1]))
        residual = 1.0 - A @ w
        support = w > 0
        S = A[:, np.flatnonzero(support)].tocsr()
        St = S.T.tocsr()
        want = scipy_cg(
            LinearOperator(S.shape[:1] * 2, matvec=lambda y: S @ (St @ y)),
            residual,
            rtol=0.0,
            atol=1e-15,
        )[0]
        got = cg(
            lambda y: inc.dot(np.where(support, inc.tdot(y), 0.0)),
            residual,
            0.0,
            atol=1e-15,
        )
        assert got.tobytes() == want.tobytes()
        assert (St @ want).tobytes() == inc.tdot(got)[support].tobytes()


class TestGram:
    """``Incidence.gram`` is A diag(w) A^T, and ``gram_product`` multiplies
    by it while A is small and passes over the ones otherwise."""

    @staticmethod
    def equal_count_matrices():
        rows, cols, shape = k12_cycle_family()
        family = np.zeros(shape)
        family[rows, cols] = 1.0
        return [family, vertex_edge_incidence(random_host(3, 9, 0.7, seed=1))]

    def test_equals_the_dense_product(self):
        rng = np.random.default_rng(3)
        for A in self.equal_count_matrices():
            inc = Incidence.of(A)
            for w in (rng.random(A.shape[1]), (rng.random(A.shape[1]) < 0.8) * 1.0):
                want = A @ np.diag(w) @ A.T
                got = inc.gram(w)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-15 * want.max()

    def test_unequal_column_counts_stay_matrix_free(self):
        rng = np.random.default_rng(4)
        for A in TestNumpyPortIsBitIdentical.matrices()[1:]:
            inc = Incidence.of(A)
            with pytest.raises(FractionalError, match="equal column counts"):
                inc.gram(np.ones(A.shape[1]))
            w, x = rng.random(A.shape[1]), spread(rng, A.shape[0])
            assert gram_product(inc, w)(x).tobytes() == inc.dot(w * inc.tdot(x)).tobytes()

    def test_rows_above_the_limit_stay_matrix_free(self, monkeypatch):
        rows, cols, shape = k12_cycle_family()
        inc = Incidence(rows, cols, shape)
        rng = np.random.default_rng(5)
        w, x = rng.random(shape[1]), spread(rng, shape[0])
        assert shape[0] <= fractional.GRAM_ROWS
        assert gram_product(inc, w)(x).tobytes() == (inc.gram(w) @ x).tobytes()
        monkeypatch.setattr(fractional, "GRAM_ROWS", shape[0] - 1)
        assert gram_product(inc, w)(x).tobytes() == inc.dot(w * inc.tdot(x)).tobytes()


class TestPolishAgainstLsqr:
    """The row-space correction equals the column-space ``lsqr`` one."""

    @staticmethod
    def noisy(w, seed):
        return w + 1e-8 * np.random.default_rng(seed).standard_normal(len(w))

    @pytest.mark.parametrize("k,n,p,seed", [(3, 9, 0.7, 1), (3, 10, 0.6, 2), (4, 9, 0.8, 3)])
    def test_random_hosts(self, k, n, p, seed, check_against_lsqr):
        H = random_host(k, n, p, seed)
        check_against_lsqr(vertex_edge_incidence(H), self.noisy(pfm_lp(H).weights, seed))

    def test_more_than_ten_thousand_columns(self, check_against_lsqr):
        H = complete_hypergraph(3, 41)
        assert H.m > 10_000
        w = np.full(H.m, 1 / math.comb(40, 2))
        check_against_lsqr(vertex_edge_incidence(H), self.noisy(w, 4))

    def test_duplicate_rows(self, check_against_lsqr):
        H = random_host(3, 9, 0.7, seed=5)
        A = vertex_edge_incidence(H)
        check_against_lsqr(np.vstack([A, A[[0, 3, 3]]]), self.noisy(pfm_lp(H).weights, 5))


class TestSparsify:
    def test_eps_zero_empty_f_drops_everything(self):
        H = complete_hypergraph(3, 8)
        assert sparsify_intersecting(H, 0.0, uniform_weighting(H), seed=5).m == 0

    def test_uniform_pfm_eps_is_the_keep_probability(self):
        # the keep probability is eps * w/w_max = eps under a uniform PFM;
        # over many edges the kept fraction concentrates near eps
        H = complete_hypergraph(3, 12)
        sub = sparsify_intersecting(H, 0.5, uniform_weighting(H), seed=11)
        assert 0.35 <= sub.m / H.m <= 0.65

    def test_one_draw_per_edge_in_host_order(self):
        # the reserve is a pure function of the seed: edge i is kept iff the
        # i-th random() of Random(seed) falls below its keep probability
        H = k5_minus_edge()
        w = pfm_lp(H)
        eps, wmax = 0.6, float(w.max_weight())
        rng = random.Random(3)
        kept = tuple(
            e for e, x in zip(H.edges, w.weights) if rng.random() < eps * float(x) / wmax
        )
        assert 0 < len(kept) < H.m
        assert sparsify_intersecting(H, eps, w, seed=3).edges == kept

    def test_eps_range_checked(self):
        H = complete_hypergraph(3, 6)
        with pytest.raises(FractionalError):
            sparsify_intersecting(H, 1.5, uniform_weighting(H), seed=0)
