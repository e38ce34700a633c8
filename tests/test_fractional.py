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

from cyclefactors import cover, fractional
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
from cyclefactors.cover import _edge_ids, _enumerate_all, cycles_through_edge
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


def edge_incidence(H):
    """The vertex-by-edge ``Incidence`` of H: its edges are its columns."""
    return Incidence(np.array(H.edges), H.n)


def csr(columns, rows):
    """The scipy CSR matrix of ``Incidence(columns, rows)``."""
    columns = np.asarray(columns)
    cols = np.repeat(np.arange(len(columns)), columns.shape[1])
    return sparse.csr_matrix(
        (np.ones(columns.size), (columns.ravel(), cols)), shape=(rows, len(columns))
    )


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

    def test_nonpositive_weights_name_their_first_edge(self):
        H = complete_hypergraph(3, 6)
        w = uniform_weighting(H)
        assert w.weights == (Fraction(6, 60),) * 20
        with pytest.raises(BalanceViolationError, match=r"weight 0 on edge \(0, 1, 2\)"):
            EdgeWeighting(H, [Fraction(0)] * H.m, exact=True)
        with pytest.raises(BalanceViolationError, match=r"weight -1 on edge \(0, 1, 3\)"):
            EdgeWeighting(H, [1, -1] + [1] * (H.m - 2), exact=False)


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
    def test_regular_host_gets_float_uniform_weights(self):
        H = complete_hypergraph(3, 7)
        w = pipeline_weighting(H)
        assert not w.exact
        assert w.weights == uniform_weighting(H, exact=False).weights
        assert set(w.weights) == {float(Fraction(7, 3 * H.m))}

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
        assert not w.exact
        assert w.weights == (float(Fraction(5, 3 * 2)),) * 2
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
        fixed = polish(edge_incidence(H), noisy)
        assert np.abs(A @ fixed - 1).max() <= 1e-12
        assert fixed.min() > 0

    def test_polish_returns_an_exact_input_without_solving(self, monkeypatch):
        from cyclefactors import fractional

        def refuse(*args, **kwargs):
            raise AssertionError("cg called on an exact input")

        H = complete_hypergraph(3, 6)
        A, inc = vertex_edge_incidence(H), edge_incidence(H)
        w = np.full(H.m, 0.1)
        assert np.abs(A @ w - 1).max() <= 1e-12
        monkeypatch.setattr(fractional, "cg", refuse)
        assert polish(inc, w).tobytes() == w.tobytes()
        with pytest.raises(AssertionError, match="exact input"):
            polish(inc, w + 1e-8 * np.random.default_rng(0).standard_normal(H.m))
        monkeypatch.undo()
        fixed = polish(inc, w + 1e-8 * np.random.default_rng(0).standard_normal(H.m))
        assert np.abs(A @ fixed - 1).max() <= 1e-12


class TestScaleToOnes:
    @pytest.mark.parametrize("k,n,seed", [(3, 7, 0), (3, 9, 1), (4, 8, 2)])
    def test_maximum_entropy_positive_solution(self, k, n, seed):
        H = random_host(k, n, 0.6, seed)
        A = vertex_edge_incidence(H)
        w = scale_to_ones(edge_incidence(H))
        assert w.min() > 0
        assert np.abs(A @ w - 1).max() <= SCALE_TOL
        # maximum entropy: log w lies in the row space of A (w = exp(-A^T y))
        y = np.linalg.lstsq(A.T, -np.log(w), rcond=None)[0]
        assert np.abs(A.T @ y + np.log(w)).max() <= 1e-6

    def test_columns_no_positive_solution_carries_come_back_zero(self):
        # rows 2 and 3 force w1 = w2 = 1, and then rows 0 and 1 force w0 = 0
        w = scale_to_ones(Incidence([(0, 1), (0, 2), (1, 3)], 4))
        assert w[0] == 0.0
        assert np.abs(w[1:] - 1).max() <= SCALE_TOL

    @pytest.mark.parametrize(
        "A,steps",
        [
            # rows 3 and 4 force w2 = w3 = 1, so row 0 needs w0 + w1 = -1:
            # only w0 = w1 = -1/2 (and w4 = 3/2) solves it, and one step
            # takes g below the bound that every feasible w keeps
            (([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)], 5), 1),
            # no real solution: conjugate gradients find no descent direction
            (([(0, 1), (1, 2)], 3), 0),
        ],
    )
    def test_no_nonnegative_solution_fails_fast(self, A, steps):
        with pytest.raises(ScalingError) as exc:
            scale_to_ones(Incidence(*A))
        named = re.search(r"residual \S+ after (\d+) Newton steps", str(exc.value))
        assert named and int(named[1]) == steps < SCALE_STEPS

    def test_a_row_the_cut_leaves_without_columns_is_named(self):
        # rows 0 and 2 each lie on one column, and both columns pass through
        # row 1: each pins the other's column to 0, which leaves no row a
        # column (the first step's line search finds no step either)
        with pytest.raises(
            ScalingError,
            match=r"after 0 Newton steps; row 0 lies only on columns that row inclusion pins to 0",
        ):
            scale_to_ones(Incidence([(0, 1), (1, 2)], 3))

    @pytest.mark.parametrize("seed", range(3))
    def test_cut_columns_weigh_zero_in_every_solution(
        self, seed, pinned_columns, max_total_weight, check_against_oracle
    ):
        # random 6-row families with 3 ones per column: in most of them
        # some row's columns all pass through another row
        rng = np.random.default_rng(seed)
        cuts = 0
        for _ in range(20):
            columns, rows = random_columns(rng, 6, int(rng.integers(5, 12)), 3)
            ones = csr(columns, rows)
            cols = len(columns)
            try:
                w = scale_to_ones(Incidence(columns, rows))
            except ScalingError:
                pinned_columns(cols)
                assert max_total_weight(ones, []) is None
                continue
            cut = pinned_columns(cols)
            cuts += len(cut) > 0
            assert np.abs(ones @ w - 1).max() <= SCALE_TOL
            # the cut and every other zero weigh 0 in every solution, and
            # some solution gives every other column a positive weight
            zero = np.flatnonzero(w == 0)
            assert set(cut) <= set(zero.tolist())
            assert max_total_weight(ones, zero) <= 1e-9
            if len(zero) < cols:
                assert check_against_oracle(np.delete(ones.toarray(), zero, axis=1)) > 0
        assert cuts >= 5


def k12_cycle_family():
    """The edge-by-cycle 0/1 matrix of a sampled K_12^(3) family of 6-cycles,
    three drawn from the cycles through each edge, as the cover weighs it:
    each cycle's 6 edge ids, ascending, and the number of edges."""
    H = complete_hypergraph(3, 12)
    cycles = set()
    for seed, e in enumerate(H.edges):
        rows = cycles_through_edge(H, 6, e).tolist()
        cycles.update(map(tuple, random.Random(seed).sample(rows, 3)))
    index = {e: i for i, e in enumerate(H.edges)}
    columns = []
    for seq in sorted(cycles):
        edges = [tuple(sorted((seq + seq)[i : i + 3])) for i in range(6)]
        assert all(map(H.has_edge, edges))
        columns.append(sorted(index[e] for e in edges))
    return np.array(columns), H.m


def random_columns(rng, rows, cols, c):
    """A random 0/1 matrix with c ones in each column, as ``Incidence``
    columns: c distinct rows per column, ascending."""
    return np.sort(rng.permuted(np.tile(np.arange(rows), (cols, 1)), axis=1)[:, :c], axis=1), rows


def spread(rng, size):
    """Signed values over 16 orders of magnitude: sums that change bits
    when their terms are added in another order."""
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)


class TestNumpyPortIsBitIdentical:
    """``Incidence`` and ``cg`` return the bits of scipy's CSR products and
    ``scipy.sparse.linalg.cg``, which they replace."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(5)
        # the cycle family, then random matrices with few and many ones per row
        return [k12_cycle_family(), random_columns(rng, 40, 60, 5), random_columns(rng, 7, 300, 3)]

    def test_products_equal_scipy_csr(self):
        rng = np.random.default_rng(0)
        for columns, rows in self.matrices():
            inc, A = Incidence(columns, rows), csr(columns, rows)
            assert inc.shape == A.shape
            for _ in range(3):
                x, y = spread(rng, A.shape[1]), spread(rng, A.shape[0])
                assert inc.dot(x).tobytes() == (A @ x).tobytes()
                assert inc.tdot(y).tobytes() == (A.T.tocsr() @ y).tobytes()
                assert inc.tdot(y).tobytes() == (A.T @ y).tobytes()

    def test_the_sorted_id_matrix_is_wrapped_without_a_copy(self):
        # the 6-cycle family of program seed 0's K_12^(3) residual, as the
        # cover builds it: its edge-id matrix sorted along its rows in place
        H = complete_hypergraph(3, 12)
        sub = random.Random(0).randrange(2**63)
        rest = H.remove_edges(sparsify_intersecting(H, 0.5, uniform_weighting(H), sub).edges)
        ids = _edge_ids(rest, _enumerate_all(rest, 6, None))
        ids.sort(axis=1)
        inc = Incidence(ids, rest.m)
        assert inc.shape == (rest.m, len(ids))
        # one int32 array: rows reads it flat, the grid is its transpose
        assert inc.rows.dtype == np.int32
        assert inc.rows.base is ids and inc._grid.base is ids
        A = csr(ids, rest.m)
        rng = np.random.default_rng(6)
        for _ in range(3):
            x, y = spread(rng, inc.shape[1]), spread(rng, inc.shape[0])
            assert inc.dot(x).tobytes() == (A @ x).tobytes()
            assert inc.tdot(y).tobytes() == (A.T @ y).tobytes()
        # each column lists its rows once, ascending
        for columns in ([[0, 1], [2, 2]], [[1, 0]]):
            with pytest.raises(FractionalError, match="once, ascending"):
                Incidence(columns, 3)

    def test_cg_equals_scipy_on_a_newton_system(self):
        columns, rows = k12_cycle_family()
        A = csr(columns, rows)
        At = A.T.tocsr()
        inc = Incidence(columns, rows)
        w = np.exp(np.random.default_rng(1).uniform(-3, 0, A.shape[1]))
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
        columns, rows = k12_cycle_family()
        rng = np.random.default_rng(2)
        A = csr(columns, rows).tocsc()
        inc = Incidence(columns, rows)
        w = np.where(rng.random(A.shape[1]) < 0.1, 0.0, rng.random(A.shape[1]))
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

    def test_equals_the_dense_product(self):
        rng = np.random.default_rng(3)
        H = random_host(3, 9, 0.7, seed=1)
        for columns, rows in (k12_cycle_family(), (np.array(H.edges), H.n)):
            inc, A = Incidence(columns, rows), csr(columns, rows).toarray()
            for w in (rng.random(A.shape[1]), (rng.random(A.shape[1]) < 0.8) * 1.0):
                want = A @ np.diag(w) @ A.T
                got = inc.gram(w)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-15 * want.max()

    def test_newton_passes_its_a_w_as_the_diagonal(self, monkeypatch):
        inc = Incidence(*k12_cycle_family())
        w = np.random.default_rng(4).random(inc.shape[1])
        assert inc.gram(w, inc.dot(w)).tobytes() == inc.gram(w).tobytes()
        # each assembled Newton matrix takes the step's A w, not a new product
        real, passed = Incidence.gram, []

        def recorded(A, w, diagonal=None):
            passed.append(diagonal is not None and diagonal.tobytes() == A.dot(w).tobytes())
            return real(A, w, diagonal)

        monkeypatch.setattr(Incidence, "gram", recorded)
        scale_to_ones(inc)
        assert passed and all(passed)

    def test_rows_above_the_limit_stay_matrix_free(self, monkeypatch):
        inc = Incidence(*k12_cycle_family())
        rng = np.random.default_rng(5)
        w, x = rng.random(inc.shape[1]), spread(rng, inc.shape[0])
        assert inc.shape[0] <= fractional.GRAM_ROWS
        assert gram_product(inc, w)(x).tobytes() == (inc.gram(w) @ x).tobytes()
        monkeypatch.setattr(fractional, "GRAM_ROWS", inc.shape[0] - 1)
        assert gram_product(inc, w)(x).tobytes() == inc.dot(w * inc.tdot(x)).tobytes()


def residual_family(n, monkeypatch):
    """The ``Incidence`` that ``fractional_cycle_decomposition`` weighs on
    the K_n^(3) residual of program seed 0's first pipeline pass, taken
    before any weighting runs."""
    H = complete_hypergraph(3, n)
    sub = random.Random(0).randrange(2**63)
    rest = H.remove_edges(sparsify_intersecting(H, 0.5, uniform_weighting(H), sub).edges)

    class Taken(Exception):
        pass

    def take(A):
        raise Taken(A)

    with monkeypatch.context() as m, pytest.raises(Taken) as taken:
        m.setattr(cover, "scale_to_ones", take)
        cover.fractional_cycle_decomposition(rest, 6, seed=sub)
    return taken.value.args[0]


class TestBlockedProducts:
    """``Incidence`` reads at most ``fractional.BLOCK`` ones per numpy call
    and returns the bits of one pass over all of them."""

    def test_k18_residual_family(self, monkeypatch, check_against_one_block):
        # 14,957 six-cycles on 400 edges: each product crosses blocks, and
        # gram scatters one row b in column blocks
        A = residual_family(18, monkeypatch)
        assert A.shape[1] > fractional.BLOCK and A.shape[0] <= fractional.GRAM_ROWS
        rng = np.random.default_rng(7)
        check_against_one_block(A, rng.random(A.shape[1]), spread(rng, A.shape[0]))
        check_against_one_block(A, spread(rng, A.shape[1]), spread(rng, A.shape[0]), ["dot"])

    def test_sampled_k24_family_above_the_assembly_limit(
        self, monkeypatch, check_against_one_block
    ):
        A = residual_family(24, monkeypatch)
        assert A.shape[0] > fractional.GRAM_ROWS
        assert len(A.rows) > 4 * fractional.BLOCK
        rng = np.random.default_rng(8)
        x, y = spread(rng, A.shape[1]), spread(rng, A.shape[0])
        check_against_one_block(A, x, y, ["dot", "tdot"])
        check_against_one_block(A, rng.random(A.shape[1]), y, ["gram_product"])

    @pytest.mark.parametrize("block", [1, 7, 64, 200, None])
    def test_small_blocks(self, block, monkeypatch, check_against_one_block):
        # each small block cuts every matrix here into several (200 leaves
        # gram one column block); None keeps BLOCK, which every one fits
        if block is not None:
            monkeypatch.setattr(fractional, "BLOCK", block)
        rng = np.random.default_rng(9)
        matrices = [k12_cycle_family(), random_columns(rng, 40, 60, 5), random_columns(rng, 7, 300, 3)]
        for columns, rows in matrices:
            A = Incidence(columns, rows)
            assert block is None or len(A.rows) > block
            for _ in range(2):
                x, y = spread(rng, A.shape[1]), spread(rng, A.shape[0])
                check_against_one_block(A, x, y)


class TestPolishAgainstLsqr:
    """The row-space correction equals the column-space ``lsqr`` one."""

    @staticmethod
    def noisy(w, seed):
        return w + 1e-8 * np.random.default_rng(seed).standard_normal(len(w))

    @pytest.mark.parametrize("k,n,p,seed", [(3, 9, 0.7, 1), (3, 10, 0.6, 2), (4, 9, 0.8, 3)])
    def test_random_hosts(self, k, n, p, seed, check_against_lsqr):
        H = random_host(k, n, p, seed)
        check_against_lsqr(edge_incidence(H), self.noisy(pfm_lp(H).weights, seed))

    def test_more_than_ten_thousand_columns(self, check_against_lsqr):
        H = complete_hypergraph(3, 41)
        assert H.m > 10_000
        w = np.full(H.m, 1 / math.comb(40, 2))
        check_against_lsqr(edge_incidence(H), self.noisy(w, 4))

    def test_duplicate_rows(self, check_against_lsqr):
        # the vertex-by-edge incidence of a cycle on 8 vertices: its rows'
        # alternating sum is 0, so S S^T is singular, and w = 1/2 solves it
        edges = np.sort([(i, (i + 1) % 8) for i in range(8)], axis=1)
        check_against_lsqr(Incidence(edges, 8), self.noisy(np.full(8, 0.5), 5))


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
        got = sparsify_intersecting(H, eps, w, seed=3)
        assert got.edges == kept
        # built without re-checking the edges, but field for field the host
        # that __init__ builds from them
        want = Hypergraph(H.k, H.n, kept)
        assert {f: getattr(got, f) for f in Hypergraph.__slots__} == {
            f: getattr(want, f) for f in Hypergraph.__slots__
        }

    def test_exact_weights_draw_by_their_floats(self):
        # Fraction weights, one repeated object (uniform) or many values:
        # the same per-edge rule, with float() of each weight
        H = k5_minus_edge()
        for w in (uniform_weighting(H), redistribute_pfm(H, build_walk_registry(H, seed=0))):
            wmax = max(map(float, w.weights))
            for seed in range(8):
                rng = random.Random(seed)
                kept = tuple(
                    e for e, x in zip(H.edges, w.weights) if rng.random() < 0.7 * float(x) / wmax
                )
                assert sparsify_intersecting(H, 0.7, w, seed).edges == kept

    def test_eps_range_checked(self):
        H = complete_hypergraph(3, 6)
        with pytest.raises(FractionalError):
            sparsify_intersecting(H, 1.5, uniform_weighting(H), seed=0)
