import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors import cover, fractional, tightpaths
from cyclefactors.cover import (
    CoverError,
    DecompositionError,
    _draw,
    _enumerate_all,
    check_edge_sums,
    cycles_through_edge,
    extract_cycle_collections,
    fractional_cycle_decomposition,
    open_cycle,
    validate_collections,
)
from cyclefactors.fractional import sparsify_intersecting, uniform_weighting
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph
from cyclefactors.tightpaths import (
    TightCycle,
    TightPath,
    canonical_cycle,
    is_tight_cycle,
    is_tight_path,
)


def stretch_peaks(run) -> list:
    """Run ``run()`` under tracemalloc and return, for each stretch between
    two profile events (a call or return of Python code or of a builtin,
    which every numpy function call makes), the traced memory it added at
    its peak above its start.  A ufunc call makes no event, so a stretch
    may hold a ufunc's input and output; otherwise it holds about one
    allocation, where a snapshot would see only what is still live."""
    peaks = []

    def profile(frame, event, arg):
        peaks.append(tracemalloc.get_traced_memory()[1] - start[0])
        tracemalloc.reset_peak()
        start[0] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    start = [tracemalloc.get_traced_memory()[0]]
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return peaks


def path_host():
    """Three overlapping edges on 5 vertices; contains no 5-cycle at all."""
    return Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])


def edge_sums(H, pair):
    """Each edge's total weight over the cycles through it, summed afresh."""
    sums = {e: 0.0 for e in H.edges}
    for seq, w in zip(*(part.tolist() for part in pair)):
        for e in TightCycle(H, seq).edges():
            sums[e] += w
    return sums


def edge_cycle_incidence(H, cycles):
    index = {e: i for i, e in enumerate(H.edges)}
    A = np.zeros((H.m, len(cycles)))
    for j, C in enumerate(cycles):
        for e in C.edges():
            A[index[e], j] += 1.0
    return A


def k12_residual(seed):
    """The K_12^(3) residual of program seed ``seed``'s first pipeline pass,
    and the seed its cycle family is drawn with."""
    H = complete_hypergraph(3, 12)
    sub = random.Random(seed).randrange(2**63)
    return H.remove_edges(sparsify_intersecting(H, 0.5, uniform_weighting(H), sub).edges), sub


def oracle_family(k, n, L, seed):
    """K_n^(k) less two edges, and a seeded sample of its L-cycles."""
    rng = random.Random(seed)
    H = complete_hypergraph(k, n)
    G = H.remove_edges(rng.sample(list(H.edges), 2))
    cycles = _enumerate_all(G, L, None).tolist()
    return G, [TightCycle(G, seq) for seq in rng.sample(cycles, min(len(cycles), 6 * G.m))]


def dense_ones(A):
    """The 0/1 matrix of an ``Incidence``, as a dense array."""
    ones = np.zeros(A.shape)
    ones[A._grid, np.arange(A.shape[1])] = 1.0
    return ones


@pytest.fixture(scope="module")
def k12():
    return complete_hypergraph(3, 12)


@pytest.fixture(scope="module")
def k12_frac(k12):
    return fractional_cycle_decomposition(k12, 10, seed=1)


class TestEnumeration:
    def test_k5_hamilton_cycles(self):
        # (5-1)!/2 cyclic orders up to rotation and reflection
        cycles = _enumerate_all(complete_hypergraph(3, 5), 5, None).tolist()
        assert len(cycles) == 12
        assert len({canonical_cycle(seq) for seq in cycles}) == 12
        for seq in cycles:
            assert canonical_cycle(seq) == tuple(seq)
            assert len(set(seq)) == 5

    def test_k5_four_cycles_match_permutation_oracle(self):
        H = complete_hypergraph(3, 5)
        cycles = _enumerate_all(H, 4, None)
        forms = set()
        for sub in itertools.combinations(range(5), 4):
            for p in itertools.permutations(sub):
                if is_tight_cycle(H, p):
                    forms.add(canonical_cycle(p))
        assert {tuple(seq) for seq in cycles.tolist()} == forms
        assert len(cycles) == 15

    def test_every_result_is_a_tight_cycle(self):
        H = complete_hypergraph(3, 6)
        for seq in _enumerate_all(H, 5, None).tolist():
            assert is_tight_cycle(H, seq)

    def test_cap_exceeded(self):
        assert _enumerate_all(complete_hypergraph(3, 8), 8, 10) is None

    def test_cap_is_the_largest_family_returned(self):
        # 12 Hamilton cycles in K_5^(3): a cap of 12 returns them, 11 does not
        H = complete_hypergraph(3, 5)
        full = _enumerate_all(H, 5, None)
        assert np.array_equal(_enumerate_all(H, 5, 12), full)
        assert _enumerate_all(H, 5, 11) is None

    def test_length_bounds(self):
        H = complete_hypergraph(3, 6)
        with pytest.raises(CoverError, match="below the minimum"):
            fractional_cycle_decomposition(H, 3)
        with pytest.raises(CoverError, match="exceeds the host order"):
            fractional_cycle_decomposition(H, 7)


class TestCyclesThroughEdge:
    def test_k5_six_per_edge(self):
        # 12 Hamilton cycles, 5 edges each, 10 edges total: 6 through each
        H = complete_hypergraph(3, 5)
        got = cycles_through_edge(H, 5, (0, 1, 2))
        assert got.shape == (6, 5) and got.dtype == np.intp
        rows = [tuple(seq) for seq in got.tolist()]
        assert rows == sorted(set(rows)) == [canonical_cycle(seq) for seq in rows]
        for seq in rows:
            assert is_tight_cycle(H, seq)
            assert any(set((seq + seq)[i : i + 3]) == {0, 1, 2} for i in range(5))

    @pytest.mark.parametrize("k,n,p", [(3, 8, 0.8), (3, 9, 0.6), (4, 8, 0.85)])
    def test_matches_the_recursive_dfs(self, k, n, p, check_against_recursive_dfs):
        # L = k + 1 closes at the root: the edge's k vertices are L - 1
        H = random_host(k, n, p, 0)
        edges = random.Random(n).sample(H.edges, 4)
        found = 0
        for L in (k + 1, k + 2, k + 3):
            for e in edges:
                found += len(check_against_recursive_dfs(H, L, e))
        assert found >= 10

    def test_empty_result_proves_absence(self):
        assert cycles_through_edge(path_host(), 5, (0, 1, 2)).shape == (0, 5)

    def test_non_edge_rejected(self):
        with pytest.raises(CoverError):
            cycles_through_edge(path_host(), 5, (0, 1, 4))


class TestFractionalDecomposition:
    def test_k5_uniform_sixth(self):
        # by symmetry 1/6 per cycle is feasible; max-min LP recovers it
        cycles, weights = fractional_cycle_decomposition(complete_hypergraph(3, 5), 5)
        assert len(cycles) == len(weights) == 12
        assert min(weights) == pytest.approx(1 / 6, abs=1e-6)
        assert max(weights) == pytest.approx(1 / 6, abs=1e-6)

    def test_per_edge_sums_recomputed_independently(self):
        H = complete_hypergraph(3, 6)
        frac = fractional_cycle_decomposition(H, 5)
        for s in edge_sums(H, frac).values():
            assert abs(s - 1.0) <= 1e-9

    def test_edge_on_no_cycle_is_infeasible(self):
        with pytest.raises(DecompositionError):
            fractional_cycle_decomposition(path_host(), 5)

    def test_family_missing_an_edge_is_infeasible(self):
        H = complete_hypergraph(3, 5)
        one = _enumerate_all(H, 5, None)[:1].tolist()
        with pytest.raises(DecompositionError):
            fractional_cycle_decomposition(H, 5, family=one)

    def test_explicit_family_route(self):
        H = complete_hypergraph(3, 5)
        family = _enumerate_all(H, 5, None).tolist()
        cycles, weights = fractional_cycle_decomposition(H, 5, family=family)
        assert cycles.tolist() == family
        assert len(weights) == 12

    def test_sampled_family_covers_k12(self, k12, k12_frac):
        assert all(abs(s - 1) <= 1e-9 for s in edge_sums(k12, k12_frac).values())
        assert k12_frac[0].shape[1] == 10

    def test_sampled_family_is_deterministic(self, k12, k12_frac):
        again = fractional_cycle_decomposition(k12, 10, seed=1)
        assert again[0].tolist() == k12_frac[0].tolist()
        assert again[1].tolist() == k12_frac[1].tolist()

    def test_no_family_path_builds_a_tight_cycle(self, monkeypatch):
        # the sampler's closing rows prove each cycle tight, and _edge_ids
        # checks every family row once; no family cycle becomes an object
        built, sampled = [], []
        init, sample = TightCycle.__init__, cover._sample_family

        def counted_init(C, *args):
            built.append(args)
            init(C, *args)

        def counted_sample(*args):
            sampled.append(args)
            return sample(*args)

        monkeypatch.setattr(TightCycle, "__init__", counted_init)
        monkeypatch.setattr(cover, "_sample_family", counted_sample)
        fractional_cycle_decomposition(complete_hypergraph(3, 12), 10, seed=1)
        H = complete_hypergraph(3, 6)
        fractional_cycle_decomposition(H, 5, family=_enumerate_all(H, 5, None).tolist())
        assert len(sampled) == 1 and built == []

    def test_given_family_is_checked_before_any_weighting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("weighed an unchecked family")

        monkeypatch.setattr(cover, "scale_to_ones", refuse)
        H = complete_hypergraph(3, 6)
        family = _enumerate_all(H, 5, None).tolist()
        with pytest.raises(CoverError, match="length mismatch"):
            fractional_cycle_decomposition(H, 5, family=family + [[0, 1, 2, 3]])
        G = H.remove_edges([(0, 1, 2)])
        with pytest.raises(CoverError, match=r"\(0, 1, 2, 3, 4\) is not a tight cycle"):
            fractional_cycle_decomposition(G, 5, family=family)

    def test_cycles_come_in_canonical_order(self, k12_frac):
        # extraction's draws index the cycles in this order
        H = complete_hypergraph(3, 6)
        family = _enumerate_all(H, 5, None).tolist()
        random.Random(0).shuffle(family)
        for cycles, _ in (
            k12_frac,
            fractional_cycle_decomposition(H, 5),
            fractional_cycle_decomposition(H, 5, family=family),
        ):
            forms = [canonical_cycle(seq) for seq in cycles.tolist()]
            assert forms == sorted(forms) == [tuple(seq) for seq in cycles.tolist()]


class TestSampledFamily:
    """The walks that sample a family past ``ENUMERATE_CAP``, and the
    exhaustive search behind them."""

    def test_canonical_rows_equal_canonical_cycle(self):
        rng = np.random.default_rng(0)
        for L in range(3, 12):
            rows = np.array([rng.permutation(30)[:L] for _ in range(50)])
            got = cover._canonical_rows(rows)
            assert [tuple(row) for row in got.tolist()] == [
                canonical_cycle(row) for row in rows.tolist()
            ]

    @pytest.mark.parametrize("k,n,p,L", [(3, 8, 0.8, 5), (3, 9, 0.7, 6), (4, 8, 0.85, 6)])
    def test_without_walks_every_edge_falls_back_to_the_full_family(
        self, monkeypatch, k, n, p, L
    ):
        monkeypatch.setattr(cover, "PER_EDGE", 0)
        monkeypatch.setattr(cover, "ENUMERATE_CAP", 0)
        sampled, sample = [], cover._sample_family

        def recorded(*args):
            sampled.append(sample(*args))
            return sampled[-1]

        monkeypatch.setattr(cover, "_sample_family", recorded)
        H = random_host(k, n, p, 0)
        try:
            fractional_cycle_decomposition(H, L, seed=0)
        except DecompositionError:
            pass
        [family] = sampled
        assert len(family) and np.array_equal(family, _enumerate_all(H, L, None))

    def test_edge_on_no_cycle_is_named(self, monkeypatch):
        # vertex 6 lies in one edge, and a cycle vertex in k of them
        H = Hypergraph(3, 7, list(itertools.combinations(range(6), 3)) + [(4, 5, 6)])
        with pytest.raises(DecompositionError) as enumerated:
            fractional_cycle_decomposition(H, 5)
        monkeypatch.setattr(cover, "ENUMERATE_CAP", 0)
        searched, search = [], cover.cycles_through_edge

        def recorded(H, L, edge):
            searched.append(edge)
            return search(H, L, edge)

        monkeypatch.setattr(cover, "cycles_through_edge", recorded)
        with pytest.raises(DecompositionError, match=r"through edge \(4, 5, 6\)$") as sampled:
            fractional_cycle_decomposition(H, 5)
        # the walks from every other edge closed, so only this one is searched
        assert str(sampled.value) == str(enumerated.value) and searched == [(4, 5, 6)]

    def test_k30_sample_is_one_int32_copy(self):
        # program seed 0's K_30^(3) residual: 36,540 six-cycles.  With int64
        # walks and canonical rows built for the whole sample at once, the
        # sampler peaked 10.54 MB above entry (numpy 2.4); with int32 walks
        # and rows canonicalised a block at a time in place, 4.15 MB
        H = complete_hypergraph(3, 30)
        sub = random.Random(0).randrange(2**63)
        rest = H.remove_edges(sparsify_intersecting(H, 0.5, uniform_weighting(H), sub).edges)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rows = cover._sample_family(rest, 6, sub)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert rows.dtype == np.int32 and rows.shape == (36540, 6)
        assert hashlib.sha256(rows.astype(np.int64).tobytes()).hexdigest() == (
            "0c5a66f6b4c22dea9d2a6321e934880c38e370905ebc412f7823b6475e770d7b"
        )
        assert peak < 7 * 2**20

    def test_one_seed_one_family(self):
        H = complete_hypergraph(3, 14)
        once = cover._sample_family(H, 6, 5)
        assert np.array_equal(once, cover._sample_family(H, 6, 5))
        assert not np.array_equal(once, cover._sample_family(H, 6, 6))
        assert len(once) <= cover.PER_EDGE * H.m
        ids = cover._edge_ids(H, once)
        assert np.array_equal(np.unique(ids), np.arange(H.m))


class TestMaxminAgainstInequalityForm:
    """The cover's weights against the max-min LP's z* (the inequality-form
    oracle): it fails exactly where the LP is infeasible, and where z* > 0
    every family cycle gets a positive weight."""

    @pytest.mark.parametrize(
        "k,n,L", [(3, 6, 5), (3, 7, 6), (4, 6, 5), (4, 7, 6), (4, 8, 6)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_families(self, k, n, L, seed, check_against_oracle):
        G, family = oracle_family(k, n, L, seed)
        z = check_against_oracle(edge_cycle_incidence(G, family))
        if z is None:
            with pytest.raises(DecompositionError):
                fractional_cycle_decomposition(G, L, family=family)
            return
        frac = fractional_cycle_decomposition(G, L, family=family)
        check_edge_sums(G, frac)  # every weight positive, every edge sum 1
        if z > 0:
            assert len(frac[1]) == len(family)

    @pytest.mark.parametrize(
        "k,n,L", [(3, 6, 5), (3, 7, 6), (4, 6, 5), (4, 7, 6), (4, 8, 6)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_cut_cycles_weigh_zero_in_every_solution(
        self, k, n, L, seed, pinned_columns, max_total_weight
    ):
        # the weighting's columns are the family in canonical order
        G, family = oracle_family(k, n, L, seed)
        cycles = sorted({canonical_cycle(C.seq) for C in family})
        ones = edge_cycle_incidence(G, [TightCycle(G, seq) for seq in cycles])
        try:
            fractional_cycle_decomposition(G, L, family=family)
        except DecompositionError:
            assert max_total_weight(ones, []) is None
            return
        cut = pinned_columns(len(cycles))
        assert max_total_weight(ones, cut) <= 1e-9


class TestScaling:
    def test_infeasible_family_fails_within_the_step_budget(
        self, newton_steps, check_against_oracle
    ):
        # the (4, 6, 5) oracle family of seed 0 on the edges it covers: every
        # edge lies on a cycle, but no weighting sums to 1 on all of them
        rng = random.Random(0)
        H = complete_hypergraph(4, 6)
        G = H.remove_edges(rng.sample(list(H.edges), 2))
        cycles = _enumerate_all(G, 5, None).tolist()
        family = rng.sample(cycles, min(len(cycles), 6 * G.m))
        G = Hypergraph(4, 6, {e for seq in family for e in TightCycle(G, seq).edges()})
        family = [TightCycle(G, seq) for seq in family]
        assert check_against_oracle(edge_cycle_incidence(G, family)) is None
        with pytest.raises(DecompositionError) as exc:
            fractional_cycle_decomposition(G, 5, family=family)
        named = re.search(r"residual \S+ after (\d+) Newton steps", str(exc.value))
        assert named and int(named[1]) <= len(newton_steps) <= fractional.SCALE_STEPS

    def test_k18_residual_weights_are_bit_identical(self, newton_steps, gram_calls):
        H = complete_hypergraph(3, 18)
        reserve = sparsify_intersecting(H, 0.5, uniform_weighting(H), 0)
        rest = H.remove_edges(reserve.edges)
        a = fractional_cycle_decomposition(rest, 6)
        # no family cycle must weigh 0: no full step is lengthened, no row's
        # cycles all pass through another edge, and no matrix is assembled
        # beyond one per step (polish finds every edge sum within 1e-12)
        assert len(newton_steps) == len(gram_calls) == 7
        assert hashlib.sha256(a[1].tobytes()).hexdigest() == (
            "1b1bef6da93a97abcb475d30ae893944aa8a84b864c940452d2f909a1f6b54ad"
        )
        b = fractional_cycle_decomposition(rest, 6)
        assert a[0].tolist() == b[0].tolist()
        assert [w.hex() for w in a[1].tolist()] == [w.hex() for w in b[1].tolist()]

    def test_forced_zero_cycles_leave_in_few_steps(self, newton_steps):
        # the K_12^(3) residual of program seed 9's first pipeline pass: some
        # family cycles must weigh 0, and a plain full Newton step shrinks
        # them only by about e^-1 (24 steps before full steps were lengthened)
        H = complete_hypergraph(3, 12)
        sub = random.Random(9).randrange(2**63)
        rest = H.remove_edges(sparsify_intersecting(H, 0.5, uniform_weighting(H), sub).edges)
        assert len(_enumerate_all(rest, 6, None)) == 485
        pair = fractional_cycle_decomposition(rest, 6, seed=sub)
        assert len(newton_steps) <= 18
        assert len(pair[0]) == 360
        check_edge_sums(rest, pair)
        check_edge_sums(rest, tuple(pair))  # the rows looked up afresh

    def test_pinned_cycles_leave_before_newton_shrinks_them(self, newton_steps, gram_calls):
        # seed 9's residual: 125 of its 485 cycles must weigh 0, and the
        # first two steps' matrices show row inclusions that pin 95 and
        # then 30 of them (17 steps when Newton shrank them all)
        rest, sub = k12_residual(9)
        pair = fractional_cycle_decomposition(rest, 6, seed=sub)
        assert len(newton_steps) <= 9
        assert len(pair[0]) == 360
        # one matrix per step and one for polish: the cut assembles none
        assert len(gram_calls) == len(newton_steps) + 1

    @pytest.mark.parametrize(
        "seed,cut,zeros,digest",
        [
            (3, 9, 13, "ac70f0495d698dc16279680feb8e6c01a0d70ad2d68054cc427ba1904c94cb31"),
            (9, 125, 125, "83905de75ab0e399d4d1a90b73f8f8633f8218ee5834db6088800875e3d8b8d1"),
            (11, 9, 9, "825212a170d5344220878a7805468d3a0455578710dee1573cd867d01ef07661"),
        ],
    )
    def test_k12_residuals_cut_only_cycles_that_weigh_zero_in_every_solution(
        self, seed, cut, zeros, digest, pinned_columns, max_total_weight, monkeypatch,
        check_against_oracle,
    ):
        # the residuals with zero-weight cycles among program seeds 0-29.
        # The zero cycles' digest is that of the weighting before the cut
        # existed; on seeds 9 and 11 the cut is all of them, and on seed 3
        # four more shrink below SCALE_TOL
        families = []
        real = cover.scale_to_ones
        monkeypatch.setattr(cover, "scale_to_ones", lambda A: families.append(A) or real(A))
        rest, sub = k12_residual(seed)
        pair = fractional_cycle_decomposition(rest, 6, seed=sub)
        (A,) = families
        family = _enumerate_all(rest, 6, None).tolist()
        assert len(family) == A.shape[1]
        left = set(map(tuple, pair[0].tolist()))
        zero = [j for j, seq in enumerate(family) if tuple(seq) not in left]
        assert len(zero) == zeros
        assert hashlib.sha256(",".join(map(str, zero)).encode()).hexdigest() == digest
        dropped = pinned_columns(A.shape[1])
        assert len(dropped) == cut and set(dropped) <= set(zero)
        # every cut cycle weighs 0 in every solution; where the cut is all
        # the zero cycles, some solution gives every other a positive weight
        ones = dense_ones(A)
        assert max_total_weight(ones, dropped) <= 1e-9
        if cut == zeros:
            assert check_against_oracle(np.delete(ones, zero, axis=1)) > 0

    def test_k30_residual_assembles_no_edge_by_edge_matrix(self, monkeypatch):
        # above GRAM_ROWS rows Newton and polish stay matrix-free; one m x m
        # float array would be 8 m^2 bytes, 32 MB here
        H = complete_hypergraph(3, 30)
        sub = random.Random(0).randrange(2**63)
        rest = H.remove_edges(sparsify_intersecting(H, 0.5, uniform_weighting(H), sub).edges)
        families = []
        real = cover.scale_to_ones
        monkeypatch.setattr(cover, "scale_to_ones", lambda A: families.append(A) or real(A))
        fractional_cycle_decomposition(rest, 6, seed=sub)
        (A,) = families
        assert A.shape[0] == rest.m > fractional.GRAM_ROWS
        tracemalloc.start()
        try:
            fractional.polish(A, real(A))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * rest.m**2

    def test_k18_residual_weighting_stays_within_its_memory_budget(self):
        # program seed 0's K_18^(3) residual: 14,957 six-cycles on 400 edges.
        # Held as one N x L int32 id matrix, with no N x L x k window array
        # and no int64 key, order or column copies, and weighted by products
        # that read at most fractional.BLOCK ones per numpy call, the call
        # peaked 3.70 MB above entry (numpy 2.4) with int64 vertex rows and
        # kept copies of the rows, ids and weights; with one int32 copy of
        # the rows, no kept copies when every cycle keeps its weight, and
        # edge sums read through the incidence, 2.58 MB
        H = complete_hypergraph(3, 18)
        sub = random.Random(0).randrange(2**63)
        rest = H.remove_edges(sparsify_intersecting(H, 0.5, uniform_weighting(H), sub).edges)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            pair = fractional_cycle_decomposition(rest, 6, seed=sub)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert len(pair[0]) == 14957
        assert peak < 2.8 * 2**20

    def test_k18_weighting_allocates_no_array_per_one(self, monkeypatch):
        # scale_to_ones and polish on the same family: N = 14,957 columns,
        # 400 rows, 89,742 ones
        families = []
        real = cover.scale_to_ones
        monkeypatch.setattr(cover, "scale_to_ones", lambda A: families.append(A) or real(A))
        H = complete_hypergraph(3, 18)
        sub = random.Random(0).randrange(2**63)
        rest = H.remove_edges(sparsify_intersecting(H, 0.5, uniform_weighting(H), sub).edges)
        fractional_cycle_decomposition(rest, 6, seed=sub)
        (A,) = families
        rows, cols = A.shape
        peaks = stretch_peaks(lambda: fractional.polish(A, real(A)))
        matrix = 8 * rows**2
        # the largest allocations are the assembled rows x rows matrices
        assert matrix <= max(peaks) < matrix + 1024
        # every other stretch holds at most two N-vectors (a ufunc's input
        # and output), never an array with one entry per one, even int32
        rest_peak = max(p for p in peaks if p < matrix)
        assert rest_peak <= 2 * 8 * cols + 4096 < 4 * len(A.rows)


class TestExtractionIndices:
    """The extraction's per-family indices, against sets built afresh."""

    @pytest.mark.parametrize("n", [18, 70, 130])
    def test_vertex_words_hold_each_rows_vertices(self, n):
        rng = np.random.default_rng(n)
        cycles = np.array([rng.choice(n, 6, replace=False) for _ in range(200)])
        words = cover._vertex_words(cycles, n)
        assert words.dtype == np.uint64 and words.shape == (-(-n // 64), len(cycles))
        for i, row in enumerate(cycles.tolist()):
            got = sum(int(words[j, i]) << (64 * j) for j in range(len(words)))
            assert got == sum(1 << v for v in row)

    @pytest.mark.parametrize("size", [300, 70_000])
    def test_rows_through_lists_the_rows_holding_each_value(self, size):
        # uint16 keys, then uint32
        rng = np.random.default_rng(size)
        ids = np.array([rng.choice(size, 6, replace=False) for _ in range(500)], dtype=np.int32)
        rows, starts = cover._rows_through(ids, size)
        assert starts.dtype == rows.dtype == np.intp and len(starts) == size + 1
        holding = {}
        for i, row in enumerate(ids.tolist()):
            for e in row:
                holding.setdefault(e, []).append(i)
        for e in range(size):
            assert rows[starts[e] : starts[e + 1]].tolist() == holding.get(e, [])


class TestDecompositionValidation:
    """``check_edge_sums`` on the 12 Hamilton cycles of K_5^(3), six through
    each edge, so 1/6 apiece sums to 1 on every edge.  The weights are read
    as floats and added in cycle order."""

    def sixths(self, weight=Fraction(1, 6)):
        H = complete_hypergraph(3, 5)
        return H, _enumerate_all(H, 5, None), [weight] * 12

    def test_exact_fraction_weights(self):
        H, cycles, weights = self.sixths()
        check_edge_sums(H, (cycles, weights))

    def test_nonpositive_weight_rejected(self):
        H, cycles, weights = self.sixths()
        for w in (0, -Fraction(1, 6)):
            weights[0] = w
            with pytest.raises(CoverError, match=r"\(0, 1, 2, 3, 4\) must be positive"):
                check_edge_sums(H, (cycles, weights))

    def test_wrong_sum_rejected(self):
        H, cycles, weights = self.sixths(Fraction(1, 5))
        with pytest.raises(CoverError, match="weight sum 1.2, not 1 within 1e-09"):
            check_edge_sums(H, (cycles, weights))

    def test_sums_within_1e_9_accepted_beyond_refused(self):
        H, cycles, weights = self.sixths(1 / 6)
        check_edge_sums(H, (cycles, np.array([1 / 6 + 5e-10] + weights[1:])))
        with pytest.raises(CoverError, match="not 1 within 1e-09"):
            check_edge_sums(H, (cycles, np.array([1 / 6 + 2e-9] + weights[1:])))

    def test_a_row_of_k_vertices_is_no_cycle(self):
        # its k windows are the same edge, so a weight of 1/3 summed to 1
        H = complete_hypergraph(3, 3)
        with pytest.raises(CoverError, match=r"\(0, 1, 2\) is not a tight cycle"):
            check_edge_sums(H, (np.array([[0, 1, 2]]), [1 / 3]))

    def test_window_off_the_host_rejected(self):
        H, cycles, weights = self.sixths()
        G = H.remove_edges([(0, 1, 2)])
        with pytest.raises(CoverError, match=r"\(0, 1, 2, 3, 4\) is not a tight cycle"):
            check_edge_sums(G, (cycles, weights))


class TestExtraction:
    def test_r_zero_empty(self):
        H = complete_hypergraph(3, 5)
        frac = fractional_cycle_decomposition(H, 5)
        res = extract_cycle_collections(H, frac, 0)
        assert res.ok
        assert res.collections == []

    def test_r_beyond_matching_bound(self):
        H = complete_hypergraph(3, 5)
        frac = fractional_cycle_decomposition(H, 5)
        with pytest.raises(CoverError):
            extract_cycle_collections(H, frac, 3)  # min degree 6, k = 3

    def test_two_disjoint_hamilton_collections_in_k5(self):
        H = complete_hypergraph(3, 5)
        frac = fractional_cycle_decomposition(H, 5)
        res = extract_cycle_collections(H, frac, 2, seed=0)
        assert res.ok
        assert [len(c) for c in res.collections] == [1, 1]
        validate_collections(H, res.collections)

    def test_ten_cycles_pack_one_per_collection(self, k12, k12_frac):
        # no two 10-cycles fit in 12 vertices
        res = extract_cycle_collections(k12, k12_frac, 3, seed=7)
        assert res.ok
        assert res.coverages() == [10, 10, 10]
        validate_collections(k12, res.collections)

    def test_unreachable_gate_returns_partial_with_diagnostics(self, k12, k12_frac):
        # a 10-cycle cannot span 12 vertices, so requiring full coverage fails
        res = extract_cycle_collections(k12, k12_frac, 1, seed=0, mu=0.0, retries=3)
        assert not res.ok
        assert len(res.collections) == 1
        assert len(res.diagnostics) == 3
        assert any("coverage" in f for d in res.diagnostics for f in d["failures"])
        fewest = min(len(d["failures"]) for d in res.diagnostics)
        first = next(d for d in res.diagnostics if len(d["failures"]) == fewest)
        assert res.returned == first["attempt"]
        assert res.coverages() == res.diagnostics[res.returned]["coverages"]

    def test_a_passing_draw_is_the_one_returned(self, k12, k12_frac):
        res = extract_cycle_collections(k12, k12_frac, 2, seed=0, retries=10)
        assert res.ok and res.returned == res.attempts - 1
        assert res.diagnostics[res.returned]["failures"] == []
        assert extract_cycle_collections(k12, k12_frac, 0).returned is None

    def test_unknown_gate_rejected(self, k12, k12_frac):
        # mu is the one coverage gate; there is no mapping of others
        with pytest.raises(TypeError):
            extract_cycle_collections(k12, k12_frac, 1, gates={"mu": 0.2})

    @pytest.mark.parametrize("gate", ["cap_lo", "cap_con"])
    def test_type_cap_gates_are_gone(self, k12, k12_frac, gate):
        with pytest.raises(TypeError):
            extract_cycle_collections(k12, k12_frac, 1, **{gate: 1.0})

    def test_same_seed_same_output(self, k12, k12_frac):
        a = extract_cycle_collections(k12, k12_frac, 2, seed=5)
        b = extract_cycle_collections(k12, k12_frac, 2, seed=5)
        assert [[C.canonical() for C in coll] for coll in a.collections] == [
            [C.canonical() for C in coll] for coll in b.collections
        ]

    def test_host_mismatch(self, k12_frac):
        # the family's windows are looked up among the host's edges first
        with pytest.raises(CoverError, match="is not a tight cycle in the host"):
            extract_cycle_collections(complete_hypergraph(3, 5), k12_frac, 1)

    def test_carried_edge_ids_match_a_fresh_lookup(self, k12, k12_frac):
        # the decomposition hands its looked-up ids on; a plain pair of the
        # same arrays is looked up afresh and extracts the same collections
        # (the carried ids are the lookup's rows, each sorted)
        fresh = cover._edge_ids(k12, k12_frac[0])
        assert k12_frac.ids.tolist() == np.sort(fresh, axis=1).tolist()
        a = extract_cycle_collections(k12, k12_frac, 2, seed=5)
        b = extract_cycle_collections(k12, tuple(k12_frac), 2, seed=5)
        assert [[C.canonical() for C in coll] for coll in a.collections] == [
            [C.canonical() for C in coll] for coll in b.collections
        ]


def random_host(k, n, p, seed):
    rng = random.Random(seed)
    return Hypergraph(
        k, n, [e for e in itertools.combinations(range(n), k) if rng.random() < p]
    )


class TestEnumerationAgainstDFS:
    """Closing by intersection finds the anchored DFS's cycles in its order."""

    @pytest.mark.parametrize("k,n,p", [(3, 8, 0.9), (3, 9, 0.6), (4, 8, 0.9), (4, 9, 0.7)])
    @pytest.mark.parametrize("host_seed", range(3))
    def test_random_hosts(self, k, n, p, host_seed, check_against_dfs):
        H = random_host(k, n, p, host_seed)
        capped = 0
        for L in range(k + 1, min(n, 9) + 1):
            full = check_against_dfs(H, L, None)
            assert check_against_dfs(H, L, len(full)) == full
            if full:
                assert check_against_dfs(H, L, len(full) - 1) is None
                assert check_against_dfs(H, L, len(full) // 3) is None
                capped += 1
        assert capped >= 1

    def test_host_without_cycles(self, check_against_dfs):
        for L in (4, 5):
            assert check_against_dfs(path_host(), L, None) == []


    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_leaves_the_rows_unchanged(self, block, monkeypatch):
        hosts = [random_host(3, 9, 0.6, 0), random_host(4, 8, 0.9, 1)]
        lengths = [range(H.k + 1, H.n + 1) for H in hosts]
        want = [[_enumerate_all(H, L, None) for L in Ls] for H, Ls in zip(hosts, lengths)]
        monkeypatch.setattr(tightpaths, "ENUMERATE_BLOCK", block)
        for H, Ls, families in zip(hosts, lengths, want):
            for L, full in zip(Ls, families):
                assert np.array_equal(_enumerate_all(H, L, None), full)
                assert np.array_equal(_enumerate_all(H, L, len(full)), full)
                if len(full):
                    assert _enumerate_all(H, L, len(full) - 1) is None


class TestEnumerationCost:
    def test_k12_residual_reuses_its_extension_masks(self, monkeypatch, check_against_dfs):
        # the pipeline's seed-0 K_12^(3) residual: every extension row is
        # read off the edge table, built once, so no window is re-sorted
        # through has_edge
        H = complete_hypergraph(3, 12)
        reserve = sparsify_intersecting(H, 0.5, uniform_weighting(H), 0)
        rest = H.remove_edges(reserve.edges)
        assert rest.m == 118
        calls = {"extensions": 0, "has_edge": 0, "edge_table": 0, "extension_rows": 0}
        for name in calls:
            method = getattr(Hypergraph, name)

            def counted(self, *args, name=name, method=method):
                # the edge_table calls that build the table
                calls[name] += name != "edge_table" or self._edge_table is None
                return method(self, *args)

            monkeypatch.setattr(Hypergraph, name, counted)
        got = _enumerate_all(rest, 6, 20000)
        assert calls["extensions"] == calls["has_edge"] == 0
        assert calls["edge_table"] == 1 and calls["extension_rows"] > 1
        assert rest._edge_table is not None
        monkeypatch.undo()
        assert [tuple(seq) for seq in got.tolist()] == check_against_dfs(rest, 6, None)

    def test_k42_residual_stops_at_the_cap_in_bounded_memory(self):
        # the seed-0 K_42^(3) residual has more 6-cycles than the cap; the
        # blocked search gives up after a few blocks of paths
        H = complete_hypergraph(3, 42)
        reserve = sparsify_intersecting(H, 0.5, uniform_weighting(H), 0)
        rest = H.remove_edges(reserve.edges)
        tracemalloc.start()
        try:
            assert _enumerate_all(rest, 6, cover.ENUMERATE_CAP) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestExtractionAgainstRescan:
    """The live candidate pool draws exactly what the full rescan draws."""

    @pytest.mark.parametrize("k,n,L,p", [(3, 10, 5, 0.8), (3, 9, 6, 0.8), (4, 8, 6, 0.85)])
    @pytest.mark.parametrize("host_seed", range(3))
    @pytest.mark.parametrize("r", range(4))
    def test_random_hosts(self, k, n, L, p, host_seed, r, check_against_rescan):
        H = random_host(k, n, p, host_seed)
        frac = fractional_cycle_decomposition(H, L, seed=host_seed)
        for seed in range(3):
            check_against_rescan(H, frac, r, seed=seed, retries=4)
            check_against_rescan(H, frac, r, seed=seed, retries=2, mu=0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_unreachable_gate_runs_every_retry(self, seed, check_against_rescan):
        # 6-cycles cover 6 vertices of 9 at most, never all 9
        H = random_host(3, 9, 0.8, 0)
        frac = fractional_cycle_decomposition(H, 6, seed=0)
        res = check_against_rescan(H, frac, 2, seed=seed, retries=5, mu=0.0)
        assert not res.ok
        assert res.attempts == 5
        assert len(res.diagnostics) == 5

    @pytest.mark.parametrize("seed", range(2))
    def test_host_past_one_mask_word(self, seed, check_against_rescan):
        # 12 disjoint copies of K_6^(3) on 72 vertices: two 64-bit vertex
        # words, and the copy on 60..65 has cycles that straddle them
        H = Hypergraph(3, 72, [
            tuple(6 * c + v for v in e)
            for c in range(12)
            for e in itertools.combinations(range(6), 3)
        ])
        frac = fractional_cycle_decomposition(H, 6)
        assert cover._vertex_words(frac[0], H.n).shape == (2, len(frac[0]))
        res = check_against_rescan(H, frac, 3, seed=seed, retries=3)
        assert max(v for coll in res.collections for C in coll for v in C.seq) >= 64
        check_against_rescan(H, frac, 2, seed=seed, retries=2, mu=0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_k12_family(self, k12, k12_frac, seed, check_against_rescan):
        check_against_rescan(k12, k12_frac, 2, seed=seed)
        check_against_rescan(k12, k12_frac, 3, seed=seed, mu=0.5)

    def test_reads_each_cycle_once_plus_per_pick(self, k12, monkeypatch):
        # the family stays in arrays through every draw: a TightCycle is
        # built for each pick of the returned draw and for nothing else
        built = []
        init = TightCycle.__init__

        def counted_init(C, host, seq):
            built.append(tuple(seq))
            init(C, host, seq)

        monkeypatch.setattr(TightCycle, "__init__", counted_init)
        # 6-cycles pass on the second draw; 10-cycles fail all three
        for L, seed, retries, ok in [(6, 20, 10, True), (10, 0, 3, False)]:
            frac = fractional_cycle_decomposition(k12, L, seed=1)
            built.clear()
            res = extract_cycle_collections(k12, frac, 2, seed=seed, mu=0.0, retries=retries)
            assert (res.ok, res.attempts) == (ok, 2 if ok else 3)
            picks = [C.seq for coll in res.collections for C in coll]
            assert len(picks) >= 2
            assert built == picks

    @given(
        st.lists(st.floats(min_value=-6, max_value=6), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_draw_is_random_choices(self, exponents, seed):
        # weights spanning 12 orders of magnitude
        weights = 10.0 ** np.array(exponents)
        rng, want_rng = random.Random(seed), random.Random(seed)
        want = want_rng.choices(range(len(weights)), weights=weights.tolist())[0]
        assert _draw(rng, weights) == want
        assert rng.random() == want_rng.random()


class TestRepair:
    """The one-for-two swap that completes a draw whose every redraw missed."""

    def near_miss(self, with_pair=True):
        # the 4-cycle P on 2..5 outweighs A on 0..3 and B on 4..7, and meets
        # both, so every draw picks P alone and covers 4 of the 8 vertices
        H = complete_hypergraph(3, 8)
        rows = [(2, 3, 4, 5), (0, 1, 2, 3)] + [(4, 5, 6, 7)] * with_pair
        return H, (np.array(rows), np.array([1e12, 1.0, 1.0][: len(rows)]))

    def test_hand_built_near_miss_is_repaired(self):
        H, pair = self.near_miss()
        res = extract_cycle_collections(H, pair, 1, seed=0, mu=0.0, retries=3)
        assert [d["coverages"] for d in res.diagnostics] == [[4]] * 3
        assert res.ok and res.returned == 0 and res.coverages() == [8]
        assert res.diagnostics[0]["repair"] == {"swaps": 1, "coverages": [8], "failures": []}
        assert [[C.seq for C in coll] for coll in res.collections] == [
            [(0, 1, 2, 3), (4, 5, 6, 7)]
        ]
        validate_collections(H, res.collections)

    def test_a_collection_no_swap_completes_keeps_its_draw(self):
        H, pair = self.near_miss(with_pair=False)
        res = extract_cycle_collections(H, pair, 1, seed=0, mu=0.0, retries=3)
        assert not res.ok and res.coverages() == [4]
        assert res.diagnostics[0]["repair"] == {
            "swaps": 0, "coverages": [4], "failures": ["collection 0 coverage 4 < 8"]
        }
        assert [[C.seq for C in coll] for coll in res.collections] == [[(2, 3, 4, 5)]]

    @pytest.mark.parametrize("n,L,p", [(10, 5, 0.7), (12, 4, 0.9)])
    @pytest.mark.parametrize("host_seed", range(3))
    def test_a_swap_is_found_exactly_when_one_exists(self, n, L, p, host_seed):
        # maximal greedy collections of random cycles, four edge-disjoint
        # ones; each is checked against every (pick, pair) of the family
        H = random_host(3, n, p, host_seed)
        cycles = _enumerate_all(H, L, None)
        family = [TightCycle(H, seq) for seq in cycles.tolist()]
        words = cover._vertex_words(cycles, n)
        rng = random.Random(host_seed)
        outcomes = set()
        for _ in range(8):
            colls, taken = [], set()
            for _ in range(4):
                coll, used = [], set()
                for j in rng.sample(range(len(family)), len(family)):
                    C = family[j]
                    if not used & C.vertex_set and not taken & set(C.edges()):
                        coll.append(j)
                        used |= C.vertex_set
                taken |= {e for j in coll for e in family[j].edges()}
                colls.append(coll)
            for i, coll in enumerate(colls):
                others = {e for o in colls[:i] + colls[i + 1 :]
                          for j in o for e in family[j].edges()}
                free = [j for j, C in enumerate(family) if not others & set(C.edges())]
                want = None
                for pos in range(len(coll)):
                    rest = coll[:pos] + coll[pos + 1 :]
                    room = set(range(n)).difference(*(family[j].vertex_set for j in rest))
                    cand = [j for j in free if family[j].vertex_set <= room]
                    pair = next((list(ab) for ab in itertools.combinations(cand, 2)
                                 if not family[ab[0]].vertex_set & family[ab[1]].vertex_set), None)
                    if pair is not None:
                        want = rest[:pos] + pair + rest[pos:]
                        break
                got = cover._swap(words, np.array(free), np.array(coll))
                assert (got if got is None else got.tolist()) == want
                outcomes.add(want is None)
        assert outcomes == {True, False}


class TestValidateCollections:
    def test_extraction_checks_what_it_returns_once(self, k12, k12_frac, monkeypatch):
        # one check per extraction with r > 0, on the collections returned:
        # a passing draw, a partial draw, a repaired draw
        checked = []

        def spy(H, collections):
            checked.append(collections)
            validate_collections(H, collections)

        monkeypatch.setattr(cover, "validate_collections", spy)
        H, pair = TestRepair().near_miss()
        for args, gate in [
            ((k12, k12_frac, 2), {}),
            ((k12, k12_frac, 1), {"mu": 0.0, "retries": 3}),
            ((H, pair, 1), {"mu": 0.0, "retries": 3}),
        ]:
            res = extract_cycle_collections(*args, seed=0, **gate)
            assert len(checked) == 1 and checked.pop() is res.collections
        assert [res.diagnostics[0]["repair"]["swaps"], res.ok] == [1, True]
        extract_cycle_collections(k12, k12_frac, 0)
        assert checked == []

    def test_a_repair_that_shares_vertices_is_refused(self, monkeypatch):
        # a swap that returns the drawn pick P (on 2..5) beside A (on 0..3)
        # fills the gate by count, but the check on the returned cycles fails
        H, pair = TestRepair().near_miss()
        monkeypatch.setattr(cover, "_swap", lambda words, free, coll: np.array([0, 1]))
        with pytest.raises(CoverError, match="collection 0 has vertex-sharing cycles"):
            extract_cycle_collections(H, pair, 1, seed=0, mu=0.0, retries=3)

    def test_vertex_sharing_within_collection(self):
        H = complete_hypergraph(3, 6)
        a = TightCycle(H, (0, 1, 2, 3))
        b = TightCycle(H, (2, 3, 4, 5))
        with pytest.raises(CoverError):
            validate_collections(H, [(a, b)])

    def test_duplicate_edge_across_collections(self):
        H = complete_hypergraph(3, 6)
        a = TightCycle(H, (0, 1, 2, 3))
        with pytest.raises(CoverError):
            validate_collections(H, [(a,), (a,)])

    def test_disjoint_pair_accepted(self):
        H = complete_hypergraph(3, 8)
        a = TightCycle(H, (0, 1, 2, 3))
        b = TightCycle(H, (4, 5, 6, 7))
        validate_collections(H, [(a,), (b,)])


class TestOpenCycle:
    def test_six_cycle_opens_to_path_on_six_vertices(self):
        # deleting k-1 = 2 consecutive edges of a 6-cycle leaves 4 edges
        H = complete_hypergraph(3, 6)
        C = TightCycle(H, (0, 1, 2, 3, 4, 5))
        P = TightPath(H, open_cycle(C, random.Random(0)))
        assert len(P) == 6
        assert len(P.edges()) == 4
        assert len(C.edges()) - len(P.edges()) == 2
        assert P.vertex_set == C.vertex_set
        assert is_tight_path(H, P.seq)

    def test_all_rotations_reachable(self):
        H = complete_hypergraph(3, 6)
        C = TightCycle(H, (0, 1, 2, 3, 4, 5))
        starts = {open_cycle(C, random.Random(seed))[0] for seed in range(200)}
        assert starts == set(range(6))

    def test_deletion_independent_per_cycle(self):
        H = complete_hypergraph(3, 12)
        a = TightCycle(H, (0, 1, 2, 3, 4))
        b = TightCycle(H, (6, 7, 8, 9, 10))
        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            seen.add((open_cycle(a, rng)[0], open_cycle(b, rng)[0]))
        assert len(seen) > 5


class TestRandomHosts:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_near_complete_hosts_decompose(self, seed):
        import random as _random

        rng = _random.Random(seed)
        H = complete_hypergraph(3, 6)
        drop = rng.sample(list(H.edges), 2)
        G = H.remove_edges(drop)
        try:
            frac = fractional_cycle_decomposition(G, 5, seed=seed)
        except DecompositionError:
            return  # an edge lost all its 5-cycles: legitimately infeasible
        for s in edge_sums(G, frac).values():
            assert abs(s - 1) <= 1e-9
        for seq in frac[0].tolist():
            assert is_tight_cycle(G, seq)


NO_MA_SCRIPT = """
import sys
from cyclefactors.cover import fractional_cycle_decomposition
from cyclefactors.hypergraph import complete_hypergraph
cycles, _ = fractional_cycle_decomposition(complete_hypergraph(3, 20), 6, seed=0)
assert len(cycles) > 20000, "the family was enumerated, not sampled"
assert "numpy.ma" not in sys.modules, "the sampled family imported numpy.ma"
"""


class TestSampledFamilyRows:
    """A sampled family is deduplicated by ``_unique_rows``, a lexicographic
    sort and a neighbour comparison, not by ``np.unique(..., axis=0)``."""

    @pytest.mark.parametrize("n", [20, 24])
    def test_rows_equal_np_unique(self, monkeypatch, n):
        seen = []
        real = cover._unique_rows

        def recorded(rows):
            seen.append((rows, real(rows)))
            return seen[-1][1]

        monkeypatch.setattr(cover, "_unique_rows", recorded)
        fractional_cycle_decomposition(complete_hypergraph(3, n), 6, seed=0)
        [(rows, got)] = seen
        want = np.unique(rows, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and len(got) < len(rows)

    def test_small_arrays(self):
        rng = np.random.default_rng(0)
        for rows in [np.empty((0, 3), dtype=np.intp), np.zeros((4, 2), dtype=np.intp)] + [
            rng.integers(-3, 4, size=(rng.integers(1, 30), rng.integers(1, 5))) for _ in range(30)
        ]:
            assert np.array_equal(cover._unique_rows(rows), np.unique(rows, axis=0))

    def test_sampled_family_build_imports_no_numpy_ma(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", NO_MA_SCRIPT],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
