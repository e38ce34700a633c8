import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors import cover, fractional
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
        assert len(got) == 6
        for C in got:
            assert (0, 1, 2) in C.edges()

    def test_limit_returns_subset(self):
        H = complete_hypergraph(3, 5)
        full = {C.canonical() for C in cycles_through_edge(H, 5, (0, 1, 2))}
        some = cycles_through_edge(H, 5, (0, 1, 2), limit=3, seed=11)
        assert len(some) == 3
        assert {C.canonical() for C in some} <= full

    @pytest.mark.parametrize("k,n,p", [(3, 8, 0.8), (3, 9, 0.6), (4, 8, 0.85)])
    def test_matches_the_recursive_dfs(self, k, n, p, check_against_recursive_dfs):
        # L = k + 1 closes at the root: the edge's k vertices are L - 1
        H = random_host(k, n, p, 0)
        edges = random.Random(n).sample(H.edges, 4)
        truncated = 0
        for L in (k + 1, k + 2, k + 3):
            for e in edges:
                full = check_against_recursive_dfs(H, L, e, None, None)
                for limit, seed in [(None, 3), (1, 0), (3, 1), (7, 2), (len(full) + 1, 4)]:
                    got = check_against_recursive_dfs(H, L, e, limit, seed)
                    truncated += len(got) < len(full)
        assert truncated >= 10

    def test_empty_result_proves_absence(self):
        assert cycles_through_edge(path_host(), 5, (0, 1, 2)) == []

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


class TestMaxminAgainstInequalityForm:
    """The cover's weights against the max-min LP's z* (the inequality-form
    oracle): it fails exactly where the LP is infeasible, and where z* > 0
    every family cycle gets a positive weight."""

    @pytest.mark.parametrize(
        "k,n,L", [(3, 6, 5), (3, 7, 6), (4, 6, 5), (4, 7, 6), (4, 8, 6)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_families(self, k, n, L, seed, check_against_oracle):
        rng = random.Random(seed)
        H = complete_hypergraph(k, n)
        G = H.remove_edges(rng.sample(list(H.edges), 2))
        cycles = _enumerate_all(G, L, None).tolist()
        family = [TightCycle(G, seq) for seq in rng.sample(cycles, min(len(cycles), 6 * G.m))]
        z = check_against_oracle(edge_cycle_incidence(G, family))
        if z is None:
            with pytest.raises(DecompositionError):
                fractional_cycle_decomposition(G, L, family=family)
            return
        frac = fractional_cycle_decomposition(G, L, family=family)
        check_edge_sums(G, frac)  # every weight positive, every edge sum 1
        if z > 0:
            assert len(frac[1]) == len(family)


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

    def test_k18_residual_weights_are_bit_identical(self, newton_steps):
        H = complete_hypergraph(3, 18)
        reserve = sparsify_intersecting(H, 0.5, uniform_weighting(H), 0)
        rest = H.remove_edges(reserve.edges)
        a = fractional_cycle_decomposition(rest, 6, per_edge=20)
        # no family cycle must weigh 0: no full step is lengthened
        assert len(newton_steps) == 7
        b = fractional_cycle_decomposition(rest, 6, per_edge=20)
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
        assert k12_frac.ids.tolist() == cover._edge_ids(k12, k12_frac[0]).tolist()
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
        monkeypatch.setattr(cover, "ENUMERATE_BLOCK", block)
        for H, Ls, families in zip(hosts, lengths, want):
            for L, full in zip(Ls, families):
                assert np.array_equal(_enumerate_all(H, L, None), full)
                assert np.array_equal(_enumerate_all(H, L, len(full)), full)
                if len(full):
                    assert _enumerate_all(H, L, len(full) - 1) is None


class TestEnumerationCost:
    def test_k12_residual_reuses_its_extension_masks(self, monkeypatch, check_against_dfs):
        # the pipeline's seed-0 K_12^(3) residual: the extension table is
        # built from the edge list, so no tail is looked up and no window is
        # re-sorted through has_edge
        H = complete_hypergraph(3, 12)
        reserve = sparsify_intersecting(H, 0.5, uniform_weighting(H), 0)
        rest = H.remove_edges(reserve.edges)
        assert rest.m == 118
        calls = {"extensions": 0, "has_edge": 0}
        for name in calls:
            method = getattr(Hypergraph, name)

            def counted(self, arg, name=name, method=method):
                calls[name] += 1
                return method(self, arg)

            monkeypatch.setattr(Hypergraph, name, counted)
        got = _enumerate_all(rest, 6, 20000)
        assert calls == {"extensions": 0, "has_edge": 0}
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

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_k12_family(self, k12, k12_frac, seed, check_against_rescan):
        check_against_rescan(k12, k12_frac, 2, seed=seed)
        check_against_rescan(k12, k12_frac, 3, seed=seed, mu=0.5)

    def test_reads_each_cycle_once_plus_per_pick(self, k12, k12_frac, monkeypatch):
        # the family stays in arrays: a TightCycle is built for each pick only
        built = []
        init = TightCycle.__init__

        def counted_init(C, host, seq):
            built.append(tuple(seq))
            init(C, host, seq)

        monkeypatch.setattr(TightCycle, "__init__", counted_init)
        res = extract_cycle_collections(k12, k12_frac, 2, seed=0, retries=1)
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


class TestValidateCollections:
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
