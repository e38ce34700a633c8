import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors.bruteforce import walk_distribution
from cyclefactors.fractional import (
    EdgeWeighting,
    build_walk_registry,
    redistribute_pfm,
    uniform_weighting,
)
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph
from cyclefactors.walks import (
    OracleCapError,
    StuckWalkError,
    WalkError,
    memory_length,
    sample_walk,
    sample_walks,
    transition_dist,
    tuple_marginal_oracle,
)


def k5_pfm():
    H = complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])
    return H, redistribute_pfm(H, build_walk_registry(H, seed=0))


class TestMemoryLength:
    def test_memory_resets_every_L(self):
        assert [memory_length(3, 4, t) for t in range(1, 10)] == [
            0, 1, 2, 2, 0, 1, 2, 2, 0,
        ]


class TestTransitionDist:
    def test_initial_distribution_is_uniform_under_pfm(self):
        H = complete_hypergraph(3, 4)
        w = uniform_weighting(H)
        d = transition_dist(H, w, (), 4)
        assert all(d[v] == Fraction(1, 4) for v in range(4))

    def test_one_step_history_example(self):
        H = complete_hypergraph(3, 4)
        w = uniform_weighting(H)
        d = transition_dist(H, w, (0,), 4)
        assert d[0] == 0
        assert all(d[v] == Fraction(1, 3) for v in (1, 2, 3))

    def test_suffix_vertices_excluded_and_sum_is_one(self):
        H, w = k5_pfm()
        d = transition_dist(H, w, (0, 3), 5)
        assert d[0] == d[3] == 0
        assert sum(d.values()) == 1

    def test_memory_resets_at_the_block_boundary(self):
        # after a full block of L = 3 steps the walk remembers nothing, so
        # the law is the walk's first step again; one step later it
        # remembers only the last vertex
        H, w = k5_pfm()
        assert transition_dist(H, w, (0, 1, 2), 3) == transition_dist(H, w, (), 3)
        assert transition_dist(H, w, (0, 1, 2, 3), 3) == transition_dist(H, w, (3,), 3)

    def test_stuck_state(self):
        H = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3)])
        w = EdgeWeighting(H, [Fraction(1), Fraction(1)], exact=True)
        with pytest.raises(StuckWalkError):
            transition_dist(H, w, (0, 4), 5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reachable_states_sum_to_one_exactly(self, seed):
        rng = random.Random(seed)
        H, w = k5_pfm()
        L = rng.randint(1, 6)
        history = ()
        for _ in range(rng.randint(0, 7)):
            d = transition_dist(H, w, history, L)
            assert sum(d.values()) == 1
            v = rng.choices(list(d), weights=[float(p) for p in d.values()])[0]
            history += (v,)


class TestSampleWalk:
    def test_deterministic_under_seed(self):
        H, w = k5_pfm()
        assert sample_walk(H, w, 4, 9, seed=42) == sample_walk(H, w, 4, 9, seed=42)
        assert sample_walk(H, w, 4, 9, seed=1) != sample_walk(H, w, 4, 9, seed=2)

    def test_walks_respect_the_window_law(self):
        H, w = k5_pfm()
        for walk in sample_walks(H, w, 4, 8, 30, seed=0).tolist():
            # within each L-block, every k-window must be an edge
            for b in range(0, 8, 4):
                block = walk[b : b + 4]
                for i in range(len(block) - 2):
                    assert H.has_edge(block[i : i + 3])

    def test_one_edge_walk_is_uniform_ordered_edge(self):
        H = complete_hypergraph(3, 4)
        w = uniform_weighting(H)
        counts = Counter(map(tuple, sample_walks(H, w, 3, 3, 24_000, seed=0).tolist()))
        assert len(counts) == 24
        for freq in counts.values():
            assert abs(freq / 24_000 - 1 / 24) < 0.012


class TestSampleWalks:
    def test_frequencies_follow_the_exact_law_on_a_weighted_host(self):
        # redistribution gives this irregular host unequal exact weights
        H = complete_hypergraph(3, 10).remove_edges([(0, 1, 2), (0, 1, 3), (4, 5, 6)])
        w = redistribute_pfm(H, build_walk_registry(H, seed=0))
        assert len(set(w.weights)) > 1
        draws = 10**5
        walks = sample_walks(H, w, 4, 4, draws, seed=3)
        for t in range(1, 5):
            # the vertex law, then the law of the last two vertices
            for j in range(1, min(2, t) + 1):
                shape = (H.n,) * j
                codes = np.ravel_multi_index(walks[:, t - j : t].T, shape)
                freq = np.bincount(codes, minlength=H.n**j) / draws
                for tup, (p, _) in tuple_marginal_oracle(H, w, 4, t, j).items():
                    p = float(p)
                    err = abs(freq[np.ravel_multi_index(tup, shape)] - p)
                    assert err <= 5 * math.sqrt(p * (1 - p) / draws)

    def test_a_weighting_of_another_host_is_refused(self):
        w = uniform_weighting(complete_hypergraph(3, 5))
        with pytest.raises(WalkError, match="different host"):
            sample_walks(complete_hypergraph(3, 7), w, 3, 3, 10, seed=0)

    def test_an_edgeless_host_is_stuck(self):
        H = Hypergraph(3, 4, [])
        with pytest.raises(StuckWalkError):
            sample_walks(H, EdgeWeighting(H, [], True), 3, 3, 5, seed=0)

    def test_zero_walks_is_an_empty_array(self):
        H, w = k5_pfm()
        assert sample_walks(H, w, 4, 6, 0, seed=0).shape == (0, 6)

    def test_deterministic_under_seed(self):
        H, w = k5_pfm()
        a, b = (sample_walks(H, w, 4, 9, 500, seed=42) for _ in range(2))
        assert np.array_equal(a, b)


class TestTupleMarginalOracle:
    def test_k4_ordered_edges(self):
        H = complete_hypergraph(3, 4)
        w = uniform_weighting(H)
        res = tuple_marginal_oracle(H, w, L=4, t=3, j=3)
        supported = {tup: pe for tup, (pe, pf) in res.items() if pe > 0}
        assert len(supported) == 24
        assert all(pe == Fraction(1, 24) for pe in supported.values())
        assert all(pe == pf for pe, pf in res.values())
        assert sum(pe for pe, _ in res.values()) == 1

    def test_vertex_marginal_is_uniform_under_pfm(self):
        H, w = k5_pfm()
        for t in (1, 2, 3, 4):
            res = tuple_marginal_oracle(H, w, L=4, t=t, j=1)
            for tup, (pe, pf) in res.items():
                assert pe == pf == Fraction(1, 5)

    def test_formula_holds_for_arbitrary_positive_weights(self):
        # the tuple law is an identity in omega, not a PFM property
        H = complete_hypergraph(3, 5)
        rng = random.Random(7)
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in H.edges]
        w = EdgeWeighting(H, weights, exact=True)
        for t, j in [(2, 1), (3, 2), (4, 3), (4, 1)]:
            res = tuple_marginal_oracle(H, w, L=5, t=t, j=j)
            assert all(pe == pf for pe, pf in res.values())

    def test_agrees_with_full_sequence_enumeration(self):
        H, w = k5_pfm()
        L, t, j = 4, 4, 2
        res = tuple_marginal_oracle(H, w, L=L, t=t, j=j)
        full = walk_distribution(H, w, L, t)
        marg = {}
        for seq, p in full.items():
            marg[seq[-j:]] = marg.get(seq[-j:], Fraction(0)) + p
        for tup, (pe, pf) in res.items():
            assert pe == marg.get(tup, Fraction(0))

    def test_preconditions(self):
        H, w = k5_pfm()
        with pytest.raises(WalkError, match="t <= L"):
            tuple_marginal_oracle(H, w, L=3, t=4, j=1)
        with pytest.raises(WalkError, match="j <="):
            tuple_marginal_oracle(H, w, L=4, t=2, j=3)
        with pytest.raises(OracleCapError):
            tuple_marginal_oracle(H, w, L=4, t=4, j=1, cap=10)
        floats = EdgeWeighting(H, [float(x) for x in w.weights], exact=False)
        with pytest.raises(WalkError, match="exact"):
            tuple_marginal_oracle(H, floats, L=4, t=2, j=1)


def distinct_rows(walks):
    # the rows of sampled walks that visit pairwise distinct vertices
    walks = np.sort(walks, axis=1)
    return int(np.count_nonzero((walks[:, 1:] != walks[:, :-1]).all(axis=1)))


class TestSelfAvoidance:
    def test_single_window_never_repeats(self):
        H = complete_hypergraph(3, 6)
        w = uniform_weighting(H)
        hits = distinct_rows(sample_walks(H, w, L=3, t_star=3, count=500, seed=0))
        assert hits / 500 == 1.0 and hits == 500

    def test_two_steps_cannot_collide(self):
        H = complete_hypergraph(3, 4)
        w = uniform_weighting(H)
        assert distinct_rows(sample_walks(H, w, L=4, t_star=2, count=300, seed=1)) / 300 == 1.0

    def test_longer_walks_collide_more(self):
        H = complete_hypergraph(3, 8)
        w = uniform_weighting(H)
        r4 = distinct_rows(sample_walks(H, w, L=8, t_star=4, count=4000, seed=2)) / 4000
        r8 = distinct_rows(sample_walks(H, w, L=8, t_star=8, count=4000, seed=2)) / 4000
        assert r8 < r4 <= 1.0
