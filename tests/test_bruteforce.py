import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors.bruteforce import (
    CapExceeded,
    OracleError,
    reg_k,
    reg_k_by_enumeration,
    validate_packing,
    walk_distribution,
)
from cyclefactors.fractional import EdgeWeighting, uniform_weighting
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph
from cyclefactors.tightpaths import CycleFactor, TightCycle


class TestRegK:
    def test_k4_is_its_own_witness(self):
        res = reg_k(complete_hypergraph(3, 4))
        assert res.r == 3
        assert res.witness == complete_hypergraph(3, 4)

    def test_k5(self):
        res = reg_k(complete_hypergraph(3, 5))
        assert res.r == 6
        assert res.witness == complete_hypergraph(3, 5)

    def test_witness_is_exactly_regular(self):
        H = complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])
        res = reg_k(H)
        assert res.r == 3
        assert set(res.witness.degrees()) == {3}
        assert set(res.witness.edges) <= set(H.edges)

    def test_star_like_host_has_no_positive_regular_subgraph(self):
        # every edge contains vertex 0, so any j edges give it degree j while
        # the other four vertices need total degree 2j; only r = 0 works
        H = Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4)])
        res = reg_k(H)
        assert res.r == 0
        assert res.witness.m == 0
        assert 3 in res.candidates_tried

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            reg_k(complete_hypergraph(3, 12), cap=50)
        with pytest.raises(CapExceeded):
            reg_k_by_enumeration(complete_hypergraph(3, 7))

    def test_enumeration_matches_on_named_examples(self):
        assert reg_k_by_enumeration(complete_hypergraph(3, 4)) == 3
        assert reg_k_by_enumeration(complete_hypergraph(3, 5)) == 6

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_double_oracle_agreement(self, seed):
        rng = random.Random(seed)
        k = rng.choice([2, 3])
        n = rng.randint(k + 1, 7)
        pool = list(itertools.combinations(range(n), k))
        rng.shuffle(pool)
        H = Hypergraph(k, n, pool[: min(len(pool), rng.randint(3, 20))])
        assert reg_k(H).r == reg_k_by_enumeration(H)


class TestWalkDistribution:
    def test_k4_t3_is_uniform_over_ordered_edges(self):
        H = complete_hypergraph(3, 4)
        d = walk_distribution(H, uniform_weighting(H), L=3, t=3)
        assert len(d) == 24
        assert all(p == Fraction(1, 24) for p in d.values())

    def test_t1_base_case(self):
        H = complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])
        w = uniform_weighting(H)
        d = walk_distribution(H, w, L=4, t=1)
        for (v,), p in d.items():
            assert p == w.omega((v,)) / (3 * w.omega(()))

    def test_total_mass_is_one(self):
        H = complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])
        w = uniform_weighting(H)
        for t in (1, 2, 3, 4, 5):
            assert sum(walk_distribution(H, w, L=4, t=t).values()) == 1

    def test_block_reset_allows_revisits(self):
        H = complete_hypergraph(3, 4)
        d = walk_distribution(H, uniform_weighting(H), L=2, t=3)
        assert any(len(set(seq)) < 3 for seq in d)

    def test_refusals(self):
        H = complete_hypergraph(3, 6)
        w = uniform_weighting(H)
        with pytest.raises(CapExceeded):
            walk_distribution(H, w, L=8, t=8, cap=10**5)
        floats = EdgeWeighting(H, [float(x) for x in w.weights], exact=False)
        with pytest.raises(OracleError):
            walk_distribution(H, floats, L=3, t=2)


class TestValidatePacking:
    def make_two_hamiltons(self):
        H = complete_hypergraph(3, 7)
        c1 = TightCycle(H, [0, 1, 2, 3, 4, 5, 6])
        c2 = TightCycle(H, [0, 2, 4, 6, 1, 3, 5])
        return H, CycleFactor([c1], 7), CycleFactor([c2], 7)

    def test_valid_two_packing(self):
        H, f1, f2 = self.make_two_hamiltons()
        rep = validate_packing(H, [f1, f2])
        assert rep.ok and rep.reasons == ()

    def test_duplicate_edge_named(self):
        H, f1, _ = self.make_two_hamiltons()
        rep = validate_packing(H, [f1, f1])
        assert not rep.ok
        assert any("used by factors 0 and 1" in r for r in rep.reasons)

    def test_non_spanning_named(self):
        H = complete_hypergraph(3, 9)
        F = CycleFactor([TightCycle(H, [0, 1, 2, 3, 4])], 5)
        rep = validate_packing(H, [F])
        assert not rep.ok
        assert any("missing [5, 6, 7, 8]" in r for r in rep.reasons)

    def test_foreign_cycle_flagged(self):
        G = complete_hypergraph(3, 5)
        H = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        F = CycleFactor([TightCycle(G, [0, 1, 2, 3, 4])], 5)
        rep = validate_packing(H, [F])
        assert any("not a tight cycle" in r for r in rep.reasons)
