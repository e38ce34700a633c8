import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors.absorbing import (
    AbsorbingError,
    AbsorbingFailure,
    AbsorbingParamError,
    AbsorbingStructure,
    AbsorptionInfeasible,
    BlockRecord,
    absorb,
    absorbable,
    are_absorbers_for,
    build_absorbing_structure,
    disjoint_perfect_matchings,
    enumerate_absorbers,
    is_absorber_for,
    make_block,
)
from cyclefactors import tightpaths
from cyclefactors.fractional import pipeline_weighting
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph
from cyclefactors.tightpaths import TightPath, is_tight_path
from cyclefactors.walks import sample_walk


def absorbers_by_filter(H_plus, x):
    # definitional oracle: try every ordered 2k-sequence
    k = H_plus.k
    verts = [v for v in range(H_plus.n) if v != x]
    out = []
    for seq in itertools.permutations(verts, 2 * k):
        if is_tight_path(H_plus, seq) and is_tight_path(
            H_plus, seq[:k] + (x,) + seq[k:]
        ):
            out.append(seq)
    return out


def one_absorber_fixture():
    # the only tight 6-path avoiding vertex 6 is 0..5 (or its reversal), and
    # the three extra edges make exactly that pair absorb x = 6
    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 2, 6), (2, 3, 6), (3, 4, 6)]
    return Hypergraph(3, 7, edges)


class TestAbsorbers:
    def test_complete_k7_has_720_ordered_absorbers(self):
        H = complete_hypergraph(3, 7)
        found = enumerate_absorbers(H, 0)
        assert len(found) == 720
        # every returned sequence passes the definitional check
        for a in found[:50]:
            assert is_absorber_for(H, a.seq, 0)
        assert [a.seq for a in found] == absorbers_by_filter(H, 0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_batched_check_is_the_definitional_check(self, seed):
        # random 2k-sequences, repeats and x itself included, and the
        # enumerated absorbers: the batch agrees with is_absorber_for on each
        rng = random.Random(seed)
        k = rng.choice([2, 3, 4])
        n = rng.randint(2 * k + 1, 10)
        H = Hypergraph(k, n, [e for e in itertools.combinations(range(n), k) if rng.random() < 0.7])
        x = rng.randrange(n)
        seqs = [tuple(rng.choices(range(n), k=2 * k)) for _ in range(30)]
        seqs += [tuple(rng.sample(range(n), 2 * k)) for _ in range(30)]
        seqs += [a.seq for a in enumerate_absorbers(H, x, cap=30)]
        got = are_absorbers_for(H, seqs, x).tolist()
        assert got == [is_absorber_for(H, seq, x) for seq in seqs]
        assert are_absorbers_for(H, [], x).tolist() == []

    def test_center_candidates_on_complete_host(self):
        H = complete_hypergraph(3, 7)
        [a] = [a for a in enumerate_absorbers(H, 6) if a.seq == (0, 1, 2, 3, 4, 5)]
        assert a.center_candidates == frozenset({6})
        assert a.absorbs(6) and not a.absorbs(0)

    def test_isolated_vertex_has_none(self):
        edges = list(itertools.combinations(range(6), 3))
        H = Hypergraph(3, 7, edges)  # vertex 6 in no edge
        assert enumerate_absorbers(H, 6) == []

    def test_minimal_fixture_is_a_reversal_pair(self):
        H = one_absorber_fixture()
        found = enumerate_absorbers(H, 6)
        assert [a.seq for a in found] == [(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)]
        assert absorbers_by_filter(H, 6) == [a.seq for a in found]

    def test_cap_limits_output(self):
        H = complete_hypergraph(3, 7)
        capped = enumerate_absorbers(H, 0, cap=10)
        assert [a.seq for a in capped] == absorbers_by_filter(H, 0)[:10]
        assert enumerate_absorbers(H, 0, cap=0) == []

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_filter_oracle_on_random_sparse_hosts(self, seed):
        rng = random.Random(seed)
        n = 7
        pool = list(itertools.combinations(range(n), 3))
        H = Hypergraph(3, n, [e for e in pool if rng.random() < 0.45])
        x = rng.randrange(n)
        found = enumerate_absorbers(H, x)
        assert [a.seq for a in found] == absorbers_by_filter(H, x)
        assert all(a.center_candidates == absorbable(H, a.seq) for a in found)
        # absorbable against the definitional check, on absorbers and random slots
        slots = [a.seq for a in found] + [tuple(rng.sample(range(n), 6)) for _ in range(20)]
        for slot in slots:
            assert absorbable(H, slot) == {v for v in range(n) if is_absorber_for(H, slot, v)}

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_and_cap_leave_the_k4_absorbers_unchanged(self, block, monkeypatch):
        rng = random.Random(block)
        H = Hypergraph(4, 9, [e for e in itertools.combinations(range(9), 4) if rng.random() < 0.8])
        found = enumerate_absorbers(H, 8)
        assert [a.seq for a in found] == absorbers_by_filter(H, 8) and len(found) > 20
        monkeypatch.setattr(tightpaths, "ENUMERATE_BLOCK", block)
        assert enumerate_absorbers(H, 8) == found
        for cap in (0, 1, 13):
            assert enumerate_absorbers(H, 8, cap=cap) == found[:cap]

    def test_small_cap_stops_after_the_first_blocks(self, monkeypatch):
        # K_16^(4) holds 32,760 first halves for x = 0 and far more absorbers;
        # a cap of 10 reads a few blocks of extension rows, not all halves
        H = complete_hypergraph(4, 16)
        monkeypatch.setattr(tightpaths, "ENUMERATE_BLOCK", 16)
        read = []
        extension_rows = Hypergraph.extension_rows
        monkeypatch.setattr(
            Hypergraph,
            "extension_rows",
            lambda H, tails: read.append(len(tails)) or extension_rows(H, tails),
        )
        found = enumerate_absorbers(H, 0, cap=10)
        # in a complete host every sequence of distinct vertices absorbs x
        first = itertools.islice(itertools.permutations(range(1, 16), 8), 10)
        assert [a.seq for a in found] == list(first)
        assert sum(read) < 1000

    @pytest.mark.parametrize("k,n,p", [(3, 8, 0.8), (4, 9, 0.75)])
    def test_absorbable_reads_the_memoized_extension_masks(self, k, n, p, monkeypatch):
        rng = random.Random(k)
        pool = itertools.combinations(range(n), k)
        H = Hypergraph(k, n, [e for e in pool if rng.random() < p])
        slots = [tuple(rng.sample(range(n), 2 * k)) for _ in range(60)]
        first = [absorbable(H, slot) for slot in slots]
        for slot, got in zip(slots, first):
            assert got == {v for v in range(n) if is_absorber_for(H, slot, v)}
        assert sum(map(bool, first)) >= 3
        # a second pass reads every extension row off the host's memoized
        # edge table, and so never builds it again
        calls = {"edge_table": 0, "extension_rows": 0}
        for name in calls:
            method = getattr(Hypergraph, name)

            def counted(H, *args, name=name, method=method):
                # the edge_table calls that build the table
                calls[name] += name != "edge_table" or H._edge_table is None
                return method(H, *args)

            monkeypatch.setattr(Hypergraph, name, counted)
        assert [absorbable(H, slot) for slot in slots] == first
        assert calls["edge_table"] == 0 and calls["extension_rows"] >= 3 * k


class TestBlocks:
    def test_slot_layout(self):
        H = complete_hypergraph(3, 14)
        blk = make_block(H, range(14), a=2, ell=1, good_cap=1)
        # slot 0 is vertices 0..5, slot 1 is 7..12 after the spacer 6
        assert blk.absorbable == (
            absorbable(H, range(6)), absorbable(H, range(7, 13))
        )
        assert blk.absorbable[0] == frozenset(range(6, 14))
        assert blk.absorbable[1] == frozenset(range(7)) | {13}
        assert blk.good and blk.bad_vertices == frozenset()
        assert blk.absorbs(13)

    def test_lowest_absorbing_slot_skips_slots_containing_x(self):
        H = complete_hypergraph(3, 16)
        blk = make_block(H, range(14), a=2, ell=1, good_cap=0)
        assert blk.lowest_absorbing_slot(15) == 0
        assert blk.lowest_absorbing_slot(2) == 1  # 2 sits in slot 0

    @pytest.mark.parametrize("seed", range(4))
    def test_slot_sets_agree_with_the_definitional_check(self, seed):
        # absorb reads a block's kept slot sets; is_absorber_for is the
        # reference, on hosts that hold the block's windows so both slots are
        # tight paths
        rng = random.Random(seed)
        seq = rng.sample(range(16), 14)
        edges = {e for e in itertools.combinations(range(16), 3) if rng.random() < 0.6}
        edges |= {tuple(sorted(seq[i : i + 3])) for i in range(12)}
        H = Hypergraph(3, 16, sorted(edges))
        blk = make_block(H, seq, a=2, ell=1, good_cap=16)
        for x in range(16):
            slots = (seq[:6], seq[7:13])
            want = [i for i, slot in enumerate(slots) if is_absorber_for(H, slot, x)]
            assert blk.absorbs(x) == bool(want)
            if want:
                assert blk.lowest_absorbing_slot(x) == want[0]

    def test_lowest_absorbing_slot_error_when_nothing_absorbs(self):
        # host has only the path windows, so insertions never find their edges
        sparse = Hypergraph(3, 16, [tuple(range(i, i + 3)) for i in range(12)])
        blk = make_block(sparse, range(14), a=2, ell=1, good_cap=16)
        with pytest.raises(AbsorbingError):
            blk.lowest_absorbing_slot(15)

    def test_size_validation(self):
        H = complete_hypergraph(3, 14)
        with pytest.raises(AbsorbingParamError):
            make_block(H, range(13), a=2, ell=1, good_cap=1)


class TestBuildStructure:
    def test_block_larger_than_path_is_a_parameter_error(self):
        H = complete_hypergraph(3, 20)
        with pytest.raises(AbsorbingParamError, match="14"):
            build_absorbing_structure(H, range(20), 12, 2, 1, 0.5)

    def test_working_desk_parameters(self):
        H = complete_hypergraph(3, 24)
        S = build_absorbing_structure(H, range(24), 14, 2, 1, 0.4, seed=0)
        assert len(S.paths) == 1 and len(S.paths[0]) == 14
        assert S.capacity == 1
        assert S.sigma == {0: 1}
        rec = S.blocks[0]
        assert rec.offset == 0 and rec.block.good
        assert rec.block.bad_vertices == frozenset()
        # every ambient vertex is absorbable by the block
        assert all(rec.block.absorbs(x) or x in rec.block.seq is None for x in range(24))

    def test_theta_zero_gives_empty_structure(self):
        H = complete_hypergraph(3, 24)
        S = build_absorbing_structure(H, range(24), 14, 2, 1, 0.0)
        assert S.paths == () and S.capacity == 0

    def test_deterministic_under_seed(self):
        H = complete_hypergraph(3, 24)
        S1 = build_absorbing_structure(H, range(24), 14, 2, 1, 0.4, seed=5)
        S2 = build_absorbing_structure(H, range(24), 14, 2, 1, 0.4, seed=5)
        assert [P.seq for P in S1.paths] == [P.seq for P in S2.paths]

    def test_induced_subgraph_hosting(self):
        H_plus = complete_hypergraph(3, 26)
        S = build_absorbing_structure(H_plus, range(24), 14, 2, 1, 0.4, seed=1)
        assert S.vertex_set <= set(range(24))
        # vertices 24, 25 live only in H_plus yet must be absorbable
        assert all(S.blocks[0].block.absorbs(x) for x in (24, 25))

    def test_host_that_is_itself_induced(self):
        # H_plus carries parent ids of its own; U is in H_plus's labels
        H_plus = complete_hypergraph(3, 16).induced(range(1, 16))
        S = build_absorbing_structure(H_plus, range(3, 15), 6, 1, 0, 0.4, seed=0)
        assert S.paths
        assert S.vertex_set <= set(range(3, 15))

    def test_t_star_multiple_of_L(self, monkeypatch):
        # every walk has t_star vertices, the least multiple of L at or above
        # max(k+1, n^(1/3))
        from cyclefactors import absorbing

        lengths = []

        def recorded(H, w, L, t, **kwargs):
            lengths.append(t)
            return sample_walk(H, w, L, t, **kwargs)

        monkeypatch.setattr(absorbing, "sample_walk", recorded)
        H = complete_hypergraph(3, 24)
        build_absorbing_structure(H, range(24), 14, 2, 1, 0.4, seed=0)
        assert lengths and set(lengths) == {14}

    def test_retry_exhaustion_reports_failed_item(self):
        # an 18-vertex host cannot host a 14-path and still absorb: theta
        # demands more blocks than a single path can carry
        H = complete_hypergraph(3, 18)
        with pytest.raises(AbsorbingFailure, match=r"failed post-checks after 3 attempts: \(i"):
            build_absorbing_structure(H, range(18), 14, 2, 1, 0.9, seed=0)

    def test_each_residual_is_weighted_once_per_build(self, monkeypatch):
        # every attempt of the exhausted build above starts from the same
        # residual; it is induced and weighted once, not once per attempt
        from cyclefactors import absorbing

        weighted = []

        def counting(R):
            weighted.append(R.parent_ids)
            return pipeline_weighting(R)

        monkeypatch.setattr(absorbing, "pipeline_weighting", counting)
        H = complete_hypergraph(3, 18)
        with pytest.raises(AbsorbingFailure, match="after 3 attempts"):
            build_absorbing_structure(H, range(18), 14, 2, 1, 0.9, seed=0)
        assert weighted == [tuple(range(18))]

    def test_structure_contents(self):
        H = complete_hypergraph(3, 24)
        S = build_absorbing_structure(H, range(24), 14, 2, 1, 0.4, seed=0)
        assert S.capacity == 1
        assert S.blocks[0].block.bad_vertices == frozenset()
        assert len(S.paths[0]) == 14


class TestDisjointMatchings:
    def test_complete_4x4(self):
        adj = [set(range(4)) for _ in range(4)]
        ms = disjoint_perfect_matchings(adj, 2)
        assert len(ms) == 2
        assert set(ms[0]) == set(range(4)) and set(ms[1]) == set(range(4))
        assert all(ms[0][i] != ms[1][i] for i in range(4))

    def test_zero_guarantee_may_be_empty(self):
        adj = [{0}, {0}]
        assert disjoint_perfect_matchings(adj, 1) == []

    def test_count_zero(self):
        assert disjoint_perfect_matchings([set(range(3))] * 3, 0) == []

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_degree_guarantee_holds_on_random_4x4(self, seed):
        rng = random.Random(seed)
        n = 4
        adj = [set(v for v in range(n) if rng.random() < 0.7) for _ in range(n)]
        d1 = min(len(r) for r in adj) if adj else 0
        rdeg = [sum(1 for row in adj if v in row) for v in range(n)]
        d2 = min(rdeg)
        guarantee = max(0, -(-(d1 + d2 - n) // 2))
        ms = disjoint_perfect_matchings(adj, guarantee)
        assert len(ms) >= guarantee
        used = set()
        for m in ms:
            for i, r in enumerate(m):
                assert (i, r) not in used
                used.add((i, r))


class TestAbsorb:
    def build(self, n=24, seed=0):
        H = complete_hypergraph(3, n)
        S = build_absorbing_structure(H, range(n), 14, 2, 1, 0.4, seed=seed)
        return H, S

    def test_single_vertex_insertion(self):
        H, S = self.build()
        outside = sorted(set(range(24)) - S.vertex_set)
        x = outside[0]
        res = absorb(S, [x], seed=3)
        [newP] = res.paths
        oldP = S.paths[0]
        assert len(newP) == 15
        assert is_tight_path(H, newP.seq)
        assert newP.ordered_end_edges() == oldP.ordered_end_edges()
        assert x in newP.vertex_set
        # lowest-index slot: position k after the block offset
        assert newP.seq.index(x) == S.blocks[0].offset + 3
        assert res.phi == {0: newP}

    def test_empty_x_on_empty_structure(self):
        H = complete_hypergraph(3, 24)
        S = build_absorbing_structure(H, range(24), 14, 2, 1, 0.0)
        res = absorb(S, [], seed=0)
        assert res.paths == () and res.phi == {}

    def test_wrong_size_x(self):
        _, S = self.build()
        with pytest.raises(AbsorptionInfeasible, match="capacity"):
            absorb(S, [], seed=0)

    def test_x_on_paths_rejected(self):
        _, S = self.build()
        v = next(iter(S.vertex_set))
        with pytest.raises(AbsorptionInfeasible, match="intersects"):
            absorb(S, [v], seed=0)

    def test_unabsorbable_vertex(self):
        # vertex 14 sits outside every edge, so no block can take it
        edges = list(itertools.combinations(range(14), 3))
        H = Hypergraph(3, 15, edges)
        P = TightPath(H, range(14))
        blk = make_block(H, range(14), a=2, ell=1, good_cap=15)
        S = AbsorbingStructure(H, [P], [BlockRecord(blk, 0, 0)], ell=1)
        with pytest.raises(AbsorptionInfeasible, match="absorbable by no block"):
            absorb(S, [14], seed=0)

    def test_absorption_gains_match_sigma(self):
        H = complete_hypergraph(3, 30)
        P1, P2 = TightPath(H, range(14)), TightPath(H, range(14, 28))
        b1 = make_block(H, range(14), 2, 1, 30)
        b2 = make_block(H, range(14, 28), 2, 1, 30)
        S = AbsorbingStructure(
            H, [P1, P2], [BlockRecord(b1, 0, 0), BlockRecord(b2, 1, 0)], ell=1
        )
        res = absorb(S, [28, 29], seed=7)
        gains = [len(res.phi[i]) - len(S.paths[i]) for i in range(2)]
        assert gains == [S.sigma[0], S.sigma[1]] == [1, 1]
