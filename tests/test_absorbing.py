import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors.absorbing import (
    are_absorbers_for,
    disjoint_perfect_matchings,
    enumerate_absorbers,
    is_absorber_for,
)
from cyclefactors import tightpaths
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph
from cyclefactors.tightpaths import is_tight_path


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
        for seq in found[:50]:
            assert is_absorber_for(H, seq, 0)
        assert found == absorbers_by_filter(H, 0)

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
        seqs += enumerate_absorbers(H, x, cap=30)
        got = are_absorbers_for(H, seqs, x).tolist()
        assert got == [is_absorber_for(H, seq, x) for seq in seqs]
        assert are_absorbers_for(H, [], x).tolist() == []

    @pytest.mark.parametrize("seed", range(3))
    def test_one_x_per_row_is_the_per_vertex_check(self, seed):
        # every vertex's absorbers and random sequences, each row with its
        # own x, in one call: the same entries as one call per vertex
        rng = random.Random(seed)
        n = 10
        H = Hypergraph(4, n, [e for e in itertools.combinations(range(n), 4) if rng.random() < 0.8])
        rows = {x: enumerate_absorbers(H, x, cap=20) for x in range(n)}
        for x in rows:
            rows[x] += [tuple(rng.choices(range(n), k=8)) for _ in range(10)]
        assert any(rows[x] for x in rows)
        seqs = [seq for x in rows for seq in rows[x]]
        xs = [x for x in rows for _ in rows[x]]
        want = [are_absorbers_for(H, rows[x], x).tolist() for x in rows]
        assert are_absorbers_for(H, seqs, xs).tolist() == sum(want, [])
        assert any(sum(want, [])) and not all(sum(want, []))
        assert are_absorbers_for(H, [], []).tolist() == []

    def test_absorbed_vertices_on_complete_host(self):
        # one call with every vertex, one x per row, reads off the vertices
        # a sequence absorbs: in K_7 only the vertex it leaves out
        H = complete_hypergraph(3, 7)
        seq = (0, 1, 2, 3, 4, 5)
        assert seq in enumerate_absorbers(H, 6)
        absorbed = are_absorbers_for(H, [seq] * 7, range(7)).tolist()
        assert absorbed == [v == 6 for v in range(7)]
        assert absorbed == [is_absorber_for(H, seq, v) for v in range(7)]

    def test_isolated_vertex_has_none(self):
        edges = list(itertools.combinations(range(6), 3))
        H = Hypergraph(3, 7, edges)  # vertex 6 in no edge
        assert enumerate_absorbers(H, 6) == []

    def test_minimal_fixture_is_a_reversal_pair(self):
        H = one_absorber_fixture()
        found = enumerate_absorbers(H, 6)
        assert found == [(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)]
        assert absorbers_by_filter(H, 6) == found

    def test_cap_limits_output(self):
        H = complete_hypergraph(3, 7)
        capped = enumerate_absorbers(H, 0, cap=10)
        assert capped == absorbers_by_filter(H, 0)[:10]
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
        assert found == absorbers_by_filter(H, x)
        # the vertices each absorber absorbs, one x per row, against the
        # definitional check
        pairs = [(seq, v) for seq in found for v in range(n)]
        absorbed = are_absorbers_for(H, [seq for seq, _ in pairs], [v for _, v in pairs])
        assert absorbed.tolist() == [is_absorber_for(H, seq, v) for seq, v in pairs]

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_and_cap_leave_the_k4_absorbers_unchanged(self, block, monkeypatch):
        rng = random.Random(block)
        H = Hypergraph(4, 9, [e for e in itertools.combinations(range(9), 4) if rng.random() < 0.8])
        found = enumerate_absorbers(H, 8)
        assert found == absorbers_by_filter(H, 8) and len(found) > 20
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
        assert found == list(first)
        assert sum(read) < 1000


    def test_small_cap_grows_no_full_block(self, monkeypatch):
        # at the full ENUMERATE_BLOCK a cap of 10 on K_20^(4) once read a
        # block of 4,096 rows at each depth before the first absorber
        H = complete_hypergraph(4, 20)
        read = []
        extension_rows = Hypergraph.extension_rows
        monkeypatch.setattr(
            Hypergraph,
            "extension_rows",
            lambda H, tails: read.append(len(tails)) or extension_rows(H, tails),
        )
        found = enumerate_absorbers(H, 0, cap=10)
        first = itertools.islice(itertools.permutations(range(1, 20), 8), 10)
        assert found == list(first)
        assert sum(read) < 200


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
