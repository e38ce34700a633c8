import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors import tightpaths
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph
from cyclefactors.tightpaths import (
    CycleFactor,
    PathCollection,
    TightCycle,
    TightPath,
    TightnessError,
    canonical_cycle,
    classify,
    closing_rows,
    factors_document,
    factors_from_document,
    is_tight_cycle,
    is_tight_path,
    is_tight_walk,
    grow_paths,
    verify_factor_copy,
)


def naive_classify(e, path_seqs, k):
    # definitional re-derivation: enumerate every subset of e against the
    # end-sets (all prefixes plus the suffix k-set) and path vertex sets
    es = set(e)
    end_sets = set()
    for seq in path_seqs:
        for i in range(1, len(seq) + 1):
            end_sets.add(frozenset(seq[:i]))
        if len(seq) >= k:
            end_sets.add(frozenset(seq[-k:]))
    best = 0
    for j in range(len(es), 0, -1):
        if any(frozenset(c) in end_sets for c in itertools.combinations(sorted(es), j)):
            best = j
            break
    if best:
        return f"{best}-end"
    covered = set(itertools.chain.from_iterable(path_seqs))
    if not es <= covered:
        return "lo"
    return f"{max(len(es & set(seq)) for seq in path_seqs)}-con"


def random_collection(rng, H, leave_out=2):
    verts = list(range(H.n))
    rng.shuffle(verts)
    verts = verts[: H.n - leave_out]
    paths = []
    i = 0
    while i < len(verts):
        step = rng.randint(1, min(6, len(verts) - i))
        paths.append(TightPath(H, verts[i : i + step]))
        i += step
    return PathCollection(H, paths)


class TestTightness:
    def test_complete_host_path_and_cycle(self):
        H = complete_hypergraph(3, 5)
        assert is_tight_path(H, [0, 1, 2, 3, 4])
        assert is_tight_cycle(H, [0, 1, 2, 3, 4])

    def test_missing_window(self):
        H = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3)])
        assert not is_tight_path(H, [0, 1, 2, 3, 4])
        assert is_tight_path(H, [0, 1, 2, 3])

    def test_repeats_fail_paths_but_walks_allow_them(self):
        H = complete_hypergraph(3, 5)
        assert not is_tight_path(H, [0, 1, 2, 0])
        assert is_tight_walk(H, [0, 1, 2, 0])  # windows 012 and 120 distinct inside
        assert not is_tight_walk(H, [0, 1, 0, 1])

    def test_cycle_needs_k_plus_one_vertices(self):
        H = complete_hypergraph(3, 5)
        assert not is_tight_cycle(H, [0, 1, 2])
        assert is_tight_cycle(H, [0, 1, 2, 3])

    def test_cycle_invariant_under_rotation_and_reversal(self):
        H = complete_hypergraph(3, 7).remove_edges([(0, 1, 2)])
        seq = [0, 1, 3, 2, 4, 5, 6]
        assert is_tight_cycle(H, seq)
        for r in range(7):
            rot = seq[r:] + seq[:r]
            assert is_tight_cycle(H, rot)
            assert is_tight_cycle(H, rot[::-1])


def extensions_by_filter(H, prefix, length, allowed):
    # definitional oracle: every ordering of allowed vertices, kept when each
    # k-window that ends past the prefix is an edge
    k = H.k
    if length < len(prefix):
        return []
    pool = sorted(set(allowed) - set(prefix))
    out = []
    for tail in itertools.permutations(pool, length - len(prefix)):
        seq = tuple(prefix) + tail
        ends = range(max(len(prefix), k - 1), length)
        if all(H.has_edge(seq[j - k + 1 : j + 1]) for j in ends):
            out.append(seq)
    return out


def free_row(n, allowed):
    row = np.zeros(n, dtype=bool)
    row[list(allowed)] = True
    return row


def grown(H, prefixes, allowed, length):
    """Every row ``grow_paths`` yields from the given prefixes (all of one
    length), each with its own allowed vertices, as tuples; and checks that
    each row comes with its start's free row, cut to the vertices off it."""
    paths = np.array(prefixes, dtype=np.intp).reshape(len(prefixes), -1)
    free = np.array([free_row(H.n, a) for a in allowed]).reshape(len(prefixes), H.n)
    out = []
    for block, rest in grow_paths(H, paths, free, length):
        assert block.shape[1] == length and len(rest) == len(block)
        for row, left in zip(block.tolist(), rest.tolist()):
            start = prefixes.index(tuple(row[: paths.shape[1]]))
            assert left == [v in allowed[start] and v not in row for v in range(H.n)]
            out.append(tuple(row))
    return out


class TestTightExtensions:
    def test_windows_inside_the_prefix_are_not_checked(self):
        H = Hypergraph(3, 5, [(1, 2, 3)])
        assert grown(H, [(0, 1, 2)], [range(5)], 4) == [(0, 1, 2, 3)]
        assert grown(H, [(0, 1, 2)], [range(5)], 3) == [(0, 1, 2)]
        assert grown(H, [(0, 1, 2)], [range(5)], 2) == []

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_permutation_oracle_in_order(self, seed):
        rng = random.Random(seed)
        k = rng.choice([3, 4])
        n = rng.randint(k + 1, 8)
        pool = itertools.combinations(range(n), k)
        H = Hypergraph(k, n, [e for e in pool if rng.random() < 0.6])
        prefix = tuple(rng.sample(range(n), rng.randint(1, k)))
        allowed = [v for v in range(n) if rng.random() < 0.8]
        length = len(prefix) + rng.randint(1, min(4, n - len(prefix)))
        got = grown(H, [prefix], [allowed], length)
        assert got == extensions_by_filter(H, prefix, length, allowed)
        # the absorbers grow from the empty prefix
        empty = rng.randint(1, min(4, n))
        got = grown(H, [()], [allowed], empty)
        assert got == extensions_by_filter(H, (), empty, allowed)
        # prefix vertices in allowed are still never reused
        holding = sorted(set(allowed) | set(prefix))
        got = grown(H, [prefix], [holding], length)
        assert got == extensions_by_filter(H, prefix, length, holding)
        assert got == grown(H, [prefix], [set(holding) - set(prefix)], length)
        # a prefix longer than length has no extension
        assert grown(H, [prefix], [allowed], len(prefix) - 1) == []
        # many starts, each with its own allowed vertices: the rows of each
        # start, in the order of the starts
        width = rng.randint(1, k)
        starts = sorted({tuple(rng.sample(range(n), width)) for _ in range(5)})
        allow = [[v for v in range(n) if rng.random() < 0.8] for _ in starts]
        size = width + rng.randint(1, min(3, n - width))
        want = [w for p, a in zip(starts, allow) for w in extensions_by_filter(H, p, size, a)]
        assert grown(H, starts, allow, size) == want == sorted(want)

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_leaves_the_rows_unchanged(self, block, monkeypatch):
        H = Hypergraph(3, 8, [e for e in itertools.combinations(range(8), 3) if sum(e) % 4])
        starts = [(v,) for v in range(8)]
        want = grown(H, starts, [range(8)] * 8, 4)
        monkeypatch.setattr(tightpaths, "ENUMERATE_BLOCK", block)
        blocks = [len(b) for b, _ in grow_paths(H, np.arange(8)[:, None], np.ones((8, 8), bool), 4)]
        assert max(blocks) <= block and sum(blocks) == len(want) > 100
        assert grown(H, starts, [range(8)] * 8, 4) == want

    def test_a_one_row_first_block_leaves_the_rows_unchanged(self):
        # the first children at each depth of the first descent are one
        # row; the rows, their order and their free rows stay
        H = Hypergraph(3, 8, [e for e in itertools.combinations(range(8), 3) if sum(e) % 4])
        starts, free = np.arange(8)[:, None], np.ones((8, 8), bool)
        want = list(grow_paths(H, starts, free, 4))
        got = list(grow_paths(H, starts, free, 4, first=1))
        assert len(got[0][0]) == 1 and len(got) > len(want)
        for got_part, want_part in zip(zip(*got), zip(*want)):
            assert np.array_equal(np.concatenate(got_part), np.concatenate(want_part))

    def test_children_are_built_a_block_at_a_time(self, monkeypatch):
        # a block of 16 rows on 8 vertices has up to 16 x 6 children: they
        # are built 16 at a time, and each row's extension row is read once
        H = complete_hypergraph(3, 8)
        starts = [(v,) for v in range(8)]
        want = grown(H, starts, [range(8)] * 8, 4)
        monkeypatch.setattr(tightpaths, "ENUMERATE_BLOCK", 16)
        built, read = [], []
        column_stack, extension_rows = np.column_stack, Hypergraph.extension_rows
        monkeypatch.setattr(np, "column_stack", lambda t: built.append(len(t[0])) or column_stack(t))
        monkeypatch.setattr(
            Hypergraph, "extension_rows", lambda H, t: read.append(len(t)) or extension_rows(H, t)
        )
        assert grown(H, starts, [range(8)] * 8, 4) == want
        assert max(built) == 16 and sum(built) == 8 * 7 + 8 * 7 * 6 + len(want)
        assert sum(read) == 8 * 7 + 8 * 7 * 6


def closing_by_probes(H, before, after):
    # definitional oracle: u is in the row when every k-window through u of
    # before[-(k-1):] + (u,) + after[:k-1] is an edge
    k = H.k
    row = []
    for u in range(H.n):
        seq = tuple(before[len(before) - k + 1 :]) + (u,) + tuple(after[: k - 1])
        row.append(all(H.has_edge(seq[j : j + k]) for j in range(k)))
    return row


class TestClosingMask:
    @pytest.mark.parametrize("k,n,p", [(3, 8, 0.6), (4, 7, 0.7)])
    @pytest.mark.parametrize("host_seed", range(2))
    def test_matches_has_edge_probes(self, k, n, p, host_seed):
        rng = random.Random(host_seed)
        pool = itertools.combinations(range(n), k)
        H = Hypergraph(k, n, [e for e in pool if rng.random() < p])
        # every ordering of distinct end vertices, in one call
        ends = np.array(list(itertools.permutations(range(n), 2 * (k - 1))))
        got = closing_rows(H, ends[:, : k - 1], ends[:, k - 1 :])
        assert got.shape == (len(ends), n) and got.dtype == bool
        for row, e in zip(got.tolist(), ends.tolist()):
            assert row == closing_by_probes(H, e[: k - 1], e[k - 1 :])
        assert not got.all(axis=1).any() and len({r.tobytes() for r in got}) > 2
        assert (~got.any(axis=1)).any()
        # longer ends (only their inner k-1 vertices count), repeated vertices
        for _ in range(100):
            wide = rng.randint(k - 1, k + 2), rng.randint(k - 1, k + 2)
            before = np.array([rng.choices(range(n), k=wide[0]) for _ in range(3)])
            after = np.array([rng.choices(range(n), k=wide[1]) for _ in range(3)])
            got = closing_rows(H, before, after).tolist()
            assert got == [closing_by_probes(H, b, a) for b, a in zip(before, after)]


class TestTightPath:
    def test_end_tuples_and_sets(self):
        H = complete_hypergraph(3, 7)
        P = TightPath(H, [0, 1, 2, 3, 4])
        assert P.end_tuples() == [
            (0,),
            (0, 1),
            (0, 1, 2),
            (0, 1, 2, 3),
            (0, 1, 2, 3, 4),
            (2, 3, 4),
        ]
        assert frozenset({2, 3, 4}) in P.end_sets()
        assert frozenset({1, 2}) not in P.end_sets()

    def test_short_path_has_prefix_ends_only(self):
        H = complete_hypergraph(3, 7)
        P = TightPath(H, [4, 5])
        assert P.edges() == []
        assert P.end_tuples() == [(4,), (4, 5)]

    def test_length_counts_edges(self):
        H = complete_hypergraph(3, 7)
        assert len(TightPath(H, [0, 1, 2, 3, 4]).edges()) == 3
        assert TightPath(H, [0, 1, 2]).edges() == [(0, 1, 2)]

    def test_equality_up_to_reversal(self):
        H = complete_hypergraph(3, 7)
        assert TightPath(H, [0, 1, 2, 3]) == TightPath(H, [3, 2, 1, 0])
        assert hash(TightPath(H, [0, 1, 2, 3])) == hash(TightPath(H, [3, 2, 1, 0]))
        assert TightPath(H, [0, 1, 2, 3]) != TightPath(H, [0, 2, 1, 3])

    def test_invalid_sequence_rejected(self):
        H = Hypergraph(3, 5, [(0, 1, 2)])
        with pytest.raises(TightnessError):
            TightPath(H, [0, 1, 2, 3])


def cyclic_windows(seq, k):
    """Sorted k-windows of seq read cyclically, by modular index."""
    return [
        tuple(sorted(seq[(i + j) % len(seq)] for j in range(k)))
        for i in range(len(seq))
    ]


class TestTightCycleCheck:
    """The constructor's single pass over the windows is the test of
    ``is_tight_cycle``, and the windows it checked are the cycle's edges."""

    @pytest.mark.parametrize("seed", range(30))
    def test_raises_exactly_when_is_tight_cycle_is_false(self, seed):
        rng = random.Random(seed)
        k = rng.choice((3, 4))
        n = rng.randint(k + 2, 10)
        K = complete_hypergraph(k, n)
        seq = tuple(rng.sample(range(n), rng.randint(k + 1, n)))
        gap = K.remove_edges([rng.choice(cyclic_windows(seq, k))])
        cases = [
            (K, seq),
            (K, seq[: rng.randint(0, k)]),
            (K, seq + (rng.choice(seq),)),
            (gap, seq),
        ]
        assert [is_tight_cycle(H, s) for H, s in cases] == [True, False, False, False]
        for _ in range(20):
            cases.append((gap, tuple(rng.sample(range(n), rng.randint(k + 1, n)))))
        for H, s in cases:
            if is_tight_cycle(H, s):
                C = TightCycle(H, s)
                assert C.edges() == cyclic_windows(s, k)
                with pytest.raises(AttributeError):
                    C._edges = ()
                assert C.edges() == cyclic_windows(s, k)
            else:
                with pytest.raises(TightnessError):
                    TightCycle(H, s)


class TestCyclesAndFactors:
    def test_canonical_starts_at_min_in_smaller_direction(self):
        assert canonical_cycle((2, 3, 4, 0, 1)) == (0, 1, 2, 3, 4)
        assert canonical_cycle((1, 0, 4, 3, 2)) == (0, 1, 2, 3, 4)
        assert canonical_cycle((0, 2, 1, 3)) == (0, 2, 1, 3)
        assert canonical_cycle((0, 3, 1, 2)) == (0, 2, 1, 3)

    def test_cycle_equality_rotation_reflection(self):
        H = complete_hypergraph(3, 6)
        a = TightCycle(H, [0, 1, 2, 3, 4, 5])
        b = TightCycle(H, [3, 4, 5, 0, 1, 2])
        c = TightCycle(H, [5, 4, 3, 2, 1, 0])
        assert a == b == c
        assert len({a, b, c}) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_cached_canonical_over_rotations_and_reflections(self, seed):
        rng = random.Random(seed)
        k = rng.choice((3, 4))
        H = complete_hypergraph(k, 10)
        seq = tuple(rng.sample(range(10), rng.randint(k + 1, 10)))
        forms = [seq[i:] + seq[:i] for i in range(len(seq))]
        forms += [f[::-1] for f in forms]
        cycles = [TightCycle(H, f) for f in forms]
        for f, C in zip(forms, cycles):
            assert C.canonical() == canonical_cycle(f) == min(forms)
            assert C == cycles[0]
            assert hash(C) == hash(cycles[0])

    def test_cycle_is_immutable(self):
        C = TightCycle(complete_hypergraph(3, 6), [0, 1, 2, 3, 4, 5])
        for name in ("seq", "host", "_edges", "_canonical"):
            with pytest.raises(AttributeError):
                setattr(C, name, None)
        assert C.canonical() == (0, 1, 2, 3, 4, 5)

    def test_factor_disjointness_and_target(self):
        H = complete_hypergraph(3, 10)
        C1 = TightCycle(H, [0, 1, 2, 3, 4])
        C2 = TightCycle(H, [5, 6, 7, 8, 9])
        F = CycleFactor([C1, C2], 10)
        assert F.lengths() == [5, 5]
        with pytest.raises(TightnessError, match="disjoint"):
            CycleFactor([C1, TightCycle(H, [4, 5, 6, 7])], 9)
        with pytest.raises(TightnessError, match="target"):
            CycleFactor([C1], 10)

    def test_verify_factor_copy(self):
        H7 = complete_hypergraph(3, 7)
        ham = CycleFactor([TightCycle(H7, range(7))], 7)
        assert verify_factor_copy(H7, ham, [7])
        H10 = complete_hypergraph(3, 10)
        two = CycleFactor(
            [TightCycle(H10, [0, 1, 2, 3, 4]), TightCycle(H10, [5, 6, 7, 8, 9])], 10
        )
        assert verify_factor_copy(H10, two, [5, 5])
        assert verify_factor_copy(H10, two, two)
        bad_shape = CycleFactor(
            [TightCycle(H10, [0, 1, 2, 3, 4, 5]), TightCycle(H10, [6, 7, 8, 9])], 10
        )
        res = verify_factor_copy(H10, bad_shape, [5, 5])
        assert not res
        assert any("lengths" in r for r in res.reasons)

    def test_verify_reports_missing_vertices_and_foreign_edges(self):
        H = complete_hypergraph(3, 8)
        F = CycleFactor([TightCycle(H, [0, 1, 2, 3, 4])], 5)
        res = verify_factor_copy(H, F, [5])
        assert not res.ok
        assert any("uncovered" in r for r in res.reasons)
        sparse = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3)])
        G = complete_hypergraph(3, 5)
        F2 = CycleFactor([TightCycle(G, [0, 1, 2, 3, 4])], 5)
        res2 = verify_factor_copy(sparse, F2, [5])
        assert not res2.ok

    def test_factors_document_roundtrip(self):
        H = complete_hypergraph(3, 10)
        F = CycleFactor(
            [TightCycle(H, [3, 4, 0, 1, 2]), TightCycle(H, [9, 8, 7, 6, 5])], 10
        )
        doc = factors_document([F])
        assert doc == {"factors": [{"cycles": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]}]}
        [back] = factors_from_document(doc, H)
        assert back.cycles[0] == F.cycles[0] and back.cycles[1] == F.cycles[1]


class TestClassify:
    def setup_method(self):
        self.H = complete_hypergraph(3, 7)
        self.P = PathCollection(self.H, [TightPath(self.H, [0, 1, 2, 3, 4])])

    def test_prefix_pair_is_2_end(self):
        assert classify({0, 1, 6}, self.P) == "2-end"

    def test_leftover(self):
        assert classify({3, 5, 6}, self.P) == "lo"

    def test_interior_triple_is_3_con(self):
        assert classify({1, 2, 3}, self.P) == "3-con"

    def test_full_prefix_is_3_end(self):
        assert classify({0, 1, 2}, self.P) == "3-end"
        assert classify({2, 3, 4}, self.P) == "3-end"  # suffix k-set

    def test_spread_over_two_paths(self):
        P = PathCollection(
            self.H,
            [TightPath(self.H, [1, 2, 3]), TightPath(self.H, [4, 5, 6])],
        )
        # {2, 3} sits inside the first path, 5 on the second; no end-set subset
        assert classify({2, 3, 5}, P) == "2-con"

    def test_end_priority_beats_leftover(self):
        # {0} is an end-set even though 6 is uncovered
        P = PathCollection(self.H, [TightPath(self.H, [0, 1, 2])])
        assert classify({0, 5, 6}, P) == "1-end"

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, seed):
        rng = random.Random(seed)
        k = rng.choice([3, 4])
        n = rng.randint(k + 3, 11)
        H = complete_hypergraph(k, n)
        P = random_collection(rng, H, leave_out=rng.randint(0, 2))
        e = rng.sample(range(n), k)
        seqs = [p.seq for p in P.paths]
        assert classify(e, P) == naive_classify(e, seqs, k)

    def test_totality_shape(self):
        rng = random.Random(11)
        H = complete_hypergraph(3, 9)
        P = random_collection(rng, H)
        for e in itertools.combinations(range(9), 3):
            tau = classify(e, P)
            assert tau == "lo" or tau[0].isdigit() and tau[1:] in ("-end", "-con")


class TestPathCollection:
    def test_disjointness_enforced(self):
        H = complete_hypergraph(3, 7)
        with pytest.raises(TightnessError, match="disjoint"):
            PathCollection(H, [TightPath(H, [0, 1, 2]), TightPath(H, [2, 3, 4])])

    def test_shared_end_set_owned_by_lower_index(self):
        H = complete_hypergraph(3, 7)
        # {4} is a prefix end-set of the second path only; {0} of the first
        P = PathCollection(H, [TightPath(H, [0, 1, 2]), TightPath(H, [4, 5, 6])])
        assert P.end_set_index[frozenset({0})] == 0
        assert P.end_set_index[frozenset({4})] == 1
        assert len(P.vertex_set) == 6
        assert P.vertex_set == frozenset(range(7)) - {3}

    def test_mixed_host_rejected(self):
        H1 = complete_hypergraph(3, 7)
        H2 = complete_hypergraph(3, 8)
        with pytest.raises(TightnessError, match="host"):
            PathCollection(H1, [TightPath(H2, [0, 1, 2])])
