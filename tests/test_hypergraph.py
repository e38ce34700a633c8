import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors.hypergraph import (
    Hypergraph,
    HypergraphError,
    TransferReport,
    complete_hypergraph,
    degree_transfer_check,
    format_hypergraph,
    parse_hypergraph,
    place_values,
)


def random_hypergraph(rng, k, n, p):
    edges = [e for e in itertools.combinations(range(n), k) if rng.random() < p]
    return Hypergraph(k, n, edges)


class TestConstruction:
    def test_edges_are_sorted_and_deduped_input_rejected(self):
        H = Hypergraph(3, 5, [(2, 1, 0), (0, 3, 4)])
        assert H.edges == ((0, 1, 2), (0, 3, 4))
        with pytest.raises(HypergraphError, match="duplicate"):
            Hypergraph(3, 5, [(0, 1, 2), (2, 1, 0)])

    def test_bad_edges_rejected(self):
        with pytest.raises(HypergraphError, match="repeated"):
            Hypergraph(3, 5, [(0, 0, 1)])
        with pytest.raises(HypergraphError, match="outside"):
            Hypergraph(3, 5, [(0, 1, 5)])
        with pytest.raises(HypergraphError, match="does not have 3"):
            Hypergraph(3, 5, [(0, 1)])

    def test_immutable(self):
        H = complete_hypergraph(3, 5)
        with pytest.raises(AttributeError):
            H.n = 7

    def test_equality_and_hash(self):
        H1 = Hypergraph(3, 5, [(0, 1, 2)])
        H2 = Hypergraph(3, 5, [(2, 1, 0)])
        assert H1 == H2 and hash(H1) == hash(H2)
        assert H1 != Hypergraph(3, 6, [(0, 1, 2)])

    def test_pickles_as_its_value(self):
        # decompose hands the parsed host to its worker processes as is
        G = complete_hypergraph(3, 6).remove_edges([(0, 1, 2)])
        copy = pickle.loads(pickle.dumps(G))
        assert copy == G and hash(copy) == hash(G)
        assert [copy.edge_id(e) for e in G.edges] == list(range(G.m))

    def test_equality_is_structural_with_or_without_identity(self):
        rng = random.Random(7)
        graphs = [random_hypergraph(rng, k, n, 0.5) for k, n in [(3, 6), (3, 7), (4, 7)] * 4]
        for G in graphs:
            copy = Hypergraph(G.k, G.n, list(G.edges))
            assert G == G and not (G != G)
            assert G == copy and copy == G
            assert G != G.edges and G != None  # noqa: E711
            for other in graphs:
                same = (G.k, G.n, G.edges) == (other.k, other.n, other.edges)
                assert (G == other) == same and (G != other) == (not same)


class TestDegreesAndCodegrees:
    def test_complete_k5(self):
        H = complete_hypergraph(3, 5)
        assert H.m == 10
        assert H.degree(2) == 6
        assert H.codegree([0, 1]) == 3
        assert H.neighborhood([0, 1]) == frozenset({2, 3, 4})

    def test_empty_codegree_is_zero(self):
        H = Hypergraph(3, 5, [])
        assert H.codegree([0, 1]) == 0
        assert H.degree(0) == 0
        assert H.neighborhood([0, 1]) == frozenset()

    def test_sparse_host_on_many_vertices_answers_codegree_queries(self):
        # extensions, codegree and neighborhood probe has_edge n times per
        # (k-1)-set, so they never build the 5000^3-entry edge table
        H = Hypergraph(3, 5000, [(0, 1, 2), (0, 1, 3)])
        assert H.codegree((0, 1)) == 2
        assert H.neighborhood((0, 1)) == frozenset({2, 3})
        assert H.extensions((1, 0)) == (2, 3)
        assert H.extensions((0, 0)) == ()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_extensions_match_has_edge_probes(self, seed):
        # extensions probes has_edge, extension_rows reads the edge table:
        # two independent indexes of N(x) that must agree on small hosts
        rng = random.Random(seed)
        k = rng.choice([2, 3, 4])
        H = random_hypergraph(rng, k, rng.randint(k, 8), 0.5)
        tails = list(itertools.permutations(range(H.n), k - 1))
        for tail, row in zip(tails, H.extension_rows(np.array(tails))):
            probed = tuple(v for v in range(H.n) if v not in tail and H.has_edge(tail + (v,)))
            assert H.extensions(tail) == tuple(np.flatnonzero(row)) == probed
            assert H.codegree(tail) == len(probed)
            assert H.neighborhood(tail) == frozenset(probed)

    def test_codegree_argument_validation(self):
        H = complete_hypergraph(3, 5)
        with pytest.raises(HypergraphError):
            H.codegree([0, 1, 2])  # j = k not allowed
        with pytest.raises(HypergraphError):
            H.codegree([0, 9])

    def test_k5_minus_one_edge_degrees(self):
        H = complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])
        assert sorted(H.degrees()) == [5, 5, 5, 6, 6]
        assert H.codegree([0, 1]) == 2
        assert H.delta_codegree() == 2
        assert max(H.codegree(x) for x in itertools.combinations(range(5), 2)) == 3

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_degree_sum_is_k_times_m(self, seed):
        rng = random.Random(seed)
        k = rng.choice([2, 3, 4])
        n = rng.randint(k, 9)
        H = random_hypergraph(rng, k, n, 0.5)
        assert sum(H.degrees()) == k * H.m

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_codegree_sum_over_pairs(self, seed):
        # every 3-edge contains 3 pairs, so pair-codegrees sum to 3m
        rng = random.Random(seed)
        H = random_hypergraph(rng, 3, rng.randint(3, 8), 0.5)
        total = sum(H.codegree(x) for x in itertools.combinations(range(H.n), 2))
        assert total == 3 * H.m

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_counts_from_the_edges_match_the_probes(self, seed):
        # codegree and delta_codegree count the edges' j-subsets; a j-set's
        # edges are the reference
        rng = random.Random(seed)
        k = rng.choice([2, 3, 4])
        H = random_hypergraph(rng, k, rng.randint(k, 9), rng.choice([0.3, 0.6, 0.9]))
        for j in range(1, k):
            want = {x: sum(1 for e in H.edges if set(x) <= set(e))
                    for x in itertools.combinations(range(H.n), j)}
            assert {x: H.codegree(x) for x in want} == want
            assert H.delta_codegree(j) == (min(want.values()) if H.m else 0)


class TestExtensionMask:
    @pytest.mark.parametrize("k,n,p", [(3, 8, 0.6), (3, 9, 0.3), (4, 8, 0.6), (4, 7, 0.4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_is_the_bitmask_of_extensions_for_every_ordering(self, k, n, p, seed):
        # every ordered (k-1)-tuple, repeated vertices included, in one call
        H = random_hypergraph(random.Random(seed), k, n, p)
        tails = list(itertools.product(range(n), repeat=k - 1))
        rows = H.extension_rows(np.array(tails))
        assert rows.shape == (len(tails), n) and rows.dtype == bool
        for tail, row in zip(tails, rows.tolist()):
            assert row == [H.has_edge(tail + (v,)) for v in range(n)]
            if len(set(tail)) == k - 1:
                assert tuple(np.flatnonzero(row)) == H.extensions(tail)
        # tuples along the last axis of any shape, a single tuple included
        shaped = H.extension_rows(np.array(tails).reshape(len(tails), 1, k - 1))
        assert np.array_equal(shaped, rows[:, None, :])
        assert np.array_equal(H.extension_rows(tails[-1]), rows[-1])

    @pytest.mark.parametrize("k", [3, 4])
    def test_is_zero_for_tails_that_are_no_km1_set(self, k):
        H = complete_hypergraph(k, 7)
        [row] = H.extension_rows([tuple(range(k - 1))])
        assert row.tolist() == [v >= k - 1 for v in range(7)]
        repeats = [(0,) * (k - 1), (1, 1, 2)[: k - 1], (2, 2, 0)[: k - 1]]
        repeats += [(0, 1, 0)] if k == 4 else []
        assert not H.extension_rows(repeats).any()
        assert H.extension_rows(np.empty((0, k - 1), dtype=np.intp)).shape == (0, 7)
        for tail in [(), tuple(range(k - 2)), tuple(range(k)), (0,) * (k - 1)]:
            assert H.extensions(tail) == ()

    def test_rows_are_the_callers_and_the_table_is_built_once(self):
        H = complete_hypergraph(3, 6)
        rows = H.extension_rows([(0, 1), (1, 0)])
        table = H._edge_table
        rows &= False  # closing_rows ANDs into the rows it reads
        again = H.extension_rows([(0, 1)])
        assert again.tolist() == [[H.has_edge((0, 1, v)) for v in range(6)]]
        assert again.sum() == 4 and H._edge_table is table
        # the host keeps the int32 edge table alone, read-only
        assert table.dtype == np.int32 and not hasattr(H, "_extension_table")
        with pytest.raises(ValueError):
            table[0] = 0


class TestEdgeTable:
    def test_is_the_hosts_one_table(self):
        # a sparse 4-graph, whose edge array is small beside its n^k table:
        # the first extension_rows call builds 4 bytes per ordered k-tuple
        H = random_hypergraph(random.Random(1), 4, 40, 0.022)
        assert 1900 < H.m < 2100
        tracemalloc.start()
        try:
            H.extension_rows([(0, 1, 2)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * H.n**H.k


    @pytest.mark.parametrize("k,n,p", [(3, 8, 0.6), (4, 7, 0.4), (2, 6, 0.5)])
    def test_lists_the_edge_id_of_every_ordering(self, k, n, p):
        H = random_hypergraph(random.Random(k), k, n, p)
        table = H.edge_table()
        assert table.shape == (n**k,) and table.dtype == np.int32
        for tup in itertools.product(range(n), repeat=k):
            key = sum(v * n ** (k - 1 - i) for i, v in enumerate(tup))
            assert key == tup @ place_values(n, k)
            want = H.edge_id(tup) if len(set(tup)) == k and H.has_edge(tup) else -1
            assert table[key] == want

    def test_is_built_once_and_read_only(self):
        H = complete_hypergraph(3, 6)
        table = H.edge_table()
        assert H.edge_table() is table
        with pytest.raises(ValueError):
            table[0] = 0
        # a derived host gets its own table
        assert (H.remove_edges([(0, 1, 2)]).edge_table() >= 0).sum() == 6 * (H.m - 1)


class TestRegularityReport:
    def test_complete_k6_eta(self):
        rep = complete_hypergraph(3, 6).regularity_report()
        assert rep.eta_star == Fraction(1, 3)
        assert rep.eta_star_all_pairs == Fraction(1, 3)
        assert rep.rho_star == 0
        assert rep.r_mean == Fraction(3 * 20, 6)
        assert rep.delta_codegree == 4

    def test_k5_minus_edge_report(self):
        H = complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])
        rep = H.regularity_report()
        assert rep.r_mean == Fraction(27, 5)
        assert rep.rho_star == Fraction(1, 9)
        assert rep.delta_codegree == 2

    def test_eta_none_when_no_disjoint_pairs(self):
        # n = 3 < 2(k-1) for k = 3 leaves no disjoint pair of 2-sets
        rep = Hypergraph(3, 3, [(0, 1, 2)]).regularity_report()
        assert rep.eta_star is None
        assert rep.eta_star_all_pairs is not None

    @pytest.mark.parametrize(
        "H,defined",
        [
            # G(9, 0.7) and G(30, 0.5), drawn with random.Random(1)
            (random_hypergraph(random.Random(1), 3, 9, 0.7), True),
            (random_hypergraph(random.Random(1), 3, 30, 0.5), True),
            (complete_hypergraph(4, 7), True),
            # 560 3-sets: the product runs in two row blocks
            (random_hypergraph(random.Random(1), 4, 16, 0.9), True),
            # n = 5 < 2(k - 1): no two 3-sets are disjoint
            (complete_hypergraph(4, 5), False),
            (Hypergraph(3, 6, []), False),
        ],
        ids=["G9", "G30", "K7_4", "G16_4", "no-disjoint-pair", "edgeless"],
    )
    def test_eta_stars_equal_the_pairwise_loop(self, H, defined, check_against_pairwise_eta):
        eta, eta_all = check_against_pairwise_eta(H)
        assert (eta is not None) == defined
        assert (eta_all is not None) == (H.m > 0)

    def test_as_dict_roundtrips_fractions(self):
        d = complete_hypergraph(3, 6).regularity_report().as_dict()
        assert d["eta_star"]["fraction"] == "1/3"
        assert abs(d["eta_star"]["float"] - 1 / 3) < 1e-15

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_report_invariant_under_relabeling(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        H = random_hypergraph(rng, 3, n, 0.6)
        perm = list(range(n))
        rng.shuffle(perm)
        G = Hypergraph(3, n, [tuple(perm[v] for v in e) for e in H.edges])
        assert H.regularity_report() == G.regularity_report()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rho_star_matches_report_and_definition(self, seed):
        rng = random.Random(seed)
        k = rng.choice([3, 4])
        n = rng.randint(1, 8)
        H = random_hypergraph(rng, k, n, rng.choice([0.0, 0.3, 0.7]))
        rho = H.rho_star()
        assert rho == H.regularity_report().rho_star
        r_mean = Fraction(k * H.m, n)
        if r_mean == 0:
            assert rho == 0
        else:
            assert rho == max(abs(Fraction(d) / r_mean - 1) for d in H.degrees())

    def test_rho_star_of_empty_vertex_set_raises(self):
        with pytest.raises(HypergraphError, match="empty vertex set"):
            Hypergraph(3, 0, []).rho_star()


class TestDerivedGraphs:
    def test_remove_requires_existing_edges(self):
        H = complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])
        with pytest.raises(HypergraphError, match="non-edge"):
            H.remove_edges([(0, 1, 2)])

    def test_remove_edges_is_edge_set_difference(self):
        H = complete_hypergraph(3, 5)
        G = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3)])
        D = H.remove_edges(G.edges)
        assert D.m == 8
        assert Hypergraph(3, 5, D.edges + G.edges) == H

    @pytest.mark.parametrize("seed", range(3))
    def test_remove_edges_builds_the_validated_host(self, seed):
        # remove_edges skips the checks of __init__; its result must still
        # be the host __init__ builds from the same edges, field for field
        rng = random.Random(seed)
        H = random_hypergraph(rng, 3, 10, 0.6)
        drop = rng.sample(H.edges, 5)
        D = H.remove_edges(drop)
        V = Hypergraph(3, H.n, [e for e in H.edges if e not in drop])
        assert D == V and hash(D) == hash(V)
        assert {f: getattr(D, f) for f in Hypergraph.__slots__} == {
            f: getattr(V, f) for f in Hypergraph.__slots__
        }
        with pytest.raises(HypergraphError, match="non-edge"):
            D.remove_edges([drop[0]])


class TestDegreeTransfer:
    def test_identity_subset_is_exact(self):
        # U = V gives every ratio exactly 1, so theta=1, eps=0 passes everywhere
        H = complete_hypergraph(3, 7)
        rep = degree_transfer_check(H, range(7), theta=1.0, eps=0.0)
        assert rep.precondition_ok
        assert rep.all_pass
        assert all(abs(r - 1.0) < 1e-12 for r in rep.vertex_ratios.values())

    def test_reports_hypothesis_failures(self):
        H = complete_hypergraph(3, 7)
        rep = degree_transfer_check(H, [0, 1, 2], theta=1.0, eps=0.0)
        assert not rep.precondition_ok
        assert rep.failing_sets

    @pytest.mark.parametrize("theta", [None, 0.5])
    def test_edgeless_host_passes_vacuously(self, theta):
        # no (k-1)-set has an edge: theta defaults to 0, eps to 0, and every
        # check holds over no sets and no vertices
        rep = degree_transfer_check(Hypergraph(3, 5, []), [0, 1], theta=theta)
        assert rep == TransferReport(
            theta=0.0 if theta is None else theta,
            eps=0.0,
            precondition_ok=True,
            failing_sets=(),
            set_ratios={},
            vertex_ratios={},
            vertex_pass={},
            all_pass=True,
        )

    def test_derived_eps_window_contains_vertices(self):
        # with eps derived from the observed set ratios the hypothesis holds by
        # construction; on a dense graph the vertex window then passes too
        rng = random.Random(5)
        H = complete_hypergraph(3, 9)
        U = sorted(rng.sample(range(9), 6))
        rep = degree_transfer_check(H, U)
        assert rep.precondition_ok
        assert rep.all_pass


class TestSerialization:
    def test_format_parse_roundtrip(self):
        H = complete_hypergraph(3, 5).remove_edges([(0, 1, 2)])
        assert parse_hypergraph(format_hypergraph(H)) == H

    def test_parse_errors_name_lines(self):
        with pytest.raises(HypergraphError, match="line 1"):
            parse_hypergraph("3 5\n0 1 2\n")
        with pytest.raises(HypergraphError, match="expected 2 edge lines"):
            parse_hypergraph("3 5 2\n0 1 2\n")
        with pytest.raises(HypergraphError, match="line 2"):
            parse_hypergraph("3 5 1\n0 1\n")
        with pytest.raises(HypergraphError, match="duplicate"):
            parse_hypergraph("3 5 2\n0 1 2\n2 1 0\n")

    def test_writer_emits_sorted_edges(self):
        H = Hypergraph(3, 5, [(4, 3, 2), (2, 1, 0)])
        assert format_hypergraph(H) == "3 5 2\n0 1 2\n2 3 4\n"

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_random(self, seed):
        rng = random.Random(seed)
        k = rng.choice([2, 3, 4])
        H = random_hypergraph(rng, k, rng.randint(k, 8), rng.choice([0.0, 0.4, 0.8]))
        G = parse_hypergraph(format_hypergraph(H))
        assert G == H
        assert {f: getattr(G, f) for f in Hypergraph.__slots__} == {
            f: getattr(H, f) for f in Hypergraph.__slots__
        }


# Malformed host files and the full message of each, as the per-line parser
# that the array checks replaced gave them.
MALFORMED = [
    ("", "empty input: missing 'k n m' header"),
    ("\n  \n\t\n", "empty input: missing 'k n m' header"),
    ("3 5\n0 1 2\n", "line 1: header must be 'k n m', got '3 5'"),
    ("3 5 1 7\n0 1 2\n", "line 1: header must be 'k n m', got '3 5 1 7'"),
    ("\n\n3 5\n0 1 2\n", "line 3: header must be 'k n m', got '3 5'"),
    ("3 five 1\n0 1 2\n", "line 1: header fields must be integers"),
    ("3 5.0 1\n0 1 2\n", "line 1: header fields must be integers"),
    ("3 5 2\n0 1 2\n", "expected 2 edge lines, found 1"),
    ("3 5 1\n0 1 2\n1 2 3\n", "expected 1 edge lines, found 2"),
    ("3 5 -1\n", "expected -1 edge lines, found 0"),
    ("3 5 2\n0 1 2\n0 1\n", "line 3: expected 3 vertex ids, got 2"),
    ("3 5 1\n0 1 2 3\n", "line 2: expected 3 vertex ids, got 4"),
    ("1 5 1\n0 1\n", "line 2: expected 1 vertex ids, got 2"),
    ("3 5 2\n0 1 2\n0 1 x\n", "line 3: vertex ids must be integers"),
    ("3 5 1\n0 1 2.0\n", "line 2: vertex ids must be integers"),
    ("3 5 2\n\n0 1 2\n\n1 2 z\n", "line 5: vertex ids must be integers"),
    # the first bad line wins, whichever its fault
    ("3 5 2\n0 1 x\n0 1\n", "line 2: vertex ids must be integers"),
    ("3 5 2\n0 1\n0 1 x\n", "line 2: expected 3 vertex ids, got 2"),
    ("3 5 3\n0 1 2\n\n1 2 3 4\n0 x 1\n", "line 4: expected 3 vertex ids, got 4"),
    ("3 5 3\n0 1 2\n1 y 3\n\n0 1\n", "line 3: vertex ids must be integers"),
    ("3 5 2\n0 1 q\n0 1 q\n", "line 2: vertex ids must be integers"),
    # within a line, the field count is checked first
    ("3 5 1\n0 x\n", "line 2: expected 3 vertex ids, got 2"),
    ("3 5 1\n-1 1 2\n", "invalid edge list: edge (-1, 1, 2) has a vertex outside 0..4"),
    ("3 5 1\n0 1 5\n", "invalid edge list: edge (0, 1, 5) has a vertex outside 0..4"),
    ("2 0 1\n0 1\n", "invalid edge list: edge (0, 1) has a vertex outside 0..-1"),
    (
        "3 5 1\n0 1 99999999999999999999999\n",
        "invalid edge list: edge (0, 1, 99999999999999999999999) has a vertex outside 0..4",
    ),
    ("3 5 2\n0 1 2\n3 3 4\n", "invalid edge list: edge (3, 3, 4) has repeated vertices"),
    ("3 5 1\n7 7 1\n", "invalid edge list: edge (7, 7, 1) has repeated vertices"),
    (
        "3 5 1\n99999999999999999999 99999999999999999999 1\n",
        "invalid edge list: edge (99999999999999999999, 99999999999999999999, 1) "
        "has repeated vertices",
    ),
    ("3 5 3\n0 1 2\n1 2 3\n2 1 0\n", "invalid edge list: duplicate edge (0, 1, 2)"),
    ("3 5 3\n0 1 2\n2 1 0\n0 0 4\n", "invalid edge list: duplicate edge (0, 1, 2)"),
    ("1 5 2\n0\n1\n", "invalid edge list: uniformity k must be an integer >= 2, got 1"),
    ("0 5 0\n", "invalid edge list: uniformity k must be an integer >= 2, got 0"),
    ("-3 5 0\n", "invalid edge list: uniformity k must be an integer >= 2, got -3"),
    ("3 -1 0\n", "invalid edge list: vertex count n must be a nonnegative integer, got -1"),
]

# Host files that int() and str.split() accept, and the edges they give.
ACCEPTED = [
    ("3 5 1\n+3 0 1\n", 3, 5, [(0, 1, 3)]),
    ("3 5 1\n03 0 1\n", 3, 5, [(0, 1, 3)]),
    ("3 12 1\n1_0 0 1\n", 3, 12, [(0, 1, 10)]),
    ("3 5 1\n３ 0 1\n", 3, 5, [(0, 1, 3)]),  # a full-width digit 3
    ("+3 05 1\n0 1 2\n", 3, 5, [(0, 1, 2)]),
    ("3\t5\t1\n0\t1\t2\n", 3, 5, [(0, 1, 2)]),
    ("3 5 2\r\n0 1 2\r\n2 3 4\r\n", 3, 5, [(0, 1, 2), (2, 3, 4)]),
    ("\n3 5 2\n\n0 1 2\n   \n2 3 4\n\n", 3, 5, [(0, 1, 2), (2, 3, 4)]),
    ("3 5 2   \n0 1 2  \n 2 3 4 \n", 3, 5, [(0, 1, 2), (2, 3, 4)]),
    ("3 6 3\n5 4 3\n2 1 0\n0 4 2\n", 3, 6, [(0, 1, 2), (0, 2, 4), (3, 4, 5)]),
    ("3 4 0\n", 3, 4, []),
]

# Hypergraph(k, n, edges) inputs that fail, and the full message of each.
REJECTED = [
    ((3, 5, [(0, 1, 2), (2, 1, 0)]), "duplicate edge (0, 1, 2)"),
    ((3, 5, [(0, 0, 1)]), "edge (0, 0, 1) has repeated vertices"),
    ((3, 5, [(0, 1, 5)]), "edge (0, 1, 5) has a vertex outside 0..4"),
    ((2, 4, [(0, 1), (-1, 2)]), "edge (-1, 2) has a vertex outside 0..3"),
    ((3, 5, [(0, 1)]), "edge (0, 1) does not have 3 vertices"),
    ((3, 5, [(0, 1, 2), (0, 1, 2, 3)]), "edge (0, 1, 2, 3) does not have 3 vertices"),
    ((3, 5, [(0, 1), (0, 0, 1)]), "edge (0, 1) does not have 3 vertices"),
    ((3, 5, [(0, 1, 2), (0, 0, 1), (0, 1)]), "edge (0, 0, 1) has repeated vertices"),
    ((3, 5, [(0, 1, 2), (1, 0, 2), (1,)]), "duplicate edge (0, 1, 2)"),
    ((1, 5, []), "uniformity k must be an integer >= 2, got 1"),
    (("3", 5, []), "uniformity k must be an integer >= 2, got '3'"),
    ((3, -2, []), "vertex count n must be a nonnegative integer, got -2"),
    # the vertex count is checked before the vertices are compared
    ((3, 5, [(0, "a")]), "edge (0, 'a') does not have 3 vertices"),
    ((3, 5, [(0, 1, 2), (None, 1)]), "edge (None, 1) does not have 3 vertices"),
    # a duplicate after an out-of-range edge: the earlier edge wins
    ((3, 5, [(0, 1, 2), (0, 1, 7), (2, 1, 0)]), "edge (0, 1, 7) has a vertex outside 0..4"),
    ((3, 5, [(0, 1, 7), (7, 1, 0)]), "edge (0, 1, 7) has a vertex outside 0..4"),
    # bools and floats that pass every other check are still not integers
    ((2, 4, [(False, True)]), "vertex ids must be integers"),
    ((3, 5, [(0, 1, 2), (1.0, 2.0, 3.0)]), "vertex ids must be integers"),
    ((3, 5, [(0, 1, 2), (2.0, 1.0, 0.0)]), "duplicate edge (0.0, 1.0, 2.0)"),
    ((3, 5, [(0, 1, 2.0), (2, 0.5, 1)]), "vertex ids must be integers"),
    ((3, 5, [(0, 1.5, 2), (3, 3, 4)]), "edge (3, 3, 4) has repeated vertices"),
    # a bool among int vertex ids, which numpy would read as 1 or 0
    ((3, 5, [(True, 2, 3)]), "vertex ids must be integers"),
    ((3, 5, [(0, 1, 2), (np.False_, 3, 4)]), "vertex ids must be integers"),
]


class TestParserEquivalence:
    @pytest.mark.parametrize("text,message", MALFORMED)
    def test_malformed_input_names_its_first_fault(self, text, message):
        with pytest.raises(HypergraphError) as err:
            parse_hypergraph(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text,k,n,edges", ACCEPTED)
    def test_accepted_input_gives_the_same_edges(self, text, k, n, edges):
        H = parse_hypergraph(text)
        assert (H.k, H.n, H.edges) == (k, n, tuple(edges))
        assert all(type(v) is int for e in H.edges for v in e)

    @pytest.mark.parametrize("args,message", REJECTED)
    def test_rejected_edges_name_the_first_fault(self, args, message):
        with pytest.raises(HypergraphError) as err:
            Hypergraph(*args)
        assert str(err.value) == message

    def test_any_sequence_of_ints_is_an_edge(self):
        want = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        for edges in (
            [[2, 1, 0], [4, 3, 2]],
            [{0, 1, 2}, {2, 3, 4}],
            np.array([[0, 1, 2], [2, 3, 4]]),
            (e for e in [(2, 3, 4), (0, 1, 2)]),
            # numpy ints are stored as plain ints
            [np.array([2, 1, 0], dtype=np.int16), (np.int64(4), np.uint8(3), 2)],
            np.array([[0, 1, 2], [2, 3, 4]], dtype=np.uint32),
        ):
            H = Hypergraph(3, 5, edges)
            assert H == want and H.degrees() == (1, 1, 2, 1, 1)
            assert all(type(v) is int for e in H.edges for v in e)
        with pytest.raises(HypergraphError, match="vertex ids must be integers"):
            Hypergraph(3, 5, [(0, 1, 2.5)])
