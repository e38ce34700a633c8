import itertools
import json
import math
import random

import pytest

from cyclefactors import assemble
from cyclefactors.assemble import (
    AssembleParamError,
    ConnectionFailure,
    LayerFailure,
    Profile,
    build_reservoir,
    check_target,
    connect,
    connectors,
    layer_transform,
    pack_factors,
)
from cyclefactors.cover import (
    extract_cycle_collections,
    fractional_cycle_decomposition,
)
from cyclefactors.fractional import sparsify_intersecting, uniform_weighting
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph
from cyclefactors.tightpaths import TightCycle, is_tight_path, verify_factor_copy


def star_split(n=12, hubs=(10, 11)):
    """Split K_n into the edges meeting the hub set (reserve) and the rest."""
    H = complete_hypergraph(3, n)
    f_edges = [e for e in H.edges if set(e) & set(hubs)]
    F = Hypergraph(3, n, f_edges)
    rest = H.remove_edges(f_edges)
    return H, F, rest


def connector_inners(res):
    """The connectors' inner tuples of a layer result, read off its factor:
    each cycle is its kept paths in plan order, each followed by as many
    connector vertices as its budget."""
    inners = []
    for C, group, lam in zip(res.factor.cycles, res.plan.groups, res.plan.lambdas):
        pos = 0
        for seq, budget in zip(group, lam):
            assert C.seq[pos : pos + len(seq)] == seq
            pos += len(seq)
            inners.append(C.seq[pos : pos + budget])
            pos += budget
        assert pos == len(C.seq)
    return inners


def k12_pack_inputs(seed, r=2):
    """Reserve graph plus r extracted cycle collections on K_12."""
    H = complete_hypergraph(3, 12)
    reserve = sparsify_intersecting(H, 0.5, uniform_weighting(H), seed)
    rest = H.remove_edges(reserve.edges)
    frac = fractional_cycle_decomposition(rest, 6, seed=seed)
    ext = extract_cycle_collections(rest, frac, r, seed=seed, mu=0.2)
    assert ext.ok
    return H, reserve, ext.collections


@pytest.fixture(scope="module")
def pack_k12():
    return k12_pack_inputs(0)


class TestProfile:
    def test_defaults(self):
        p = Profile()
        assert p.mu == 0.2
        assert p.delta == 0.3
        assert p.theta == 0.5
        assert (p.ell0, p.ell1) == (2, 6)
        assert p.L == 6
        assert p.layer_retries == 20
        assert len(p.as_dict()) == 8

    def test_as_dict_round_trips_through_from_mapping(self):
        p = Profile(mu=0.1, L=8, theta=0.4)
        assert Profile.from_mapping(p.as_dict()) == p

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(AssembleParamError, match="unknown profile key"):
            Profile.from_mapping({"mu": 0.1, "turbo": True})

    def test_budget_order_is_validated(self):
        with pytest.raises(AssembleParamError, match="ell0"):
            Profile(ell0=4, ell1=2)
        with pytest.raises(AssembleParamError, match="ell0"):
            Profile(ell0=0)

    def test_range_validation(self):
        with pytest.raises(AssembleParamError, match="delta"):
            Profile(delta=1.0)
        with pytest.raises(AssembleParamError, match="mu"):
            Profile(mu=-0.1)


class TestBuildReservoir:
    def test_small_vertex_pool_takes_everything(self):
        assert build_reservoir(range(5)) == frozenset(range(5))

    def test_reservoir_is_immutable(self):
        R = build_reservoir(range(5))
        with pytest.raises(AttributeError):
            R.add(9)


class TestPathsBetween:
    """``connectors``: every connector between two ordered end edges."""

    def mixed_window_host(self):
        drop = [(2, 3, 4), (3, 4, 5), (2, 4, 5), (2, 7, 8), (3, 8, 9), (4, 5, 9), (0, 5, 9)]
        F = complete_hypergraph(3, 10).remove_edges(drop)
        return F, frozenset(range(6))

    @staticmethod
    def permutation_oracle(F, R, s, t, lam):
        """Every lam-permutation of R off s and t, in lexicographic order,
        whose k-windows of s + inner + t that hold an inner vertex are edges."""
        k = F.k
        out = []
        for inner in itertools.permutations(sorted(R - set(s) - set(t)), lam):
            seq = s + inner + t
            windows = [seq[i : i + k] for i in range(len(seq) - k + 1)]
            if all(F.has_edge(w) for w in windows if set(w) & set(inner)):
                out.append(inner)
        return out

    def test_matches_the_permutation_oracle(self, monkeypatch):
        F, R = self.mixed_window_host()
        cases = [(F, R, (6, 7, 8), (9, 0, 1), lam) for lam in (1, 2, 3)]
        # seeded random 3- and 4-graphs, budgets up to 5, pools that hold
        # end vertices too
        for seed in range(3):
            rng = random.Random(seed)
            for k, n, p in ((3, 11, 0.7), (4, 14, 0.85)):
                G = Hypergraph(
                    k, n, [e for e in itertools.combinations(range(n), k) if rng.random() < p]
                )
                s, t = tuple(range(k)), tuple(range(k, 2 * k))
                pool = frozenset(range(k - 1, n))
                cases += [(G, pool, s, t, lam) for lam in range(1, 6)]
        counts = []
        for G, pool, s, t, lam in cases:
            probes = []
            has_edge = Hypergraph.has_edge
            monkeypatch.setattr(
                Hypergraph, "has_edge", lambda H, e: probes.append(e) or has_edge(H, e)
            )
            got = connectors(G, pool, s, t, lam)
            monkeypatch.undo()
            assert probes == []
            oracle = self.permutation_oracle(G, pool, s, t, lam)
            assert got.shape == (len(oracle), lam)
            assert [tuple(w) for w in got.tolist()] == oracle
            counts.append(len(oracle))
        # the mixed host's windows cut the 4, 12 and 24 orderings of its free
        # pool to 1, 6 and 3 connectors
        assert counts[:3] == [1, 6, 3]
        assert [math.perm(len(R - {6, 7, 8, 9, 0, 1}), lam) for lam in (1, 2, 3)] == [4, 12, 24]
        # every random host and budget has connectors to find
        assert min(counts[3:]) > 0

    def test_every_connector_glues_into_a_tight_path(self):
        F, R = self.mixed_window_host()
        s, t = (6, 7, 8), (9, 0, 1)
        for lam in (1, 2, 3):
            for inner in connectors(F, R, s, t, lam).tolist():
                assert is_tight_path(F, s + tuple(inner) + t)

    def test_overlapping_endpoints_have_no_connectors(self):
        F, R = self.mixed_window_host()
        assert connectors(F, R, (6, 7, 0), (0, 1, 9), 1).shape == (0, 1)
        # an empty pool: R holds end vertices only
        assert connectors(F, frozenset({6, 7, 0}), (6, 7, 8), (9, 0, 1), 2).shape == (0, 2)

    def test_at_least_one_inner_vertex_is_required(self):
        F, R = self.mixed_window_host()
        with pytest.raises(AssembleParamError, match="inner"):
            connect(F, R, [((6, 7, 8), (9, 0, 1))], [0])


class TestConnect:
    def take_all(self, n, pool):
        return complete_hypergraph(3, n), build_reservoir(pool)

    def test_no_pairs_yields_no_connectors(self):
        F, R = self.take_all(10, range(4))
        assert connect(F, R, [], []) == []

    def test_single_pair_on_a_complete_host(self):
        F, R = self.take_all(10, range(4))
        out = connect(F, R, [((4, 5, 6), (7, 8, 9))], [2], seed=0)
        assert out == [(2, 0)]
        assert is_tight_path(F, (4, 5, 6) + out[0] + (7, 8, 9))

    def test_same_seed_same_connectors(self):
        F, R = self.take_all(10, range(4))
        Q = [((4, 5, 6), (7, 8, 9))]
        assert connect(F, R, Q, [2], seed=5) == connect(F, R, Q, [2], seed=5)

    def test_connectors_are_disjoint_from_each_other_and_all_endpoints(self):
        F, R = self.take_all(18, range(6))
        Q = [((6, 7, 8), (9, 10, 11)), ((12, 13, 14), (15, 16, 17))]
        for seed in range(10):
            w0, w1 = connect(F, R, Q, [2, 2], seed=seed)
            assert not set(w0) & set(w1)
            assert (set(w0) | set(w1)) <= R

    def test_exhausted_pool_names_the_failing_pair(self):
        F, R = self.take_all(14, (0, 1))
        Q = [((2, 3, 4), (5, 6, 7)), ((8, 9, 10), (11, 12, 13))]
        with pytest.raises(ConnectionFailure, match="^pair 1: no connector"):
            connect(F, R, Q, [2, 2], seed=0)

    def test_parameter_validation(self):
        F, R = self.take_all(10, range(4))
        with pytest.raises(AssembleParamError, match="one budget"):
            connect(F, R, [((4, 5, 6), (7, 8, 9))], [2, 2])
        with pytest.raises(AssembleParamError, match="k vertices"):
            connect(F, R, [((4, 5), (7, 8, 9))], [2])
        with pytest.raises(AssembleParamError, match="share"):
            connect(F, R, [((4, 5, 6), (6, 8, 9))], [2])
        with pytest.raises(AssembleParamError, match="pairwise disjoint"):
            connect(
                F, R, [((4, 5, 6), (7, 8, 9)), ((4, 1, 2), (3, 0, 9))], [2, 2]
            )
        with pytest.raises(AssembleParamError, match="inner"):
            connect(F, R, [((4, 5, 6), (7, 8, 9))], [0])


class TestLayerTransform:
    def test_star_reserve_builds_a_hamilton_factor_first_try(self):
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        for seed in range(10):
            res = layer_transform(H, F, [C], [12], seed=seed)
            assert verify_factor_copy(H, res.factor, [12]).ok
            assert res.attempts == 1
            assert res.plan.leftover == (10, 11)
            [inner] = connector_inners(res)
            assert sorted(inner) == [10, 11]
            assert len(res.f_edges) == 4
            assert res.factor.lengths() == [12]
            assert all(F.has_edge(e) for e in res.f_edges)

    def test_star_reserve_seed_zero_exact_edges(self):
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        res = layer_transform(H, F, [C], [12], seed=0)
        assert res.f_edges == ((0, 9, 11), (0, 10, 11), (1, 2, 10), (1, 10, 11))
        assert res.plan.leftover == (10, 11)

    def test_same_seed_reproduces_plan_and_factor(self):
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        a = layer_transform(H, F, [C], [12], seed=7)
        b = layer_transform(H, F, [C], [12], seed=7)
        assert a.plan.as_dict() == b.plan.as_dict()
        assert [C.canonical() for C in a.factor.cycles] == [
            C.canonical() for C in b.factor.cycles
        ]
        assert json.dumps(a.plan.as_dict())  # serializable

    def test_factor_edges_come_from_host_and_reserve_only(self):
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        res = layer_transform(H, F, [C], [12], seed=0)
        # the opened cycle's path windows, not its closing edges
        path_edges = {
            tuple(sorted(seq[i : i + 3]))
            for g in res.plan.groups
            for seq in g
            for i in range(len(seq) - 2)
        }
        assert path_edges
        for D in res.factor.cycles:
            for e in D.edges():
                assert H.has_edge(e)
                assert F.has_edge(e) or e in path_edges

    def test_girth_gate_rejects_short_target_cycles(self):
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        with pytest.raises(AssembleParamError, match="girth"):
            layer_transform(H, F, [C], [4, 8], seed=0)

    def test_girth_gate_is_the_cheapest_piece_cost(self):
        # L + ell0: a kept L-path, plus the ell0 connector vertices after it
        H = complete_hypergraph(3, 14)
        prof = Profile(L=6, ell0=1)
        assert check_target([7, 7], H, prof) == (7, 7)
        with pytest.raises(AssembleParamError, match=r"L \+ ell0 = 6 \+ 1 = 7"):
            check_target([6, 8], H, prof)

    def test_target_lengths_must_sum_to_n(self):
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        with pytest.raises(AssembleParamError, match="sum"):
            layer_transform(H, F, [C], [11], seed=0)

    def test_reserve_graph_must_live_inside_the_host(self):
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        small = complete_hypergraph(3, 10)
        with pytest.raises(AssembleParamError, match="same vertex set"):
            layer_transform(H, small, [C], [12], seed=0)
        alien = Hypergraph(3, 12, [(0, 1, 2)])
        missing = H.remove_edges([(0, 1, 2)])
        with pytest.raises(AssembleParamError, match="not an edge"):
            layer_transform(missing, alien, [C], [12], seed=0)

    def test_paths_may_not_use_reserve_edges(self):
        H, F, _ = star_split()
        bad = TightCycle(H, tuple(range(8)) + (10,))
        with pytest.raises(AssembleParamError, match="reserve"):
            layer_transform(H, F, [bad], [12], seed=0)

    def test_paths_must_cover_enough_vertices(self):
        H, F, rest = star_split()
        short = TightCycle(rest, tuple(range(8)))
        with pytest.raises(AssembleParamError, match="cover"):
            layer_transform(H, F, [short], [12], seed=0)

    def test_missing_connector_window_fails_every_attempt(self):
        # the lone connector's two inner vertices are the hubs 10 and 11, so
        # its windows next to them hold both; without those reserve edges no
        # rotation of the opened cycle can be connected
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        F_bad = Hypergraph(3, 12, [e for e in F.edges if not {10, 11} <= set(e)])
        with pytest.raises(LayerFailure) as info:
            layer_transform(H, F_bad, [C], [12], prof=Profile(layer_retries=3))
        log = info.value.stage_log
        assert len(log) == 3
        assert all(stage == "connect" for _, stage, _ in log)

    def test_budgets_spread_the_extra_vertices_round_robin(self, monkeypatch):
        # step (3) against the loop it replaced: one extra inner vertex at a
        # time to each connector in turn, passing over one at ell1
        def round_robin(z, need, ell0, ell1):
            lam, extra, j = [ell0] * z, need - z * ell0, 0
            while extra > 0:
                if lam[j] < ell1:
                    lam[j] += 1
                    extra -= 1
                j = (j + 1) % z
            return lam

        class KeepAll:  # the layer's rng: step (1) keeps every path
            def random(self):
                return 0.0

            def randrange(self, stop):
                return 0

        budgets_of = []

        def record(F, R, Q, budgets, seed=0):
            budgets_of.append(list(budgets))
            raise ConnectionFailure("recorded")

        monkeypatch.setattr(assemble, "connect", record)
        for z in range(1, 7):
            # z paths of 2k = 6 vertices and one target cycle through them all
            seqs = [tuple(range(6 * g, 6 * g + 6)) for g in range(z)]
            for ell0, ell1 in itertools.combinations_with_replacement(range(1, 9), 2):
                for need in range(z * ell0, z * ell1 + 1):
                    n = 6 * z + need
                    prof = Profile(delta=need / n, ell0=ell0, ell1=ell1)
                    with pytest.raises(assemble._StageFail) as info:
                        assemble._attempt_layer(
                            Hypergraph(3, n, []), None, seqs, (n,), prof, KeepAll()
                        )
                    assert (info.value.stage, info.value.detail) == ("connect", "recorded")
                    assert budgets_of.pop() == round_robin(z, need, ell0, ell1)

    def test_keep_step_leaves_a_path_for_every_target_cycle(self, pack_k12):
        # delta = 0.7 puts the leftover window's top above n, so a draw that
        # keeps no path passes the window; step (1) must reject it, since
        # grouping would refuse the empty bin
        H, reserve, collections = pack_k12
        for seed in range(6):
            res = layer_transform(
                H, reserve, collections[0], [12], prof=Profile(delta=0.7), seed=seed
            )
            assert [d for _, _, d in res.stage_log if "received no path" in d] == []


class TestPackFactors:
    def test_two_edge_disjoint_hamilton_factors(self, pack_k12):
        H, reserve, collections = pack_k12
        res = pack_factors(H, reserve, collections, [[12], [12]], seed=0)
        assert bool(res)
        assert (res.achieved, res.requested) == (2, 2)
        assert len(res.layer_results) == 2
        assert bool(res.packing_report.ok)
        seen = set()
        for factor in res.factors:
            edges = {tuple(sorted(e)) for C in factor.cycles for e in C.edges()}
            assert not edges & seen
            seen |= edges

    def test_single_target_runs_a_single_layer(self, pack_k12):
        H, reserve, collections = pack_k12
        res = pack_factors(H, reserve, collections, [[12]], seed=0)
        assert bool(res)
        assert res.achieved == 1
        assert len(res.layer_results) == 1
        assert res.factors[0].lengths() == [12]

    def test_each_layer_draws_from_what_earlier_layers_left(self):
        # seed 89: two layers leave the pair (3, 4) in four consumed reserve
        # edges; the third layer still runs on F minus both layers' edges
        H, reserve, collections = k12_pack_inputs(89, r=3)
        res = pack_factors(H, reserve, collections, [[12], [12], [12]], seed=89)
        assert not res
        assert (res.achieved, res.requested) == (2, 3)
        assert len(res.failed_log) == 20
        assert bool(res.packing_report.ok)
        used = [e for lr in res.layer_results for e in lr.f_edges]
        assert len(used) == len(set(used))
        assert sum({3, 4} <= set(e) for e in used) == 4

    def test_exhausted_layer_returns_a_partial_result(self):
        H, reserve, collections = k12_pack_inputs(12)
        res = pack_factors(H, reserve, collections, [[12], [12]], seed=12)
        assert not res
        assert (res.achieved, res.requested) == (1, 2)
        assert len(res.layer_results) == 1
        assert bool(res.packing_report.ok)
        # the failed layer's log lists every one of its attempts
        assert [a for a, _, _ in res.failed_log] == list(range(1, 21))
        failed = res.manifest()["failed_layer"]
        assert (failed["layer"], failed["attempts"]) == (1, 20)

    def test_more_targets_than_collections_is_rejected(self, pack_k12):
        H, reserve, collections = pack_k12
        with pytest.raises(AssembleParamError, match="targets"):
            pack_factors(H, reserve, collections, [[12], [12], [12]], seed=0)

    def test_bundle_paths_may_not_touch_the_reserve(self, pack_k12):
        H, reserve, collections = pack_k12
        cover_host = H.remove_edges(reserve.edges)
        with pytest.raises(AssembleParamError, match="reserve edge"):
            pack_factors(H, cover_host, collections, [[12]], seed=0)

    def test_manifest_is_deterministic_with_normalized_timings(self, pack_k12):
        H, reserve, collections = pack_k12
        a = pack_factors(H, reserve, collections, [[12], [12]], seed=0)
        b = pack_factors(H, reserve, collections, [[12], [12]], seed=0)
        da = json.dumps(a.manifest(normalize_timings=True), sort_keys=True)
        db = json.dumps(b.manifest(normalize_timings=True), sort_keys=True)
        assert da == db
        doc = a.manifest(normalize_timings=True)
        assert doc["ok"] and doc["achieved"] == 2
        assert len(doc["layers"]) == 2
        assert all(t == 0.0 for layer in doc["layers"] for t in layer["timings"].values())
