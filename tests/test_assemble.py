import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclefactors import assemble
from cyclefactors.assemble import (
    AssembleError,
    AssembleParamError,
    ConnectionFailure,
    LayerFailure,
    PackBudgetError,
    Profile,
    ReservoirError,
    UsageLedger,
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
from cyclefactors.tightpaths import TightCycle, is_tight_path


def star_split(n=12, hubs=(10, 11)):
    """Split K_n into the edges meeting the hub set (reserve) and the rest."""
    H = complete_hypergraph(3, n)
    f_edges = [e for e in H.edges if set(e) & set(hubs)]
    F = Hypergraph(3, n, f_edges)
    rest = H.remove_edges(f_edges)
    return H, F, rest


def window_split(n, runs):
    """Reserve = K_n minus the cyclic tight windows of the given vertex runs;
    each run becomes a tight cycle of the removed windows."""
    H = complete_hypergraph(3, n)
    closed = [tuple(run) + tuple(run)[:2] for run in runs]
    windows = {
        tuple(sorted(run[i : i + 3])) for run in closed for i in range(len(run) - 2)
    }
    F = H.remove_edges(sorted(windows))
    cycle_host = Hypergraph(3, n, sorted(windows))
    cycles = [TightCycle(cycle_host, tuple(run)) for run in runs]
    return H, F, cycles


def k12_pack_inputs(seed, r=2):
    """Reserve graph plus r extracted cycle collections on K_12."""
    H = complete_hypergraph(3, 12)
    reserve = sparsify_intersecting(H, 0.5, uniform_weighting(H), seed)
    rest = H.remove_edges(reserve.edges)
    frac = fractional_cycle_decomposition(rest, 6, seed=seed, per_edge=20)
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
        assert p.beta == 0.4
        assert (p.ell0, p.ell1) == (2, 6)
        assert (p.L, p.L_prime) == (6, 6)
        assert (p.a, p.ell) == (1, 0)
        assert p.layer_retries == 20
        assert p.extend is False
        assert len(p.as_dict()) == 15

    def test_as_dict_round_trips_through_from_mapping(self):
        p = Profile(mu=0.1, L=8, extend=True)
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
        with pytest.raises(AssembleParamError, match="cap_fraction"):
            Profile(cap_fraction=0.0)


class TestBuildReservoir:
    def test_small_vertex_pool_takes_everything(self):
        F = complete_hypergraph(3, 10)
        R = build_reservoir(F, 0.4, 2, 3, seed=0, inside=range(5))
        assert R == frozenset(range(5))

    def test_sampled_mode_lands_in_the_size_window(self):
        F = complete_hypergraph(3, 14)
        R = build_reservoir(F, 0.4, 2, 4, seed=0)
        lo, hi = math.floor(0.4 * 14 / 2), math.ceil(0.4 * 14)
        assert lo <= len(R) <= hi
        assert R <= set(range(14))

    def test_beta_one_window_is_the_upper_half(self):
        F = complete_hypergraph(3, 9)
        R = build_reservoir(F, 1.0, 2, 3, seed=0)
        assert 4 <= len(R) <= 9

    def test_parameter_validation(self):
        F = complete_hypergraph(3, 9)
        with pytest.raises(AssembleParamError, match="beta"):
            build_reservoir(F, 0.0, 2, 3)
        with pytest.raises(AssembleParamError, match="beta"):
            build_reservoir(F, 1.5, 2, 3)
        with pytest.raises(AssembleParamError, match="ell0"):
            build_reservoir(F, 0.4, 3, 2)
        with pytest.raises(Exception, match="vertex"):
            build_reservoir(F, 0.4, 2, 3, inside=[0, 9])

    def test_failure_names_the_violated_property(self, monkeypatch):
        # seed 8's first draw has |R| = 5, above the window [1, 4]
        monkeypatch.setattr(assemble, "RESERVOIR_SAMPLES", 1)
        F = complete_hypergraph(3, 9)
        with pytest.raises(ReservoirError, match="last failure: size "):
            build_reservoir(F, 0.4, 2, 3, seed=8)

    def test_inside_edges_are_listed_once_for_every_audit(self, monkeypatch):
        # this host's reservoir is accepted on its 41st audited sample
        rng = random.Random(4)
        F = Hypergraph(3, 12, [e for e in itertools.combinations(range(12), 3) if rng.random() < 0.6])
        seen = []
        audit = assemble._audit_reservoir

        def spy(F, R, beta, ell0, ell1, edges, rng):
            seen.append(edges)
            return audit(F, R, beta, ell0, ell1, edges, rng)

        monkeypatch.setattr(assemble, "_audit_reservoir", spy)
        R = build_reservoir(F, 0.4, 2, 3, seed=43, inside=range(1, 12))
        assert len(R) < 11
        assert len(seen) == 41
        assert all(edges is seen[0] for edges in seen)
        assert seen[0] == [e for e in F.edges if set(e) <= set(range(1, 12))]

    def test_reservoir_is_immutable(self):
        F = complete_hypergraph(3, 10)
        R = build_reservoir(F, 0.4, 2, 3, seed=0, inside=range(5))
        with pytest.raises(AttributeError):
            R.add(9)


class TestPathsBetween:
    """``connectors``: every connector between two ordered end edges."""

    def mixed_window_host(self):
        drop = [(2, 3, 4), (3, 4, 5), (2, 4, 5), (2, 7, 8), (3, 8, 9), (4, 5, 9), (0, 5, 9)]
        F = complete_hypergraph(3, 10).remove_edges(drop)
        return F, frozenset(range(6))

    def test_matches_the_permutation_oracle(self, monkeypatch):
        F, R = self.mixed_window_host()
        s, t = (6, 7, 8), (9, 0, 1)
        counts = {}
        for lam in (1, 2, 3):
            probes = []
            has_edge = Hypergraph.has_edge
            monkeypatch.setattr(
                Hypergraph, "has_edge", lambda H, e: probes.append(e) or has_edge(H, e)
            )
            got = list(connectors(F, R, s, t, lam))
            monkeypatch.undo()
            assert probes == []
            pool = sorted(R - set(s) - set(t))
            oracle = []
            for inner in itertools.permutations(pool, lam):
                seq = s + inner + t
                if all(
                    F.has_edge(seq[i : i + 3])
                    for i in range(1, len(seq) - 2)
                    if set(seq[i : i + 3]) & set(inner)
                ):
                    oracle.append(inner)
            assert got == oracle
            counts[lam] = (len(got), math.perm(len(pool), lam))
        assert counts == {1: (1, 4), 2: (6, 12), 3: (3, 24)}

    def test_every_connector_glues_into_a_tight_path(self):
        F, R = self.mixed_window_host()
        s, t = (6, 7, 8), (9, 0, 1)
        for lam in (1, 2, 3):
            for inner in connectors(F, R, s, t, lam):
                assert is_tight_path(F, s + inner + t)

    def test_overlapping_endpoints_have_no_connectors(self):
        F, R = self.mixed_window_host()
        assert list(connectors(F, R, (6, 7, 0), (0, 1, 9), 1)) == []

    def test_at_least_one_inner_vertex_is_required(self):
        F, R = self.mixed_window_host()
        with pytest.raises(AssembleParamError, match="inner"):
            connect(F, R, [((6, 7, 8), (9, 0, 1))], [0])


class TestConnect:
    def take_all(self, n, pool):
        F = complete_hypergraph(3, n)
        return F, build_reservoir(F, 0.5, 2, 3, seed=0, inside=pool)

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
        with pytest.raises(ConnectionFailure) as info:
            connect(F, R, Q, [2, 2], seed=0)
        assert info.value.pair_index == 1

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
            assert bool(res)
            assert res.attempts == 1
            assert res.plan.X == ()
            assert res.plan.capacity == 0
            assert len(res.f_edges) == 4
            assert res.factor.lengths() == [12]
            assert all(F.has_edge(e) for e in res.f_edges)

    def test_star_reserve_seed_zero_exact_edges(self):
        H, F, rest = star_split()
        C = TightCycle(rest, tuple(range(10)))
        res = layer_transform(H, F, [C], [12], seed=0)
        assert res.f_edges == ((0, 9, 11), (0, 10, 11), (1, 2, 10), (1, 10, 11))
        assert res.plan.sizes == {"V1": 2, "V2": 0, "V3": 0}

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
            for kind, seq, _ in g
            if kind == "kept"
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
        # min(L, L_prime) + ell0: the shortest path a layer places, plus the
        # ell0 connector vertices after it
        H = complete_hypergraph(3, 14)
        prof = Profile(L=8, L_prime=5, ell0=2)
        assert check_target([7, 7], H, prof) == (7, 7)
        with pytest.raises(AssembleParamError, match=r"min\(8, 5\) \+ 2 = 7"):
            check_target([6, 8], H, prof)
        # a gate at or below k still leaves every cycle k + 1 vertices
        with pytest.raises(AssembleParamError, match=r"k\+1"):
            check_target([3, 11], H, Profile(L_prime=2, ell0=1))

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

    def test_uncovered_vertices_are_closed_by_a_cover_piece(self):
        H, F, cycles = window_split(24, [range(12), range(12, 20)])
        prof = Profile(delta=0.5, beta=0.5, layer_retries=40)
        res = layer_transform(H, F, cycles, [24], prof=prof, seed=3)
        assert bool(res)
        assert res.attempts == 8
        kinds = [kind for g in res.plan.groups for kind, _, _ in g]
        assert "cover" in kinds
        assert res.plan.sizes == {"V1": 12, "V2": 6, "V3": 6}
        assert res.plan.X == ()

    def test_kept_paths_can_be_extended_into_the_leftover(self):
        H, F, cycles = window_split(20, [range(10), range(10, 16)])
        prof = Profile(delta=0.5, beta=0.5, extend=True, layer_retries=40)
        for seed, want_attempts in [(0, 10), (1, 12)]:
            res = layer_transform(H, F, cycles, [20], prof=prof, seed=seed)
            assert bool(res)
            assert res.attempts == want_attempts
            assert res.plan.extended
            lens = [len(seq) for g in res.plan.groups for _, seq, _ in g]
            assert lens == [16]

    def test_leftover_vertices_are_absorbed_by_the_structure(self):
        H, F, cycles = window_split(35, [range(16), range(16, 30)])
        prof = Profile(
            delta=0.5, beta=0.5, theta=0.4, a=2, ell=1, L_prime=14, layer_retries=40
        )
        for seed, want_attempts, want_X in [(2, 1, (16,)), (0, 1, (6,))]:
            res = layer_transform(H, F, cycles, [35], prof=prof, seed=seed)
            assert bool(res)
            assert res.attempts == want_attempts
            assert res.plan.X == want_X
            assert res.plan.capacity == len(res.plan.X) == 1
            kinds = [kind for g in res.plan.groups for kind, _, _ in g]
            assert "absorber" in kinds
            covered = set().union(*(C.vertex_set for C in res.factor.cycles))
            assert set(want_X) <= covered

    @pytest.mark.parametrize("k,p", [(3, 0.5), (3, 0.8), (4, 0.6)])
    def test_backward_extension_is_the_reversed_forward_extension(
        self, k, p, check_against_backward
    ):
        rng = random.Random(k * 100 + int(p * 10))
        F = Hypergraph(k, 14, [e for e in itertools.combinations(range(14), k) if rng.random() < p])
        outcomes = set()
        for trial in range(60):
            seq = tuple(rng.sample(range(14), rng.randint(k, 2 * k)))
            rest = [v for v in range(14) if v not in seq]
            allowed = set(rng.sample(rest, rng.randint(k, len(rest))))
            outcomes.add(check_against_backward(F, seq, allowed, trial) is None)
        assert outcomes == {True, False}

    def test_absorbed_set_always_matches_placed_capacity(self):
        H, F, cycles = window_split(35, [range(16), range(16, 30)])
        prof = Profile(
            delta=0.5, beta=0.5, theta=0.4, a=2, ell=1, L_prime=14, layer_retries=40
        )
        res = layer_transform(H, F, cycles, [35], prof=prof, seed=1)
        assert len(res.plan.X) == res.plan.capacity


class TestUsageLedger:
    def test_records_consumed_codegrees(self):
        led = UsageLedger(3, 8, 2)
        led.record_layer([(0, 1, 2), (1, 2, 3)])
        assert led.usage((1, 2)) == 2
        assert led.usage((0, 1)) == 1
        assert led.usage((0, 3)) == 0
        assert led.y(0, (2, 1)) == 2
        led.record_layer([(1, 2, 4)])
        assert led.usage((1, 2)) == 3
        assert led.y(1, (1, 2)) == 1

    def test_duplicate_edges_in_a_layer_count_once(self):
        led = UsageLedger(3, 8, 2)
        led.record_layer([(0, 1, 2), (2, 1, 0)])
        assert led.usage((0, 1)) == 1

    def test_violation_returns_the_lexicographically_first_overload(self):
        led = UsageLedger(3, 8, 1)
        led.record_layer([(0, 1, 2), (0, 1, 3), (1, 2, 3)])
        assert led.usage((0, 1)) == 2
        assert led.usage((1, 2)) == 2
        assert led.usage((1, 3)) == 2
        assert led.violation() == (0, 1)

    def test_no_violation_below_the_cap(self):
        led = UsageLedger(3, 8, 2)
        led.record_layer([(0, 1, 2), (0, 1, 3)])
        assert led.violation() is None
        assert led.max_usage() == (2, (0, 1))

    def test_snapshot_summarizes_layers(self):
        led = UsageLedger(3, 8, 2)
        led.record_layer([(0, 1, 2)])
        led.record_layer([(0, 1, 3), (4, 5, 6)])
        snap = led.snapshot()
        assert snap["cap"] == 2
        assert snap["layers"] == 2
        assert snap["edges_per_layer"] == [1, 2]
        assert snap["max_usage"] == 2
        assert snap["argmax"] == [0, 1]

    def test_shape_validation(self):
        with pytest.raises(AssembleParamError):
            UsageLedger(1, 8, 2)
        with pytest.raises(AssembleParamError):
            UsageLedger(3, 8, -1)
        led = UsageLedger(3, 8, 2)
        with pytest.raises(AssembleParamError, match="3-set"):
            led.record_layer([(0, 1)])

    def test_equality_tracks_shape_and_content(self):
        a = UsageLedger(3, 8, 2)
        b = UsageLedger(3, 8, 2)
        a.record_layer([(0, 1, 2)])
        b.record_layer([(0, 1, 2)])
        assert a == b
        b.record_layer([(3, 4, 5)])
        assert a != b
        assert a != UsageLedger(3, 8, 1)

    @given(
        layers=st.lists(
            st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
                .map(lambda t: tuple(sorted(set(t))))
                .filter(lambda t: len(t) == 3),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
        cap=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_usage_is_the_sum_of_per_layer_counts(self, layers, cap):
        led = UsageLedger(3, 8, cap)
        for edges in layers:
            led.record_layer(edges)
        for x in itertools.combinations(range(8), 2):
            assert led.usage(x) == sum(led.y(i, x) for i in range(len(layers)))
        assert (led.violation() is None) == (led.max_usage()[0] <= cap)


class TestPackFactors:
    def test_two_edge_disjoint_hamilton_factors(self, pack_k12):
        H, reserve, collections = pack_k12
        res = pack_factors(H, reserve, collections, [[12], [12]], seed=0)
        assert bool(res)
        assert (res.achieved, res.requested) == (2, 2)
        assert len(res.ledger.layers) == 2
        assert bool(res.packing_report.ok)
        seen = set()
        for factor in res.factors:
            edges = {tuple(sorted(e)) for C in factor.cycles for e in C.edges()}
            assert not edges & seen
            seen |= edges

    def test_ledger_recomputes_from_the_emitted_factors(self, pack_k12):
        H, reserve, collections = pack_k12
        res = pack_factors(H, reserve, collections, [[12], [12]], seed=0)
        fresh = UsageLedger.recomputed(3, 12, res.ledger.cap, reserve, res.factors)
        assert fresh == res.ledger

    def test_single_target_runs_a_single_layer(self, pack_k12):
        H, reserve, collections = pack_k12
        res = pack_factors(H, reserve, collections, [[12]], seed=0)
        assert bool(res)
        assert res.achieved == 1
        assert len(res.ledger.layers) == 1
        assert res.factors[0].lengths() == [12]

    def test_budget_gate_stops_before_the_second_layer(self, pack_k12):
        # cap_fraction 0.01 caps every pair at one consumed reserve edge
        H, reserve, collections = pack_k12
        with pytest.raises(PackBudgetError) as info:
            pack_factors(
                H, reserve, collections, [[12], [12]],
                prof=Profile(cap_fraction=0.01), seed=0,
            )
        err = info.value
        assert err.culprit == (0, 9)
        assert len(err.factors) == 1
        assert err.snapshot["cap"] == 1
        assert err.snapshot["max_usage"] == 2

    def test_cap_gates_the_start_of_each_layer_not_the_last(self):
        # seed 0: two layers leave the pair (3, 7) at usage 4, over the
        # default cap 3 = ceil(0.25 * 12)
        H, reserve, collections = k12_pack_inputs(0, r=3)
        two = pack_factors(H, reserve, collections[:2], [[12], [12]], seed=0)
        assert two.ok
        assert (two.ledger.cap, two.ledger.snapshot()["max_usage"]) == (3, 4)
        with pytest.raises(PackBudgetError, match="before layer 2") as info:
            pack_factors(H, reserve, collections, [[12], [12], [12]], seed=0)
        err = info.value
        assert err.culprit == (3, 7)
        assert [F.as_dict() for F in err.factors] == [F.as_dict() for F in two.factors]
        assert err.snapshot == two.ledger.snapshot()

    def test_exhausted_layer_returns_a_partial_result(self):
        H, reserve, collections = k12_pack_inputs(22)
        res = pack_factors(H, reserve, collections, [[12], [12]], seed=22)
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
        assert doc["profile"]["cap_fraction"] == 0.25
        assert len(doc["layers"]) == 2
        assert all(t == 0.0 for layer in doc["layers"] for t in layer["timings"].values())
