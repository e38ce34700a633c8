"""Acceptance gate: every shipped guarantee, measured end to end.

Each test prints exactly one ``criterion N: PASS/FAIL (...)`` line straight
to the terminal (bypassing capture) and then asserts the verdict, so a full
run always shows ten lines regardless of outcome.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from cyclefactors.absorbing import (
    disjoint_perfect_matchings,
    enumerate_absorbers,
    is_absorber_for,
)
from cyclefactors.assemble import LayerFailure, layer_transform
from cyclefactors.bruteforce import reg_k, reg_k_by_enumeration, validate_packing
from cyclefactors.cli import main as cli_main
from cyclefactors.fractional import (
    balancedness,
    build_walk_registry,
    redistribute_pfm,
    uniform_weighting,
)
from cyclefactors.hypergraph import (
    Hypergraph,
    complete_hypergraph,
    degree_transfer_check,
    format_hypergraph,
)
from cyclefactors.tightpaths import (
    PathCollection,
    TightCycle,
    TightPath,
    classify,
    factors_from_document,
    verify_factor_copy,
)
from cyclefactors.walks import sample_walks, tuple_marginal_oracle

MASTER_SEED = 20260825


def announce(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num}: {verdict} ({detail})")
    return ok


def random_intersecting_3graph(rng):
    """Dense random 3-graph with every disjoint pair of 2-sets sharing
    at least n/5 common neighbors."""
    while True:
        n = rng.randint(6, 8)
        p = rng.uniform(0.55, 0.8)
        edges = [e for e in itertools.combinations(range(n), 3) if rng.random() < p]
        if len(edges) < n:
            continue
        H = Hypergraph(3, n, edges)
        eta = H.regularity_report().eta_star
        if eta is not None and eta >= Fraction(1, 5):
            return H


def near_regular_3graph(rng):
    """Complete 3-graph minus a few edges: connected, degree spread <= 10%."""
    while True:
        n = rng.randint(8, 16)
        pool = list(itertools.combinations(range(n), 3))
        dropped = rng.sample(pool, rng.randint(0, n // 3))
        H = complete_hypergraph(3, n).remove_edges(dropped)
        if H.regularity_report().rho_star <= Fraction(1, 10):
            return H


# definitional re-derivation of classify: enumerate every subset of e against
# the end-sets (all prefixes plus the suffix k-set) and path vertex sets
def naive_classify(e, path_seqs, k):
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


def hub_split_12():
    """K_12 split into the edges meeting {10, 11} (reserve) and the rest."""
    H = complete_hypergraph(3, 12)
    f_edges = [e for e in H.edges if set(e) & {10, 11}]
    F = Hypergraph(3, 12, f_edges)
    return H, F, H.remove_edges(f_edges)


def matching_batch_valid(adj, matchings, need):
    """need pairwise edge-disjoint perfect matchings drawn from adj."""
    n = len(adj)
    rows = [set(r) for r in adj]
    if len(matchings) < need:
        return False
    used = set()
    for m in matchings:
        if sorted(m) != list(range(n)):
            return False
        for i, r in enumerate(m):
            if r not in rows[i] or (i, r) in used:
                return False
            used.add((i, r))
    return True


class TestAcceptance:
    def test_criterion_01_walk_marginal_enumeration_matches_formula(self, capsys):
        rng = random.Random(MASTER_SEED)
        graphs = [complete_hypergraph(3, 4), complete_hypergraph(3, 5)]
        graphs += [random_intersecting_3graph(rng) for _ in range(20)]
        t0 = time.perf_counter()
        checks = 0
        mismatches = 0
        for H in graphs:
            w = uniform_weighting(H)
            for L in range(1, 7):
                for t in range(1, L + 1):
                    for j in range(1, min(3, t) + 1):
                        table = tuple_marginal_oracle(H, w, L, t, j)
                        for p_enum, p_formula in table.values():
                            checks += 1
                            if p_enum != p_formula:
                                mismatches += 1
        elapsed = time.perf_counter() - t0
        ok = mismatches == 0 and elapsed < 300
        detail = (
            f"{len(graphs)} graphs, {checks} marginals exact in rationals, "
            f"{mismatches} mismatches, {elapsed:.1f}s < 300s"
        )
        assert announce(capsys, 1, ok, detail), detail

    def test_criterion_02_sampled_marginals_uniform_under_pfm(self, capsys):
        H = complete_hypergraph(3, 8)
        w = uniform_weighting(H)
        assert w.is_pfm()
        rng = np.random.default_rng(MASTER_SEED)
        draws = 10**6
        counts = np.zeros((12, 8), dtype=np.int64)
        t0 = time.perf_counter()
        for _ in range(10):
            walks = sample_walks(H, w, 6, 12, draws // 10, rng)
            for t in range(12):
                counts[t] += np.bincount(walks[:, t], minlength=8)
        elapsed = time.perf_counter() - t0
        assert (counts.sum(axis=1) == draws).all()
        deviation = float(np.abs(counts / draws - 0.125).max())
        ok = deviation <= 0.005
        detail = (
            f"10^6 walks of length 12 on K_8, max |p_hat - 1/8| = {deviation:.5f} "
            f"<= 0.005, {elapsed:.1f}s"
        )
        assert announce(capsys, 2, ok, detail), detail

    def test_criterion_03_redistributed_weights_exact_and_balanced(self, capsys):
        rng = random.Random(MASTER_SEED)
        exact = 0
        balanced = 0
        for i in range(50):
            H = near_regular_3graph(rng)
            W = build_walk_registry(H, seed=i)
            pairs_connected = all(
                W[(s, t)] for s in range(H.n) for t in range(H.n) if s != t
            )
            assert pairs_connected
            out = redistribute_pfm(H, W)
            if out.exact and out.is_pfm():
                exact += 1
            if balancedness(out) <= 2:
                balanced += 1
        ok = exact == 50 and balanced >= 45
        detail = f"{exact}/50 exact unit vertex weights, {balanced}/50 max/min <= 2 (need 45)"
        assert announce(capsys, 3, ok, detail), detail

    def test_criterion_04_absorber_enumeration_complete_and_sound(self, capsys):
        H = complete_hypergraph(3, 7)
        counts = []
        insertion_failures = 0
        for x in range(7):
            absorbers = enumerate_absorbers(H, x)
            counts.append(len(absorbers))
            insertion_failures += sum(
                1 for seq in absorbers if not is_absorber_for(H, seq, x)
            )
        ok = counts == [720] * 7 and insertion_failures == 0
        detail = (
            f"720 ordered 6-sequences per vertex on K_7 (got {sorted(set(counts))}), "
            f"{insertion_failures} insertion failures"
        )
        assert announce(capsys, 4, ok, detail), detail

    def test_criterion_05_disjoint_matchings_meet_degree_guarantee(self, capsys):
        def guarantee(adj):
            n = len(adj)
            d1 = min(len(row) for row in adj)
            right = [sum(1 for row in adj if j in row) for j in range(n)]
            return max(0, math.ceil((d1 + min(right) - n) / 2))

        violations = 0
        positives = 0
        for mask in range(1 << 16):
            adj = [
                [j for j in range(4) if mask >> (4 * i + j) & 1] for i in range(4)
            ]
            g = guarantee(adj)
            if g == 0:
                continue
            positives += 1
            if not matching_batch_valid(adj, disjoint_perfect_matchings(adj, g), g):
                violations += 1
        exhaustive_positives = positives
        rng = random.Random(MASTER_SEED)
        for _ in range(200):
            adj = [[j for j in range(8) if rng.random() < 0.7] for _ in range(8)]
            g = guarantee(adj)
            if g == 0:
                continue
            positives += 1
            if not matching_batch_valid(adj, disjoint_perfect_matchings(adj, g), g):
                violations += 1
        ok = violations == 0 and exhaustive_positives == 905
        detail = (
            f"all 2^16 bipartite 4x4 ({exhaustive_positives} with positive bound) "
            f"+ 200 random 8x8, {positives} positive instances, {violations} violations"
        )
        assert announce(capsys, 5, ok, detail), detail

    def test_criterion_06_classify_matches_subset_enumeration(self, capsys):
        rng = random.Random(MASTER_SEED)
        hosts = {}
        mismatches = 0
        for i in range(10**4):
            k = 3 if i % 2 == 0 else 4
            n = rng.randint(k + 3, 11)
            if (k, n) not in hosts:
                hosts[(k, n)] = complete_hypergraph(k, n)
            H = hosts[(k, n)]
            P = random_collection(rng, H, leave_out=rng.randint(0, 2))
            e = rng.sample(range(n), k)
            if classify(e, P) != naive_classify(e, [p.seq for p in P.paths], k):
                mismatches += 1
        ok = mismatches == 0
        detail = f"10^4 random (k-set, collection) instances, k in {{3, 4}}, {mismatches} mismatches"
        assert announce(capsys, 6, ok, detail), detail

    def test_criterion_07_layer_emits_verified_hamilton_factor(self, capsys):
        H, F, rest = hub_split_12()
        successes = 0
        budget_ok = True
        for seed in range(10):
            try:
                res = layer_transform(
                    H, F, [TightCycle(rest, tuple(range(10)))], [12], seed=seed
                )
            except LayerFailure:
                continue
            assert res.attempts <= 20
            assert verify_factor_copy(H, res.factor, [12]).ok
            # the factor's one cycle is the kept path, then its connector
            [C], [[path]] = res.factor.cycles, res.plan.groups
            inner = C.seq[len(path):]
            budget_ok = budget_ok and (
                C.seq[: len(path)] == path and sorted(inner) == list(res.plan.leftover)
            )
            successes += 1
        ok = successes >= 9 and budget_ok
        detail = (
            f"{successes}/10 seeds produced a verified Hamilton factor of K_12 "
            f"(need 9), connector inner vertices were exactly the leftover on all "
            f"successes: {budget_ok}"
        )
        assert announce(capsys, 7, ok, detail), detail

    def test_criterion_08_cli_decompose_packs_two_hamilton_factors(
        self, capsys, tmp_path
    ):
        H = complete_hypergraph(3, 12)
        host = tmp_path / "k12.txt"
        host.write_text(format_hypergraph(H))
        wins = 0
        emitted = 0
        validated = 0
        slowest = 0.0
        for seed in range(10):
            out = tmp_path / f"decompose{seed}.json"
            t0 = time.perf_counter()
            code = cli_main(
                [
                    "decompose",
                    str(host),
                    "--targets",
                    "12;12",
                    "--seed",
                    str(seed),
                    "-q",
                    "--normalize-timings",
                    "--output",
                    str(out),
                ]
            )
            slowest = max(slowest, time.perf_counter() - t0)
            doc = json.loads(out.read_text())
            if code == 0 and doc["ok"] and doc["achieved"] == 2:
                wins += 1
            if doc["manifest"]:
                emitted += 1
                factors = factors_from_document(doc["manifest"]["factors"], H)
                if validate_packing(H, factors).ok:
                    validated += 1
        ok = wins >= 7 and slowest <= 120 and validated == emitted
        detail = (
            f"{wins}/10 seeds gave 2 edge-disjoint Hamilton factors (need 7), "
            f"slowest seed {slowest:.1f}s <= 120s, "
            f"{validated}/{emitted} emitted packings validate (need 100%)"
        )
        assert announce(capsys, 8, ok, detail), detail

    def test_criterion_09_regular_subgraph_search_matches_enumeration(self, capsys):
        pool6 = list(itertools.combinations(range(6), 3))
        fixtures = [
            complete_hypergraph(3, 4),
            complete_hypergraph(3, 5),
            Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]),
            Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)]),
            Hypergraph(3, 6, sorted(random.Random(3).sample(pool6, 14))),
            complete_hypergraph(3, 6),
        ]
        values = [reg_k(H).r for H in fixtures]
        agreements = sum(
            1 for H, r in zip(fixtures, values) if r == reg_k_by_enumeration(H)
        )
        ok = values[0] == 3 and values[1] == 6 and agreements == len(fixtures)
        detail = (
            f"reg_3(K_4) = {values[0]}, reg_3(K_5) = {values[1]}, "
            f"enumeration agrees on {agreements}/{len(fixtures)} fixtures with <= 20 edges"
        )
        assert announce(capsys, 9, ok, detail), detail

    def test_criterion_10_degree_transfer_identity_and_dense_window(self, capsys):
        pool6 = list(itertools.combinations(range(6), 3))
        fixtures = [complete_hypergraph(3, n) for n in (4, 5, 7, 8)] + [
            complete_hypergraph(4, 8),
            Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3)]),
            Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]),
            Hypergraph(3, 6, sorted(random.Random(3).sample(pool6, 14))),
        ]
        identity_pass = sum(
            1
            for H in fixtures
            if degree_transfer_check(H, range(H.n), theta=1.0, eps=0.0).all_pass
        )
        rng = random.Random(10)
        dense_pass = 0
        for _ in range(40):
            n = rng.randint(8, 12)
            p = rng.uniform(0.5, 0.9)
            edges = [
                e for e in itertools.combinations(range(n), 3) if rng.random() < p
            ]
            H = Hypergraph(3, n, edges)
            U = rng.sample(range(n), rng.randint(n // 2, n - 1))
            report = degree_transfer_check(H, U)
            assert report.precondition_ok
            if report.all_pass:
                dense_pass += 1
        ok = identity_pass == len(fixtures) and dense_pass >= 38
        detail = (
            f"identity case passed on {identity_pass}/{len(fixtures)} hosts, "
            f"measured-eps window held on {dense_pass}/40 dense instances (need 38)"
        )
        assert announce(capsys, 10, ok, detail), detail
