"""From absorbers to packed factors: the assembly machinery in three stages.

  1. enumerate the ordered 6-sequences of K_7 that can swallow a given
     vertex while staying tight,
  2. transform one near-spanning cycle plus a reserve graph into a verified
     Hamilton factor of K_12 (each attempt opens the cycle into a path and
     closes it with a connector through the leftover vertices),
  3. pack two edge-disjoint Hamilton factors of K_12, each layer drawing
     its connectors from the reserve edges earlier layers left unused.
"""

import numpy as np

from cyclefactors.absorbing import are_absorbers_for, enumerate_absorbers, is_absorber_for
from cyclefactors.assemble import layer_transform, pack_factors
from cyclefactors.bruteforce import validate_packing
from cyclefactors.cover import (
    extract_cycle_collections,
    fractional_cycle_decomposition,
)
from cyclefactors.fractional import sparsify_intersecting, uniform_weighting
from cyclefactors.hypergraph import Hypergraph, complete_hypergraph
from cyclefactors.tightpaths import TightCycle, verify_factor_copy


def stage_1():
    print("stage 1: absorbers of vertex 0 in K_7")
    H = complete_hypergraph(3, 7)
    absorbers = enumerate_absorbers(H, 0)
    print(f"  {len(absorbers)} ordered 6-sequences absorb vertex 0")
    a = absorbers[0]
    widened = a[:3] + (0,) + a[3:]
    print(f"  example: path {list(a)} stays tight as {list(widened)}")
    absorbed = are_absorbers_for(H, [a] * H.n, range(H.n))
    print(f"  vertices it absorbs: {np.flatnonzero(absorbed).tolist()}")
    print(f"  insertion check: {is_absorber_for(H, a, 0)}\n")


def stage_2():
    print("stage 2: one 10-cycle + hub reserve -> Hamilton factor of K_12")
    H = complete_hypergraph(3, 12)
    reserve_edges = [e for e in H.edges if set(e) & {10, 11}]
    F = Hypergraph(3, 12, reserve_edges)
    rest = H.remove_edges(reserve_edges)
    cycle = TightCycle(rest, tuple(range(10)))
    res = layer_transform(H, F, [cycle], [12], seed=0)
    plan = res.plan
    print(f"  attempts: {res.attempts}, leftover size: {len(plan.leftover)}, "
          f"connector budgets: {[list(lam) for lam in plan.lambdas]}")
    print(f"  factor lengths: {res.factor.lengths()}, "
          f"reserve edges consumed: {len(res.f_edges)}")
    print(f"  independent re-check: "
          f"{verify_factor_copy(H, res.factor, [12]).ok}\n")


def stage_3():
    print("stage 3: pack two edge-disjoint Hamilton factors of K_12")
    H = complete_hypergraph(3, 12)
    reserve = sparsify_intersecting(H, 0.5, uniform_weighting(H), seed=0)
    rest = H.remove_edges(reserve.edges)
    print(f"  reserve: {reserve.m} edges, cover substrate: {rest.m} edges")
    frac = fractional_cycle_decomposition(rest, 6, seed=0)
    ext = extract_cycle_collections(rest, frac, 2, seed=0, mu=0.2)
    print(f"  cover: {len(ext.collections)} collections, "
          f"coverages {ext.coverages()}")
    res = pack_factors(H, reserve, ext.collections, [[12], [12]], seed=0)
    print(f"  packed {res.achieved}/{res.requested} factors, ok = {res.ok}")
    for i, factor in enumerate(res.factors):
        print(f"  factor {i}: {[list(C.seq) for C in factor.cycles]}")
    for i, lr in enumerate(res.layer_results):
        print(f"  layer {i} consumed {len(lr.f_edges)} reserve edges: "
              f"{[list(e) for e in lr.f_edges]}")
    print(f"  cross-factor edge-disjointness: "
          f"{validate_packing(H, res.factors).ok}")


if __name__ == "__main__":
    stage_1()
    stage_2()
    stage_3()
