"""Exact walk-law arithmetic: the vertex marginal of a weighted tight walk
under a perfect fractional matching is uniform, provably and measurably.

Three exhibits:
  1. the enumeration/closed-formula dual computation agreeing in exact
     rationals on a complete host,
  2. an irregular host where redistribution repairs uniform weights into an
     exact perfect fractional matching,
  3. walks sampled on the repaired host, all at once by ``sample_walks``,
     matching the 1/n law.
"""

from collections import Counter
from fractions import Fraction

from cyclefactors.fractional import (
    balancedness,
    build_walk_registry,
    redistribute_pfm,
    uniform_weighting,
)
from cyclefactors.hypergraph import complete_hypergraph
from cyclefactors.walks import sample_walks, tuple_marginal_oracle


def main():
    H = complete_hypergraph(3, 5)
    w = uniform_weighting(H)
    print("exhibit 1: K_5, uniform weights (an exact PFM), walk length L = 4")
    print("P[X_3 = v] computed two independent ways, all exact Fractions:")
    table = tuple_marginal_oracle(H, w, L=4, t=3, j=1)
    for (v,), (p_enum, p_formula) in sorted(table.items()):
        mark = "==" if p_enum == p_formula else "!="
        print(f"  v = {v}: enumeration {p_enum}  {mark}  formula {p_formula}")
    total = sum(p for p, _ in table.values())
    print(f"  total mass {total}, every marginal exactly 1/{H.n}\n")

    print("exhibit 2: K_10 minus three edges (irregular, so uniform weights")
    print("are no longer a PFM); redistribute along registered walks:")
    H = complete_hypergraph(3, 10).remove_edges([(0, 1, 2), (0, 1, 3), (4, 5, 6)])
    base = uniform_weighting(H)
    print(f"  before: is_pfm = {base.is_pfm()}")
    repaired = redistribute_pfm(H, build_walk_registry(H, seed=0))
    worst = max(
        (abs(repaired.vertex_weight(v) - 1) for v in range(H.n)), default=0
    )
    print(f"  after:  is_pfm = {repaired.is_pfm()} "
          f"(max vertex deviation {worst}, exact zero)")
    print(f"  balancedness max/min = {balancedness(repaired)} "
          f"= {float(balancedness(repaired)):.4f} (<= 2)\n")

    print("exhibit 3: 20000 sampled 6-step walks on the repaired host")
    # one array draw: every walk steps together, each from transition_dist's law
    draws = 20000
    walks = sample_walks(H, repaired, 4, 6, draws, seed=7)
    counts = Counter(walks[:, -1].tolist())
    print("  final-vertex frequencies vs the exact 1/10 law:")
    for v in range(H.n):
        freq = counts[v] / draws
        print(f"  v = {v}: {freq:.4f} (target 0.1000)")
    dev = max(abs(counts[v] / draws - Fraction(1, 10)) for v in range(H.n))
    print(f"  max deviation {float(dev):.4f}")


if __name__ == "__main__":
    main()
