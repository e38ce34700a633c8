"""Brute-force ground truth the rest of the package is tested against.

reg_k finds the largest k-divisible r admitting a spanning subgraph in which
every vertex has degree exactly r (backtracking, plus an independent 2^|E|
enumeration for small edge sets). walk_distribution enumerates the full
exact law of a length-t walk. validate_packing structurally checks a family
of edge-disjoint factors. Caps are hard refusals: an oracle either answers
exactly or declines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .fractional import EdgeWeighting
from .hypergraph import Hypergraph
from .tightpaths import CycleFactor, FactorCheck, is_tight_cycle
from .walks import memory_length


class OracleError(ValueError):
    pass


class CapExceeded(OracleError):
    """The instance is too large for exhaustive search; refusing to guess."""


# ---------------------------------------------------------------------------
# reg_k
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegKResult:
    r: int
    witness: Hypergraph
    nodes_explored: int
    candidates_tried: Tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "witness_edges": [list(e) for e in self.witness.edges],
            "nodes_explored": self.nodes_explored,
            "candidates_tried": list(self.candidates_tried),
        }


def reg_k(H: Hypergraph, cap: int = 64) -> RegKResult:
    """Largest r divisible by k with a spanning subgraph of exact degree r.

    Candidates descend from delta_1 rounded down to a multiple of k;
    backtracking over edges prunes on per-vertex degree slack. r = 0 with the
    empty witness is always feasible (0 is divisible by k).
    """
    if H.m > cap:
        raise CapExceeded(f"|E| = {H.m} exceeds the search cap {cap}")
    k = H.k
    nodes = 0
    tried = []
    degs = H.degrees()
    top = (min(degs) // k) * k if H.n else 0
    for r in range(top, 0, -k):
        tried.append(r)
        picked = _exact_regular_subgraph(H, r)
        nodes += picked[1]
        if picked[0] is not None:
            witness = Hypergraph(k, H.n, picked[0])
            return RegKResult(
                r=r, witness=witness, nodes_explored=nodes, candidates_tried=tuple(tried)
            )
    tried.append(0)
    return RegKResult(
        r=0,
        witness=Hypergraph(k, H.n, []),
        nodes_explored=nodes,
        candidates_tried=tuple(tried),
    )


def _exact_regular_subgraph(H: Hypergraph, r: int):
    """Backtracking for an exact-degree-r spanning edge subset; (edges|None, nodes)."""
    n, k = H.n, H.k
    need = [r] * n
    # rank edges so those touching the tightest vertices come first
    slack = [H.degree(v) - r for v in range(n)]
    order = sorted(range(H.m), key=lambda i: min(slack[v] for v in H.edges[i]))
    edges = [H.edges[i] for i in order]
    avail = [H.degree(v) for v in range(n)]
    nodes = 0
    chosen: List[tuple] = []

    def feasible() -> bool:
        return all(0 <= need[v] <= avail[v] for v in range(n))

    def rec(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        if i == len(edges):
            return all(x == 0 for x in need)
        e = edges[i]
        # try including the edge
        if all(need[v] >= 1 for v in e):
            for v in e:
                need[v] -= 1
                avail[v] -= 1
            if feasible() and rec(i + 1):
                chosen.append(e)
                for v in e:
                    need[v] += 1
                    avail[v] += 1
                return True
            for v in e:
                need[v] += 1
                avail[v] += 1
        # try excluding it
        for v in e:
            avail[v] -= 1
        ok = feasible() and rec(i + 1)
        for v in e:
            avail[v] += 1
        return ok

    if rec(0):
        return chosen, nodes
    return None, nodes


def reg_k_by_enumeration(H: Hypergraph, cap: int = 20) -> int:
    """Independent 2^|E| check of reg_k's value (vectorized over edge subsets)."""
    if H.m > cap:
        raise CapExceeded(f"|E| = {H.m} exceeds the enumeration cap {cap}")
    if H.m == 0 or H.n == 0:
        return 0
    inc = np.zeros((H.n, H.m), dtype=np.int64)
    for j, e in enumerate(H.edges):
        for v in e:
            inc[v, j] = 1
    best = 0
    total = 1 << H.m
    chunk = 1 << 16
    shifts = np.arange(H.m, dtype=np.uint32)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.int64)
        degs = bits @ inc.T  # (subsets, n)
        same = np.all(degs == degs[:, :1], axis=1)
        vals = degs[:, 0]
        good = same & (vals % H.k == 0)
        if np.any(good):
            best = max(best, int(vals[good].max()))
    return best


# ---------------------------------------------------------------------------
# exact walk-law enumeration
# ---------------------------------------------------------------------------


def walk_distribution(
    H: Hypergraph, w: EdgeWeighting, L: int, t: int, cap: int = 10**6
) -> Dict[tuple, Fraction]:
    """Exact probability of every length-t vertex sequence under the walk law.

    Plain recursion over full sequences (no state merging) so it stays an
    independent check of the walker's transition and marginal code. Requires
    an exact weighting; refuses when n^t exceeds the cap.
    """
    if not w.exact:
        raise OracleError("walk_distribution needs an exact weighting")
    if t < 1:
        raise OracleError(f"need t >= 1, got {t}")
    if H.n**t > cap:
        raise CapExceeded(f"n^t = {H.n**t} exceeds the enumeration cap {cap}")
    k = H.k
    out: Dict[tuple, Fraction] = {}

    def rec(prefix: tuple, p: Fraction):
        if len(prefix) == t:
            out[prefix] = out.get(prefix, Fraction(0)) + p
            return
        step = len(prefix) + 1
        m = memory_length(k, L, step)
        cond = prefix[len(prefix) - m :] if m else ()
        total = w.omega(cond)
        if total == 0:
            return
        denom = (k - m) * total
        for v in range(H.n):
            if v in cond:
                continue
            num = w.omega(cond + (v,))
            if num:
                rec(prefix + (v,), p * Fraction(num, 1) / denom)

    rec((), Fraction(1))
    return out


# ---------------------------------------------------------------------------
# packing validation
# ---------------------------------------------------------------------------


def validate_packing(H: Hypergraph, factors: Iterable[CycleFactor]) -> FactorCheck:
    """Structural check of a factor packing: tight cycles, per-factor spanning
    vertex-disjointness, and edge-disjointness across factors."""
    reasons = []
    seen_edges: Dict[tuple, int] = {}
    for i, F in enumerate(factors):
        covered = set()
        for C in F.cycles:
            if not is_tight_cycle(H, C.seq):
                reasons.append(f"factor {i}: {list(C.seq)} is not a tight cycle in H")
            dup = covered & C.vertex_set
            if dup:
                reasons.append(f"factor {i}: vertices {sorted(dup)} reused")
            covered |= C.vertex_set
        missing = set(range(H.n)) - covered
        if missing:
            reasons.append(f"factor {i}: not spanning, missing {sorted(missing)}")
        for C in F.cycles:
            for e in C.edges():
                if e in seen_edges and seen_edges[e] != i:
                    reasons.append(
                        f"edge {e} used by factors {seen_edges[e]} and {i}"
                    )
                seen_edges[e] = i
    return FactorCheck(reasons)

