"""Random walks driven by an edge weighting, with memory that resets every L steps.

At step t the walk remembers its last m = min(k-1, (t-1) mod L) vertices and
moves to v with probability omega(suffix + v) / ((k - m) * omega(suffix)),
never stepping onto a remembered vertex. Because every edge containing the
suffix contributes k - m extensions, the law sums to 1 exactly; the aligned
L-blocks of a long walk are independent and identically distributed. A
walk is its history: the step t, the memory m and the suffix are read off
it.

The enumeration oracle recomputes tuple marginals two independent ways: a
forward pass with exact rationals, and the closed formula
(k-j)! * omega(tuple) / (k! * omega(empty)).
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .fractional import EdgeWeighting
from .hypergraph import Hypergraph


class WalkError(ValueError):
    pass


class StuckWalkError(WalkError):
    """The conditioning suffix carries zero weight; the walk cannot continue."""


class OracleCapError(WalkError):
    """Exhaustive enumeration refused: instance exceeds the configured cap."""


def memory_length(k: int, L: int, t: int) -> int:
    """m = min(k-1, (t-1) mod L) for the 1-based step t."""
    if t < 1 or L < 1:
        raise WalkError(f"need t >= 1 and L >= 1, got t={t}, L={L}")
    return min(k - 1, (t - 1) % L)


def transition_dist(H: Hypergraph, w: EdgeWeighting, history: Sequence[int], L: int) -> dict:
    """P(next = v) for every vertex v after ``history``; exact rationals
    when w is exact.

    The walk remembers the last m = memory_length(k, L, len(history) + 1)
    vertices of its history: they get probability 0, and everything else
    gets omega(suffix + v) / ((k - m) * omega(suffix)).
    """
    if w.host != H:
        raise WalkError("weighting belongs to a different host")
    k = H.k
    m = memory_length(k, L, len(history) + 1)
    suffix = tuple(history[len(history) - m :]) if m else ()
    total = w.omega(suffix)
    if total == 0:
        raise StuckWalkError(f"suffix {suffix} has zero weight; walk is stuck")
    denom = (k - m) * total
    zero = Fraction(0) if w.exact else 0.0
    out = {}
    sset = set(suffix)
    for v in range(H.n):
        if v in sset:
            out[v] = zero
        else:
            num = w.omega(suffix + (v,))
            out[v] = (Fraction(num, 1) / denom) if w.exact else num / denom
    return out


def _cumulative_table(H: Hypergraph, w: EdgeWeighting, suffix: tuple):
    """(vertices, cumulative floats) for sampling, cached on the weighting.

    The law depends on the suffix only through its vertex set, so the cache
    key is that set.
    """
    key = frozenset(suffix)
    hit = w._table_cache.get(key)
    if hit is not None:
        return hit
    total = float(w.omega(suffix))
    if total == 0.0:
        raise StuckWalkError(f"suffix {suffix} has zero weight; walk is stuck")
    verts = []
    cum = []
    acc = 0.0
    for v in range(H.n):
        if v in key:
            continue
        p = float(w.omega(suffix + (v,)))
        if p > 0.0:
            acc += p
            verts.append(v)
            cum.append(acc)
    if not verts:
        raise StuckWalkError(f"suffix {suffix} admits no extension")
    table = (verts, cum, acc)
    w._table_cache[key] = table
    return table


def sample_walk(
    H: Hypergraph, w: EdgeWeighting, L: int, t_star: int, seed: Optional[int] = None
) -> Tuple[int, ...]:
    """One walk of length t_star, drawn step by step with cumulative-sum inversion."""
    if t_star < 1:
        raise WalkError(f"t_star must be >= 1, got {t_star}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    k = H.k
    out = []
    for t in range(1, t_star + 1):
        m = memory_length(k, L, t)
        suffix = tuple(out[-m:]) if m else ()
        verts, cum, acc = _cumulative_table(H, w, suffix)
        x = rng.random() * acc
        out.append(verts[bisect_left(cum, x)])
    return tuple(out)


# ---------------------------------------------------------------------------
# exact tuple-marginal oracle (dual route)
# ---------------------------------------------------------------------------


def tuple_marginal_oracle(
    H: Hypergraph, w: EdgeWeighting, L: int, t: int, j: int, cap: int = 10**7
) -> Dict[tuple, Tuple[Fraction, Fraction]]:
    """P[last j vertices of a length-t walk = tuple], computed two ways.

    Returns {ordered j-tuple: (p_enumeration, p_formula)} over all ordered
    j-tuples of distinct vertices. The enumeration route chains the exact
    transition law forward; the formula route evaluates
    (k-j)! * omega(tuple) / (k! * omega(empty)). Requires t <= L and
    j <= min(k, t); refuses when n^t exceeds the cap.
    """
    if not w.exact:
        raise WalkError("the enumeration oracle needs an exact weighting")
    k = H.k
    if t > L:
        raise WalkError(f"the closed formula needs t <= L, got t={t} > L={L}")
    if not (1 <= j <= min(k, t)):
        raise WalkError(f"need 1 <= j <= min(k, t) = {min(k, t)}, got j={j}")
    if H.n**t > cap:
        raise OracleCapError(f"n^t = {H.n**t} exceeds the enumeration cap {cap}")
    # forward pass over ordered suffixes of length min(step, k); t <= L means
    # the memory never resets inside the walk
    dist: Dict[tuple, Fraction] = {(): Fraction(1)}
    for step in range(1, t + 1):
        m = memory_length(k, L, step)
        nxt: Dict[tuple, Fraction] = {}
        for suf, p in dist.items():
            cond = suf[len(suf) - m :] if m else ()
            total = w.omega(cond)
            if total == 0:
                continue
            denom = (k - m) * total
            for v in range(H.n):
                if v in cond:
                    continue
                num = w.omega(cond + (v,))
                if num == 0:
                    continue
                new = (suf + (v,))[-k:]
                nxt[new] = nxt.get(new, Fraction(0)) + p * Fraction(num, 1) / denom
        dist = nxt
    enum: Dict[tuple, Fraction] = {}
    for suf, p in dist.items():
        key = suf[len(suf) - j :]
        enum[key] = enum.get(key, Fraction(0)) + p
    coeff = Fraction(math.factorial(k - j), math.factorial(k)) / w.omega(())
    out: Dict[tuple, Tuple[Fraction, Fraction]] = {}
    for tup in itertools.permutations(range(H.n), j):
        p_enum = enum.get(tup, Fraction(0))
        p_formula = coeff * w.omega(tup)
        out[tup] = (p_enum, p_formula)
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo self-avoidance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfAvoidingRate:
    rate: float
    trials: int
    hits: int


def self_avoiding_rate(
    H: Hypergraph,
    w: EdgeWeighting,
    L: int,
    t_star: int,
    trials: int = 10_000,
    seed: Optional[int] = None,
) -> SelfAvoidingRate:
    """Fraction of sampled walks visiting t_star distinct vertices."""
    if trials < 1:
        raise WalkError("need at least one trial")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        walk = sample_walk(H, w, L, t_star, seed=rng)
        if len(set(walk)) == t_star:
            hits += 1
    return SelfAvoidingRate(rate=hits / trials, trials=trials, hits=hits)
