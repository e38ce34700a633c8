"""Random walks driven by an edge weighting, with memory that resets every L steps.

At step t the walk remembers its last m = min(k-1, (t-1) mod L) vertices and
moves to v with probability omega(suffix + v) / ((k - m) * omega(suffix)),
never stepping onto a remembered vertex. Because every edge containing the
suffix contributes k - m extensions, the law sums to 1 exactly; the aligned
L-blocks of a long walk are independent and identically distributed. A
walk is its history: the step t, the memory m and the suffix are read off
it. ``transition_dist`` is that law, and the only place it is written:
``sample_walks`` draws every sampled walk from it, many walks at once, and
``sample_walk`` is its one-row case.  A statistic of the sampled walks, such
as the share that visit distinct vertices, is read off ``sample_walks``'
rows by its caller.

The enumeration oracle recomputes tuple marginals two independent ways: a
forward pass with exact rationals, and the closed formula
(k-j)! * omega(tuple) / (k! * omega(empty)).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

import numpy as np

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


def sample_walks(
    H: Hypergraph, w: EdgeWeighting, L: int, t_star: int, count: int, seed=None
) -> np.ndarray:
    """``count`` walks of length t_star as a count x t_star int array.

    All walks advance one step at a time.  At each step they are grouped by
    the vertex set of their remembered suffix (the law depends on nothing
    else); each group's cumulative law comes from ``transition_dist`` and
    every member finds its next vertex there with one uniform draw.
    ``seed`` is anything ``np.random.default_rng`` takes, a Generator too.
    """
    if t_star < 1:
        raise WalkError(f"t_star must be >= 1, got {t_star}")
    if count < 0:
        raise WalkError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    walks = np.zeros((count, t_star), dtype=np.int64)
    for t in range(t_star):
        m = memory_length(H.k, L, t + 1)
        keys = np.sort(walks[:, t - m : t], axis=1) @ H.n ** np.arange(m)
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        u = rng.random(count)
        for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [count]):
            group = order[lo:hi]
            law = transition_dist(H, w, walks[group[0], :t].tolist(), L)
            cum = np.cumsum(np.fromiter(map(float, law.values()), float, H.n))
            # dividing by the total makes every tail entry exactly 1.0, so a
            # draw below 1 never lands past the last vertex of positive weight
            walks[group, t] = np.searchsorted(cum / cum[-1], u[group], side="right")
    return walks


def sample_walk(
    H: Hypergraph, w: EdgeWeighting, L: int, t_star: int, seed=None
) -> Tuple[int, ...]:
    """One walk of length t_star: the single row of ``sample_walks``."""
    return tuple(sample_walks(H, w, L, t_star, 1, seed)[0].tolist())


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
            scale = p / ((k - m) * total)
            for v in range(H.n):
                if v in cond:
                    continue
                num = w.omega(cond + (v,))
                if num == 0:
                    continue
                new = (suf + (v,))[-k:]
                nxt[new] = nxt.get(new, 0) + scale * num
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
