"""Vertex absorbers and edge-disjoint perfect matchings.

An x-absorber is a 2k-vertex tight path that stays tight when x is inserted
in its middle.  ``enumerate_absorbers`` lists them all as plain 2k-tuples
(the ``absorbers`` command), and ``are_absorbers_for`` re-checks a batch of
them against the host's edges, for one x or for one x per row: the vertices
a sequence absorbs are one such call with every vertex.
``disjoint_perfect_matchings`` finds the edge-disjoint perfect matchings of
a bipartite graph that the source paper's absorption step draws from;
``decompose`` absorbs nothing (see ``assemble``), so only the acceptance
checks call it.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .hypergraph import Hypergraph, place_values
from .tightpaths import grow_paths, is_tight_path
from .walks import sample_walk

__all__ = [
    "AbsorbingError",
    "are_absorbers_for",
    "disjoint_perfect_matchings",
    "enumerate_absorbers",
    "is_absorber_for",
    "sample_walk",  # walks'; no code here calls it, bench/tracer.py patches it
]


class AbsorbingError(ValueError):
    pass


def is_absorber_for(H_plus: Hypergraph, seq: Sequence[int], x: int) -> bool:
    """seq is a tight 2k-path and stays tight with x inserted after position k."""
    k = H_plus.k
    seq = tuple(seq)
    if len(seq) != 2 * k or x in seq:
        return False
    return is_tight_path(H_plus, seq) and is_tight_path(
        H_plus, seq[:k] + (x,) + seq[k:]
    )


def are_absorbers_for(H_plus: Hypergraph, seqs: Sequence[Sequence[int]], x) -> np.ndarray:
    """``is_absorber_for`` on every one of ``seqs``, 2k-vertex sequences, at
    once, for one vertex x or for one x per row: entry i holds iff its
    vertices and its x are distinct and every window of the row, and of the
    row with x inserted after position k, is an edge.  The windows are
    sorted and looked up among the edges' own sorted keys
    (``place_values``), not in the edge table that ``enumerate_absorbers``
    grows from, so the check stays independent of the growth."""
    k, n = H_plus.k, H_plus.n
    seqs = np.array(seqs, dtype=np.intp).reshape(-1, 2 * k)
    inserted = np.insert(seqs, k, x, axis=1)
    ordered = np.sort(inserted, axis=1)
    ok = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    edge_keys = np.array(H_plus.edges, dtype=np.int64).reshape(-1, k) @ place_values(n, k)
    for row in (seqs, inserted):
        windows = np.lib.stride_tricks.sliding_window_view(row, k, axis=1)
        ok &= np.isin(np.sort(windows, axis=2) @ place_values(n, k), edge_keys).all(axis=1)
    return ok


def enumerate_absorbers(
    H_plus: Hypergraph, x: int, cap: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """All x-absorbers, as 2k-tuples in lexicographic order, up to cap
    (None = all).

    ``grow_paths`` grows the first halves a_1..a_k over the vertices other
    than x a block at a time; each block keeps the halves whose last k-1
    vertices extend by x and grows the inserted sequences
    a_1..a_k x a_{k+1}..a_2k from them.  That checks every window through
    x; each block of grown rows then keeps the sequences a_1..a_2k whose
    bare seam windows are edges too.  Both growths are block-bounded and
    start from a one-row first block at each depth (``grow_paths``'
    ``first``), so a cap stops the work after the first small blocks that
    fill it.
    """
    H_plus._check_vertex(x)
    k, n = H_plus.k, H_plus.n
    out: List[Tuple[int, ...]] = []
    for heads, free in grow_paths(
        H_plus, np.empty((1, 0), int), np.arange(n)[None, :] != x, k, first=1
    ):
        keep = H_plus.extension_rows(heads[:, 1:])[:, x]
        starts = np.column_stack((heads[keep], np.full(keep.sum(), x)))
        for inserted, _ in grow_paths(H_plus, starts, free[keep], 2 * k + 1, first=1):
            slots = np.delete(inserted, k, axis=1)
            seam = np.ones(len(slots), dtype=bool)
            for j in range(1, k):
                rows = H_plus.extension_rows(slots[:, j : j + k - 1])
                seam &= rows[np.arange(len(slots)), slots[:, j + k - 1]]
            out += map(tuple, slots[seam].tolist())
            if cap is not None and len(out) >= cap:
                return out[:cap]
    return out


# ---------------------------------------------------------------------------
# disjoint perfect matchings in bipartite graphs
# ---------------------------------------------------------------------------


def disjoint_perfect_matchings(adj: Sequence[Iterable[int]], count: int) -> List[Tuple[int, ...]]:
    """Up to `count` pairwise edge-disjoint perfect matchings, greedily.

    adj[i] lists the right-vertices available to left-vertex i; both sides
    have size len(adj). Repeatedly finds a perfect matching with augmenting
    paths and removes its edges. With minimum degrees d1, d2 on the two
    sides, at least ceil((d1+d2-n)/2) matchings exist; falling short of that
    is an internal error.
    """
    n = len(adj)
    live = [set(row) for row in adj]
    for i, row in enumerate(live):
        for r in row:
            if not (0 <= r < n):
                raise AbsorbingError(f"adjacency {i} -> {r} outside the right side")
    d1 = min((len(r) for r in live), default=0)
    right_deg = [0] * n
    for row in live:
        for r in row:
            right_deg[r] += 1
    d2 = min(right_deg) if n else 0
    guarantee = max(0, math.ceil((d1 + d2 - n) / 2))
    out: List[Tuple[int, ...]] = []
    while len(out) < count:
        match = _perfect_matching(live)
        if match is None:
            if len(out) < guarantee:
                raise AbsorbingError(
                    f"found only {len(out)} disjoint perfect matchings; "
                    f"the degree bound guarantees {guarantee}"
                )
            break
        out.append(tuple(match))
        for i, r in enumerate(match):
            live[i].discard(r)
    return out


def _perfect_matching(adj: Sequence[set]) -> Optional[List[int]]:
    """Kuhn's augmenting-path matching; returns left->right or None."""
    n = len(adj)
    match_right = [-1] * n

    def try_augment(i: int, seen: List[bool]) -> bool:
        for r in adj[i]:
            if not seen[r]:
                seen[r] = True
                if match_right[r] == -1 or try_augment(match_right[r], seen):
                    match_right[r] = i
                    return True
        return False

    for i in range(n):
        if not try_augment(i, [False] * n):
            return None
    out = [-1] * n
    for r, i in enumerate(match_right):
        out[i] = r
    return out
