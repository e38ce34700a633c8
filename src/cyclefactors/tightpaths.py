"""Tight paths, tight cycles, cycle factors, and the k-set type classification.

A tight path visits distinct vertices so that every k consecutive ones form an
edge of the host; a tight cycle closes the sequence cyclically and needs at
least k+1 vertices. ``grow_paths`` is the one growth step of the package:
it grows many paths at once, vertex by vertex, in blocks of rows, the
candidates of each row being the host's ``extension_rows`` row of its last
k-1 vertices AND its free vertices, and recurses on each block's children
depth-first. The enumerated cycle family, the connectors, the absorbers
and the walk registry all grow their sequences with it. ``closing_rows``
is the closure check: the vertices that fit between two tight ends, as the
AND of the extension rows of the k windows through the gap. Path
collections index their end-sets (prefix sets plus the suffix k-set) so
k-sets can be classified as j-end / lo / j-con relative to the collection.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

from .hypergraph import Hypergraph, HypergraphError


class TightnessError(ValueError):
    """Raised when a sequence fails the tight-window or disjointness checks."""


def _windows(seq, k):
    return [tuple(seq[i : i + k]) for i in range(len(seq) - k + 1)]


def is_tight_walk(H: Hypergraph, seq: Sequence[int]) -> bool:
    """Every k consecutive entries form an edge; repeats outside windows allowed."""
    if not seq:
        return False
    for v in seq:
        if not (0 <= v < H.n):
            raise HypergraphError(f"invalid vertex id {v!r} (n={H.n})")
    for w in _windows(seq, H.k):
        if len(set(w)) != H.k or not H.has_edge(w):
            return False
    return True


def is_tight_path(H: Hypergraph, seq: Sequence[int]) -> bool:
    if not seq:
        return False
    if len(set(seq)) != len(seq):
        return False
    return is_tight_walk(H, seq)


def is_tight_cycle(H: Hypergraph, seq: Sequence[int]) -> bool:
    if len(seq) < H.k + 1:
        return False
    if len(set(seq)) != len(seq):
        return False
    closed = tuple(seq) + tuple(seq[: H.k - 1])
    return all(H.has_edge(w) for w in _windows(closed, H.k))


ENUMERATE_BLOCK = 4096  # most paths that one step of grow_paths extends


def grow_paths(
    H: Hypergraph, paths: np.ndarray, free: np.ndarray, length: int, first: Optional[int] = None
):
    """Every tight extension of the rows of ``paths`` to ``length`` vertices,
    in lexicographic order, as blocks (grown, free) of at most
    ``ENUMERATE_BLOCK`` rows.

    ``paths`` is an N x d int array and ``free`` an N x n boolean array:
    row i grows over the vertices set in free[i] that it does not hold yet,
    and a vertex after the first k-1 must also lie in the
    ``Hypergraph.extension_rows`` row of the last k-1.  Windows inside the
    given rows are not checked.  Each grown row comes with its start's free
    row, cut to the vertices the row does not hold; a start longer than
    ``length`` grows to nothing.  The rows are extended depth-first, a
    block at a time, which bounds the memory and lets a caller stop after
    any block.  A block's children are built ``ENUMERATE_BLOCK`` rows at a
    time from the (row, vertex) pairs of its candidates and grown in turn
    before the next are built: no extension row is read twice, and no more
    than one block of children is held per depth.  Each row's candidates
    come out ascending (``np.nonzero`` reads row by row), so the rows stay
    in lexicographic order.  ``first``, when given, bounds the first block
    of children at each depth of the first descent, and the later blocks
    are full: a caller that stops after its first rows then grows small
    blocks only.
    """
    k, d = H.k, paths.shape[1]
    if d > length:
        return
    size = first or ENUMERATE_BLOCK
    for lo in range(0, len(paths), ENUMERATE_BLOCK):
        block, allowed = paths[lo : lo + ENUMERATE_BLOCK], free[lo : lo + ENUMERATE_BLOCK]
        grown = allowed.copy()
        grown[np.arange(len(block))[:, None], block] = False
        if d == length:
            yield block, grown
            continue
        if d >= k - 1:
            grown &= H.extension_rows(block[:, d - k + 1 :])
        rows, last = np.nonzero(grown)
        del grown
        at = 0
        while at < len(rows):
            pick = rows[at : at + size]
            children = np.column_stack((block[pick], last[at : at + size]))
            yield from grow_paths(H, children, allowed[pick], length, size)
            at, size = at + size, ENUMERATE_BLOCK


def closing_rows(H: Hypergraph, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """The vertices u that close a tight gap between two ends, one boolean
    row per pair of ends.

    ``before`` and ``after`` are int arrays of N rows each, with at least
    k-1 vertices per row.  Entry u of row i is True iff every k-window of
    ``before[i, -(k-1):] + (u,) + after[i, :k-1]`` that contains u is an
    edge: the AND of the ``Hypergraph.extension_rows`` of the k windows
    without u.  Callers drop the vertices already on the ends.
    """
    k = H.k
    gap = np.column_stack((before[:, before.shape[1] - k + 1 :], after[:, : k - 1]))
    rows = H.extension_rows(gap[:, : k - 1])
    for j in range(1, k):
        rows &= H.extension_rows(gap[:, j : j + k - 1])
    return rows


class TightPath:
    """Ordered vertex sequence whose k-windows are all edges of the host.

    Sequences shorter than k are allowed (zero edges); they still carry
    prefix end-sets. Equality is up to reversal.
    """

    __slots__ = ("seq", "host", "_edges")

    def __init__(self, host: Hypergraph, seq: Sequence[int]):
        seq = tuple(seq)
        if not is_tight_path(host, seq):
            raise TightnessError(f"{seq!r} is not a tight path in the host")
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "_edges", None)

    def __setattr__(self, name, value):
        raise AttributeError("TightPath is immutable")

    def __len__(self):
        return len(self.seq)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.seq)

    def edges(self):
        if self._edges is None:
            out = tuple(tuple(sorted(w)) for w in _windows(self.seq, self.host.k))
            object.__setattr__(self, "_edges", out)
        return list(self._edges)

    # -- ends --------------------------------------------------------------

    def end_tuples(self):
        """Prefix tuples (v_1..v_i) for each i, plus the suffix k-tuple."""
        out = [self.seq[:i] for i in range(1, len(self.seq) + 1)]
        k = self.host.k
        if len(self.seq) >= k:
            suffix = self.seq[-k:]
            if suffix not in out:
                out.append(suffix)
        return out

    def end_sets(self):
        return {frozenset(t) for t in self.end_tuples()}

    def __eq__(self, other):
        if not isinstance(other, TightPath):
            return NotImplemented
        return self.host == other.host and (
            self.seq == other.seq or self.seq == other.seq[::-1]
        )

    def __hash__(self):
        return hash((min(self.seq, self.seq[::-1]), self.host.k, self.host.n))

    def __repr__(self):
        return f"TightPath({list(self.seq)})"


class TightCycle:
    """Cyclic vertex sequence (>= k+1 distinct vertices), all cyclic k-windows edges.

    The sorted cyclic windows are computed once, at construction: the
    constructor looks them up in the host's edge ids (the test of
    ``is_tight_cycle``, without re-sorting them) and keeps them as the
    cycle's edges.
    """

    __slots__ = ("seq", "host", "_edges", "_canonical")

    def __init__(self, host: Hypergraph, seq: Sequence[int]):
        seq = tuple(seq)
        k = host.k
        closed = seq + seq[: k - 1]
        edges = tuple(tuple(sorted(closed[i : i + k])) for i in range(len(seq)))
        if (
            len(seq) < k + 1
            or len(set(seq)) != len(seq)
            or not all(map(host._edge_ids.__contains__, edges))
        ):
            raise TightnessError(f"{seq!r} is not a tight cycle in the host")
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_canonical", canonical_cycle(seq))

    def __setattr__(self, name, value):
        raise AttributeError("TightCycle is immutable")

    def __len__(self):
        return len(self.seq)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.seq)

    def edges(self):
        return list(self._edges)

    def canonical(self) -> tuple:
        """Rotation starting at the minimum vertex, lex-smaller direction."""
        return self._canonical

    def __eq__(self, other):
        if not isinstance(other, TightCycle):
            return NotImplemented
        return self.host == other.host and self._canonical == other._canonical

    def __hash__(self):
        return hash((self._canonical, self.host.k, self.host.n))

    def __repr__(self):
        return f"TightCycle({list(self.seq)})"


def canonical_cycle(seq: Sequence[int]) -> tuple:
    seq = tuple(seq)
    i = seq.index(min(seq))
    fwd = seq[i:] + seq[:i]
    rev = seq[i::-1] + seq[:i:-1]
    return min(fwd, rev)


class CycleFactor:
    """Vertex-disjoint tight cycles covering exactly target_n vertices."""

    __slots__ = ("cycles", "target_n")

    def __init__(self, cycles: Iterable[TightCycle], target_n: int):
        cycles = tuple(cycles)
        seen = set()
        for C in cycles:
            if seen & C.vertex_set:
                raise TightnessError("cycles in a factor must be vertex-disjoint")
            seen |= C.vertex_set
        if len(seen) != target_n:
            raise TightnessError(
                f"factor covers {len(seen)} vertices, target is {target_n}"
            )
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "target_n", target_n)

    def __setattr__(self, name, value):
        raise AttributeError("CycleFactor is immutable")

    def lengths(self):
        return sorted(len(C) for C in self.cycles)

    def as_dict(self) -> dict:
        return {"cycles": [list(C.canonical()) for C in self.cycles]}

    def __repr__(self):
        return f"CycleFactor(lengths={self.lengths()})"


def factors_document(factors: Iterable[CycleFactor]) -> dict:
    """Canonical JSON-ready form: each cycle from its min vertex, smaller direction."""
    return {"factors": [F.as_dict() for F in factors]}


def factors_from_document(doc: dict, host: Hypergraph):
    """The factors of a ``factors_document``, refusing float or bool vertex ids."""
    out = []
    for item in doc["factors"]:
        if any(type(v) is not int for seq in item["cycles"] for v in seq):
            raise HypergraphError("vertex ids must be integers")
        cycles = [TightCycle(host, seq) for seq in item["cycles"]]
        out.append(CycleFactor(cycles, sum(len(c) for c in cycles)))
    return out


class PathCollection:
    """Vertex-disjoint tight paths with an end-set index for classification.

    end_set_index maps each end-set (frozenset) to the index of an owning
    path; when two paths share an end-set the lower index wins (the type
    classification below needs only membership).
    """

    __slots__ = ("paths", "host", "end_set_index", "_vset")

    def __init__(self, host: Hypergraph, paths: Iterable[TightPath]):
        paths = tuple(paths)
        seen = set()
        for P in paths:
            if P.host != host:
                raise TightnessError("all paths must live in the same host")
            if seen & P.vertex_set:
                raise TightnessError("paths in a collection must be vertex-disjoint")
            seen |= P.vertex_set
        index = {}
        for i, P in enumerate(paths):
            for s in P.end_sets():
                index.setdefault(s, i)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "end_set_index", index)
        object.__setattr__(self, "_vset", frozenset(seen))

    def __setattr__(self, name, value):
        raise AttributeError("PathCollection is immutable")

    @property
    def vertex_set(self) -> frozenset:
        return self._vset

    def __len__(self):
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def classify(e: Iterable[int], P: PathCollection) -> str:
    """Type of the k-set e relative to the collection: 'j-end', 'lo', or 'j-con'.

    Priority: ending first (j = max subset size that is an end-set of some
    path), then leftover (a vertex outside V(P)), then j-concentrated
    (j = largest subset inside a single path's vertex set; >= 1 since every
    vertex of e lies on some path at this point).
    """
    es = frozenset(e)
    if not es:
        raise TightnessError("cannot classify the empty set")
    best_end = 0
    for j in range(len(es), 0, -1):
        for sub in itertools.combinations(sorted(es), j):
            if frozenset(sub) in P.end_set_index:
                best_end = j
                break
        if best_end:
            break
    if best_end:
        return f"{best_end}-end"
    if not es <= P.vertex_set:
        return "lo"
    best_con = 0
    for path in P.paths:
        best_con = max(best_con, len(es & path.vertex_set))
    return f"{best_con}-con"


class FactorCheck:
    """Truthy verification result with human-readable failure reasons."""

    __slots__ = ("ok", "reasons")

    def __init__(self, reasons):
        self.reasons = tuple(reasons)
        self.ok = not self.reasons

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "FactorCheck(ok)" if self.ok else f"FactorCheck({list(self.reasons)})"


def verify_factor_copy(H: Hypergraph, F: CycleFactor, target) -> FactorCheck:
    """Check that F is a valid spanning cycle factor of H matching target's shape.

    target is a CycleFactor or an iterable of cycle lengths; shapes compare
    as multisets.
    """
    reasons = []
    covered = set()
    for i, C in enumerate(F.cycles):
        if not is_tight_cycle(H, C.seq):
            reasons.append(f"cycle {i} is not a tight cycle of the host")
        overlap = covered & C.vertex_set
        if overlap:
            reasons.append(f"cycle {i} reuses vertices {sorted(overlap)}")
        covered |= C.vertex_set
    if covered != set(range(H.n)):
        missing = sorted(set(range(H.n)) - covered)
        if missing:
            reasons.append(f"not spanning: vertices {missing} uncovered")
        extra = sorted(covered - set(range(H.n)))
        if extra:
            reasons.append(f"vertices {extra} outside the host")
    want = sorted(target.lengths() if isinstance(target, CycleFactor) else target)
    got = F.lengths()
    if got != want:
        reasons.append(f"cycle lengths {got} != target {want}")
    return FactorCheck(reasons)
