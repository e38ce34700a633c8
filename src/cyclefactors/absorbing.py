"""Vertex absorbers, absorber blocks, the staged structure construction, and
the matching-based absorption step.

An x-absorber is a 2k-vertex tight path that stays tight when x is inserted
in its middle. Blocks bundle `a` absorber slots (with `ell` spacer vertices
after each) inside longer paths; a block is good when almost every vertex of
the ambient host can be absorbed by one of its slots. The structure is built
by drawing memory-L random walks in a shrinking residual graph, keeping the
self-avoiding ones, and post-checking the path/block counts; absorption then
matches vertices to blocks and splices each vertex into its slot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .fractional import FractionalError, pipeline_weighting
from .hypergraph import Hypergraph, place_values
from .tightpaths import TightPath, closing_rows, grow_paths, is_tight_path
from .walks import StuckWalkError, sample_walk


# The absorbing builder's construction attempts, and its walk draws per
# stage.  Self-avoiding draws are rare at desk scale (about 13!/13^12 on
# fifteen vertices), but each costs ~0.1 ms: oversample rather than fail
# the stage.
ATTEMPTS = 3
STAGE_DRAWS = 20000


class AbsorbingError(ValueError):
    pass


class AbsorbingParamError(AbsorbingError):
    """Structurally impossible parameters (e.g. a block larger than a path)."""


class AbsorbingFailure(AbsorbingError):
    """Retry budget exhausted; the message lists the failed post-check items."""


class AbsorptionInfeasible(AbsorbingError):
    """No absorption of X into the structure exists."""


def is_absorber_for(H_plus: Hypergraph, seq: Sequence[int], x: int) -> bool:
    """seq is a tight 2k-path and stays tight with x inserted after position k."""
    k = H_plus.k
    seq = tuple(seq)
    if len(seq) != 2 * k or x in seq:
        return False
    return is_tight_path(H_plus, seq) and is_tight_path(
        H_plus, seq[:k] + (x,) + seq[k:]
    )


def are_absorbers_for(H_plus: Hypergraph, seqs: Sequence[Sequence[int]], x: int) -> np.ndarray:
    """``is_absorber_for`` on every one of ``seqs``, 2k-vertex sequences, at
    once: entry i holds iff its vertices and x are distinct and every window
    of the row, and of the row with x inserted after position k, is an
    edge.  The windows are sorted and looked up among the edges' own sorted
    keys (``place_values``), not in the edge table that
    ``enumerate_absorbers`` grows from, so the check stays independent of
    the growth."""
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


@dataclass(frozen=True)
class Absorber:
    """Ordered 2k-sequence with the set of vertices it can absorb."""

    seq: Tuple[int, ...]
    center_candidates: frozenset

    def absorbs(self, x: int) -> bool:
        return x in self.center_candidates


def _absorbing_rows(H_plus: Hypergraph, slots: np.ndarray) -> np.ndarray:
    """The vertices each row of ``slots`` (an N x 2k array of tight paths)
    absorbs, as N x n boolean rows: x inserted after the k-th vertex must
    close the gap between the halves, so the row is their
    ``closing_rows`` off the slot."""
    k = H_plus.k
    rows = closing_rows(H_plus, slots[:, :k], slots[:, k:])
    rows[np.arange(len(slots))[:, None], slots] = False
    return rows


def absorbable(H_plus: Hypergraph, slot: Sequence[int]) -> frozenset:
    """The vertices x for which slot is an x-absorber (none unless slot is a
    tight 2k-path)."""
    slot = tuple(slot)
    if len(slot) != 2 * H_plus.k or not is_tight_path(H_plus, slot):
        return frozenset()
    return frozenset(np.flatnonzero(_absorbing_rows(H_plus, np.array([slot]))[0]).tolist())


def enumerate_absorbers(
    H_plus: Hypergraph, x: int, cap: Optional[int] = None
) -> List[Absorber]:
    """All x-absorbers in lexicographic order, up to cap (None = all).

    ``grow_paths`` grows the first halves a_1..a_k over the vertices other
    than x a block at a time; each block keeps the halves whose last k-1
    vertices extend by x and grows the inserted sequences
    a_1..a_k x a_{k+1}..a_2k from them.  That checks every window through
    x; each block of grown rows then keeps the sequences a_1..a_2k whose
    bare seam windows are edges too, and reads their absorbable vertices
    off ``_absorbing_rows``.  Both growths are block-bounded, so a cap
    stops the work after the first blocks that fill it.
    """
    H_plus._check_vertex(x)
    k, n = H_plus.k, H_plus.n
    out: List[Absorber] = []
    for heads, free in grow_paths(H_plus, np.empty((1, 0), int), np.arange(n)[None, :] != x, k):
        keep = H_plus.extension_rows(heads[:, 1:])[:, x]
        starts = np.column_stack((heads[keep], np.full(keep.sum(), x)))
        for inserted, _ in grow_paths(H_plus, starts, free[keep], 2 * k + 1):
            slots = np.delete(inserted, k, axis=1)
            seam = np.ones(len(slots), dtype=bool)
            for j in range(1, k):
                rows = H_plus.extension_rows(slots[:, j : j + k - 1])
                seam &= rows[np.arange(len(slots)), slots[:, j + k - 1]]
            slots = slots[seam]
            for seq, row in zip(slots.tolist(), _absorbing_rows(H_plus, slots)):
                if cap is not None and len(out) >= cap:
                    return out
                centers = frozenset(np.flatnonzero(row).tolist())
                out.append(Absorber(seq=tuple(seq), center_candidates=centers))
    return out


@dataclass(frozen=True)
class Block:
    """a(2k+ell) consecutive path vertices holding `a` absorber slots.

    Slot i (1-based) occupies offsets (2k+ell)(i-1) .. +2k-1 within seq; the
    ell vertices after each slot are spacers. ``absorbable`` holds, per slot,
    the vertices it absorbs (``absorbable(H_plus, slot)``); bad_vertices are
    the ambient vertices no slot can absorb; the block is good when that set
    is small.
    """

    seq: Tuple[int, ...]
    absorbable: Tuple[frozenset, ...]
    good: bool
    bad_vertices: frozenset

    def absorbs(self, x: int) -> bool:
        return x not in self.bad_vertices

    def lowest_absorbing_slot(self, x: int) -> int:
        """Index (0-based) of the first slot that is an x-absorber."""
        for i, centers in enumerate(self.absorbable):
            if x in centers:
                return i
        raise AbsorbingError(f"block {self.seq} has no absorber slot for {x}")


def make_block(H_plus: Hypergraph, seq: Sequence[int], a: int, ell: int, good_cap: int) -> Block:
    k = H_plus.k
    unit = 2 * k + ell
    seq = tuple(seq)
    if len(seq) != a * unit:
        raise AbsorbingParamError(
            f"block needs a(2k+ell) = {a * unit} vertices, got {len(seq)}"
        )
    slots = tuple(seq[i * unit : i * unit + 2 * k] for i in range(a))
    centers = tuple(absorbable(H_plus, slot) for slot in slots)
    bad = frozenset(range(H_plus.n)).difference(*centers)
    return Block(
        seq=seq,
        absorbable=centers,
        good=len(bad) <= good_cap,
        bad_vertices=bad,
    )


@dataclass(frozen=True)
class BlockRecord:
    block: Block
    path_index: int
    offset: int  # start position of the block within its path


class AbsorbingStructure:
    """Disjoint L-paths plus the registry of good blocks found inside them;
    ``ell`` is the number of spacer vertices after each block slot."""

    __slots__ = ("host", "paths", "blocks", "sigma", "capacity", "ell")

    def __init__(
        self,
        host: Hypergraph,
        paths: Sequence[TightPath],
        blocks: Sequence[BlockRecord],
        ell: int,
    ):
        paths = tuple(paths)
        blocks = tuple(blocks)
        seen = set()
        for P in paths:
            if seen & P.vertex_set:
                raise AbsorbingError("structure paths must be vertex-disjoint")
            seen |= P.vertex_set
        claimed = set()
        sigma: Dict[int, int] = {i: 0 for i in range(len(paths))}
        for rec in blocks:
            P = paths[rec.path_index]
            segment = P.seq[rec.offset : rec.offset + len(rec.block.seq)]
            if segment != rec.block.seq:
                raise AbsorbingError("block does not match its claimed path segment")
            vs = set(rec.block.seq)
            if claimed & vs:
                raise AbsorbingError("blocks must be vertex-disjoint")
            claimed |= vs
            sigma[rec.path_index] += 1
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "capacity", len(blocks))
        object.__setattr__(self, "ell", ell)

    def __setattr__(self, name, value):
        raise AttributeError("AbsorbingStructure is immutable")

    @property
    def vertex_set(self) -> frozenset:
        out = frozenset()
        for P in self.paths:
            out |= P.vertex_set
        return out


def build_absorbing_structure(
    H_plus: Hypergraph,
    U: Iterable[int],
    L: int,
    a: int,
    ell: int,
    theta: float,
    seed: int = 0,
) -> AbsorbingStructure:
    """Staged random-walk construction of an absorbing structure in H_plus[U].

    Runs ceil(theta^2 n / t_star) stages over the n = |U| vertices, with
    t_star the least multiple of L that is at least max(k+1, n^(1/3)); each
    stage draws up to ``STAGE_DRAWS`` (L, omega)-walks in the unused part of
    H_plus[U], with omega the residual's ``pipeline_weighting``, keeps the
    first self-avoiding draw, splits kept walks into L-paths, collects good
    blocks, and post-checks:
      (i)   #paths <= ceil(theta^2 n / L)
      (ii)  the residual is 2*rho-almost regular (rho measured on H_plus[U])
      (iii) every ambient vertex is absorbable by >= floor(3 theta^4 n) blocks
      (iv)  every kept block has <= ceil(theta^4 n) non-absorbable vertices
    The whole construction retries with fresh randomness, ``ATTEMPTS`` times
    in all, until the checks pass.
    """
    k = H_plus.k
    if a < 1 or ell < 0 or L < 1 or not (0.0 <= theta <= 1.0):
        raise AbsorbingParamError(f"invalid parameters L={L}, a={a}, ell={ell}, theta={theta}")
    unit = a * (2 * k + ell)
    if unit > L:
        raise AbsorbingParamError(
            f"a block needs a(2k+ell) = {unit} vertices but paths have only L = {L}"
        )
    ids = tuple(sorted(set(U)))
    induced = H_plus.induced(ids)
    n = len(ids)
    rho = induced.rho_star()
    base = max(k + 1, math.ceil(n ** (1 / 3)))
    t_star = L * math.ceil(base / L)
    s_star = math.ceil(theta * theta * n / t_star) if theta > 0 else 0

    cap_paths = math.ceil(theta * theta * n / L)
    cap_bad = math.ceil(theta**4 * n)
    need_blocks = math.floor(3 * theta**4 * n)

    # every attempt starts from the same residual: induce and weight each
    # residual once per build
    weighted = {}

    def weigh(residual):
        if residual not in weighted:
            R = induced if residual == ids else H_plus.induced(residual)
            try:
                weighted[residual] = (R, pipeline_weighting(R))
            except FractionalError:
                weighted[residual] = (R, None)
        return weighted[residual]

    rng = random.Random(seed)
    failures: List[str] = []
    for _ in range(ATTEMPTS):
        result = _construction_attempt(
            H_plus, ids, L, a, ell, t_star, s_star, cap_bad, rng, weigh
        )
        if result is None:
            failures = ["fatal: a residual with no edges or a stuck walk"]
            continue
        paths, blocks, residual_ids = result
        issues = []
        if len(paths) > cap_paths:
            issues.append(f"(i) {len(paths)} paths > cap {cap_paths}")
        if residual_ids:
            rho_res = H_plus.induced(residual_ids).rho_star()
            if rho_res > 2 * rho:
                issues.append(f"(ii) residual rho {float(rho_res):.4f} > {float(2 * rho):.4f}")
        per_vertex = [0] * H_plus.n
        for rec in blocks:
            for x in range(H_plus.n):
                if x not in rec.block.bad_vertices:
                    per_vertex[x] += 1
        low = min(per_vertex) if per_vertex else 0
        if low < need_blocks:
            issues.append(f"(iii) some vertex is absorbable by {low} < {need_blocks} blocks")
        for rec in blocks:
            if len(rec.block.bad_vertices) > cap_bad:
                issues.append(f"(iv) a block has {len(rec.block.bad_vertices)} bad vertices > {cap_bad}")
                break
        if not issues:
            return AbsorbingStructure(H_plus, paths, blocks, ell)
        failures = issues
    raise AbsorbingFailure(
        f"absorbing structure failed post-checks after {ATTEMPTS} attempts: "
        + "; ".join(failures)
    )


def _construction_attempt(
    H_plus: Hypergraph,
    ids: Tuple[int, ...],
    L: int,
    a: int,
    ell: int,
    t_star: int,
    s_star: int,
    cap_bad: int,
    rng: random.Random,
    weigh,
):
    """One staged pass; returns (paths, block records, residual ids) or None
    when a residual has no edges or a walk gets stuck.  ``weigh(residual)``
    gives the induced residual and its ``pipeline_weighting`` (None when it
    has none)."""
    k = H_plus.k
    unit = a * (2 * k + ell)
    residual = ids
    kept_walks: List[Tuple[int, ...]] = []
    for _ in range(s_star):
        if len(residual) < t_star:
            break
        R, pfm = weigh(residual)
        if pfm is None:
            return None  # fatal: every later residual is a subgraph of this one
        walk = None
        for _ in range(STAGE_DRAWS):
            try:
                draw = sample_walk(R, pfm, L, t_star, seed=rng)
            except StuckWalkError:
                return None
            if len(set(draw)) == t_star:
                walk = draw
                break
        if walk is None:
            continue  # non-fatal: the stage adds nothing
        mapped = tuple(R.parent_ids[v] for v in walk)
        kept_walks.append(mapped)
        used = set(mapped)
        residual = tuple(v for v in residual if v not in used)
    paths: List[TightPath] = []
    blocks: List[BlockRecord] = []
    for walk in kept_walks:
        for p in range(t_star // L):
            seq = walk[p * L : (p + 1) * L]
            path = TightPath(H_plus, seq)
            idx = len(paths)
            paths.append(path)
            for off in range(0, L - unit + 1, unit):
                blk = make_block(H_plus, seq[off : off + unit], a, ell, cap_bad)
                if blk.good:
                    blocks.append(BlockRecord(blk, idx, off))
    return paths, blocks, residual


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


# ---------------------------------------------------------------------------
# absorption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsorptionResult:
    paths: Tuple[TightPath, ...]
    phi: Dict[int, TightPath]  # input path index -> absorbed path

    def __iter__(self):
        return iter(self.paths)


def absorb(S: AbsorbingStructure, X: Iterable[int], seed: int = 0) -> AbsorptionResult:
    """Insert every x in X into a block of S via a random perfect matching.

    Requires |X| = S.capacity and X disjoint from the structure's paths. The
    X-to-block assignment is a perfect matching in the graph "x can be
    absorbed by block B", drawn uniformly from a family of edge-disjoint
    perfect matchings; each x lands in its block's lowest-index absorbing
    slot, after that slot's k-th vertex.
    """
    H_plus = S.host
    xs = sorted(set(X))
    for x in xs:
        H_plus._check_vertex(x)
    if len(xs) != S.capacity:
        raise AbsorptionInfeasible(
            f"|X| = {len(xs)} but the structure's capacity is {S.capacity}"
        )
    overlap = set(xs) & S.vertex_set
    if overlap:
        raise AbsorptionInfeasible(f"X intersects the structure's paths at {sorted(overlap)}")
    if not xs:
        return AbsorptionResult(paths=S.paths, phi=dict(enumerate(S.paths)))
    adj = []
    for x in xs:
        row = {j for j, rec in enumerate(S.blocks) if rec.block.absorbs(x)}
        if not row:
            raise AbsorptionInfeasible(f"vertex {x} is absorbable by no block")
        adj.append(row)
    d1 = min(len(r) for r in adj)
    bdeg = [0] * len(S.blocks)
    for row in adj:
        for j in row:
            bdeg[j] += 1
    d2 = min(bdeg)
    want = max(1, math.ceil((d1 + d2 - len(xs)) / 2))
    matchings = disjoint_perfect_matchings(adj, want)
    if not matchings:
        raise AbsorptionInfeasible("no perfect matching between X and the blocks")
    rng = random.Random(seed)
    chosen = matchings[rng.randrange(len(matchings))]
    per_path: Dict[int, List[Tuple[int, int]]] = {}
    for xi, j in enumerate(chosen):
        x = xs[xi]
        rec = S.blocks[j]
        slot_i = rec.block.lowest_absorbing_slot(x)
        pos = rec.offset + slot_i * (2 * H_plus.k + S.ell) + H_plus.k
        per_path.setdefault(rec.path_index, []).append((pos, x))
    phi: Dict[int, TightPath] = {}
    new_paths: List[TightPath] = []
    for i, P in enumerate(S.paths):
        seq = list(P.seq)
        for pos, x in sorted(per_path.get(i, ()), reverse=True):
            seq.insert(pos, x)
        Q = TightPath(H_plus, seq)  # validates tightness of the spliced path
        if len(Q) != len(P) + S.sigma[i]:
            raise AbsorbingError("absorbed path has the wrong number of vertices")
        if len(P) >= H_plus.k and Q.ordered_end_edges() != P.ordered_end_edges():
            raise AbsorbingError("absorption changed an ordered end-edge")
        phi[i] = Q
        new_paths.append(Q)
    return AbsorptionResult(paths=tuple(new_paths), phi=phi)
