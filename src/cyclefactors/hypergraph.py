"""k-uniform hypergraphs with the degree/codegree machinery everything else queries.

A Hypergraph is an immutable value: ``k``, a dense vertex range ``0..n-1``, and a
set of k-edges stored as sorted tuples. Degree d(v), codegree d(x) of a j-set x,
the neighborhood N(x) of a (k-1)-set, the edge table (the edge id of every
ordered k-tuple, read by ``window_ids``) and ``extension_rows``, the one
extension index that every tight-sequence search reads (the N(x) of many
ordered (k-1)-tuples at once, as boolean rows of that table), ``rho_star`` (the
approximate regularity every pipeline stage re-checks) and the plain-text
serialization format live here. Graphs
derived from a host by dropping edges skip the input checks. The full
regularity / intersection report (rho_star, eta_star, delta_codegree) compares
all pairs of (k-1)-sets in one matrix product; it serves ``analyze``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np


class HypergraphError(ValueError):
    """Domain error for malformed hypergraph input or invalid queries."""


class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1.

    Edges are deduplicated sorted k-tuples. Instances compare and hash by
    (k, n, edge set); derived indexes are cached lazily and never leak into
    equality.
    """

    __slots__ = (
        "k",
        "n",
        "edges",
        "_edge_ids",
        "_degrees",
        "_codegree_cache",
        "_edge_table",
        "_hash",
    )

    def __init__(self, k: int, n: int, edges: Iterable[Sequence[int]]):
        rows = edges if isinstance(edges, (list, tuple)) else list(edges)
        values, sizes = list(itertools.chain.from_iterable(rows)), list(map(len, rows))
        canon = _canonical_edges(k, n, values, sizes)
        if {bool, np.bool_} & set(map(type, values)):  # numpy reads a bool as 0 or 1
            raise HypergraphError("vertex ids must be integers")
        self._set_fields(k, n, canon)

    @classmethod
    def _from_canonical(cls, k: int, n: int, edges: tuple) -> "Hypergraph":
        """A host on ``edges`` taken as they are, without the checks of
        ``__init__``: for edges that ``_canonical_edges`` returned, or a
        subsequence of a valid host's canonical, sorted edge tuple."""
        H = cls.__new__(cls)
        H._set_fields(k, n, edges)
        return H

    def _set_fields(self, k, n, edges) -> None:
        """Every field, from a sorted tuple of distinct canonical edges."""
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_edge_ids", dict(zip(edges, range(len(edges)))))
        ends = np.fromiter(itertools.chain.from_iterable(edges), np.intp, len(edges) * k)
        degs = np.bincount(ends, minlength=n).tolist()
        object.__setattr__(self, "_degrees", tuple(degs))
        object.__setattr__(self, "_codegree_cache", {})
        object.__setattr__(self, "_edge_table", None)
        object.__setattr__(self, "_hash", hash((k, n, edges)))

    def __setattr__(self, name, value):  # immutability guard for public fields
        raise AttributeError("Hypergraph is immutable")

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_id(self, e: Iterable[int]) -> int:
        t = tuple(sorted(e))
        try:
            return self._edge_ids[t]
        except KeyError:
            raise HypergraphError(f"{t!r} is not an edge") from None

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(e)) in self._edge_ids

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def _check_vertex(self, v) -> None:
        if not isinstance(v, int) or not (0 <= v < self.n):
            raise HypergraphError(f"invalid vertex id {v!r} (n={self.n})")

    def codegree(self, x: Iterable[int]) -> int:
        """Number of edges containing the j-set x, 1 <= j <= k-1."""
        xs = tuple(sorted(set(x)))
        j = len(xs)
        if not (1 <= j <= self.k - 1):
            raise HypergraphError(f"codegree wants a j-set with 1 <= j <= {self.k - 1}, got j={j}")
        for v in xs:
            self._check_vertex(v)
        if j == 1:
            return self._degrees[xs[0]]
        return self._codegrees(j).get(xs, 0)

    def _codegrees(self, j: int) -> Counter:
        """The codegree of every j-set inside some edge, keyed by its sorted
        tuple: the j-subsets of the edges, counted in one pass on the first
        query of size j and kept."""
        counts = self._codegree_cache.get(j)
        if counts is None:
            counts = Counter(s for e in self.edges for s in itertools.combinations(e, j))
            self._codegree_cache[j] = counts
        return counts

    def extensions(self, tail: Iterable[int]) -> tuple:
        """N(tail) as an ascending tuple, for any ordering of a (k-1)-set
        tail, by n edge probes, so a sparse host on many vertices builds no
        table (a tail that is no (k-1)-set gets ())."""
        return tuple(v for v in range(self.n) if self.has_edge((*tail, v)))

    def edge_table(self) -> np.ndarray:
        """The edge id of every ordered k-tuple of vertices that lists an
        edge, and -1 for every other tuple: n^k int32 entries, each tuple
        read as one base-n number (``place_values``).  As an n^(k-1) x n
        array, row x holds the ids of the edges x + (v,), so its entries
        >= 0 are the extension set of the ordered (k-1)-tuple x.  Built on
        first use, kept and read-only; no other module reads its keys.
        """
        table = self._edge_table
        if table is None:
            n, k = self.n, self.k
            table = np.full(n**k, -1, dtype=np.int32)
            edges = np.array(self.edges, dtype=np.intp).reshape(-1, k)
            for order in itertools.permutations(range(k)):
                table[edges[:, order] @ place_values(n, k)] = np.arange(len(edges))
            table.flags.writeable = False
            object.__setattr__(self, "_edge_table", table)
        return table

    def window_ids(self, seqs: np.ndarray) -> np.ndarray:
        """The ``edge_table`` entry (edge id or -1) of every window of k
        consecutive vertices along the rows of ``seqs``, an N x (w + k - 1)
        int32 array of vertices: an N x w int32 array whose entry j is the
        window that starts at column j.  The keys are summed from k column
        slices in int32 (every key is below n^k, the table's length), so no
        N x w x k array of windows is built."""
        n, k = self.n, self.k
        w = seqs.shape[1] - k + 1
        key = seqs[:, :w].copy()
        for j in range(1, k):
            key *= n
            key += seqs[:, j : j + w]
        return self.edge_table()[key]

    def extension_rows(self, tails) -> np.ndarray:
        """N(x) of every ordered (k-1)-tuple x in ``tails`` (an int array
        whose last axis holds the tuples, say N x (k-1)), as boolean rows
        of n entries in its place (an N x n array): entry v is True iff
        x + (v,) is an edge.  A tuple with a repeated vertex gets a row of
        False.  The one extension index that every tight-sequence search
        reads: the rows of ``edge_table`` >= 0, a fresh array.
        """
        n, k = self.n, self.k
        rows = self.edge_table().reshape(n ** (k - 1), n)
        return rows.take(np.dot(tails, place_values(n, k - 1)), axis=0) >= 0

    def neighborhood(self, x: Iterable[int]) -> frozenset:
        """N(x) = {v : x + v is an edge} for a (k-1)-set x."""
        xs = tuple(sorted(set(x)))
        if len(xs) != self.k - 1:
            raise HypergraphError(f"neighborhood wants a ({self.k - 1})-set, got {xs!r}")
        for v in xs:
            self._check_vertex(v)
        return frozenset(self.extensions(xs))

    def delta_codegree(self, j: Optional[int] = None) -> int:
        """delta_j(H): minimum codegree over all j-subsets of the vertex set."""
        j = self.k - 1 if j is None else j
        if self.m == 0:
            return 0
        if not (1 <= j <= self.k - 1):
            raise HypergraphError(f"codegree wants a j-set with 1 <= j <= {self.k - 1}, got j={j}")
        if j == 1:
            return min(self._degrees)
        counts = self._codegrees(j)
        # a j-set in no edge has codegree 0
        return min(counts.values()) if len(counts) == math.comb(self.n, j) else 0

    # -- derived graphs --------------------------------------------------

    def remove_edges(self, S: Iterable[Iterable[int]]) -> "Hypergraph":
        """H - S: same vertex set, edge set E \\ S. Every member of S must be an edge.

        A canonical tuple (every edge the package hands out) is looked up as
        it is; any other member of S is sorted first."""
        ids = self._edge_ids
        keep = [True] * len(self.edges)
        for e in S:
            i = ids.get(e) if type(e) is tuple else None
            if i is None:
                t = tuple(sorted(e))
                i = ids.get(t)
                if i is None:
                    raise HypergraphError(f"cannot remove non-edge {t!r}")
            keep[i] = False
        return Hypergraph._from_canonical(
            self.k, self.n, tuple(itertools.compress(self.edges, keep))
        )

    # -- reports ---------------------------------------------------------

    def rho_star(self) -> Fraction:
        """The smallest rho with every degree in (1 +- rho) * k*m/n (0 when m = 0)."""
        if self.n == 0:
            raise HypergraphError("empty vertex set has no regularity report")
        km = self.k * self.m
        if km == 0:
            return Fraction(0)
        # |d / (km/n) - 1| = |d*n - km| / km
        return Fraction(max(abs(d * self.n - km) for d in self._degrees), km)

    def regularity_report(self) -> "RegularityReport":
        return RegularityReport.from_hypergraph(self)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Hypergraph)
            and self.k == other.k
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from its value; the lazy indexes are rebuilt on demand
        return (Hypergraph, (self.k, self.n, self.edges))

    def __repr__(self):
        return f"Hypergraph(k={self.k}, n={self.n}, m={self.m})"


def _canonical_edges(k, n, values: list, sizes: list) -> tuple:
    """The checked edges of a k-uniform host on 0..n-1 as a sorted tuple of
    sorted tuples: the one validator of ``Hypergraph`` and
    ``parse_hypergraph``.

    The edges come flat: ``values`` lists the vertices of every edge in
    turn, ``sizes`` each edge's vertex count.  The vertex counts, the range
    and the repeated vertices are checked on all edges at once, the
    duplicates on their sorted tuples; only when a check fails does
    ``_reject`` walk the edges one by one, in input order, to name the
    first bad one.
    """
    if not isinstance(k, int) or k < 2:
        raise HypergraphError(f"uniformity k must be an integer >= 2, got {k!r}")
    if not isinstance(n, int) or n < 0:
        raise HypergraphError(f"vertex count n must be a nonnegative integer, got {n!r}")
    m = len(sizes)
    flat = np.array(values) if values else np.empty(0, dtype=np.intp)
    if (
        sizes.count(k) == m
        and flat.dtype.kind in "iu"
        and (not m or 0 <= flat.min() and flat.max() < n)
    ):
        # every vertex is below n, so int32 holds it while n <= 2^31, and
        # numpy sorts the rows with the kernel that sorts the cover's ids
        rows = flat.reshape(m, k).astype(np.int32 if n <= 2**31 else np.int64)
        rows.sort(axis=1)
        edges = sorted(zip(*rows.T.tolist()))
        if not (rows[:, 1:] == rows[:, :-1]).any() and len(set(edges)) == m:
            return tuple(edges)
    _reject(k, n, values, sizes)


def _reject(k, n, values: list, sizes: list) -> None:
    """Raise the HypergraphError of ``_canonical_edges`` for the edges that
    failed it: the first bad edge in input order, and the first check it
    fails, in the order vertex count, repeated vertex, range, duplicate of
    an earlier edge.  When every edge passes them, some vertex is not an
    integer."""
    seen = set()
    for size, end in zip(sizes, itertools.accumulate(sizes)):
        e = tuple(values[end - size : end])
        if size != k:
            raise HypergraphError(f"edge {e!r} does not have {k} vertices")
        key = tuple(sorted(e))
        if any(a == b for a, b in zip(key, key[1:])):
            raise HypergraphError(f"edge {e!r} has repeated vertices")
        if key[0] < 0 or key[-1] >= n:
            raise HypergraphError(f"edge {e!r} has a vertex outside 0..{n - 1}")
        if key in seen:
            raise HypergraphError(f"duplicate edge {key!r}")
        seen.add(key)
    raise HypergraphError("vertex ids must be integers")


def _eta_minima(H: Hypergraph) -> tuple:
    """The least |N(x) & N(y)| over all pairs of (k-1)-sets x, y (x = y
    too), over the disjoint pairs (None when no two are disjoint), and
    delta_{k-1}, the least |N(x)|.

    One product of two (k-1)-set x 2n 0/1 matrices answers every pair: row x
    of the left one holds N(x), then n + 1 at x's own vertices; row y of the
    right one N(y), then 1 at y's vertices.  So entry (x, y) is
    |N(x) & N(y)| + (n + 1) |x & y|: at most n exactly when x and y are
    disjoint, and |N(x) & N(y)| modulo n + 1.  The N(x) are the host's
    ``extension_rows``, and the product runs in row blocks of about 2^18
    entries, whose float entries are exact integers.
    """
    n, k = H.n, H.k
    sets = np.array(list(itertools.combinations(range(n), k - 1)), dtype=np.intp)
    hoods = H.extension_rows(sets).astype(float)
    members = np.zeros((len(sets), n))
    members[np.arange(len(sets))[:, None], sets] = 1.0
    left = np.hstack([hoods, (n + 1) * members])
    right = np.hstack([hoods, members]).T
    lows, disjoint_lows = [], []
    block = max(1, 2**18 // len(sets))
    for start in range(0, len(sets), block):
        pairs = left[start : start + block] @ right
        lows.append((pairs % (n + 1)).min())
        disjoint_lows.append(pairs.min(initial=n + 1, where=pairs <= n))
    disjoint = int(min(disjoint_lows))  # n + 1 when no two sets are disjoint
    return int(min(lows)), (disjoint if disjoint <= n else None), int(hoods.sum(axis=1).min())


@functools.lru_cache(maxsize=None)
def place_values(n: int, width: int) -> np.ndarray:
    """Place values that read ``width`` vertices as one base-n number, the
    key of an ordered tuple in ``Hypergraph.edge_table`` (one read-only
    array per (n, width))."""
    digits = n ** np.arange(width - 1, -1, -1)
    digits.flags.writeable = False
    return digits


def complete_hypergraph(k: int, n: int) -> Hypergraph:
    """K_n^(k): all k-subsets of 0..n-1."""
    return Hypergraph(k, n, itertools.combinations(range(n), k))


@dataclass(frozen=True)
class RegularityReport:
    """Almost-regularity and intersection summary of a hypergraph.

    r_mean is the average vertex degree k*m/n; rho_star the smallest rho such
    that every degree is (1 +- rho)*r_mean; eta_star the minimum over disjoint
    (k-1)-set pairs of |N(x) cap N(y)| / n (None when n < 2(k-1) leaves no
    disjoint pair); eta_star_all_pairs the same minimum over all pairs;
    delta_codegree the least |N(x)|, read off the same N(x) (0 when m = 0).
    """

    k: int
    n: int
    m: int
    r_mean: Fraction
    rho_star: Fraction
    eta_star: Optional[Fraction]
    eta_star_all_pairs: Optional[Fraction]
    delta_codegree: int

    @staticmethod
    def from_hypergraph(H: Hypergraph) -> "RegularityReport":
        n, k, m = H.n, H.k, H.m
        rho_star = H.rho_star()
        r_mean = Fraction(k * m, n)
        eta, eta_all, delta = None, None, 0
        if m > 0:
            best_all, best_disjoint, delta = _eta_minima(H)
            eta_all = Fraction(best_all, n)
            eta = Fraction(best_disjoint, n) if best_disjoint is not None else None
        return RegularityReport(
            k=k,
            n=n,
            m=m,
            r_mean=r_mean,
            rho_star=rho_star,
            eta_star=eta,
            eta_star_all_pairs=eta_all,
            delta_codegree=delta,
        )

    def as_dict(self) -> dict:
        def num(x):
            if x is None:
                return None
            return {"fraction": f"{x.numerator}/{x.denominator}", "float": float(x)}

        return {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "r_mean": num(self.r_mean),
            "rho_star": num(self.rho_star),
            "eta_star": num(self.eta_star),
            "eta_star_all_pairs": num(self.eta_star_all_pairs),
            "delta_codegree": self.delta_codegree,
        }


# ---------------------------------------------------------------------------
# degree transfer: (k-1)-set control of vertex degrees under induction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    """Outcome of degree_transfer_check.

    If every (k-1)-set x satisfies d_{H[U+x]}(x) = (1 +- eps) * theta * d_H(x),
    then every vertex v must satisfy
    d_{H[U+v]}(v) = (1 +- 8 k^3 eps) * theta^(k-1) * d_H(v).
    ``precondition_ok`` reports the hypothesis, ``vertex_pass`` the conclusion.
    """

    theta: float
    eps: float
    precondition_ok: bool
    failing_sets: tuple
    set_ratios: dict
    vertex_ratios: dict
    vertex_pass: dict
    all_pass: bool


def degree_transfer_check(
    H: Hypergraph,
    U: Iterable[int],
    theta: Optional[float] = None,
    eps: Optional[float] = None,
) -> TransferReport:
    """Check the (k-1)-set-to-vertex degree transfer on H and U.

    With theta=None the observed mean of d_{H[U+x]}(x) / d_H(x) is used; with
    eps=None the maximal observed deviation from theta is used (so the
    hypothesis holds by construction and only the conclusion is informative).
    """
    uset = set(U)
    for v in uset:
        H._check_vertex(v)
    k = H.k
    set_ratios = {}
    for x in itertools.combinations(range(H.n), k - 1):
        dx = H.codegree(x)
        if dx == 0:
            continue
        inner = sum(1 for v in H.neighborhood(x) if v in uset)
        set_ratios[x] = inner / dx
    if theta is None:
        theta = sum(set_ratios.values()) / len(set_ratios) if set_ratios else 0.0
    if eps is None:
        eps = max((abs(r - theta * 1.0) for r in set_ratios.values()), default=0.0)
        eps = eps / theta if theta > 0 else 0.0
    failing = tuple(
        x
        for x, r in set_ratios.items()
        if not (theta * (1 - eps) - 1e-12 <= r <= theta * (1 + eps) + 1e-12)
    )
    tol = 8 * k**3 * eps
    target = theta ** (k - 1)
    vertex_ratios = {}
    vertex_pass = {}
    for v in range(H.n):
        dv = H.degree(v)
        if dv == 0:
            continue
        dv_in = sum(1 for e in H.edges if v in e and all(u in uset or u == v for u in e))
        ratio = dv_in / dv
        vertex_ratios[v] = ratio
        lo = target * (1 - tol)
        hi = target * (1 + tol)
        vertex_pass[v] = lo - 1e-12 <= ratio <= hi + 1e-12
    return TransferReport(
        theta=theta,
        eps=eps,
        precondition_ok=not failing,
        failing_sets=failing,
        set_ratios=set_ratios,
        vertex_ratios=vertex_ratios,
        vertex_pass=vertex_pass,
        all_pass=all(vertex_pass.values()),
    )


# ---------------------------------------------------------------------------
# text serialization: "k n m" header then one line of k vertex ids per edge
# ---------------------------------------------------------------------------


def parse_hypergraph(text: str) -> Hypergraph:
    """The host in ``text``: a "k n m" header line, then m edge lines of k
    vertex ids each; blank lines are skipped.  Each distinct token is read
    once, with ``int``, and the edges are checked together by
    ``_canonical_edges``; only when a check fails are the lines walked in
    order, and the HypergraphError names the first bad one."""
    lines = text.splitlines()
    rows = list(filter(None, map(str.split, lines)))

    def line(i):  # the line number of rows[i]
        return [no for no, fields in enumerate(map(str.split, lines), 1) if fields][i]

    if not rows:
        raise HypergraphError("empty input: missing 'k n m' header")
    header, body = rows[0], rows[1:]
    if len(header) != 3:
        got = lines[line(0) - 1].strip()
        raise HypergraphError(f"line {line(0)}: header must be 'k n m', got {got!r}")
    try:
        k, n, m = map(int, header)
    except ValueError:
        raise HypergraphError(f"line {line(0)}: header fields must be integers") from None
    if len(body) != m:
        raise HypergraphError(f"expected {m} edge lines, found {len(body)}")
    sizes = list(map(len, body))
    tokens = list(itertools.chain.from_iterable(body))
    distinct = set(tokens)
    ints = {}  # int() of each distinct token that int accepts
    for token in distinct:
        try:
            ints[token] = int(token)
        except ValueError:
            pass
    values = list(map(ints.get, tokens))
    if len(ints) < len(distinct) or sizes.count(k) != m:
        # the first line with a wrong field count or a token int rejects
        for i, fields in enumerate(body, 1):
            if len(fields) != k:
                raise HypergraphError(
                    f"line {line(i)}: expected {k} vertex ids, got {len(fields)}"
                )
            if not all(map(ints.__contains__, fields)):
                raise HypergraphError(f"line {line(i)}: vertex ids must be integers")
    try:
        edges = _canonical_edges(k, n, values, sizes)
    except HypergraphError as exc:
        raise HypergraphError(f"invalid edge list: {exc}") from None
    return Hypergraph._from_canonical(k, n, edges)


def format_hypergraph(H: Hypergraph) -> str:
    out = [f"{H.k} {H.n} {H.m}"]
    out.extend(" ".join(str(v) for v in e) for e in H.edges)
    return "\n".join(out) + "\n"
