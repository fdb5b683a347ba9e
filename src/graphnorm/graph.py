"""Immutable weighted-graph representation, graph construction, and independent-set checks.

Graphs are simple, undirected, with strictly positive vertex weights.
The adjacency has one store: a scipy CSR matrix of ones whose row
neighbor lists are sorted ascending.  Its index arrays are int32
whenever the graph fits, as scipy would choose, and ``indptr``/``indices`` are
those same arrays, read-only, not copies.  The square roots of the weights
are cached because the dynamics use them on every step.  scipy is imported
by the first graph built, so code that builds none (the atomic census)
never loads it.  The graph is read through that store (neighbour lists,
degrees, the adjacency matrix).  Beside it sits one more index over the
same values: the kernel, the adjacency with its rows grouped by degree.
Every run_wrgn step reads it, and energy and weighted_mass sum their dot
products in its order.  Edge endpoints and member indices pass one rule:
integers, judged by value; member_mask makes members a checked mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


class GraphError(ValueError):
    """Raised for invalid graph construction or out-of-range vertex indices."""


class WeightedGraph:
    """Undirected simple graph with positive vertex weights.

    Attributes:
        n: vertex count.
        indptr, indices: CSR neighbor lists, each list sorted ascending;
            the adjacency matrix's own arrays.
        w: float64 weight per vertex, strictly positive and finite.
        v: cached sqrt(w).

    Instances are immutable after construction (arrays are write-protected)
    and safe for unrestricted concurrent reads.
    """

    __slots__ = ("n", "indptr", "indices", "w", "v", "_adj", "_order", "_kernel")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, w: np.ndarray):
        import scipy.sparse as sp

        self.n = int(n)
        shape = (self.n, self.n)
        # the kernel's index first, so that its transients come before the values
        self._order, kernel_ptr, kernel_indices = _degree_ordered(indptr, indices)
        data = np.ones(len(indices), dtype=np.float64)
        self._adj = sp.csr_matrix((data, indices, indptr), shape=shape)
        self._kernel = sp.csr_matrix((data, kernel_indices, kernel_ptr), shape=shape)
        self.indptr = self._adj.indptr
        self.indices = self._adj.indices
        self.w = w
        self.v = np.sqrt(w)
        for a in (self.w, self.v, self._order):
            a.setflags(write=False)
        for m in (self._adj, self._kernel):
            for a in (m.data, m.indptr, m.indices):
                a.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def adjacency(self) -> sp.csr_matrix:
        """Sparse 0/1 adjacency matrix (shared, read-only)."""
        return self._adj

    def kernel(self) -> tuple[np.ndarray, sp.csr_matrix]:
        """(order, K): the vertices grouped by degree, and the adjacency renumbered into that order.

        K[a, b] = A[order[a], order[b]], and K's row a holds row order[a] of
        A's entries in A's own order, so (K @ y[order])[a] adds the same
        terms in the same order as (A @ y)[order[a]]: the two agree bit for
        bit.  Rows of equal length run back to back in K, which makes its
        product faster than A's.  Shared and read-only, like the adjacency.
        """
        return self._order, self._kernel

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.num_edges})"


def _degree_ordered(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, ...]:
    """(order, indptr, indices) of the CSR lists renumbered into degree order.

    order is the vertex order a stable sort by degree gives; the arrays
    have the lists' dtype.
    """
    degrees = np.diff(indptr)
    # a stable sort of 16-bit keys is a radix sort: 0.7 ms at n = 10^5, against 5 ms
    key = degrees.astype(np.uint16) if degrees.max(initial=0) < 1 << 16 else degrees
    order = np.argsort(key, kind="stable").astype(indptr.dtype)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size, dtype=order.dtype)
    kernel_degrees = degrees[order]
    kernel_ptr = np.zeros_like(indptr)
    np.cumsum(kernel_degrees, out=kernel_ptr[1:])
    # entry k of the kernel is entry k + indptr[order[a]] - kernel_ptr[a] of
    # the lists, where a is its row; fancy indexing, as np.take copies int32 indices
    at = np.repeat(indptr[order] - kernel_ptr[:-1], kernel_degrees)
    at += np.arange(at.size, dtype=at.dtype)
    columns = indices[at]
    del at
    return order, kernel_ptr, rank[columns]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorts an integer array in place and returns its distinct values.

    A sort plus a neighbour-difference mask: on numpy 2.4, np.unique took
    about 60 times as long for 5·10^5 int64 keys.
    """
    a.sort()
    if a.size:
        keep = np.empty(a.size, dtype=bool)
        keep[0] = True
        np.not_equal(a[1:], a[:-1], out=keep[1:])
        a = a[keep]
    return a


def build_graph(
    n: int,
    edges: Sequence[tuple[int, int]] | np.ndarray,
    weights: Sequence[float],
) -> WeightedGraph:
    """Validate and build a WeightedGraph.

    edges is any sequence of (u, v) pairs or a (k, 2) integer array.
    Duplicate edges and both orientations of the same edge are merged.
    The weights are copied, so the graph shares no array with the caller.
    Raises GraphError on non-integer endpoints, self-loops, out-of-range
    indices, weights missing, non-positive or non-finite, or a weight total
    that is not finite; a loop or range error names the first bad edge.

    Beside the graph, the build holds about two copies of a (k, 2) int64
    edge array: the 2k packed keys and their deduplicated copy.  It drops
    its own references to the edges once the keys are written, so an edge
    array that no caller still holds is freed before the sort.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    w = np.array(weights, dtype=np.float64)
    if w.shape != (n,):
        raise GraphError(f"expected {n} weights, got {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        bad = int(np.argmin(np.where(np.isfinite(w), w, -np.inf)))
        raise GraphError(f"weight of vertex {bad} must be positive and finite, got {w[bad]}")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        raise GraphError("total weight overflows float64, so objectives would not be finite")

    e = _int64_indices(edges)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphError(f"edges must be (u, v) pairs, got an array of shape {e.shape}")
    u, v = e[:, 0], e[:, 1]
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = outside | (u == v)
    if bad.any():
        k = int(np.argmax(bad))
        if outside[k]:
            raise GraphError(f"edge ({u[k]},{v[k]}) has an endpoint outside [0,{n})")
        raise GraphError(f"self-loop at vertex {u[k]}")
    del outside, bad

    # packed keys u*n + v for both orientations, written in place: sorted and
    # deduplicated, they are the CSR entries in row-major order, each row ascending
    k = len(e)
    keys = np.empty(2 * k, dtype=np.int64)
    np.multiply(u, n, out=keys[:k])
    keys[:k] += v
    np.multiply(v, n, out=keys[k:])
    keys[k:] += u
    # an edge array the caller passed as a temporary dies here, before the sort
    del edges, e, u, v
    keys = _sorted_unique(keys)
    idx_dtype = np.int32 if max(n, keys.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    keys %= n
    cols = keys.astype(idx_dtype, copy=False)
    del keys  # the int64 keys are gone before the graph allocates its values
    return WeightedGraph(n, indptr, cols, w)


def _int64_indices(a) -> np.ndarray:
    """Vertex indices by value; GraphError unless each is an integer, not a bool.

    Any input but an integer-dtype array is judged element by element: numpy
    reads a bool among ints as an int.  int64 if every index fits, copying
    no int64 array; else as read (uint64, or Python ints), so that a range
    check compares and names the true values.
    """
    items = a if isinstance(a, np.ndarray) else list(a)
    a = np.asarray(items)
    if a.size and not (isinstance(items, np.ndarray) and a.dtype.kind in "iu"):
        # numpy reads ints beyond int64 as objects or floats
        objects = np.array(items, dtype=object)
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in objects.flat):
            got = a.dtype if a.dtype.kind not in "iu" else "bool"
            raise GraphError(f"vertex indices must be integers, got {got}")
        if a.dtype.kind not in "iu":
            a = objects
    if np.can_cast(a.dtype, np.int64) or not a.size or -(1 << 63) <= a.min() and a.max() < 1 << 63:
        return a.astype(np.int64, copy=False)
    return a


def member_mask(g: WeightedGraph, members: Iterable[int] | np.ndarray) -> np.ndarray:
    """Boolean mask of integer vertex indices; repeats collapse, an index outside [0,n) raises GraphError."""
    idx = _int64_indices(members)
    if idx.size and (idx.min() < 0 or idx.max() >= g.n):
        raise GraphError(f"vertex index outside [0,{g.n})")
    return np.bincount(idx, minlength=g.n) > 0


def independence(g: WeightedGraph, mask: np.ndarray) -> tuple[bool, bool]:
    """(independent, maximal) for a member mask, from one mat-vec.

    A member with a member neighbour breaks independence; a non-member
    with none is undominated and breaks maximality.
    """
    dominated = (g.adjacency() @ mask) > 0
    independent = not np.any(dominated[mask])
    return independent, independent and bool(np.all(mask | dominated))


def greedy_complete(g: WeightedGraph, selected: np.ndarray) -> None:
    """Completes an independent boolean mask to a maximal one, in place.

    Visits the vertices no selected vertex dominates by descending weight,
    ties to the smaller index, and selects each that still has no
    selected neighbour.
    """
    free = np.flatnonzero(~selected & ~(g.adjacency() @ selected > 0))
    for i in free[np.lexsort((free, -g.w[free]))].tolist():
        if not selected[g.neighbors(i)].any():
            selected[i] = True


@dataclass(frozen=True)
class MisSolution:
    """A vertex subset claimed independent, with validity flags.

    members is sorted ascending; weight is the recomputable sum of
    vertex weights over members.
    """

    members: tuple[int, ...]
    weight: float
    independent: bool
    maximal: bool

    @classmethod
    def from_members(cls, g: WeightedGraph, members: Iterable[int]) -> "MisSolution":
        mask = member_mask(g, members)
        independent, maximal = independence(g, mask)
        return cls(
            members=tuple(np.flatnonzero(mask).tolist()),
            weight=float(g.w[mask].sum()),
            independent=independent,
            maximal=maximal,
        )


# erdos_renyi draws each vertex weight uniformly from [WEIGHT_LOW, WEIGHT_HIGH).
WEIGHT_LOW = 0.1
WEIGHT_HIGH = 10.0


def erdos_renyi(n: int, p: float, seed) -> WeightedGraph:
    """G(n, p) with i.i.d. uniform vertex weights; deterministic per seed."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.random(len(iu)) < p
    edges = np.column_stack((iu[pick], ju[pick]))
    weights = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=n)
    return build_graph(n, edges, weights)
