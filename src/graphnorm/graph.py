"""Immutable weighted-graph representation and independent-set checks.

Graphs are simple, undirected, with strictly positive vertex weights.
The adjacency has one store: a scipy CSR matrix of ones whose row
neighbor lists are sorted ascending.  Its index arrays are int32
whenever the graph fits, as scipy would choose, and ``indptr``/``indices`` are
those same arrays, read-only, not copies.  The square roots of the weights
are cached because the dynamics use them on every step.  scipy is imported
by the first graph built, so code that builds none (the atomic census)
never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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

    __slots__ = ("n", "indptr", "indices", "w", "v", "_adj")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, w: np.ndarray):
        import scipy.sparse as sp

        self.n = int(n)
        data = np.ones(len(indices), dtype=np.float64)
        self._adj = sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))
        self.indptr = self._adj.indptr
        self.indices = self._adj.indices
        self.w = w
        self.v = np.sqrt(w)
        for a in (self._adj.data, self.indptr, self.indices, self.w, self.v):
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

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints (u, v) with u < v, in ascending order, as two arrays."""
        rows = np.repeat(np.arange(self.n, dtype=self.indices.dtype), self.degrees())
        upper = self.indices > rows
        return rows[upper], self.indices[upper]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending order."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.num_edges})"


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
    Raises GraphError on self-loops, out-of-range indices, weights that
    are missing, non-positive, or non-finite, or a weight total that is not
    finite; an edge error names the first bad edge in input order.

    Beside the edges and the graph, the build holds about two copies of a
    (k, 2) int64 edge array: the 2k packed keys and their deduplicated
    copy.  From 5n random pairs its tracemalloc peak is 2.25 times the
    edge array's bytes, the graph included.
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

    e = np.asarray(edges, dtype=np.int64)
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
    keys = _sorted_unique(keys)
    idx_dtype = np.int32 if max(n, keys.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    keys %= n
    cols = keys.astype(idx_dtype, copy=False)
    del keys  # the int64 keys are gone before the graph allocates its values
    return WeightedGraph(n, indptr, cols, w)


def _check_members(g: WeightedGraph, members: Iterable[int] | np.ndarray) -> np.ndarray:
    """Sorted distinct member indices, range-checked against the graph."""
    if isinstance(members, np.ndarray) and members.ndim == 1 and members.dtype.kind in "biu":
        idx = members.astype(np.int64)  # a copy, which _sorted_unique may sort
    else:
        idx = np.fromiter(map(int, members), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= g.n):
        raise GraphError(f"vertex index outside [0,{g.n})")
    return _sorted_unique(idx)


def _independence(g: WeightedGraph, idx: np.ndarray) -> tuple[bool, bool]:
    """(independent, maximal) for checked member indices, from one mat-vec.

    A member with a member neighbour breaks independence; a non-member
    with none is undominated and breaks maximality.
    """
    mask = np.zeros(g.n, dtype=bool)
    mask[idx] = True
    dominated = (g.adjacency() @ mask) > 0
    independent = not np.any(dominated[idx])
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
        idx = _check_members(g, members)
        independent, maximal = _independence(g, idx)
        return cls(
            members=tuple(idx.tolist()),
            weight=float(g.w[idx].sum()),
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
