"""Connected-graph enumeration and the atomic census.

A small graph is coded as an integer: its graph6 payload bits before
padding, first pair most significant (io.graph6_code).  Graphs on up
to 7 vertices are generated one representative per isomorphism class
by vertex augmentation, which in this bit order appends the new
vertex's column to its parent's code, and deduplicated by brute-force
canonical forms (the minimal code over all vertex permutations).
Larger orders are served through external graph6 streams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from typing import Iterable, Iterator

import numpy as np

from .analysis import SpectrumKind, _dominated, _is_connected, atom_spectrum
from .io import graph6_adjacency, graph6_code, graph6_pairs, parse_graph6

MAX_BUILTIN_N = 7

# graphs per stacked domination test in the census
DOMINATION_BLOCK = 256


@dataclass(frozen=True)
class CensusRow:
    """One row of the atomic census table."""

    n: int
    connected_total: int
    irregular_discrete: int
    irregular_continuous: int
    regular_discrete: int
    regular_continuous: int

    @property
    def atomic_total(self) -> int:
        return (
            self.irregular_discrete
            + self.irregular_continuous
            + self.regular_discrete
            + self.regular_continuous
        )


@lru_cache(maxsize=None)
def _perm_matrix(n: int) -> np.ndarray:
    """P[b, p]: the value bit b of a code takes after vertex permutation p.

    Codes as 0/1 rows times P are the codes of all n! permuted copies.  P
    is float64 so the product runs in BLAS, and exact: n <= 10 gives at
    most 45 bits, and P would not fit in memory for n >= 11.
    """
    i, j = graph6_pairs(n)
    pair = np.zeros((n, n), dtype=np.int64)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    source = pair[perms[:, i], perms[:, j]]  # bit k of copy p is bit source[p, k]
    matrix = np.zeros((len(i), len(perms)))
    matrix[source, np.arange(len(perms))[:, None]] = 2.0 ** np.arange(len(i) - 1, -1, -1)
    return matrix


def _canonical_codes(n: int, codes: np.ndarray) -> np.ndarray:
    """Minimal code over all vertex permutations, for each code on n vertices."""
    bits = (codes[:, None] >> np.arange(n * (n - 1) // 2 - 1, -1, -1)) & 1
    return (bits @ _perm_matrix(n)).min(axis=1).astype(np.int64)


def canonical_form(adj: np.ndarray) -> int:
    """Minimal graph6 code (graph6_code) over all vertex permutations."""
    return int(_canonical_codes(len(adj), np.array([graph6_code(adj)]))[0])


@lru_cache(maxsize=None)
def _connected_codes(n: int) -> tuple[int, ...]:
    """Canonical codes of all connected graphs on n vertices.

    Every connected graph on n vertices arises by attaching a new vertex
    (with nonempty neighborhood) to some connected graph on n - 1
    vertices, so augmenting the previous level and deduplicating by
    canonical form is exhaustive.  In graph6 order the child's code is
    the parent's code followed by the new vertex's n - 1 column bits.
    """
    if n == 1:
        return (0,)
    hoods = np.arange(1, 1 << (n - 1), dtype=np.int64)
    seen: set[int] = set()
    for parent in _connected_codes(n - 1):
        seen.update(_canonical_codes(n, (parent << (n - 1)) | hoods).tolist())
    return tuple(sorted(seen))


def connected_graphs_upto(n: int) -> Iterator[np.ndarray]:
    """Stream one adjacency matrix per isomorphism class of connected graphs.

    Built-in enumeration is capped at n = 7; larger orders must come from
    external graph6 streams.
    """
    if not 1 <= n <= MAX_BUILTIN_N:
        raise ValueError(f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_N}")
    for code in _connected_codes(n):
        yield graph6_adjacency(n, code)


def _tally(n: int, graphs: Iterable[np.ndarray]) -> CensusRow:
    """Census row of connected 0/1 graphs on n vertices.

    Graphs go through _dominated in stacks of DOMINATION_BLOCK; only the
    undominated ones, whose spectrum can be nonempty, reach atom_spectrum.
    """
    counts: Counter = Counter()
    total = 0
    graphs = iter(graphs)
    while block := list(islice(graphs, DOMINATION_BLOCK)):
        total += len(block)
        for adj, dominated in zip(block, _dominated(np.stack(block))):
            if not dominated:
                spectrum = atom_spectrum(adj)
                counts[spectrum.regular, spectrum.kind] += 1
    kinds = (SpectrumKind.DISCRETE, SpectrumKind.CONTINUOUS)
    return CensusRow(n, total, *(counts[r, k] for r in (False, True) for k in kinds))


def census(n: int) -> CensusRow:
    """Atomic census over the built-in enumeration (n <= 7)."""
    return _tally(n, connected_graphs_upto(n))


def census_from_stream(lines: Iterable[str]) -> tuple[CensusRow, int]:
    """Atomic census over externally supplied graph6 records.

    All records must decode to graphs of one common order; disconnected
    graphs are skipped and counted.  Returns (row, skipped).
    """
    n = None
    kept: list[np.ndarray] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        adj = parse_graph6(line)
        if n is None:
            n = adj.shape[0]
        elif adj.shape[0] != n:
            raise ValueError(
                f"mixed graph orders in stream: {adj.shape[0]} after {n}"
            )
        if not _is_connected(adj):
            skipped += 1
            continue
        kept.append(adj)
    if n is None:
        return CensusRow(0, 0, 0, 0, 0, 0), 0
    return _tally(n, kept), skipped


def format_census_table(rows: Iterable[CensusRow]) -> str:
    """Render census rows in the published table layout."""
    header = (
        f"{'n':>3} {'connected':>10} {'irr.disc':>9} {'irr.cont':>9} "
        f"{'reg.disc':>9} {'reg.cont':>9} {'atomic':>7} {'density':>8}"
    )
    lines = [header]
    for r in rows:
        density = 100.0 * r.atomic_total / r.connected_total if r.connected_total else 0.0
        lines.append(
            f"{r.n:>3} {r.connected_total:>10} {r.irregular_discrete:>9} "
            f"{r.irregular_continuous:>9} {r.regular_discrete:>9} "
            f"{r.regular_continuous:>9} {r.atomic_total:>7} {density:>7.1f}%"
        )
    return "\n".join(lines)
