"""Connected-graph enumeration and the atomic census.

A small graph is coded as an integer: its graph6 payload bits before
padding, first pair most significant (graph6_adjacency decodes one).  A
graph6 record is one line: the size in one byte (n <= 62) or in "~" and
three bytes (n <= 258047), then the upper-triangle bits column-major, 6
bits per payload byte offset by 63 (parse_graph6).  Graphs on up to 7
vertices come one per isomorphism class from vertex augmentation, which
in this bit order appends the new vertex's column to its parent's code,
deduplicated by brute-force canonical forms (canonical_form).  Larger
orders come from external graph6 streams.

The census counts each connected graph by the exact classification of
its full-support fixed points (atom_spectrum): the strictly positive
solutions of (A + I) x = 1, found in integer arithmetic, or none.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations
from typing import Iterable, Iterator, Optional

import numpy as np

from .io import FormatError

MAX_BUILTIN_N = 7

# graphs per stack the census pulls and screens for connectivity and domination
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
def graph6_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j of the pairs i < j in graph6 order: by j, then by i."""
    j, i = np.tril_indices(n, -1)
    return i, j


def graph6_adjacency(n: int, code: int) -> np.ndarray:
    """The symmetric 0/1 int8 adjacency matrix whose graph6 payload bits before padding read as code."""
    i, j = graph6_pairs(n)
    bits = f"{code:0{len(i)}b}"[: len(i)]  # the slice drops the lone "0" when there is no pair
    adj = np.zeros((n, n), dtype=np.int8)
    adj[i, j] = adj[j, i] = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
    return adj


def parse_graph6(line: str) -> np.ndarray:
    """Decode a single graph6 record into a symmetric 0/1 adjacency matrix."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 record")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"character {ch!r} outside graph6 alphabet")
    n, payload = ord(s[0]) - 63, s[1:]
    if n == 63:  # "~": n is the next three bytes, 6 bits each, or after "~~" the next six
        if s[1:2] == "~":
            raise FormatError("8-byte graph6 sizes (n > 258047) not supported")
        if len(s) < 4:
            raise FormatError("graph6 record ends inside its 4-byte size")
        n, payload = int("".join(f"{ord(ch) - 63:06b}" for ch in s[1:4]), 2), s[4:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(payload) != expected:
        raise FormatError(
            f"graph6 payload has {len(payload)} bytes, expected {expected} for n={n}"
        )
    bits = "".join(f"{ord(ch) - 63:06b}" for ch in payload)
    return graph6_adjacency(n, int("0" + bits[:nbits], 2))


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


def canonical_form(n: int, codes: np.ndarray) -> np.ndarray:
    """Minimal code over all vertex permutations, for each code on n vertices.

    Exact for n <= 10 (_perm_matrix's float64 bound); the benchmark times each call.
    """
    bits = (codes[:, None] >> np.arange(n * (n - 1) // 2 - 1, -1, -1)) & 1
    return (bits @ _perm_matrix(n)).min(axis=1).astype(np.int64)


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
        seen.update(canonical_form(n, (parent << (n - 1)) | hoods).tolist())
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


# ---------------------------------------------------------------------------
# Atomic spectrum of a connected graph


class SpectrumKind(Enum):
    EMPTY = "empty"
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class SpectrumClassification:
    """Strictly positive solutions of (A + I) x = 1 on a connected graph.

    witness is an exact rational solution (None when empty); nullity is the
    dimension of the solution manifold; regular flags equal degrees.
    """

    kind: SpectrumKind
    witness: Optional[tuple[Fraction, ...]]
    nullity: int
    regular: bool


def _is_connected(adj) -> np.ndarray:
    """Per graph of a 0/1 stack (..., n, n): is it connected?

    Reachability from vertex 0 by repeated squaring of I + A, as booleans.
    After k squarings the matrix marks every pair joined by a walk of
    length at most 2^k, so ceil(log2(n - 1)) products reach every path.
    The empty graph is not connected.
    """
    n = adj.shape[-1]
    if n == 0:
        return np.zeros(adj.shape[:-2], dtype=bool)
    reach = (adj != 0) | np.eye(n, dtype=bool)
    for _ in range((n - 2).bit_length() if n > 1 else 0):
        reach = reach @ reach
    return reach[..., 0, :].all(axis=-1)


def _dominated(adj) -> np.ndarray:
    """Per graph of a symmetric 0/1 stack (..., n, n): is some N[i] strictly inside some N[j]?

    Such a graph has an EMPTY spectrum.  For any x > 0, (Bx)_j - (Bx)_i
    with B = A + I is the sum of x over the vertices of N[j] outside N[i],
    which is positive, so (Bx)_i and (Bx)_j cannot both equal 1.  Regular
    graphs never meet the condition.  The product of the closed
    neighbourhood matrix with itself counts |N[i] & N[j]|; N[i] lies
    inside N[j] iff that count equals |N[i]|, strictly iff also
    |N[i]| < |N[j]|.
    """
    closed = np.asarray(adj) != 0
    closed = (closed | np.eye(closed.shape[-1], dtype=bool)).astype(np.float64)
    shared = closed @ closed  # exact: counts of at most n
    size = np.diagonal(shared, axis1=-2, axis2=-1)[..., :, None]
    inside = (shared == size) & (size < np.swapaxes(size, -1, -2))
    return inside.any(axis=(-2, -1))


def _solve_exact(B: list[list[int]], rhs: list[int]):
    """Fraction-free Gauss-Jordan of the square integer system [B | rhs].

    Each row update is p * row - f * pivot_row, divided by the gcd of its
    entries, so every number stays an exact Python int.  Returns
    (consistent, P, K, L): the solutions are x = (P + K z) / L over all
    rational z, where P is the particular solution with the free
    variables at 0, each kernel vector in K sets one free variable to L,
    and L > 0 is the least common multiple of the pivots.  The solution is
    unique iff the system is consistent and K is empty.
    """
    n = len(B)
    aug = [row + [b] for row, b in zip(B, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        top = aug[r]
        p = top[c]
        for i in range(n):
            f = aug[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(aug[i], top)]
                g = math.gcd(*row)
                aug[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == n:
            break
    # rows below the rank have zero coefficients; they must have zero rhs
    consistent = all(aug[i][n] == 0 for i in range(r, n))
    L = math.lcm(*(aug[row][c] for row, c in enumerate(pivots)))
    scale = [L // aug[row][c] for row, c in enumerate(pivots)]
    P = [0] * n
    for row, c in enumerate(pivots):
        P[c] = aug[row][n] * scale[row]
    K = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[f] = L
        for row, c in enumerate(pivots):
            vec[c] = -aug[row][f] * scale[row]
        K.append(vec)
    return consistent, P, K, L


def _positive_point(particular, kernel, denominator):
    """Exact strictly positive solution of B x = 1, or None.

    Solutions are x = (P + K z) / L with P = particular, K = kernel and
    L = denominator as _solve_exact returns them, and the nonnegative ones
    form the polytope Q = {z : P + K z >= 0}.  Q is bounded: B = A + I has
    nonnegative entries and a unit diagonal, so x >= 0 gives
    x_i <= (Bx)_i = 1, and K has full column rank.  All vertices of Q are
    enumerated exactly, each the unique solution of d of its n rows held
    tight, solved by _solve_exact and tested by integer cross-multiplication;
    each vertex is kept in x-space as a gcd-reduced integer tuple.  Each
    coordinate x_i is affine and nonnegative on Q, hence it vanishes at the
    vertex centroid iff it vanishes on all of Q; the centroid therefore
    decides strict positivity and doubles as the witness.  It does not
    depend on how K is scaled, and it is the only place Fractions are
    built.  With an empty kernel Q is one point and the witness is P / L.
    """
    d = len(kernel)
    n = len(particular)
    # x_i = 0 held tight as row i of K z = -P
    rows = [[kernel[k][i] for k in range(d)] for i in range(n)]
    vertices = set()
    for combo in combinations(range(n), d):
        consistent, z, null, scale = _solve_exact(
            [rows[i] for i in combo], [-particular[i] for i in combo]
        )
        if not consistent or null:
            continue
        # the vertex is z / scale; num is L * scale * x there, so x >= 0
        # (the vertex lies in Q) iff num >= 0
        num = [
            particular[i] * scale + sum(a * zk for a, zk in zip(rows[i], z))
            for i in range(n)
        ]
        if all(a >= 0 for a in num):
            den = denominator * scale
            g = math.gcd(den, *num)
            vertices.add((den // g, *(a // g for a in num)))
    if not vertices:
        return None
    den = math.lcm(*(v[0] for v in vertices))
    sums = [0] * n
    for v in vertices:
        m = den // v[0]
        for i in range(n):
            sums[i] += v[i + 1] * m
    if all(s > 0 for s in sums):
        return [Fraction(s, den * len(vertices)) for s in sums]
    return None


def atom_spectrum(adjacency) -> SpectrumClassification:
    """Classify the full-support fixed points of the unweighted map.

    Solves (A + I) x = 1, x > 0 exactly, in Python-int arithmetic
    (_solve_exact); Fractions are built only for the witness.  The
    solution set meets the positive orthant iff the centroid of the
    vertices of its nonnegative part is strictly positive (a single point
    when the system is nonsingular).  A regular graph skips that test: the
    uniform vector solves it and is the witness.  The kind is discrete for
    a unique solution and continuous otherwise.  A graph with one closed
    neighbourhood strictly inside another is EMPTY without a solve
    (_dominated).  Raises on disconnected input.
    """
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    n = adj.shape[0]
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if np.any(adj != adj.T) or np.any(np.diag(adj) != 0):
        raise ValueError("adjacency must be symmetric with zero diagonal")
    if np.any((adj != 0) & (adj != 1)):
        raise ValueError("adjacency entries must be 0 or 1")
    if not _is_connected(adj):
        raise ValueError("graph must be connected")

    degs = adj.sum(axis=1)
    regular = bool(np.all(degs == degs[0]))
    if _dominated(adj):
        return SpectrumClassification(SpectrumKind.EMPTY, None, 0, regular)

    B = [
        [int(a) + (i == j) for j, a in enumerate(row)]
        for i, row in enumerate(adj.tolist())
    ]
    consistent, particular, kernel, denominator = _solve_exact(B, [1] * n)
    if regular:
        # the uniform vector always normalizes a regular graph
        witness = [Fraction(1, int(degs[0]) + 1)] * n
    else:
        witness = _positive_point(particular, kernel, denominator) if consistent else None
    if witness is None:
        return SpectrumClassification(SpectrumKind.EMPTY, None, 0, regular)
    kind = SpectrumKind.CONTINUOUS if kernel else SpectrumKind.DISCRETE
    return SpectrumClassification(kind, tuple(witness), len(kernel), regular)


# ---------------------------------------------------------------------------
# Atomic census


def _tally(n: int, graphs: Iterable[np.ndarray]) -> tuple[CensusRow, int]:
    """Census row of 0/1 graphs on n vertices, and how many were disconnected.

    Graphs are pulled and screened in stacks of DOMINATION_BLOCK, by
    _is_connected and then _dominated; only connected, undominated ones,
    whose spectrum can be nonempty, reach atom_spectrum.
    """
    counts: Counter = Counter()
    total = skipped = 0
    graphs = iter(graphs)
    while block := list(islice(graphs, DOMINATION_BLOCK)):
        stack = np.stack(block)
        stack = stack[_is_connected(stack)]
        total += len(stack)
        skipped += len(block) - len(stack)
        for adj, dominated in zip(stack, _dominated(stack)):
            if not dominated:
                spectrum = atom_spectrum(adj)
                counts[spectrum.regular, spectrum.kind] += 1
    kinds = (SpectrumKind.DISCRETE, SpectrumKind.CONTINUOUS)
    return CensusRow(n, total, *(counts[r, k] for r in (False, True) for k in kinds)), skipped


def census(n: int) -> CensusRow:
    """Atomic census over the built-in enumeration (n <= 7)."""
    return _tally(n, connected_graphs_upto(n))[0]


def census_from_stream(lines: Iterable[str]) -> tuple[CensusRow, int]:
    """Atomic census over externally supplied graph6 records.

    Each record is decoded, and its order checked against the first's, as
    _tally pulls it, so no list is kept and the first bad record raises.
    Disconnected graphs are skipped and counted.  Returns (row, skipped).
    """
    records = (parse_graph6(line) for line in lines if line.strip())
    first = next(records, None)
    if first is None:
        return CensusRow(0, 0, 0, 0, 0, 0), 0
    n = first.shape[0]

    def same_order():
        yield first
        for adj in records:
            if adj.shape[0] != n:
                raise ValueError(f"mixed graph orders in stream: {adj.shape[0]} after {n}")
            yield adj

    return _tally(n, same_order())


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

