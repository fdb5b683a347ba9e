"""Fixed-point diagnostics for the normalization dynamics.

Covers the stability score of a maximal independent set, the Jacobian
spectral radius at fixed points, exact classification of full-support
fractional fixed points on connected graphs, and evaluation of the
quadratic form on the weight-tilted simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .dynamics import gn_step, is_normalizable
from .graph import MisSolution, WeightedGraph


def mis_stability(g: WeightedGraph, m: MisSolution, gamma: float) -> float:
    """Stability score of a maximal independent set.

    gamma * min over outside vertices i of sum_{j in N(i) cap M} sqrt(w_j/w_i).
    Scores above 1 mark asymptotically stable attractors.  Returns +inf when
    M covers every vertex (edgeless graphs), where the min runs over nothing.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    members = np.asarray(m.members, dtype=np.int64)
    if not MisSolution.from_members(g, members).maximal:
        raise ValueError("solution is not a maximal independent set")
    mask = np.zeros(g.n, dtype=bool)
    mask[members] = True
    # one pass over the CSR entries (i, j) with i outside and j a member;
    # bincount adds each row's terms in neighbour order
    rows = np.repeat(np.arange(g.n), g.degrees())
    keep = ~mask[rows] & mask[g.indices]
    i, j = rows[keep], g.indices[keep]
    sums = np.bincount(i, weights=np.sqrt(g.w[j] / g.w[i]), minlength=g.n)
    outside = sums[~mask]
    return gamma * float(outside.min()) if outside.size else math.inf


def fixed_point_residual(g: WeightedGraph, x: np.ndarray, gamma: float) -> float:
    """Infinity-norm distance between x and its image under the map."""
    x = np.asarray(x, dtype=np.float64)
    if not is_normalizable(g, x):
        raise ValueError("state is not normalizable")
    return float(np.max(np.abs(x - gn_step(g, x, gamma)))) if g.n else 0.0


def _weighted_closed_operator(g: WeightedGraph, gamma: float) -> np.ndarray:
    """Dense I + gamma * diag(v)^-1 A diag(v)."""
    B = gamma * g.adjacency().toarray() * np.outer(1.0 / g.v, g.v)
    np.fill_diagonal(B, 1.0)
    return B


def jacobian_spectral_radius(g: WeightedGraph, x: np.ndarray, gamma: float) -> float:
    """Spectral radius of the map's Jacobian at a fixed point.

    J_ij = (delta_ij - x_i B_ij) / (Bx)_i with B the weighted regularized
    closed adjacency operator.  Requires fixed_point_residual(x) < 1e-8.
    The radius comes from a dense eigensolve, exact at every size, at
    O(n^2) memory and O(n^3) time.  At the indicator of a maximal
    independent set M the radius is 1 / mis_stability(g, M, gamma), which
    costs O(n + m); ask that question at scale.
    """
    x = np.asarray(x, dtype=np.float64)
    if fixed_point_residual(g, x, gamma) >= 1e-8:
        raise ValueError("state is not a fixed point (residual >= 1e-8)")
    Bx = x + gamma * (g.adjacency() @ (g.v * x)) / g.v
    B = _weighted_closed_operator(g, gamma)
    J = (np.eye(g.n) - x[:, None] * B) / Bx[:, None]
    return float(np.max(np.abs(np.linalg.eigvals(J))))


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


def _is_connected(adj: np.ndarray) -> bool:
    """Reachability from vertex 0 by repeated squaring of I + A, as booleans.

    After k squarings the matrix marks every pair joined by a walk of
    length at most 2^k, so ceil(log2(n - 1)) products reach every path.
    The empty graph is not connected.
    """
    n = adj.shape[0]
    if n == 0:
        return False
    reach = (adj != 0) | np.eye(n, dtype=bool)
    for _ in range((n - 2).bit_length() if n > 1 else 0):
        reach = reach @ reach
    return bool(reach[0].all())


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
    when the system is nonsingular); the kind is discrete for a unique
    solution and continuous otherwise.  A graph with one closed
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
    witness = _positive_point(particular, kernel, denominator) if consistent else None
    if witness is None:
        return SpectrumClassification(SpectrumKind.EMPTY, None, 0, regular)
    if regular:
        # the uniform vector always normalizes a regular graph
        witness = [Fraction(1, int(degs[0]) + 1)] * n
    kind = SpectrumKind.CONTINUOUS if kernel else SpectrumKind.DISCRETE
    return SpectrumClassification(kind, tuple(witness), len(kernel), regular)


# ---------------------------------------------------------------------------
# Weight-tilted simplex quadratic form

SIMPLEX_TOL = 1e-9


def tilted_simplex_q(g: WeightedGraph, r: Sequence[float], gamma: float) -> float:
    """Evaluate r' (I + gamma A) r on the weight-tilted simplex.

    Membership (r >= 0 and sum sqrt(w_i) r_i = 1 within 1e-9) is enforced.
    At the point carried by a maximal independent set M the value is
    1 / weight(M).
    """
    r = np.asarray(r, dtype=np.float64)
    if len(r) != g.n:
        raise ValueError(f"vector has length {len(r)}, expected {g.n}")
    if np.any(r < 0):
        raise ValueError("tilted-simplex membership violated: negative entry")
    s = float(g.v @ r)
    if abs(s - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"tilted-simplex membership violated: sum {s!r}")
    return float(r @ r + gamma * (r @ (g.adjacency() @ r)))


def mis_simplex_point(g: WeightedGraph, members: Sequence[int]) -> np.ndarray:
    """Tilted-simplex point carried by an independent set: sqrt(w_i)/W on M."""
    idx = np.asarray(members, dtype=np.int64)
    W = float(g.w[idx].sum())
    r = np.zeros(g.n, dtype=np.float64)
    r[idx] = g.v[idx] / W
    return r
