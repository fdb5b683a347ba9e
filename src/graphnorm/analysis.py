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
from .graph import MisSolution, WeightedGraph, is_maximal_independent


def mis_stability(g: WeightedGraph, m: MisSolution, gamma: float) -> float:
    """Stability score of a maximal independent set.

    gamma * min over outside vertices i of sum_{j in N(i) cap M} sqrt(w_j/w_i).
    Scores above 1 mark asymptotically stable attractors.  Returns +inf when
    M covers every vertex (edgeless graphs), where the min runs over nothing.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    members = np.asarray(m.members, dtype=np.int64)
    if not is_maximal_independent(g, members):
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
    n = adj.shape[0]
    if n == 0:
        return False
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for w_ in np.flatnonzero(adj[u]):
            if not seen[w_]:
                seen[w_] = True
                stack.append(int(w_))
    return bool(seen.all())


def _solve_exact(B: list[list[Fraction]], rhs: list[Fraction]):
    """RREF of the square system [B | rhs] over the rationals.

    Returns (consistent, particular, kernel_basis); the solution is unique
    iff the system is consistent and the kernel basis is empty.
    """
    n = len(B)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(B)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [a / pv for a in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    consistent = all(
        aug[i][n] == 0 for i in range(r, n)
    )  # rows below rank must be fully zero
    particular = [Fraction(0)] * n
    for row, c in enumerate(pivots):
        particular[c] = aug[row][n]
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, c in enumerate(pivots):
            vec[c] = -aug[row][f]
        kernel.append(vec)
    return consistent, particular, kernel


def _positive_point(particular, kernel):
    """Exact strictly positive solution of B x = 1, or None.

    Solutions are x = x_p + N z, and the nonnegative ones form the polytope
    Q = {z : x_p + N z >= 0}.  Q is bounded: B = A + I has nonnegative
    entries and a unit diagonal, so x >= 0 gives x_i <= (Bx)_i = 1, and N
    has full column rank.  All vertices of Q are enumerated exactly, each
    the unique solution of d of its n rows held tight.  Each coordinate x_i
    is affine and nonnegative on Q, hence it vanishes at the vertex
    centroid iff it vanishes on all of Q; the centroid therefore decides
    strict positivity and doubles as the witness.  With an empty kernel Q
    is one point and the witness is x_p itself.
    """
    d = len(kernel)
    n = len(particular)
    # x_i >= 0 as a . z <= b with a = -N_i, b = x_p,i
    rows = [([-kernel[k][i] for k in range(d)], particular[i]) for i in range(n)]
    vertices = set()
    for combo in combinations(rows, d):
        consistent, z, null = _solve_exact([a for a, _ in combo], [b for _, b in combo])
        if not consistent or null:
            continue
        if all(sum(ak * zk for ak, zk in zip(a, z)) <= b for a, b in rows):
            vertices.add(tuple(z))
    if not vertices:
        return None
    center = [
        sum(v[k] for v in vertices) / len(vertices) for k in range(d)
    ]
    x = [
        particular[i] + sum(kernel[k][i] * center[k] for k in range(d))
        for i in range(n)
    ]
    if all(xi > 0 for xi in x):
        return x
    return None


def atom_spectrum(adjacency) -> SpectrumClassification:
    """Classify the full-support fixed points of the unweighted map.

    Solves (A + I) x = 1, x > 0 with exact rational arithmetic.  The
    solution set meets the positive orthant iff the centroid of the
    vertices of its nonnegative part is strictly positive (a single point
    when the system is nonsingular); the kind is discrete for a unique
    solution and continuous otherwise.  Raises on disconnected input.
    """
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    n = adj.shape[0]
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if np.any(adj != adj.T) or np.any(np.diag(adj) != 0):
        raise ValueError("adjacency must be symmetric with zero diagonal")
    if not _is_connected(adj):
        raise ValueError("graph must be connected")

    degs = adj.sum(axis=1)
    regular = bool(np.all(degs == degs[0]))

    B = [
        [Fraction(int(adj[i, j]) + (1 if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    rhs = [Fraction(1)] * n
    consistent, particular, kernel = _solve_exact(B, rhs)
    witness = _positive_point(particular, kernel) if consistent else None
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
