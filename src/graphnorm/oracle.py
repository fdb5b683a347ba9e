"""Exact small-instance solvers used as ground truth.

Branch-and-bound maximum-weight independent set, exhaustive maximal-IS
enumeration, the point each independent set carries on the weight-tilted
simplex {r >= 0 : sum sqrt(w_i) r_i = 1}, and the correspondence check
between stability scores and local minima there of the quadratic form
r' (I + gamma A) r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import mis_stability
from .graph import MisSolution, WeightedGraph, greedy_complete, member_mask

DESCENT_TOL = 1e-12
Q_MATCH_TOL = 1e-12
PROBE_MAGNITUDE = 1e-4

BRUTE_FORCE_LIMIT = 32
ENUMERATION_LIMIT = 24
CORRESPONDENCE_LIMIT = 16


def _neighbor_masks(g: WeightedGraph, order: Sequence[int]) -> list[int]:
    """Neighbourhood bitmasks in a vertex order: mask p is order[p]'s, bit q stands for order[q]."""
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(g.n)
    bits, ptr = pos[g.indices].tolist(), g.indptr.tolist()
    return [sum(1 << q for q in bits[ptr[i] : ptr[i + 1]]) for i in order]


def _mask_members(mask: int) -> np.ndarray:
    return np.array([i for i in range(mask.bit_length()) if mask >> i & 1], dtype=np.int64)


def brute_force_mwis(g: WeightedGraph) -> MisSolution:
    """Exact maximum-weight independent set, n <= 32.

    Depth-first branch and bound pruned by the weight sum of remaining
    candidates.  The optimum is maximal already for positive weights; a
    greedy completion runs anyway as a weight-neutral safeguard.
    """
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force supports n <= {BRUTE_FORCE_LIMIT}, got {n}")
    order = np.argsort(-g.w, kind="stable")  # heaviest first, ties to the smaller index
    wp = g.w[order].tolist()
    nbr = _neighbor_masks(g, order)

    best_w = -1.0
    best_mask = 0

    def mask_weight(mask: int) -> float:
        s = 0.0
        while mask:
            low = mask & -mask
            s += wp[low.bit_length() - 1]
            mask ^= low
        return s

    def rec(cand: int, cand_w: float, cur_w: float, cur: int) -> None:
        nonlocal best_w, best_mask
        if cur_w + cand_w <= best_w:
            return
        if cand == 0:
            best_w, best_mask = cur_w, cur
            return
        low = cand & -cand
        vtx = low.bit_length() - 1
        removed = low | (cand & nbr[vtx])
        rec(cand ^ removed, cand_w - mask_weight(removed), cur_w + wp[vtx], cur | low)
        rec(cand ^ low, cand_w - wp[vtx], cur_w, cur)

    full = (1 << n) - 1
    rec(full, sum(wp), 0.0, 0)

    selected = member_mask(g, order[_mask_members(best_mask)])
    greedy_complete(g, selected)
    return MisSolution.from_members(g, np.flatnonzero(selected))


def enumerate_mises(g: WeightedGraph) -> list[MisSolution]:
    """All maximal independent sets, n <= 24.

    Recursive extension over the vertex order: each vertex is either added
    (when compatible) or must later be dominated; branches where a skipped
    vertex can no longer acquire a selected neighbor are pruned.  Adding is
    tried first, so of two sets the one holding the smallest vertex of their
    symmetric difference comes first; as neither contains the other, that
    is ascending order of the member tuples.
    """
    n = g.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supports n <= {ENUMERATION_LIMIT}, got {n}")
    nbr = _neighbor_masks(g, range(n))
    results: list[int] = []

    def rec(i: int, chosen: int, undominated: int) -> None:
        if i == n:
            if undominated == 0:
                results.append(chosen)
            return
        future = ~((1 << i) - 1)
        probe = undominated
        while probe:
            low = probe & -probe
            if nbr[low.bit_length() - 1] & future == 0:
                return  # a skipped vertex can never be dominated now
            probe ^= low
        bit = 1 << i
        if nbr[i] & chosen:
            rec(i + 1, chosen, undominated)
        else:
            rec(i + 1, chosen | bit, undominated & ~nbr[i])
            rec(i + 1, chosen, undominated | bit)

    rec(0, 0, 0)
    return [MisSolution.from_members(g, _mask_members(m)) for m in results]


def mis_simplex_point(g: WeightedGraph, members: Sequence[int]) -> np.ndarray:
    """Tilted-simplex point carried by an independent set: sqrt(w_i)/W on M."""
    mask = member_mask(g, members)
    r = np.zeros(g.n, dtype=np.float64)
    r[mask] = g.v[mask] / g.w[mask].sum()
    return r


@dataclass(frozen=True)
class MisCorrespondence:
    """Per-MIS record of the stability / local-minimum correspondence."""

    solution: MisSolution
    stab: float
    q_value: float
    q_matches: bool  # Q at the carried point equals 1/weight, within Q_MATCH_TOL/weight
    local_min_verified: bool  # no probe decreases Q by more than DESCENT_TOL/weight
    worst_descent: float  # most negative Q change seen over all probes


@dataclass(frozen=True)
class OracleReport:
    optimum: MisSolution
    mis_list: tuple[MisCorrespondence, ...]

    @property
    def violations(self) -> list[MisCorrespondence]:
        """Records contradicting the correspondence, marginal band excluded."""
        bad = []
        for rec in self.mis_list:
            if rec.stab > 1.05 and not rec.local_min_verified:
                bad.append(rec)
            if rec.stab < 0.95 and rec.local_min_verified:
                bad.append(rec)
        return bad


def _tangent_probes(
    g: WeightedGraph, members: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Admissible tangent directions at the point carried by a MIS.

    Rows satisfy sum sqrt(w) * delta = 0, are nonnegative off the support
    (the boundary side), and have norm PROBE_MAGNITUDE.  The first rows are
    one deterministic probe per outside vertex, raising it against a
    sqrt(w)-proportional decrease over the members; the rest are random.
    """
    n = g.n
    inside = member_mask(g, members)
    outside = np.flatnonzero(~inside)
    sw = g.v
    sw_members = np.where(inside, sw, 0.0)
    W = float(g.w[members].sum())

    def retilt(D: np.ndarray) -> None:
        # push the sqrt(w)-tilt of each row back into the member coordinates;
        # sw_members is 0 off M, so the other columns lose an exact 0
        D -= np.outer(D @ sw, sw_members) / W

    k = len(outside)
    D = np.zeros((k + count, n))
    D[np.arange(k), outside] = 1.0
    D[:k, members] = np.outer(sw[outside] / W, -sw[members])
    rng.standard_normal(out=D[k:])
    D[k:, outside] = np.abs(D[k:, outside])
    retilt(D)
    norms = np.linalg.norm(D, axis=1)
    keep = norms > 1e-9
    if not keep.all():
        D, norms = D[keep], norms[keep]  # drop draws with no tangent component left
    D *= (PROBE_MAGNITUDE / norms)[:, None]
    retilt(D)  # kill the roundoff tilt amplified by the rescale
    return D


def correspondence_check(
    g: WeightedGraph, gamma: float, perturbations: int, seed: int = 0
) -> OracleReport:
    """Check every MIS against the tilted-simplex local-minimum picture.

    For each maximal independent set of weight W: the stability score, the
    quadratic form value at its carried point r (expected 1/W), and a local
    minimality probe over admissible tangent directions of norm
    PROBE_MAGNITUDE * |r|, where |r| = 1/sqrt(W).  The tolerances are
    Q_MATCH_TOL/W and DESCENT_TOL/W, so no flag depends on the weight scale.
    """
    if g.n == 0:
        raise ValueError("correspondence check needs at least one vertex: the empty set carries no simplex point")
    if g.n > CORRESPONDENCE_LIMIT:
        raise ValueError(f"correspondence check supports n <= {CORRESPONDENCE_LIMIT}")
    if not 1.0 < gamma < math.inf:
        raise ValueError("correspondence check requires a finite gamma > 1")
    if perturbations < 0:
        raise ValueError("perturbations must be nonnegative")
    rng = np.random.default_rng(seed)
    B = gamma * g.adjacency().toarray()
    np.fill_diagonal(B, 1.0)

    records = []
    for sol in enumerate_mises(g):
        members = np.asarray(sol.members, dtype=np.int64)
        stab = mis_stability(g, sol, gamma)
        r = mis_simplex_point(g, members)
        # r is 0 off M and (Br)_i = r_i on M, so r.Br multiplies the pairs
        # r.r + gamma r.Ar does, and its gamma r.Ar term is exactly 0
        Br = B @ r
        q = float(r @ Br)
        q_matches = abs(q - 1.0 / sol.weight) <= Q_MATCH_TOL / sol.weight
        D = _tangent_probes(g, members, perturbations, rng)
        if len(D):
            # exact expansion at the scale s = |r|: Q(r+sd) - Q(r) = 2s d.Br + s^2 d.Bd
            s = 1.0 / np.sqrt(sol.weight)
            delta_q = 2.0 * s * (D @ Br) + s * s * np.einsum("ij,ij->i", D, D @ B.T)
            worst = float(delta_q.min())
        else:
            worst = 0.0
        records.append(
            MisCorrespondence(
                solution=sol,
                stab=stab,
                q_value=q,
                q_matches=q_matches,
                local_min_verified=worst >= -DESCENT_TOL / sol.weight,
                worst_descent=worst,
            )
        )
    return OracleReport(optimum=brute_force_mwis(g), mis_list=tuple(records))
