"""Loop reference implementations: graph layer, trajectory, solver, small-graph codes, exact layer, stability.

Deliberately plain: each function is the straightforward per-vertex,
per-line or per-bit loop the package's array code must agree with, bit
for bit and message for message.  The differential tests in
test_reference.py and test_solver_cli.py compare the two; nothing in
the package imports this module.

The last section holds checks that no program path needs, against which
tests hold kept package code: the dense Jacobian radius at a fixed point
(1/mis_stability at an MIS indicator), the tilted-simplex quadratic form
(correspondence_check's q_value, bit for bit), the reader of
write_result's JSON (for the write -> parse -> write round trip), and the
graph6 code of an adjacency matrix (graph6_adjacency's inverse), with
which canonical_code puts one graph through the package's batched
canonical_form.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from graphnorm import enumeration
from graphnorm.dynamics import (
    FALLBACK_VALUE,
    NormalizationError,
    SolveTrace,
    _checked_gamma,
    energy,
    gn_step,
    init_random,
    init_warm,
    is_normalizable,
    weighted_mass,
)
from graphnorm.enumeration import SpectrumClassification, SpectrumKind
from graphnorm.graph import GraphError, MisSolution, WeightedGraph
from graphnorm.io import FormatError, SolveResult, StartRecord, graph6_pairs
from graphnorm.oracle import PROBE_MAGNITUDE


def csr_lists(n, edges):
    """(indptr, indices) as int64 arrays from a set of tuples and per-row sorts."""
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))

    deg = np.zeros(n + 1, dtype=np.int64)
    for u, v in seen:
        deg[u + 1] += 1
        deg[v + 1] += 1
    indptr = np.cumsum(deg)
    indices = np.empty(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    for u, v in sorted(seen):
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    for i in range(n):
        indices[indptr[i] : indptr[i + 1]].sort()
    return indptr, indices


def build_graph(n, edges, weights) -> WeightedGraph:
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise GraphError(f"expected {n} weights, got {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        bad = int(np.argmin(np.where(np.isfinite(w), w, -np.inf)))
        raise GraphError(f"weight of vertex {bad} must be positive and finite, got {w[bad]}")
    if not math.isfinite(sum(w.tolist())):
        raise GraphError("total weight overflows float64, so objectives would not be finite")
    indptr, indices = csr_lists(n, edges)
    return WeightedGraph(n, indptr, indices, w)


def edges(g):
    """Edges (u, v) with u < v, ascending, one row at a time."""
    out = []
    for u in range(g.n):
        for v in g.neighbors(u):
            if v > u:
                out.append((u, int(v)))
    return out


def _members(g, members):
    idx = np.fromiter((int(i) for i in members), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= g.n):
        raise GraphError(f"vertex index outside [0,{g.n})")
    return np.unique(idx)


def is_independent(g, members) -> bool:
    idx = _members(g, members)
    mask = np.zeros(g.n, dtype=bool)
    mask[idx] = True
    for i in idx:
        if mask[g.neighbors(i)].any():
            return False
    return True


def is_maximal_independent(g, members) -> bool:
    if not is_independent(g, members):
        return False
    mask = np.zeros(g.n, dtype=bool)
    mask[_members(g, members)] = True
    for i in range(g.n):
        if not mask[i] and not mask[g.neighbors(i)].any():
            return False
    return True


def mis_solution(g, members) -> MisSolution:
    idx = _members(g, members)
    return MisSolution(
        members=tuple(int(i) for i in idx),
        weight=float(g.w[idx].sum()),
        independent=is_independent(g, idx),
        maximal=is_maximal_independent(g, idx),
    )


def round_to_mis(g, x) -> MisSolution:
    """Threshold, repair every conflict in vertex order, complete greedily."""
    x = np.asarray(x, dtype=np.float64)
    selected = x >= 0.5
    for u in range(g.n):
        if not selected[u]:
            continue
        for vtx in g.neighbors(u):
            vtx = int(vtx)
            if vtx <= u or not selected[vtx]:
                continue
            if g.w[u] < g.w[vtx] or (g.w[u] == g.w[vtx] and u < vtx):
                selected[u] = False
                break
            selected[vtx] = False
    order = sorted(range(g.n), key=lambda i: (-g.w[i], i))
    for i in order:
        if not selected[i] and not selected[g.neighbors(i)].any():
            selected[i] = True
    return mis_solution(g, np.flatnonzero(selected))


def parse_instance(text: str) -> WeightedGraph:
    """The line-at-a-time instance parser."""
    n = None
    m = None
    weights: dict[int, float] = {}
    edge_list: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "p":
                if len(parts) != 4 or parts[1] != "mwis":
                    raise FormatError(f"line {lineno}: malformed problem line {line!r}")
                if n is not None:
                    raise FormatError(f"line {lineno}: duplicate problem line")
                n, m = int(parts[2]), int(parts[3])
            elif kind == "n":
                if n is None:
                    raise FormatError(f"line {lineno}: weight line before problem line")
                if len(parts) != 3:
                    raise FormatError(f"line {lineno}: malformed weight line {line!r}")
                vid = int(parts[1])
                if not 1 <= vid <= n:
                    raise FormatError(f"line {lineno}: vertex id {vid} outside 1..{n}")
                if vid in weights:
                    raise FormatError(f"line {lineno}: duplicate weight for vertex {vid}")
                weight = float(parts[2])
                if not 0 < weight < math.inf:
                    raise FormatError(f"line {lineno}: weight of vertex {vid} must be positive and finite, got {weight}")
                weights[vid] = weight
            elif kind == "e":
                if n is None:
                    raise FormatError(f"line {lineno}: edge line before problem line")
                if len(parts) != 3:
                    raise FormatError(f"line {lineno}: malformed edge line {line!r}")
                u, v = int(parts[1]), int(parts[2])
                if not (1 <= u <= n and 1 <= v <= n):
                    raise FormatError(f"line {lineno}: edge ({u},{v}) outside 1..{n}")
                if u == v:
                    raise FormatError(f"line {lineno}: self-loop at vertex {u}")
                edge_list.append((u - 1, v - 1))
            else:
                raise FormatError(f"line {lineno}: unknown line type {kind!r}")
        except ValueError as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: cannot parse number in {line!r}") from exc
    if n is None:
        raise FormatError("missing problem line")
    if len(edge_list) != m:
        raise FormatError(f"problem line declares {m} edges, file has {len(edge_list)}")
    missing = [vid for vid in range(1, n + 1) if vid not in weights]
    if missing:
        raise FormatError(f"missing weight for vertex {missing[0]}")
    w = [weights[vid] for vid in range(1, n + 1)]
    try:
        return build_graph(n, edge_list, w)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def write_instance(g, comment=None) -> str:
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"c {c}")
    lines.append(f"p mwis {g.n} {g.num_edges}")
    for i in range(g.n):
        lines.append(f"n {i + 1} {float(g.w[i])!r}")
    for u, v in edges(g):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def v_exponent(g, gamma_hi, top):
    """The power of two k that v is scaled by before a step forms y = (2**k * v) * x.

    With e(z) frexp's exponent: max(2**k * v) lies below 2**target, target
    = min(256, 1022 - e(gamma_hi * n)), unless 2**k * min(v) would then be
    subnormal, when k is 0.  A state whose max top exceeds 1 takes e(top)
    more off, but k stays at or above the least exponent that keeps
    2**k * min(v) normal, unless that exponent would take n * max(2**k * v)
    * top to 2**1022 or beyond, where y or A*y could overflow: then k stays
    at or above the largest exponent that keeps it below.
    """
    if g.n == 0:
        return 0
    # e(gamma_hi * n) of the exact product, halving gamma_hi while the
    # float product overflows
    halvings = 0
    while gamma_hi * g.n == math.inf:
        gamma_hi /= 2.0
        halvings += 1
    target = min(256, 1022 - (math.frexp(gamma_hi * g.n)[1] + halvings))
    smallest = min(float(vi) for vi in g.v)
    largest = max(float(vi) for vi in g.v)
    floor = -2200  # below every v's: v = sqrt(w) is at least 2**-537
    while math.ldexp(smallest, floor) < 2.0**-1022:
        floor += 1
    k = target - math.frexp(largest)[1]
    if k < floor:
        k = 0
    if top > 1.0:
        # the largest k with n * max(2**k * v) * top below 2**1022
        cap = 1022 - math.frexp(g.n)[1] - math.frexp(largest)[1] - math.frexp(top)[1]
        k = max(k - math.frexp(top)[1], min(floor, cap))
    return k


def step(g, x, gamma, k):
    """One normalization step from y = (2**k * v) * x, which the map does not depend on; returns (new state, fallback count)."""
    y = np.ldexp(g.v, k) * x
    d = y + gamma * (g.adjacency() @ y)
    ok = d > 0.0
    out = np.where(ok, y / np.where(ok, d, 1.0), FALLBACK_VALUE)
    return out, int(g.n - np.count_nonzero(ok))


def run_wrgn(g, x0, schedule, record_trace=False, early_exit=False):
    """The trajectory loop calling energy() and weighted_mass() on every traced step.

    Every run records each step's fallback count; only a traced run
    records gamma, the step infinity-norm, the energies and the mass.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (g.n,):
        raise NormalizationError(f"start has shape {x.shape}, expected {(g.n,)}")
    if not np.all(np.isfinite(x)):
        raise NormalizationError("state entries must be finite")
    if np.any(x < 0.0):
        raise NormalizationError("state entries must be nonnegative")
    if not is_normalizable(g, x):
        raise NormalizationError("initial state has a zero closed neighborhood sum")

    trace = SolveTrace()
    final_gamma = schedule.final_gamma
    # every state after the start lies in [0, 1], so shares one exponent
    gamma_hi = max(schedule.gamma0, schedule.gamma1)
    first, rest = v_exponent(g, gamma_hi, float(np.max(x, initial=0.0))), v_exponent(g, gamma_hi, 1.0)
    prev_gamma = None
    prev_energy = None
    for k in range(schedule.iterations):
        gamma = schedule.gamma_at(k)
        if record_trace:
            # at unchanged gamma the pre-step energy is the previous
            # post-step energy, bit for bit
            if gamma == prev_gamma:
                trace.pre_energy.append(prev_energy)
            else:
                trace.pre_energy.append(energy(g, x, gamma))
        x_new, nfb = step(g, x, gamma, rest if k else first)
        step_inf = float(np.max(np.abs(x_new - x))) if g.n else 0.0
        trace.fallbacks.append(nfb)
        if record_trace:
            trace.gamma.append(gamma)
            trace.step_inf.append(step_inf)
        # before the traced values: energy() and weighted_mass() reject a
        # non-finite state with their own message
        if not np.all(np.isfinite(x_new)):
            raise NormalizationError(f"non-finite state at iteration {k}")
        if record_trace:
            prev_energy = energy(g, x_new, gamma)
            prev_gamma = gamma
            trace.energy.append(prev_energy)
            trace.mass.append(weighted_mass(g, x_new))
        x = x_new
        if early_exit and gamma == final_gamma and step_inf < 1e-12:
            break
    np.clip(x, 0.0, 1.0, out=x)
    return x, trace


def solve_instance(g, instance_name, config, warm_starts=None, reference_objective=None):
    """The multi-start solve run serially, one start after another, in order.

    Returns the result and each start's trace, keyed by start id.  Wall
    times are 0; compare results with them blanked.
    """
    schedule = config.schedule()
    if warm_starts:
        starts = [(f"warm-{i}", init_warm(vec, g.n)) for i, vec in enumerate(warm_starts)]
    else:
        starts = [
            (f"seed-{config.seed}.{i}", init_random(g.n, [config.seed, i]))
            for i in range(config.starts)
        ]
    records = []
    traces = {}
    for start_id, x0 in starts:
        x, trace = run_wrgn(g, x0, schedule, record_trace=config.trace)
        traces[start_id] = trace
        sol = round_to_mis(g, x)
        records.append(
            StartRecord(start_id, sol.weight, sol.independent, sol.maximal, len(trace), 0.0)
        )
    schedule_info = {
        "gamma0": config.gamma0,
        "gamma1": config.gamma1,
        "iterations": config.iterations,
        "mode": "constant" if config.gamma0 == config.gamma1 else "linear",
    }
    return solve_result(instance_name, g, records, schedule_info, reference_objective), traces


def solve_result(instance_name, g, records, schedule_info, reference_objective=None) -> SolveResult:
    """A solve's result from its start records: the best objective (0.0 over no start), and a gap to a positive reference."""
    best = None
    for rec in records:
        if best is None or rec.objective > best:
            best = rec.objective
    if best is None:
        best = 0.0
    gap = None
    if reference_objective is not None and reference_objective > 0:
        gap = (reference_objective - best) / reference_objective * 100.0
    return SolveResult(
        instance=instance_name,
        n=g.n,
        edges=g.num_edges,
        starts=tuple(records),
        best_objective=best,
        schedule=schedule_info,
        reference_objective=reference_objective,
        gap_percent=gap,
    )


# ---------------------------------------------------------------------------
# Small-graph codes: row-major canonical forms, augmentation, graph6 bit loops


def canonical_form(adj) -> int:
    """Minimal row-major upper-triangle bitstring over all vertex permutations."""
    adj = np.asarray(adj, dtype=np.int64)
    n = adj.shape[0]
    if n <= 1:
        return 0
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    iu, ju = np.triu_indices(n, k=1)
    permuted = adj[perms[:, :, None], perms[:, None, :]]
    bits = permuted[:, iu, ju]
    weights = 1 << np.arange(len(iu) - 1, -1, -1, dtype=np.int64)
    return int((bits @ weights).min())


def adjacency_from_canonical(n, code):
    """The adjacency matrix of a row-major canonical code."""
    adj = np.zeros((n, n), dtype=np.int8)
    iu, ju = np.triu_indices(n, k=1)
    nbits = len(iu)
    for k in range(nbits):
        if (code >> (nbits - 1 - k)) & 1:
            adj[iu[k], ju[k]] = adj[ju[k], iu[k]] = 1
    return adj


@lru_cache(maxsize=None)
def connected_codes(n):
    """Row-major canonical codes of the connected graphs on n vertices, by augmentation."""
    if n == 1:
        return (0,)
    seen = set()
    for parent_code in connected_codes(n - 1):
        parent = adjacency_from_canonical(n - 1, parent_code)
        child = np.zeros((n, n), dtype=np.int8)
        child[: n - 1, : n - 1] = parent
        for hood in range(1, 1 << (n - 1)):
            child[n - 1, : n - 1] = 0
            child[: n - 1, n - 1] = 0
            for j in range(n - 1):
                if (hood >> j) & 1:
                    child[n - 1, j] = child[j, n - 1] = 1
            seen.add(canonical_form(child))
    return tuple(sorted(seen))


def parse_graph6(line):
    """The graph6 reader, one character and one bit at a time."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 record")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"character {ch!r} outside graph6 alphabet")
    n, size = ord(s[0]) - 63, 1
    if n == 63:
        if len(s) > 1 and s[1] == "~":
            raise FormatError("8-byte graph6 sizes (n > 258047) not supported")
        if len(s) < 4:
            raise FormatError("graph6 record ends inside its 4-byte size")
        n, size = 0, 4
        for ch in s[1:4]:
            n = n * 64 + ord(ch) - 63
    payload = s[size:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(payload) != expected:
        raise FormatError(
            f"graph6 payload has {len(payload)} bytes, expected {expected} for n={n}"
        )
    bits = []
    for ch in payload:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    adj = np.zeros((n, n), dtype=np.int8)
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i, j] = adj[j, i] = 1
            k += 1
    return adj


def write_graph6(adj):
    """The graph6 writer, one bit at a time."""
    adj = np.asarray(adj)
    n = adj.shape[0]
    if n > 258047:
        raise FormatError("graph6 writer supports n <= 258047")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(int(adj[i, j]))
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)] if n <= 62 else ["~"] + [chr((n >> shift) % 64 + 63) for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# Exact layer: a rational RREF, the boxed polytope, a square solver, a per-probe loop


def solve_exact(B, rhs):
    """RREF of the square system [B | rhs] over the rationals.

    Returns (consistent, particular, kernel_basis); the solution is unique
    iff the system is consistent and the kernel basis is empty.
    """
    n = len(B)
    aug = [[Fraction(a) for a in row] + [Fraction(rhs[i])] for i, row in enumerate(B)]
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
    consistent = all(aug[i][n] == 0 for i in range(r, n))
    particular = [Fraction(0)] * n
    for row, c in enumerate(pivots):
        particular[c] = aug[row][n]
    kernel = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, c in enumerate(pivots):
            vec[c] = -aug[row][f]
        kernel.append(vec)
    return consistent, particular, kernel


def solve_square(M, rhs):
    """Solve a square rational system; None when singular."""
    d = len(rhs)
    aug = [list(M[i]) + [rhs[i]] for i in range(d)]
    for c in range(d):
        pivot = next((r for r in range(c, d) if aug[r][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [a / pv for a in aug[c]]
        for r in range(d):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [aug[i][d] for i in range(d)]


def positive_point(particular, kernel):
    """Centroid of the vertices of {z : 0 <= x_p + N z <= 1}, if strictly positive."""
    d = len(kernel)
    n = len(particular)
    rows = []  # constraints a . z <= b
    for i in range(n):
        a = [kernel[k][i] for k in range(d)]
        rows.append(([-ak for ak in a], particular[i]))  # x_i >= 0
        rows.append((a, 1 - particular[i]))  # x_i <= 1
    vertices = set()
    for combo in combinations(range(len(rows)), d):
        z = solve_square([rows[j][0] for j in combo], [rows[j][1] for j in combo])
        if z is None:
            continue
        if all(sum(ak * zk for ak, zk in zip(a, z)) <= b for a, b in rows):
            vertices.add(tuple(z))
    if not vertices:
        return None
    center = [sum(v[k] for v in vertices) / len(vertices) for k in range(d)]
    x = [
        particular[i] + sum(kernel[k][i] * center[k] for k in range(d))
        for i in range(n)
    ]
    if all(xi > 0 for xi in x):
        return x
    return None


def is_connected(adj) -> bool:
    """Depth-first search from vertex 0, one neighbour row at a time; False when empty."""
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


def atom_spectrum(adj) -> SpectrumClassification:
    """Classification of a connected graph: empty, unique solution, or the polytope."""
    adj = np.asarray(adj)
    n = adj.shape[0]
    degs = adj.sum(axis=1)
    regular = bool(np.all(degs == degs[0]))
    B = [
        [Fraction(int(adj[i, j]) + (1 if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    consistent, particular, kernel = solve_exact(B, [Fraction(1)] * n)
    if not consistent:
        return SpectrumClassification(SpectrumKind.EMPTY, None, 0, regular)
    if not kernel:
        if all(c > 0 for c in particular):
            return SpectrumClassification(
                SpectrumKind.DISCRETE, tuple(particular), 0, regular
            )
        return SpectrumClassification(SpectrumKind.EMPTY, None, 0, regular)
    witness = positive_point(particular, kernel)
    if witness is not None:
        if regular:
            witness = [Fraction(1, int(degs[0]) + 1)] * n
        return SpectrumClassification(
            SpectrumKind.CONTINUOUS, tuple(witness), len(kernel), regular
        )
    return SpectrumClassification(SpectrumKind.EMPTY, None, 0, regular)


def tangent_probes(g, members, count, rng):
    """One row per outside vertex, then one standard_normal(n) draw per random probe."""
    n = g.n
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    outside = np.flatnonzero(~inside)
    sw = g.v
    W = float(g.w[members].sum())

    def retilt(D):
        tilt = D @ sw
        D[:, members] -= np.outer(tilt, sw[members]) / W

    probes = []
    for i in outside:
        d = np.zeros(n)
        d[i] = 1.0
        d[members] = -sw[members] * (sw[i] / W)
        probes.append(d)
    for _ in range(count):
        d = rng.standard_normal(n)
        d[outside] = np.abs(d[outside])
        probes.append(d)
    D = np.array(probes) if probes else np.zeros((0, n))
    retilt(D)
    norms = np.linalg.norm(D, axis=1)
    D = D[norms > 1e-9]
    norms = norms[norms > 1e-9]
    D *= (PROBE_MAGNITUDE / norms)[:, None]
    retilt(D)
    return D


def mis_stability(g, m, gamma) -> float:
    """gamma times the min over outside vertices of an np.sum over its member neighbours."""
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    members = np.asarray(m.members, dtype=np.int64)
    if not is_maximal_independent(g, members):
        raise ValueError("solution is not a maximal independent set")
    mask = np.zeros(g.n, dtype=bool)
    mask[members] = True
    best = math.inf
    for i in range(g.n):
        if mask[i]:
            continue
        nb = g.neighbors(i)
        s = float(np.sum(g.v[nb[mask[nb]]])) / float(g.v[i])  # Python floats: an overflow is inf, silently
        best = min(best, s)
    return gamma * best if best < math.inf else math.inf


# ---------------------------------------------------------------------------
# Checks no program path needs: fixed-point residual and Jacobian radius,
# tilted-simplex quadratic form, result reader, graph6 code


def fixed_point_residual(g: WeightedGraph, x: np.ndarray, gamma: float) -> float:
    """Infinity-norm distance between x and its image under the map."""
    gamma = _checked_gamma(gamma)
    x = np.asarray(x, dtype=np.float64)
    if not is_normalizable(g, x):
        raise ValueError("state is not normalizable")
    return float(np.max(np.abs(x - gn_step(g, x, gamma)))) if g.n else 0.0


def jacobian_spectral_radius(g: WeightedGraph, x: np.ndarray, gamma: float) -> float:
    """Spectral radius of the map's Jacobian at a fixed point.

    J_ij = (delta_ij - x_i B_ij) / (Bx)_i with B the weighted regularized
    closed adjacency operator.  Requires fixed_point_residual(x) < 1e-8.
    The radius comes from a dense eigensolve, exact at every size, at
    O(n^2) memory and O(n^3) time.  At the indicator of a maximal
    independent set M the radius is 1 / mis_stability(g, M, gamma), which
    costs O(n + m); ask that question at scale.
    """
    gamma = _checked_gamma(gamma)
    x = np.asarray(x, dtype=np.float64)
    if fixed_point_residual(g, x, gamma) >= 1e-8:
        raise ValueError("state is not a fixed point (residual >= 1e-8)")
    Bx = x + gamma * (g.adjacency() @ (g.v * x)) / g.v
    B = gamma * g.adjacency().toarray() * np.outer(1.0 / g.v, g.v)
    np.fill_diagonal(B, 1.0)
    J = (np.eye(g.n) - x[:, None] * B) / Bx[:, None]
    return float(np.max(np.abs(np.linalg.eigvals(J))))


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


def parse_result(text: str) -> SolveResult:
    """Read write_result's JSON; any other layout, or a missing or unknown key, raises FormatError."""
    try:
        obj = json.loads(text)
        return SolveResult(**{**obj, "starts": tuple(StartRecord(**s) for s in obj["starts"])})
    except (ValueError, KeyError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
        raise FormatError(f"malformed result JSON: {exc!r}") from exc


def graph6_code(adj: np.ndarray) -> int:
    """The graph6 payload bits before padding as one integer, first pair most significant."""
    i, j = graph6_pairs(len(adj))
    return int(b"0" + np.where(np.asarray(adj)[i, j], b"1", b"0").tobytes(), 2)


def canonical_code(adj) -> int:
    """The package's canonical form of one graph: enumeration.canonical_form on a one-code batch."""
    return int(enumeration.canonical_form(len(adj), np.array([graph6_code(adj)]))[0])
