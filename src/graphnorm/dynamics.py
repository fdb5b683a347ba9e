"""Weighted regularized graph-normalization dynamics.

One step divides each coordinate by its weighted closed neighborhood sum,
with the neighbor contribution scaled by gamma and by the sqrt-weight
ratio.  Iterating with gamma rising through 1 drives the state to the
indicator of a maximal independent set while the energy decreases and the
weighted mass (the relaxed objective) increases at every step.

The stability score of a maximal independent set lives here too: the
inverse of the spectral radius of the map's Jacobian at the set's
indicator, computed in O(n + m).  Every function that takes a gamma
requires it positive and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import MisSolution, WeightedGraph, greedy_complete, independence, member_mask, neighbor_sums

# Value taken where a closed-neighbourhood sum is exactly 0, outside the
# map's domain; from a normalizable start only underflow gets there.
FALLBACK_VALUE = 0.5

CLAMP_FLOOR = 1e-3


class NormalizationError(ValueError):
    """Raised when a state has a zero closed neighborhood sum."""


def _checked_gamma(gamma) -> float:
    """gamma as a float; raises ValueError unless it is positive and finite."""
    gamma = float(gamma)
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    return gamma


@dataclass(frozen=True)
class GammaSchedule:
    """Interpolation plan for the regularization parameter.

    gamma moves linearly from gamma0 at step 0 to gamma1 at the last
    step.  The mode is derived, not chosen: equal endpoints make the
    schedule "constant", which holds gamma0 exactly; any other pair is
    "linear".  Both endpoints are held as floats, positive and finite.
    """

    gamma0: float
    gamma1: float
    iterations: int
    mode: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma0", _checked_gamma(self.gamma0))
        object.__setattr__(self, "gamma1", _checked_gamma(self.gamma1))
        mode = "constant" if self.gamma0 == self.gamma1 else "linear"
        object.__setattr__(self, "mode", mode)
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if mode == "linear" and self.iterations < 2:
            raise ValueError("linear mode needs at least 2 iterations")

    @classmethod
    def constant(cls, gamma: float, iterations: int) -> "GammaSchedule":
        return cls(gamma, gamma, iterations)

    @classmethod
    def pursuit(
        cls, gamma0: float = 0.9, gamma1: float = 1.5, iterations: int = 1000
    ) -> "GammaSchedule":
        """Default graduated schedule: linear 0.9 -> 1.5 over 1000 steps."""
        return cls(gamma0, gamma1, iterations)

    def gamma_at(self, k: int) -> float:
        if self.mode == "constant":
            return self.gamma0
        p = float(k) / float(self.iterations - 1)
        return p * self.gamma1 + (1.0 - p) * self.gamma0

    @property
    def final_gamma(self) -> float:
        return self.gamma1


@dataclass
class SolveTrace:
    """Per-iteration record of one trajectory.

    fallbacks, one count per step and so len(), is always populated; gamma,
    step_inf and the energy and mass series only when traced: energy[k]
    is the post-step state at gamma[k] and pre_energy[k] the pre-step state
    at the same gamma, so per-step descent is checkable even under a moving
    schedule.  States 0..K are each read once, as y.y, y.Ay and w.x from the
    products y and K@y a step computes anyway (K the kernel; the last state
    by one extra product); pre_energy is states 0..K-1 and energy states
    1..K at gamma, y's power of two undone exactly, and mass the w.x of
    states 1..K.  Each energy is energy() on its state bit for bit while its
    products are normal, else the more exact; each mass weighted_mass().
    """

    gamma: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    pre_energy: list[float] = field(default_factory=list)
    mass: list[float] = field(default_factory=list)
    step_inf: list[float] = field(default_factory=list)
    fallbacks: list[int] = field(default_factory=list)

    @property
    def total_fallbacks(self) -> int:
        return sum(self.fallbacks)

    def __len__(self) -> int:
        return len(self.fallbacks)


def _checked_state(g: WeightedGraph, x, name: str = "state") -> np.ndarray:
    """x as a float64 vector; raises NormalizationError unless it is finite with shape (n,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise NormalizationError(f"{name} has shape {x.shape}, expected {(g.n,)}")
    if not np.all(np.isfinite(x)):
        raise NormalizationError("state entries must be finite")
    return x


def _products(g: WeightedGraph, x: np.ndarray, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The weighted state y = (2**k * v)*x and its neighbour sums A@y."""
    y = np.ldexp(g.v, k) * x
    return y, neighbor_sums(g, y)


def _v_exponent(v: np.ndarray, gamma_hi: float, top: float = 1.0) -> int:
    """k for a step's y = (2**k * v)*x, x's max being top; the map ignores k while y is normal.

    max(2**k * v) < 2**min(256, 1022 - e(gamma_hi * n)), e frexp's exponent: gamma*A*y < 2**1022 for x in [0, 1], and
    y is normal down to x = 2**-1074 while max w / min w < 2**406.  k is 0 where min(2**k * v) would leave the normal
    range; a top above 1 takes e(top) more, down to that floor or, where the floor is higher, to cap - e(top), which
    keeps y and A*y below 2**1022 (gamma*A*y overflowing to inf sends its entry to 0, as at k = 0)."""
    m, e = math.frexp(gamma_hi)  # e(gamma_hi * n) below, the product never overflowing
    e_max = math.frexp(v.max(initial=0.0))[1]
    cap = 1022 - math.frexp(v.size)[1] - e_max  # n * max(2**k * v) < 2**1022 at k = cap
    floor = -1021 - math.frexp(v.min(initial=math.inf))[1]  # the least k with 2**k * min v normal
    k = min(256, 1022 - e - math.frexp(m * v.size)[1]) - e_max
    k = k if k >= floor else 0
    return max(k - math.frexp(top)[1], min(floor, cap - math.frexp(top)[1])) if top > 1.0 else k


def _energy(yy, yay, wx, gamma, e: int = 0):
    """2**e * (2**e * Q - wx), Q = (yy + gamma*yay)/2, elementwise: the energy of 2**e * x at gamma from x's sums."""
    return np.ldexp(np.ldexp(0.5 * (yy + gamma * yay), e) - wx, e)


def _scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(s, e) with x = 2**e * s, s's max in [0.5, 1) ((x, 0) at a max up to 1); it flushes tiny entries, so no step uses it."""
    top = x.max(initial=0.0)
    e = math.frexp(top)[1] if top > 1.0 else 0
    return (np.ldexp(x, -e) if e else x), e


def _step(
    g: WeightedGraph, y: np.ndarray, ay: np.ndarray, gamma: float, out: Optional[np.ndarray] = None
) -> tuple[np.ndarray, int]:
    """One step from a state's products: y/d where d > 0, FALLBACK_VALUE elsewhere; returns (state, fallbacks).

    The state goes into out, a new array by default; d = y + gamma*ay is
    written over ay.
    """
    d = np.multiply(ay, gamma, out=ay)
    d += y
    ok = d > 0.0
    fallbacks = int(g.n - np.count_nonzero(ok))
    if out is None:
        out = np.empty(g.n)
    if fallbacks:
        out.fill(FALLBACK_VALUE)
        np.divide(y, d, out=out, where=ok)
    else:  # the same quotients, without the mask's cost
        np.divide(y, d, out=out)
    return out, fallbacks


def gn_step(g: WeightedGraph, x: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the weighted regularized normalization map once.

    x'_i = x_i / (x_i + gamma * sum_{j ~ i} (v_j / v_i) x_j), one divide masked
    to the positive denominators over an array of 0.5: an entry whose
    denominator is exactly 0, outside the map's domain, keeps that fallback.
    y is formed from v scaled by a power of two, as in run_wrgn (_v_exponent).
    """
    x, gamma = _checked_state(g, x), _checked_gamma(gamma)
    with np.errstate(over="ignore"):  # gamma*A*y overflowing to inf sends its entry to 0
        out, _ = _step(g, *_products(g, x, _v_exponent(g.v, gamma, x.max(initial=0.0))), gamma)
    return out


def is_normalizable(g: WeightedGraph, x: np.ndarray) -> bool:
    """All closed neighborhood sums positive (the domain of the map)."""
    x = _checked_state(g, x)
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf, still positive
        closed = x + neighbor_sums(g, x)
    return bool(np.all(closed > 0.0))


def run_wrgn(
    g: WeightedGraph,
    x0: np.ndarray,
    schedule: GammaSchedule,
    record_trace: bool = False,
    early_exit: bool = False,
) -> tuple[np.ndarray, SolveTrace]:
    """Iterate the map under a gamma schedule.

    Raises NormalizationError unless x0 is a finite, nonnegative and
    normalizable length-n vector.  A step that leaves the domain by
    underflow falls back as gn_step does, and the trace counts it.  With
    early_exit, stops once gamma is final and the step infinity-norm (taken
    only then, or when traced) is below 1e-12; else runs the full budget.
    Each step forms y = (2**k * v)*x, k taken once per run from v and the
    schedule's largest gamma (_v_exponent; a start above 1 gives the first
    step its own), so y is finite, stays normal as the losing entries decay,
    and weights times a power of four change no state.  Each entry after a
    step is y/d with 0 <= y <= d, or 0.5, so every state is finite (the
    norm's check never fires) and the final state lies in [0, 1].

    Every run steps in the graph's kernel order (WeightedGraph.kernel): it
    permutes the start once, and every elementwise operation and each
    row's sum is the same as in vertex order, so the states are too.  A
    traced run records each state's sums once and derives its energies and
    masses after the loop (SolveTrace).  The sums are dot products, whose
    last bits depend on their terms' order; energy() and weighted_mass()
    sum in the same order.
    """
    start = _checked_state(g, x0, "start")
    if np.any(start < 0.0):
        raise NormalizationError("state entries must be nonnegative")
    if not is_normalizable(g, start):
        raise NormalizationError("initial state has a zero closed neighborhood sum")

    order, kernel = g.kernel()
    kv, kv0 = (_v_exponent(g.v, max(schedule.gamma0, schedule.gamma1), top) for top in (1.0, start.max(initial=0.0)))
    v, x = np.ldexp(g.v[order], kv), start[order]  # a copy: the start is never written
    w = g.w[order] if record_trace else None  # only the trace reads the weights
    x_new, y = np.empty(g.n), np.empty(g.n)
    trace, sums = SolveTrace(), []  # sums: per traced state, y.y and y.Ay (y's power of two not yet undone) and w.x
    # gamma*A*y may overflow to inf, which sends its entry to 0 and a traced
    # energy to inf or NaN; errstate holds per thread, so it is set here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(schedule.iterations):
            gamma = schedule.gamma_at(k)
            np.multiply(v if k else np.ldexp(v, kv0 - kv), x, out=y)
            ay = kernel @ y
            if record_trace:
                sums.append((y @ y, y @ ay, w @ x))
            trace.fallbacks.append(_step(g, y, ay, gamma, x_new)[1])  # the state goes into x_new
            x, x_new = x_new, x
            exits = early_exit and gamma == schedule.final_gamma  # the only steps early exit tests
            if record_trace or exits:  # the steps whose norm is read
                step_inf = float(np.abs(np.subtract(x, x_new, out=y), out=y).max(initial=0.0))  # y is spent
                if not math.isfinite(step_inf):  # x_new was finite, so x is not
                    raise NormalizationError(f"non-finite state at iteration {k}")
                if record_trace:
                    trace.gamma.append(gamma)
                    trace.step_inf.append(step_inf)
                if exits and step_inf < 1e-12:
                    break
        if record_trace:
            np.multiply(v, x, out=y)
            sums.append((y @ y, y @ (kernel @ y), w @ x))
            yy, yay, wx = np.array(sums).T
            yy, yay = np.ldexp([yy, yay], -2 * np.where(np.arange(yy.size), kv, kv0))  # unscaled before gamma, which may be huge
            gammas = np.array(trace.gamma)
            pre = _energy(yy[:-1], yay[:-1], wx[:-1], gammas)
            # NaN: the start's mass overflowed.  Every later state lies in [0, 1] and build_graph
            # keeps the total weight finite, so its w.x is finite and its energy is never NaN
            pre[0] = energy(g, start, gammas[0]) if math.isnan(pre[0]) else pre[0]
            trace.pre_energy = pre.tolist()
            trace.energy = _energy(yy[1:], yay[1:], wx[1:], gammas).tolist()
            trace.mass = wx[1:].tolist()
    final = np.empty(g.n)
    final[order] = x
    return final, trace


def init_random(n: int, seed) -> np.ndarray:
    """Exponentially sampled start, scaled by its max and clamped to [1e-3, 1]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    e = -np.log(np.maximum(u, np.finfo(np.float64).tiny))
    x = e / e.max()
    return np.clip(x, CLAMP_FLOOR, 1.0)


def init_warm(values, n: Optional[int] = None) -> np.ndarray:
    """Clamp an externally supplied fractional vector to [1e-3, 1].

    The floor keeps the state strictly positive so every coordinate stays
    live (zeros are absorbing under the map).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("warm start must be a 1-d vector")
    if n is not None and len(x) != n:
        raise ValueError(f"warm start has length {len(x)}, expected {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("warm start contains non-finite entries")
    return np.clip(x, CLAMP_FLOOR, 1.0)


def energy(g: WeightedGraph, x: np.ndarray, gamma: float) -> float:
    """Quadratic energy, evaluated sparsely in O(n + |E|).

    In the weighted state y = v*x this is (1/2) y'(I + gamma A)y - v'y,
    the Lyapunov function the dynamics strictly decrease at fixed gamma.
    It is _energy, the formula of run_wrgn's traced energies, on x's sums
    taken in the kernel's order, as theirs are.
    """
    order, kernel = g.kernel()
    x, gamma = _checked_state(g, x)[order], _checked_gamma(gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # an energy beyond the float range is inf
        for s, e in (x, 0), _scaled(x):
            y = g.v[order] * s
            value = float(_energy(y @ y, y @ (kernel @ y), g.w[order] @ s, gamma, e))
            if not math.isnan(value):  # NaN: v*x overflowed, giving inf - inf; x = 2**e * s gives it
                break
    return value


def weighted_mass(g: WeightedGraph, x: np.ndarray) -> float:
    """Relaxed objective sum(w_i x_i) in kernel order, inf past the float range; strictly rises along trajectories."""
    order, _ = g.kernel()
    with np.errstate(over="ignore"):
        return float(g.w[order] @ _checked_state(g, x)[order])


def simplex_state(g: WeightedGraph, x: np.ndarray) -> np.ndarray:
    """Mass-normalized coordinates p_i = w_i x_i / sum_j w_j x_j."""
    x = _checked_state(g, x)
    m = weighted_mass(g, x)
    if m == math.inf:  # p does not depend on x's scale, and the scaled state's mass is finite
        x, _ = _scaled(x)
        m = weighted_mass(g, x)
    if not m > 0.0:
        raise ValueError("weighted mass must be positive")
    return (g.w * x) / m


def fitness(
    g: WeightedGraph, p: np.ndarray, gamma: float
) -> tuple[np.ndarray, float]:
    """Replicator fitness of a simplex state and its population average.

    f_i = v_i / ((I + gamma A)(p / v))_i.  The average satisfies
    fbar(p^k) = weighted mass of the next iterate.  Raises where a
    denominator is not positive, outside the map's domain.
    """
    gamma = _checked_gamma(gamma)
    p = _checked_state(g, p, "simplex state")
    q = p / g.v
    d = q + gamma * neighbor_sums(g, q)
    if np.any(d <= 0.0):
        raise ValueError("zero denominator in fitness: state not normalizable")
    f = g.v / d
    return f, float(p @ f)


def round_to_mis(g: WeightedGraph, x: np.ndarray) -> MisSolution:
    """Binarize a state into a maximal independent set.

    Thresholds at 0.5, repairs conflicts by dropping the lighter endpoint
    (ties keep the larger index), then completes greedily by descending
    weight (ties prefer the smaller index).

    Both rules are sequential, so they run as loops, but only over the
    vertices they can change: repair visits, in ascending order, the
    selected vertices that have a selected neighbor after thresholding;
    completion (greedy_complete) visits the vertices no selected vertex
    dominates after repair.
    """
    x = _checked_state(g, x)
    selected = x >= 0.5
    w = g.w
    for u in np.flatnonzero(selected & (neighbor_sums(g, selected) > 0)).tolist():
        if not selected[u]:
            continue
        nb = g.neighbors(u)
        rivals = nb[(nb > u) & selected[nb]]
        # u drops the rivals lighter than itself, in ascending order, until
        # one at least as heavy drops u instead
        heavier = np.flatnonzero(w[rivals] >= w[u])
        stop = heavier[0] if heavier.size else rivals.size
        selected[rivals[:stop]] = False
        if stop < rivals.size:
            selected[u] = False
    greedy_complete(g, selected)
    return MisSolution.from_members(g, np.flatnonzero(selected))


# ---------------------------------------------------------------------------
# Fixed-point diagnostics


def mis_stability(g: WeightedGraph, m: MisSolution, gamma: float) -> float:
    """Stability score of a maximal independent set.

    gamma * min over outside vertices i of sum_{j in N(i) cap M} v_j / v_i:
    the step's neighbour term (A y)_i / y_i at y = v 1_M.  Scores above 1
    mark asymptotically stable attractors; a score beyond the float range
    is inf.  Returns +inf when M covers every vertex (edgeless graphs),
    where the min runs over nothing.
    """
    gamma = _checked_gamma(gamma)
    mask = member_mask(g, m.members)
    if not independence(g, mask)[1]:
        raise ValueError("solution is not a maximal independent set")
    with np.errstate(over="ignore"):
        outside = (neighbor_sums(g, np.where(mask, g.v, 0.0)) / g.v)[~mask]
    return gamma * float(outside.min()) if outside.size else math.inf
