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

from .graph import MisSolution, WeightedGraph, greedy_complete, independence, member_mask

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

    gamma, step_inf, and fallbacks are always populated.  The energy and
    mass series are filled only when the run records a full trace:
    energy[k] is the post-step state at gamma[k] and pre_energy[k] the
    pre-step state at the same gamma, so per-step descent is checkable
    even under a moving schedule.  Both are read from the products
    y = v*x and K@y a step computes anyway, K the kernel: pre_energy[k]
    from step k's, energy[k] from step k+1's, and the last energy from one
    extra product.  pre_energy[0] is energy() on the start when run_wrgn
    takes the first step from a scaled start.  Each energy equals energy()
    on its state, and each mass weighted_mass(), bit for bit.
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
        return len(self.gamma)


def _checked_state(g: WeightedGraph, x, name: str = "state") -> np.ndarray:
    """x as a float64 vector; raises NormalizationError unless it is finite with shape (n,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise NormalizationError(f"{name} has shape {x.shape}, expected {(g.n,)}")
    if not np.all(np.isfinite(x)):
        raise NormalizationError("state entries must be finite")
    return x


def _products(g: WeightedGraph, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weighted state y = v*x and its neighbour sums A@y."""
    y = g.v * x
    return y, g.adjacency() @ y


def _energy(w: np.ndarray, x: np.ndarray, y: np.ndarray, ay: np.ndarray, gamma: float, e: int = 0) -> float:
    """2**e * (2**e * Q - w.x), the energy of 2**e * x at gamma: Q from x's products (y, ay), w in x's order."""
    q = 0.5 * (y @ y + gamma * (y @ ay))
    return float(np.ldexp(np.ldexp(q, e) - w @ x, e))


def _kernel_energy(g: WeightedGraph, x: np.ndarray, gamma: float, e: int = 0) -> float:
    """Energy of 2**e * x at gamma, its dot products summed in the kernel's order, as run_wrgn's are."""
    order, kernel = g.kernel()
    x = x[order]
    y = g.v[order] * x
    return _energy(g.w[order], x, y, kernel @ y, gamma, e)


def _scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(s, e) with x = 2**e * s: (x, 0) if x's max is at most 1, else s has a max in [0.5, 1).

    The map is homogeneous of degree 0 in x, so a step from the scaled state
    is the step from x, bit for bit while the scaled entries stay normal,
    and its weighted entries v*s cannot overflow.
    """
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
    A state whose max exceeds 1 steps from its power-of-two scaling (_scaled).
    """
    with np.errstate(over="ignore"):  # gamma*A*y overflowing to inf sends its entry to 0
        out, _ = _step(g, *_products(g, _scaled(_checked_state(g, x))[0]), _checked_gamma(gamma))
    return out


def is_normalizable(g: WeightedGraph, x: np.ndarray) -> bool:
    """All closed neighborhood sums positive (the domain of the map)."""
    x = _checked_state(g, x)
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf, still positive
        closed = x + g.adjacency() @ x
    return bool(np.all(closed > 0.0))


def run_wrgn(
    g: WeightedGraph,
    x0: np.ndarray,
    schedule: GammaSchedule,
    record_trace: bool = False,
    early_exit: bool = False,
) -> tuple[np.ndarray, SolveTrace]:
    """Iterate the map under a gamma schedule.

    Raises NormalizationError if x0 is not a length-n vector, has a
    non-finite or negative entry, or is not normalizable, or if a
    non-finite state appears mid-run.  A step that leaves the domain by
    underflow falls back as gn_step does, and the trace counts it.  When
    early_exit is set, stops once gamma has reached its final value and
    the step infinity-norm falls below 1e-12; otherwise runs the full
    budget.  The first step is taken from the start's power-of-two scaling
    (_scaled), which changes no state after it.  Each entry after a step
    is y/d with 0 <= y <= d, or 0.5, so the final state lies in [0, 1].
    The trace carries the energy/mass series only when record_trace is
    set; step norms and fallback counts are always kept.

    Every run steps in the graph's kernel order (WeightedGraph.kernel): it
    permutes the start once, and every elementwise operation and each
    row's sum is the same as in vertex order, so the states are too.  The
    energies and masses are dot products, whose sums depend on the order
    of their terms; energy() and weighted_mass() sum in the same order.
    """
    start = _checked_state(g, x0, "start")
    if np.any(start < 0.0):
        raise NormalizationError("state entries must be nonnegative")
    if not is_normalizable(g, start):
        raise NormalizationError("initial state has a zero closed neighborhood sum")

    order, kernel = g.kernel()
    v, x = g.v[order], start[order]  # a copy: the start is never written
    w = g.w[order] if record_trace else None  # only the trace reads the weights
    first, _ = _scaled(x)  # the state the first step is taken from
    x_new, y = np.empty(g.n), np.empty(g.n)
    trace = SolveTrace()
    final_gamma = schedule.final_gamma
    # gamma*A*y may overflow to inf, which sends its entry to 0 and a traced
    # energy to inf; errstate holds per thread, so it is set here, not round the pool
    with np.errstate(over="ignore"):
        for k in range(schedule.iterations):
            gamma = schedule.gamma_at(k)
            np.multiply(v, x if k else first, out=y)
            ay = kernel @ y
            if record_trace:
                if k:
                    # this state is the previous step's post-step state
                    trace.energy.append(_energy(w, x, y, ay, trace.gamma[-1]))
                # the energy, unlike the map, depends on the start's scale
                trace.pre_energy.append(_energy(w, x, y, ay, gamma) if k or first is x else energy(g, start, gamma))
            _, nfb = _step(g, y, ay, gamma, x_new)
            delta = np.abs(np.subtract(x_new, x, out=y), out=y)  # y is spent
            step_inf = float(delta.max(initial=0.0))
            trace.gamma.append(gamma)
            trace.step_inf.append(step_inf)
            trace.fallbacks.append(nfb)
            x, x_new = x_new, x
            if not math.isfinite(step_inf):  # x was finite, so x_new is not
                raise NormalizationError(f"non-finite state at iteration {k}")
            if record_trace:
                trace.mass.append(float(w @ x))
            if early_exit and gamma == final_gamma and step_inf < 1e-12:
                break
        if record_trace:
            np.multiply(v, x, out=y)
            trace.energy.append(_energy(w, x, y, kernel @ y, trace.gamma[-1]))
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
    Its dot products sum in the kernel's order, as run_wrgn's traced
    energies do.
    """
    x, gamma = _checked_state(g, x), _checked_gamma(gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # an energy beyond the float range is inf
        value = _kernel_energy(g, x, gamma)
        if math.isnan(value):  # v*x overflowed, giving inf - inf: take it from x = 2**e * s instead
            s, e = _scaled(x)
            value = _kernel_energy(g, s, gamma, e)
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
    d = q + gamma * (g.adjacency() @ q)
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
    for u in np.flatnonzero(selected & (g.adjacency() @ selected > 0)).tolist():
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

    gamma * min over outside vertices i of sum_{j in N(i) cap M} sqrt(w_j/w_i).
    Scores above 1 mark asymptotically stable attractors.  Returns +inf when
    M covers every vertex (edgeless graphs), where the min runs over nothing.
    """
    gamma = _checked_gamma(gamma)
    mask = member_mask(g, m.members)
    if not independence(g, mask)[1]:
        raise ValueError("solution is not a maximal independent set")
    # one pass over the CSR entries (i, j) with i outside and j a member;
    # bincount adds each row's terms in neighbour order
    rows = np.repeat(np.arange(g.n), g.degrees())
    keep = ~mask[rows] & mask[g.indices]
    i, j = rows[keep], g.indices[keep]
    sums = np.bincount(i, weights=np.sqrt(g.w[j] / g.w[i]), minlength=g.n)
    outside = sums[~mask]
    return gamma * float(outside.min()) if outside.size else math.inf
