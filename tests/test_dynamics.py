import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from graphnorm import (
    GammaSchedule,
    NormalizationError,
    build_graph,
    energy,
    erdos_renyi,
    fitness,
    gn_step,
    init_random,
    init_warm,
    is_normalizable,
    round_to_mis,
    run_wrgn,
    simplex_state,
    weighted_mass,
)
from graphnorm.dynamics import FALLBACK_VALUE, _products, _scaled, _step, mis_stability
from graphnorm.graph import MisSolution, WeightedGraph, neighbor_sums

import reference
from test_reference import _sparse_with_duplicates


# ---------------------------------------------------------------------------
# gn_step


def test_step_k2_uniform(k2_uniform):
    np.testing.assert_allclose(gn_step(k2_uniform, [1, 1], 1.0), [0.5, 0.5])


def test_step_p3_binary_fixed(p3_uniform):
    np.testing.assert_array_equal(gn_step(p3_uniform, [1, 0, 1], 1.0), [1.0, 0.0, 1.0])


def test_step_k2_weighted(k2_heavy):
    np.testing.assert_allclose(gn_step(k2_heavy, [1, 1], 1.0), [2 / 3, 1 / 3])


@pytest.mark.parametrize("x", [1e-12, 1e-310])
def test_step_divides_tiny_denominator(x):
    # any positive closed-neighbourhood sum, subnormal too, is inside the
    # map's domain
    lone = build_graph(1, [], [1.0])
    out, fallbacks = _step(lone, *_products(lone, np.array([x])), 1.0)
    assert out[0] == 1.0 and fallbacks == 0


@pytest.mark.parametrize("x, w", [(0.0, 1.0), (5e-324, 0.01)])
def test_step_fallback_fires_on_zero_denominator(x, w):
    # at x = 5e-324 the weighted state v*x underflows to 0
    lone = build_graph(1, [], [w])
    out, fallbacks = _step(lone, *_products(lone, np.array([x])), 1.0)
    assert out[0] == FALLBACK_VALUE and fallbacks == 1


@st.composite
def graph_and_state(draw, n_max=9, zero_ok=True):
    n = draw(st.integers(1, n_max))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, mask) if keep]
    weights = draw(
        st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=n, max_size=n)
    )
    g = build_graph(n, edges, weights)
    lo = 0.0 if zero_ok else 0.01
    x = np.array(
        draw(st.lists(st.floats(lo, 1.0, allow_nan=False), min_size=n, max_size=n))
    )
    return g, x


@given(graph_and_state(), st.floats(0.0, 3.0, exclude_min=True))
def test_step_bounded(gx, gamma):
    g, x = gx
    out = gn_step(g, x, gamma)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@given(graph_and_state(), st.floats(0.01, 3.0))
def test_step_support_invariance(gx, gamma):
    g, x = gx
    x = np.where(x < 0.5, 0.0, x)  # a genuine zero pattern
    if not is_normalizable(g, x):
        return
    out = gn_step(g, x, gamma)
    np.testing.assert_array_equal(out > 0, x > 0)


@given(graph_and_state(zero_ok=False), st.floats(0.01, 3.0), st.floats(0.001, 1000.0))
def test_step_scale_invariance(gx, gamma, alpha):
    g, x = gx
    a = gn_step(g, x, gamma)
    b = gn_step(g, alpha * x, gamma)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@given(
    graph_and_state(zero_ok=False),
    st.data(),
    st.floats(0.01, 3.0),
    st.integers(-40, 40),
)
def test_step_weight_scale_is_exact(gx, data, gamma, k):
    # 4^k scales v = sqrt(w) by exactly 2^k, and so every y and d of the
    # step; with x in {0} u [0.01, 1] no v*x is subnormal at these scales
    g, x = gx
    zero = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    x = np.where(zero, 0.0, x)
    scaled = build_graph(g.n, reference.edges(g), g.w * 4.0**k)
    out, fallbacks = _step(g, *_products(g, x), gamma)
    out_scaled, fallbacks_scaled = _step(scaled, *_products(scaled, x), gamma)
    np.testing.assert_array_equal(out_scaled, out)
    assert fallbacks_scaled == fallbacks


def test_overflowing_weighted_state_steps_from_its_scaling():
    # v*x overflows at the caller's scale, which gave [nan, 0.]; the map is
    # homogeneous of degree 0, and by hand the step from x / 2**997 is [1, 1e-300]
    g = build_graph(2, [(0, 1)], [1e300, 1e-300])
    x = np.array([1e300, 1e300])
    out = gn_step(g, x, 1.0)
    np.testing.assert_array_equal(out, gn_step(g, np.ldexp(x, -997), 1.0))
    np.testing.assert_allclose(out, [1.0, 1e-300], rtol=1e-15, atol=0.0)
    schedule = GammaSchedule.constant(1.0, 3)
    final, trace = run_wrgn(g, x, schedule, record_trace=True)
    np.testing.assert_array_equal(final, run_wrgn(g, np.ldexp(x, -997), schedule)[0])
    assert np.all(np.isfinite(final)) and trace.step_inf[0] == 1e300  # from the caller's start
    # at 1e308 and 1e-320 the least exponent keeping min v normal left
    # 2**k * max v * 1e308 near 2**1046, and the step gave NaN; by hand the
    # step is [1, v1 / v0] = [1, 1e-314], 1e-314 rounded as a subnormal
    g = build_graph(2, [(0, 1)], [1e308, 1e-320])
    x = np.array([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gn_step(g, x, 1.0)
        np.testing.assert_allclose(out, [1.0, 1e-314], rtol=1e-4, atol=0.0)
        final, trace = run_wrgn(g, x, schedule)
    assert np.all(np.isfinite(final)) and len(trace) == 3


@given(st.data(), st.sampled_from([3, 1023]), st.booleans())
def test_run_wrgn_at_the_float_range_ends(data, j, record_trace):
    # weights as in test_solver_cli's extreme_solves, and a start scaled by
    # 2**j: at j = 1023 the least exponent keeping min v normal may leave y
    # beyond the float range, where the first step gave NaN and raised
    n = data.draw(st.integers(1, 8))
    edges = [(i, k) for i in range(n) for k in range(i + 1, n) if data.draw(st.booleans())]
    g = build_graph(n, edges, data.draw(st.lists(st.floats(5e-324, 1e300), min_size=n, max_size=n)))
    gamma0 = data.draw(st.floats(1e-300, 1e300))
    gamma1 = data.draw(st.one_of(st.just(gamma0), st.floats(gamma0, 1e300)))
    schedule = GammaSchedule(gamma0, gamma1, data.draw(st.integers(2, 60)))
    x0 = np.ldexp(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)), j)
    x, _ = run_wrgn(g, x0, schedule, record_trace, data.draw(st.booleans()))
    assert np.all(np.isfinite(x) & (x >= 0.0) & (x <= 1.0))


def test_tiny_entry_of_a_start_above_one_is_not_flushed():
    # scaling this start into [0.5, 1) flushed 1e-30 to 0, which met a zero
    # denominator and fell back to 0.5; the scale on v keeps it
    g = build_graph(2, [], [1.0, 1.0])
    x = np.array([1e300, 1e-30])
    np.testing.assert_array_equal(gn_step(g, x, 1.0), [1.0, 1.0])
    assert run_wrgn(g, x, GammaSchedule.pursuit())[1].total_fallbacks == 0


def test_scale_on_v_leaves_gamma_headroom():
    # a fixed 2**256 on v overflows gamma*A*y at gamma = 1e300, sending both
    # entries to 0 and the next step to two fallbacks
    g = build_graph(2, [(0, 1)], [1.0, 1.0])
    x, trace = run_wrgn(g, np.array([1.0, 1e-5]), GammaSchedule.constant(1e300, 3))
    np.testing.assert_array_equal(x, [1.0000000000000029e-280, 1e-320])
    assert trace.fallbacks == [0, 0, 0]


def test_traced_run_from_a_state_above_one_records_its_energy(p3_weighted):
    # every state after the start is the scaled start's, bit for bit; the
    # energy, unlike the map, depends on the start's own scale
    x = np.array([3.0, 5.0, 1.0])
    schedule = GammaSchedule.pursuit(iterations=20)
    final, trace = run_wrgn(p3_weighted, x, schedule, record_trace=True)
    final_scaled, trace_scaled = run_wrgn(p3_weighted, x / 8.0, schedule, record_trace=True)
    np.testing.assert_array_equal(final, final_scaled)
    assert trace.pre_energy[0] == energy(p3_weighted, x, schedule.gamma0) != trace_scaled.pre_energy[0]
    assert trace.pre_energy[1:] == trace_scaled.pre_energy[1:]
    assert (trace.energy, trace.mass, trace.step_inf[1:]) == (trace_scaled.energy, trace_scaled.mass, trace_scaled.step_inf[1:])


@given(
    graph_and_state(),
    st.data(),
    st.floats(0.01, 3.0),
)
def test_scaled_step_is_the_unscaled_step(gx, data, gamma):
    # entries in {0} u [1e-100, 1e100] overflow nothing at their own scale
    # and stay normal through the products at the scaled one, where the
    # power-of-two scaling is exact
    g, _ = gx
    x = np.array(data.draw(st.lists(st.just(0.0) | st.floats(1e-100, 1e100), min_size=g.n, max_size=g.n)))
    assume(x.max() > 1.0)
    scaled, _ = _scaled(x)
    y, _ = _products(g, scaled)
    assert scaled.max() < 1.0 and np.all((y == 0) | (y >= np.finfo(float).tiny))
    out, fallbacks = _step(g, *_products(g, x), gamma)
    np.testing.assert_array_equal(gn_step(g, x, gamma), out)
    if not fallbacks:
        np.testing.assert_array_equal(run_wrgn(g, x, GammaSchedule.constant(gamma, 1))[0], out)


def test_component_independence():
    # disconnected graph: two components iterated jointly and separately
    g = build_graph(
        5, [(0, 1), (1, 2), (3, 4)], [2.0, 1.0, 3.0, 5.0, 0.5]
    )
    g_a = build_graph(3, [(0, 1), (1, 2)], [2.0, 1.0, 3.0])
    g_b = build_graph(2, [(0, 1)], [5.0, 0.5])
    x = np.array([0.9, 0.4, 0.7, 0.2, 0.8])
    xa, xb = x[:3].copy(), x[3:].copy()
    for k in range(50):
        gamma = 0.9 + k * 0.01
        x = gn_step(g, x, gamma)
        xa = gn_step(g_a, xa, gamma)
        xb = gn_step(g_b, xb, gamma)
        assert np.array_equal(x, np.concatenate([xa, xb]))


def test_binary_mis_is_exact_fixed_point():
    g = erdos_renyi(12, 0.4, [3, 0])
    x = np.zeros(12)
    # build a maximal independent set greedily
    for i in range(12):
        if not any(x[j] > 0 for j in g.neighbors(i)):
            x[i] = 1.0
    for gamma in (0.5, 1.0, 1.7):
        np.testing.assert_array_equal(gn_step(g, x, gamma), x)


# ---------------------------------------------------------------------------
# schedules and run_wrgn


def test_schedule_linear_endpoints():
    s = GammaSchedule.pursuit(0.9, 1.5, 1000)
    assert s.gamma_at(0) == 0.9
    assert s.gamma_at(999) == 1.5
    mid = s.gamma_at(500)
    assert 0.9 < mid < 1.5


def test_schedule_constant():
    s = GammaSchedule.constant(1.2, 10)
    assert all(s.gamma_at(k) == 1.2 for k in range(10))


@pytest.mark.parametrize("gamma", [0.3, 0.9, 1.0, 1.2, 1.5, 2.0 / 3.0])
def test_schedule_mode_derived_from_endpoints(gamma):
    s = GammaSchedule(gamma, gamma, 37)
    assert s.mode == "constant"
    assert s == GammaSchedule.constant(gamma, 37)
    assert all(s.gamma_at(k) == gamma for k in range(37))
    assert s.final_gamma == gamma
    assert GammaSchedule(gamma, gamma + 0.5, 37).mode == "linear"


def test_schedule_validation():
    with pytest.raises(ValueError):
        GammaSchedule(0.9, 1.5, 1)  # linear needs >= 2 iterations
    with pytest.raises(ValueError):
        GammaSchedule(0.9, 1.5, 0)
    with pytest.raises(ValueError):
        GammaSchedule(1.2, 1.2, 0)  # constant still needs one iteration
    with pytest.raises(ValueError):
        GammaSchedule(-0.1, 1.5, 10)
    with pytest.raises(ValueError):
        GammaSchedule.constant(-1.0, 10)
    with pytest.raises(ValueError):
        GammaSchedule.constant(0.0, 3)  # at gamma 0 a zero entry leaves the map's domain
    with pytest.raises(ValueError):
        GammaSchedule(0.0, 1.5, 10)
    with pytest.raises(TypeError):
        GammaSchedule(0.9, 1.5, 10, mode="diagonal")  # the mode is not an argument
    assert GammaSchedule(1.2, 1.2, 1).mode == "constant"


@pytest.mark.parametrize("gamma0, gamma1", [(0.9, math.inf), (math.inf, math.inf)])
def test_schedule_rejects_non_finite_gamma(gamma0, gamma1):
    # with gamma1 = inf the linear schedule's step-0 gamma is 0 * inf + 0.9 = NaN
    with pytest.raises(ValueError, match="finite"):
        GammaSchedule(gamma0, gamma1, 10)


def test_run_wrgn_k2_uniform_binarizes(k2_uniform):
    x, _ = run_wrgn(k2_uniform, np.array([0.6, 0.4]), GammaSchedule.constant(1.5, 300))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)


def test_run_wrgn_k2_weighted_any_start():
    g = build_graph(2, [(0, 1)], [2.0, 1.0])
    x, _ = run_wrgn(g, np.array([0.1, 0.9]), GammaSchedule.constant(1.0, 2000))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)


def test_run_wrgn_k2_fractional_regime():
    g = build_graph(2, [(0, 1)], [2.0, 1.0])
    gamma = 0.25
    x, _ = run_wrgn(g, np.array([0.5, 0.5]), GammaSchedule.constant(gamma, 5000))
    p = simplex_state(g, x)
    apex = (1 - gamma * math.sqrt(2)) / (3 - 2 * gamma * math.sqrt(2))
    assert p[1] == pytest.approx(apex, abs=1e-9)
    assert p[1] == pytest.approx(0.2819, abs=1e-4)


def test_run_wrgn_rejects_non_normalizable(p3_uniform):
    with pytest.raises(NormalizationError):
        run_wrgn(p3_uniform, np.zeros(3), GammaSchedule.constant(1.0, 5))
    with pytest.raises(NormalizationError):
        run_wrgn(p3_uniform, np.array([0.5, -0.1, 0.5]), GammaSchedule.constant(1.0, 5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_wrgn_rejects_non_finite_start(p3_uniform, bad):
    # nan passed the sign check and was reported as a zero closed-neighbourhood
    # sum; inf was reported at iteration 0, after a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormalizationError, match="state entries must be finite"):
            run_wrgn(p3_uniform, np.array([0.5, bad, 0.5]), GammaSchedule.constant(1.0, 5))
    with pytest.raises(NormalizationError, match="state entries must be nonnegative"):
        run_wrgn(p3_uniform, np.array([0.5, -0.1, 0.5]), GammaSchedule.constant(1.0, 5))


# a (6, 1) state once broadcast into a (6, 6) sum, so is_normalizable
# answered True; a length-4 state failed inside numpy or scipy
WRONG_SHAPES = [
    (np.full((6, 1), 0.5), r"state has shape \(6, 1\), expected \(6,\)"),
    (np.full(4, 0.5), r"state has shape \(4,\), expected \(6,\)"),
]


@pytest.mark.parametrize("x,message", WRONG_SHAPES)
def test_is_normalizable_rejects_wrong_shape(x, message):
    with pytest.raises(NormalizationError, match=message):
        is_normalizable(erdos_renyi(6, 0.4, 1), x)


@pytest.mark.parametrize("x,message", WRONG_SHAPES)
def test_gn_step_rejects_wrong_shape(x, message):
    with pytest.raises(NormalizationError, match=message):
        gn_step(erdos_renyi(6, 0.4, 1), x, 1.0)


@pytest.mark.parametrize("x,message", WRONG_SHAPES)
def test_energy_rejects_wrong_shape(x, message):
    with pytest.raises(NormalizationError, match=message):
        energy(erdos_renyi(6, 0.4, 1), x, 1.0)


@pytest.mark.parametrize("x,message", WRONG_SHAPES)
def test_weighted_mass_rejects_wrong_shape(x, message):
    with pytest.raises(NormalizationError, match=message):
        weighted_mass(erdos_renyi(6, 0.4, 1), x)


def test_state_functions_reject_non_finite_states(p3_uniform):
    x = np.array([0.5, math.nan, 0.5])
    for call in (
        lambda: is_normalizable(p3_uniform, x),
        lambda: gn_step(p3_uniform, x, 1.0),
        lambda: energy(p3_uniform, x, 1.0),
        lambda: weighted_mass(p3_uniform, x),
    ):
        with pytest.raises(NormalizationError, match="state entries must be finite"):
            call()


# simplex_state once returned a (6, 6) array for a (6, 1) state, fitness a
# NaN average for a NaN state, and round_to_mis a set flagged valid and
# maximal for an all-NaN state
@pytest.mark.parametrize(
    "call",
    [simplex_state, lambda g, x: fitness(g, x, 1.0), round_to_mis],
    ids=["simplex_state", "fitness", "round_to_mis"],
)
@pytest.mark.parametrize(
    "x,message",
    WRONG_SHAPES + [(np.full(6, math.nan), "state entries must be finite")],
    ids=["column", "short", "nan"],
)
def test_simplex_fitness_and_rounding_reject_bad_states(call, x, message):
    with pytest.raises(NormalizationError, match=message):
        call(erdos_renyi(6, 0.4, 1), x)


def test_run_wrgn_tiny_weights_follow_the_map(p3_weighted):
    # weights (1, 3, 1) x 1e-20 put every closed-neighbourhood sum near
    # 1e-10 from the first step on; the map sees only weight ratios
    g = build_graph(3, [(0, 1), (1, 2)], p3_weighted.w * 1e-20)
    x, trace = run_wrgn(g, init_random(3, 0), GammaSchedule.pursuit())
    assert trace.total_fallbacks == 0
    assert round_to_mis(g, x).members == (1,)


@pytest.mark.parametrize("scale", [3e-20, 1e-6, 3e20])
def test_weight_scale_keeps_rounded_members(scale):
    schedule = GammaSchedule.pursuit()
    sizes = np.random.default_rng(606).integers(16, 33, size=20)
    for k, n in enumerate(sizes.tolist()):
        g = erdos_renyi(n, 0.3, [606, k])
        x0 = init_random(n, k)
        x, _ = run_wrgn(g, x0, schedule)
        scaled = build_graph(g.n, reference.edges(g), g.w * scale)
        x_scaled, trace = run_wrgn(scaled, x0, schedule)
        assert trace.total_fallbacks == 0
        assert round_to_mis(scaled, x_scaled).members == round_to_mis(g, x).members


def test_power_of_four_weight_scale_keeps_every_state():
    # 4**j scales v by 2**j, which the step's own power of two absorbs, so
    # the whole run is bit for bit the same, the subnormal phase included
    g = _sparse_with_duplicates()
    x0, schedule = init_random(g.n, 3), GammaSchedule.pursuit()
    x, trace = run_wrgn(g, x0, schedule)
    for j in (-400, -1, 1, 400):
        x_scaled, trace_scaled = run_wrgn(build_graph(g.n, reference.edges(g), g.w * 4.0**j), x0, schedule)
        np.testing.assert_array_equal(x_scaled, x)
        assert trace_scaled.fallbacks == trace.fallbacks


def test_run_wrgn_early_exit():
    g = erdos_renyi(20, 0.3, [11, 0])
    x0 = init_random(20, 42)
    x, trace = run_wrgn(g, x0, GammaSchedule.constant(1.5, 100_000), record_trace=True, early_exit=True)
    assert len(trace) < 100_000
    assert trace.step_inf[-1] < 1e-12


def test_per_step_descent_under_linear_schedule():
    # cross-record energy comparisons are meaningless under a moving gamma;
    # the per-step pair (pre, post) at the instantaneous gamma still descends
    g = erdos_renyi(24, 0.3, [14, 0])
    x0 = init_random(24, 5)
    _, tr = run_wrgn(g, x0, GammaSchedule.pursuit(iterations=300), record_trace=True)
    drops = np.array(tr.energy) - np.array(tr.pre_energy)
    assert np.all(drops <= 1e-10)


def test_run_wrgn_trace_monotone_at_constant_gamma():
    g = erdos_renyi(24, 0.3, [13, 0])
    x0 = init_random(24, 7)
    _, trace = run_wrgn(g, x0, GammaSchedule.constant(1.2, 400), record_trace=True)
    e = np.array(trace.energy)
    m = np.array(trace.mass)
    assert np.all(np.diff(e) <= 1e-10)
    assert np.all(np.diff(m) >= -1e-10)
    # strictness away from the fixed point
    moving = np.array(trace.step_inf)[1:] > 1e-4
    assert np.all(np.diff(e)[moving] < 0)
    assert np.all(np.diff(m)[moving] > 0)
    assert trace.total_fallbacks == 0


class CountingGraph(WeightedGraph):
    """A graph whose adjacency and kernel count the products taken with them."""

    __slots__ = ("products",)

    def _counted(self, matrix):
        graph = self

        class Counted:
            def __matmul__(self, other):
                graph.products += 1
                return matrix @ other

        return Counted()

    def adjacency(self):
        return self._counted(WeightedGraph.adjacency(self))

    def kernel(self):
        order, matrix = WeightedGraph.kernel(self)
        return order, self._counted(matrix)


@pytest.mark.parametrize(
    "schedule, early_exit",
    [
        (GammaSchedule.constant(1.2, 60), False),
        (GammaSchedule.pursuit(iterations=60), False),
        (GammaSchedule.constant(1.5, 100_000), True),
    ],
    ids=["constant", "linear", "early-exit"],
)
def test_run_wrgn_adjacency_products(schedule, early_exit):
    # one product per step plus the start's domain check; a traced run adds
    # one for the last post-step energy
    base = erdos_renyi(20, 0.3, [11, 0])
    g = CountingGraph(base.n, base.adjacency().indptr, base.adjacency().indices, base.w)
    runs = []
    for record_trace, extra in [(False, 1), (True, 2)]:
        g.products = 0
        runs.append(run_wrgn(g, init_random(20, 42), schedule, record_trace, early_exit))
        assert g.products == len(runs[-1][1]) + extra
    # an untraced run keeps each step's fallback count and no other series
    (x, trace), (x_traced, traced) = runs
    np.testing.assert_array_equal(x, x_traced)
    assert len(trace) == len(traced) and trace.fallbacks == traced.fallbacks
    assert trace.gamma == trace.step_inf == [] and len(traced.gamma) == len(traced)


# ---------------------------------------------------------------------------
# initialization


def test_init_random_singleton():
    np.testing.assert_array_equal(init_random(1, 123), [1.0])


def test_init_random_needs_a_vertex():
    with pytest.raises(ValueError, match="n must be at least 1"):
        init_random(0, 7)


def test_init_random_deterministic():
    np.testing.assert_array_equal(init_random(5, 7), init_random(5, 7))


def test_init_random_clamp_and_scale():
    x = init_random(1000, 99)
    assert x.max() == 1.0
    assert np.all(x >= 1e-3) and np.all(x <= 1.0)


def test_init_warm_examples():
    np.testing.assert_allclose(init_warm([0.0, 1.0]), [0.001, 1.0])
    np.testing.assert_allclose(init_warm([0.5, 0.5]), [0.5, 0.5])
    np.testing.assert_allclose(init_warm([2.0, 0.3]), [1.0, 0.3])
    with pytest.raises(ValueError):
        init_warm([0.5, float("inf")])
    with pytest.raises(ValueError):
        init_warm([0.5], n=2)
    with pytest.raises(ValueError, match="warm start must be a 1-d vector"):
        init_warm([[0.5, 0.5]])


# ---------------------------------------------------------------------------
# energy / mass / simplex / fitness


def test_energy_examples(k2_uniform):
    assert energy(k2_uniform, [0, 0], 1.7) == 0.0
    assert energy(k2_uniform, [1, 0], 0.3) == pytest.approx(-0.5)
    assert energy(k2_uniform, [1, 1], 1.0) == pytest.approx(0.0)


def test_energy_beyond_the_float_range_is_inf_silently():
    # gamma * y'Ay overflows, as run_wrgn's traced energies may; and v*x
    # overflows, which gave inf - inf, where the scaled state's does not
    g = build_graph(2, [(0, 1)], [1e300, 1e300])
    assert energy(g, np.array([1.0, 1.0]), 1e300) == math.inf
    assert energy(g, [1e300, 1e300], 1.0) == math.inf


def test_energy_of_a_state_above_one_is_its_unscaled_energy(p3_weighted):
    # the scaling is taken only where v*x overflows, so a state whose
    # products are subnormal keeps them, which the scaling would flush
    tiny = build_graph(1, [], [1e-310])
    for g, x in [(p3_weighted, [3.0, 5.0, 1.0]), (p3_weighted, [1e100, 0.0, 7.5]), (p3_weighted, [2.0, 2.0, 2.0]), (tiny, [3.0])]:
        y, ay = _products(g, np.array(x))
        assert energy(g, x, 1.3) == float(0.5 * (y @ y + 1.3 * (y @ ay)) - g.w @ x)


def test_is_normalizable_beyond_the_float_range_is_silent():
    # x + A@x overflows to inf, which is still positive
    assert is_normalizable(build_graph(2, [(0, 1)], [1.0, 1.0]), np.array([1e308, 1e308]))


def test_mass_and_simplex_state_beyond_the_float_range(p3_weighted):
    # w*x overflows: the mass is inf, and the coordinates, which do not
    # depend on the state's scale, are the scaled state's
    g = build_graph(2, [(0, 1)], [10.0, 10.0])
    assert weighted_mass(g, [1e308, 1e308]) == math.inf
    np.testing.assert_array_equal(simplex_state(g, [1e308, 1e308]), [0.5, 0.5])
    x = np.array([3.0, 5.0, 1.0])
    np.testing.assert_array_equal(simplex_state(p3_weighted, x), simplex_state(p3_weighted, x / 8.0))
    # a finite mass is the state's own: the scaling would flush this one to 0
    np.testing.assert_array_equal(simplex_state(build_graph(1, [], [5e-324]), [2.0]), [1.0])


def test_weighted_mass_examples(k2_heavy):
    assert weighted_mass(k2_heavy, [0, 0]) == 0.0
    assert weighted_mass(k2_heavy, [0.5, 0.5]) == pytest.approx(2.5)
    assert weighted_mass(k2_heavy, [1, 0]) == pytest.approx(4.0)


def test_simplex_state_examples(k2_uniform, k2_heavy):
    np.testing.assert_allclose(simplex_state(k2_uniform, [1, 1]), [0.5, 0.5])
    np.testing.assert_allclose(simplex_state(k2_heavy, [1, 1]), [0.8, 0.2])
    one_hot = simplex_state(k2_heavy, [0.0, 0.4])
    np.testing.assert_allclose(one_hot, [0.0, 1.0])
    with pytest.raises(ValueError):
        simplex_state(k2_heavy, [0.0, 0.0])


def test_fitness_flat_on_uniform_complete():
    for n in (2, 4, 6):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(n, edges, [1.0] * n)
        f, fbar = fitness(g, np.full(n, 1.0 / n), 1.0)
        np.testing.assert_allclose(f, np.ones(n))
        assert fbar == pytest.approx(1.0)


def test_fitness_k2_gamma_one(k2_uniform):
    f, fbar = fitness(k2_uniform, np.array([0.75, 0.25]), 1.0)
    np.testing.assert_allclose(f, [1.0, 1.0])
    assert fbar == pytest.approx(1.0)


def test_fitness_isolated_vertex():
    g = build_graph(1, [], [5.0])
    f, fbar = fitness(g, np.array([1.0]), 1.5)
    assert f[0] == pytest.approx(5.0)
    assert fbar == pytest.approx(5.0)


def test_fitness_zero_denominator():
    p3 = build_graph(3, [(0, 1), (1, 2)], [1, 1, 1])
    with pytest.raises(ValueError, match="zero denominator"):
        fitness(p3, np.array([1.0, 0.0, 0.0]), 1.0)


@pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, x, gamma: gn_step(g, x, gamma),
        lambda g, x, gamma: fitness(g, simplex_state(g, x), gamma),
        lambda g, x, gamma: energy(g, x, gamma),
        lambda g, x, gamma: reference.fixed_point_residual(g, x, gamma),
        lambda g, x, gamma: reference.jacobian_spectral_radius(g, x, gamma),
    ],
    ids=["gn_step", "fitness", "energy", "fixed_point_residual", "jacobian_spectral_radius"],
)
def test_gamma_must_be_positive_and_finite(p3_uniform, call, gamma):
    # each went on with such a gamma: at nan every step denominator is nan,
    # so gn_step returned the 0.5 fallback, fixed_point_residual 0.5 and
    # energy nan
    with pytest.raises(ValueError, match="^gamma must be positive and finite$"):
        call(p3_uniform, np.array([1.0, 0.0, 1.0]), gamma)


# ---------------------------------------------------------------------------
# Lyapunov identities (per-step, algebraic)


@given(graph_and_state(zero_ok=False), st.floats(0.1, 2.5))
@settings(max_examples=40)
def test_preconditioned_gradient_identity(gx, gamma):
    g, x = gx
    y = g.v * x
    x_new = gn_step(g, x, gamma)
    y_new = g.v * x_new
    grad = y + gamma * (g.adjacency() @ y) - g.v
    rhs = -(y_new / g.v) * grad
    scale = max(np.max(np.abs(y)), np.max(np.abs(y_new)), 1e-30)
    assert np.max(np.abs((y_new - y) - rhs)) / scale < 1e-10


@given(graph_and_state(zero_ok=False), st.floats(1.05, 2.5))
@settings(max_examples=40)
def test_replicator_mass_identity(gx, gamma):
    g, x = gx
    p = simplex_state(g, x)
    _, fbar = fitness(g, p, gamma)
    m_next = weighted_mass(g, gn_step(g, x, gamma))
    assert abs(m_next - fbar) / abs(fbar) < 1e-12


# ---------------------------------------------------------------------------
# rounding


def test_round_clean_threshold(k2_uniform):
    assert round_to_mis(k2_uniform, np.array([0.99, 0.01])).members == (0,)


def test_round_repair_tie_keeps_larger_index(k2_uniform):
    sol = round_to_mis(k2_uniform, np.array([0.6, 0.7]))
    assert sol.members == (1,)


def test_round_repair_drops_lighter(k2_heavy):
    sol = round_to_mis(k2_heavy, np.array([0.9, 0.9]))
    assert sol.members == (0,)


def test_round_completion_edgeless():
    g = build_graph(3, [], [1, 1, 1])
    sol = round_to_mis(g, np.array([0.2, 0.1, 0.3]))
    assert sol.members == (0, 1, 2)


@given(graph_and_state())
def test_round_always_valid_maximal(gx):
    g, x = gx
    sol = round_to_mis(g, x)
    assert sol.independent and sol.maximal


# ---------------------------------------------------------------------------
# stability score


def test_stability_score_takes_one_neighbour_sum(monkeypatch, star_k13, p3_uniform):
    """The maximality check reads the score's own A(v 1_M), not a second product."""
    leaves = MisSolution.from_members(star_k13, [1, 2, 3])
    not_maximal = MisSolution.from_members(p3_uniform, [0])
    calls = []

    def counted(g, z):
        calls.append(z)
        return neighbor_sums(g, z)

    monkeypatch.setattr("graphnorm.dynamics.neighbor_sums", counted)
    monkeypatch.setattr("graphnorm.graph.neighbor_sums", counted)
    assert mis_stability(star_k13, leaves, 1.2) == pytest.approx(3.6)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="maximal independent"):
        mis_stability(p3_uniform, not_maximal, 1.5)
    assert len(calls) == 2
