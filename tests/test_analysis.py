import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from graphnorm import (
    GammaSchedule,
    GraphError,
    MisSolution,
    build_graph,
    erdos_renyi,
    init_random,
    round_to_mis,
    run_wrgn,
)
from graphnorm.dynamics import mis_stability
from graphnorm.enumeration import SpectrumKind, _dominated, _positive_point, atom_spectrum
from graphnorm.io import parse_graph6
from graphnorm.oracle import brute_force_mwis, enumerate_mises, mis_simplex_point
from reference import fixed_point_residual, jacobian_spectral_radius, tilted_simplex_q


# ---------------------------------------------------------------------------
# stability score


def test_stability_star_leaves(star_k13):
    leaves = MisSolution.from_members(star_k13, [1, 2, 3])
    assert mis_stability(star_k13, leaves, 1.2) == pytest.approx(3.6)


def test_stability_star_center(star_k13):
    center = MisSolution.from_members(star_k13, [0])
    assert mis_stability(star_k13, center, 1.2) == pytest.approx(1.2)


def test_stability_k2_light(k2_heavy):
    light = MisSolution.from_members(k2_heavy, [1])
    assert mis_stability(k2_heavy, light, 1.0) == pytest.approx(0.5)


def test_stability_full_vertex_set_is_infinite():
    g = build_graph(3, [], [1, 2, 3])
    m = MisSolution.from_members(g, [0, 1, 2])
    assert mis_stability(g, m, 1.5) == math.inf


def test_stability_at_the_float_range_ends():
    # v_j / v_i is 1e300 and 1e-300, where sqrt(w_j / w_i) overflows and underflows
    g = build_graph(2, [(0, 1)], [1e300, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heavy = mis_stability(g, MisSolution.from_members(g, [0]), 1.5)
        light = mis_stability(g, MisSolution.from_members(g, [1]), 1.5)
    assert heavy == pytest.approx(1.5e300, rel=1e-15)
    assert light == pytest.approx(1.5e-300, rel=1e-15)


def test_stability_rejects_non_maximal(p3_uniform):
    not_maximal = MisSolution.from_members(p3_uniform, [0])
    with pytest.raises(ValueError):
        mis_stability(p3_uniform, not_maximal, 1.5)


def test_mwis_always_gamma_stable():
    # optimal sets score at least gamma for any gamma > 1
    for k in range(30):
        g = erdos_renyi(int(3 + k % 10), 0.4, [21, k])
        opt = brute_force_mwis(g)
        for gamma in (1.1, 1.5, 2.0):
            assert mis_stability(g, opt, gamma) >= gamma - 1e-12


# ---------------------------------------------------------------------------
# fixed points and Jacobian


def test_residual_binary_fixed_point(p3_uniform):
    assert fixed_point_residual(p3_uniform, np.array([1.0, 0.0, 1.0]), 1.7) == 0.0


def test_residual_interior_point(k2_uniform):
    x = np.array([0.4, 0.4])  # solves x + 1.5 x = 1
    assert fixed_point_residual(k2_uniform, x, 1.5) == pytest.approx(0.0, abs=1e-15)
    assert fixed_point_residual(k2_uniform, np.array([0.6, 0.4]), 1.5) > 0


def test_jacobian_k1():
    g = build_graph(1, [], [2.0])
    assert jacobian_spectral_radius(g, np.array([1.0]), 1.3) == pytest.approx(0.0)


def test_jacobian_k2_binary(k2_uniform):
    rho = jacobian_spectral_radius(k2_uniform, np.array([1.0, 0.0]), 1.5)
    assert rho == pytest.approx(2 / 3)


def test_jacobian_k2_fractional_repulsive(k2_uniform):
    rho = jacobian_spectral_radius(k2_uniform, np.array([0.4, 0.4]), 1.5)
    assert rho == pytest.approx(1.2)
    assert rho > 1.0


def test_jacobian_requires_fixed_point(k2_uniform):
    with pytest.raises(ValueError):
        jacobian_spectral_radius(k2_uniform, np.array([0.6, 0.4]), 1.5)


def test_jacobian_matches_inverse_stability():
    # binary fixed point: radius equals 1/stab when one vertex attains the min
    rng = np.random.default_rng(4)
    for k in range(20):
        g = erdos_renyi(int(rng.integers(3, 12)), 0.35, [33, k])
        opt = brute_force_mwis(g)
        if len(opt.members) == g.n:
            continue  # edgeless: no outside block
        x = np.zeros(g.n)
        x[list(opt.members)] = 1.0
        gamma = 1.5
        stab = mis_stability(g, opt, gamma)
        rho = jacobian_spectral_radius(g, x, gamma)
        assert rho == pytest.approx(1.0 / stab, abs=1e-8)


@pytest.mark.parametrize("n", [513, 600])
def test_jacobian_exact_above_512(n):
    # above 512 vertices the radius is still the exact one, 1/stab at an MIS
    g = erdos_renyi(n, 0.01, [77, n])
    sol = round_to_mis(g, np.zeros(n))
    x = np.zeros(n)
    x[list(sol.members)] = 1.0
    gamma = 1.5
    rho = jacobian_spectral_radius(g, x, gamma)
    assert rho == pytest.approx(1.0 / mis_stability(g, sol, gamma), abs=1e-9)


# ---------------------------------------------------------------------------
# atomic spectrum


def test_atom_k1():
    s = atom_spectrum(np.zeros((1, 1), dtype=int))
    assert s.kind is SpectrumKind.DISCRETE
    assert s.witness == (Fraction(1),)
    assert s.nullity == 0 and s.regular


def test_atom_k3_continuous():
    a = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
    s = atom_spectrum(a)
    assert s.kind is SpectrumKind.CONTINUOUS
    assert s.nullity == 2
    assert s.witness == (Fraction(1, 3),) * 3
    assert s.regular


def test_atom_p3_empty():
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    s = atom_spectrum(a)
    assert s.kind is SpectrumKind.EMPTY
    assert s.witness is None


def test_atom_c4_discrete():
    a = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    s = atom_spectrum(a)
    assert s.kind is SpectrumKind.DISCRETE
    assert s.witness == (Fraction(1, 3),) * 4
    assert s.regular


def test_atom_rejects_disconnected():
    a = np.zeros((2, 2), dtype=int)
    with pytest.raises(ValueError):
        atom_spectrum(a)


@pytest.mark.parametrize(
    "adj, message",
    [
        (np.zeros((2, 3), dtype=int), "adjacency must be square"),
        (np.zeros((0, 0), dtype=int), "graph must have at least one vertex"),
        (np.array([[0, 1], [0, 0]]), "adjacency must be symmetric with zero diagonal"),
    ],
    ids=["non-square", "empty", "asymmetric"],
)
def test_atom_rejects_malformed_adjacency(adj, message):
    with pytest.raises(ValueError, match=message):
        atom_spectrum(adj)


def test_atom_rejects_entries_other_than_0_or_1():
    # the domination shortcut reads closed neighbourhoods, so a multigraph
    # weight of 2 is an input error, not an edge
    a = np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
        atom_spectrum(a)


def test_dominated_examples():
    p3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # N[0] inside N[1]
    c5 = np.zeros((5, 5), dtype=int)
    for i in range(5):
        c5[i, (i + 1) % 5] = c5[(i + 1) % 5, i] = 1
    k4 = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)  # equal, not strict
    diamond = k4.copy()
    diamond[0, 1] = diamond[1, 0] = 0  # N[0] inside N[2]
    assert bool(_dominated(p3)) and not _dominated(c5) and not _dominated(k4)
    assert bool(_dominated(diamond))
    assert _dominated(np.zeros((0, 3, 3))).shape == (0,)


def test_dominated_stack_matches_one_graph_at_a_time():
    from graphnorm.enumeration import connected_graphs_upto

    undominated = []
    for n in range(1, 8):
        graphs = list(connected_graphs_upto(n))
        flags = _dominated(np.stack(graphs))
        assert flags.tolist() == [bool(_dominated(a)) for a in graphs]
        for adj, dominated in zip(graphs, flags):
            degs = adj.sum(axis=1)
            assert not (dominated and np.all(degs == degs[0]))  # regular never
        undominated.append(int((~flags).sum()))
    assert undominated == [1, 1, 1, 2, 4, 16, 76]


def test_regular_graphs_are_atomic_with_uniform_witness():
    cases = []
    for n in (4, 5, 6, 8):  # cycles C_n, 2-regular
        a = np.zeros((n, n), dtype=int)
        for i in range(n):
            a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
        cases.append((a, 2))
    kn = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
    cases.append((kn, 4))
    # a cubic graph whose solution polytope has a non-uniform vertex centroid
    cases.append((parse_graph6("GaKkn?"), 3))
    for a, d in cases:
        s = atom_spectrum(a)
        assert s.kind is not SpectrumKind.EMPTY
        assert s.witness == (Fraction(1, d + 1),) * a.shape[0]


def test_atom_spectrum_takes_no_centroid_of_a_regular_graph():
    # the uniform vector is a regular graph's witness; the centroid of the
    # solution polytope was computed for it and then thrown away
    from graphnorm.enumeration import connected_graphs_upto

    regular = 0
    for adj in (a for n in range(1, 8) for a in connected_graphs_upto(n) if not _dominated(a)):
        with mock.patch("graphnorm.enumeration._positive_point", wraps=_positive_point) as centroid:
            s = atom_spectrum(adj)
        if s.regular:
            regular += 1
            assert not centroid.called
    assert regular == 16
    with mock.patch("graphnorm.enumeration._positive_point", wraps=_positive_point) as centroid:
        s = atom_spectrum(parse_graph6("DFw"))  # irregular, with a unique positive solution
    assert centroid.call_count == 1 and s.kind is SpectrumKind.DISCRETE and not s.regular


def test_positive_point_is_the_vertex_centroid():
    # x = (z1, z1, 1 + z2, 1 - z1 - z2): a triangle with vertices (0, -1),
    # (0, 1), (2, -1); the duplicated row x_1 = x_2 makes singular candidates
    F = Fraction
    particular = [0, 0, 1, 1]
    kernel = [[1, 1, 0, -1], [0, 0, 1, -1]]
    assert _positive_point(particular, kernel, 1) == [F(2, 3)] * 4
    # the same triangle as x = (P + K z) / 3: the centroid ignores the scale
    assert _positive_point([0, 0, 3, 3], kernel, 3) == [F(2, 3)] * 4
    # an empty kernel leaves one point, kept only when strictly positive
    assert _positive_point([3, 2], [], 6) == [F(1, 2), F(1, 3)]
    assert _positive_point([1, 0], [], 2) is None
    assert _positive_point([1, -2], [], 2) is None


def test_atom_witness_solves_equation_exactly():
    # every non-empty spectrum returns an exact rational witness of Bx=1
    from graphnorm.enumeration import connected_graphs_upto

    for adj in connected_graphs_upto(5):
        s = atom_spectrum(adj)
        if s.kind is SpectrumKind.EMPTY:
            continue
        n = adj.shape[0]
        for i in range(n):
            total = s.witness[i] + sum(
                s.witness[j] for j in range(n) if adj[i][j]
            )
            assert total == 1
            assert s.witness[i] > 0


# ---------------------------------------------------------------------------
# tilted-simplex quadratic form


def test_q_at_mis_point_is_inverse_weight(p3_weighted):
    for members in ([1], [0, 2]):
        r = mis_simplex_point(p3_weighted, members)
        w = sum(p3_weighted.w[i] for i in members)
        assert tilted_simplex_q(p3_weighted, r, 1.5) == pytest.approx(1.0 / w, abs=1e-12)


def test_mis_simplex_point_reads_a_member_set(p3_weighted):
    # -1 wrapped to the last vertex, and a repeated member counted twice in W
    with pytest.raises(GraphError, match=r"vertex index outside \[0,3\)"):
        mis_simplex_point(p3_weighted, [-1])
    np.testing.assert_array_equal(mis_simplex_point(p3_weighted, [0, 0]), mis_simplex_point(p3_weighted, [0]))
    assert mis_simplex_point(p3_weighted, [0, 0])[0] == 1.0


def test_q_single_vertex():
    g = build_graph(1, [], [1.0])
    assert tilted_simplex_q(g, [1.0], 1.5) == pytest.approx(1.0)


def test_q_k2_uniform_expansion(k2_uniform):
    assert tilted_simplex_q(k2_uniform, [0.5, 0.5], 1.0) == pytest.approx(1.0)


def test_q_membership_enforced(k2_uniform):
    with pytest.raises(ValueError):
        tilted_simplex_q(k2_uniform, [0.5, 0.4], 1.0)
    with pytest.raises(ValueError):
        tilted_simplex_q(k2_uniform, [1.5, -0.5], 1.0)


# ---------------------------------------------------------------------------
# dynamic acceptance of binary fixed points vs the stability score


def _perturbed_indicator(g, members, rng):
    x = np.zeros(g.n)
    x[list(members)] = 1.0
    x = x + rng.uniform(-1e-3, 1e-3, g.n)
    return np.clip(x, 0.0, None)


def _weak_outside(g, members, gamma):
    inside = np.zeros(g.n, dtype=bool)
    inside[list(members)] = True
    weak = []
    for i in range(g.n):
        if inside[i]:
            continue
        nb = g.neighbors(i)
        s = gamma * float(np.sum(np.sqrt(g.w[nb[inside[nb]]] / g.w[i])))
        if s < 1.0:
            weak.append(i)
    return weak


def test_stability_score_predicts_dynamic_acceptance():
    rng = np.random.default_rng(17)
    gamma = 1.5
    checked_stable = checked_unstable = 0
    for k in range(40):
        g = erdos_renyi(int(rng.integers(4, 11)), 0.35, [71, k])
        for sol in enumerate_mises(g):
            stab = mis_stability(g, sol, gamma)
            if abs(stab - 1.0) < 0.05 or not math.isfinite(stab):
                continue
            if stab > 1.05:
                x0 = _perturbed_indicator(g, sol.members, rng)
                x, _ = run_wrgn(g, x0, GammaSchedule.constant(gamma, 600))
                assert round_to_mis(g, x).members == sol.members
                checked_stable += 1
            elif stab < 0.95:
                # a perturbation probes instability only if it puts mass on a
                # sub-unity outside vertex (zeros are absorbing)
                weak = _weak_outside(g, sol.members, gamma)
                escaped = False
                for _ in range(20):
                    x0 = _perturbed_indicator(g, sol.members, rng)
                    if not any(x0[i] > 0 for i in weak):
                        continue
                    x, _ = run_wrgn(g, x0, GammaSchedule.constant(gamma, 800))
                    if round_to_mis(g, x).members != sol.members:
                        escaped = True
                        break
                assert escaped, f"unstable MIS retained: stab={stab}"
                checked_unstable += 1
    assert checked_stable > 20 and checked_unstable > 20


def test_pursuit_converges_to_gamma_stable_mis():
    for k in range(15):
        g = erdos_renyi(14, 0.3, [81, k])
        x0 = init_random(g.n, [81, k, 1])
        x, _ = run_wrgn(g, x0, GammaSchedule.pursuit())
        sol = round_to_mis(g, x)
        assert sol.independent and sol.maximal
        assert mis_stability(g, sol, 1.5) > 1.0
