import math

import numpy as np
import pytest

from graphnorm import MisSolution, build_graph, erdos_renyi
from graphnorm.oracle import (
    MisCorrespondence,
    OracleReport,
    brute_force_mwis,
    correspondence_check,
    enumerate_mises,
)

from exhaustive import exhaustive_maximal_sets, exhaustive_mwis
import reference


def test_brute_force_k2(k2_heavy):
    sol = brute_force_mwis(k2_heavy)
    assert sol.members == (0,) and sol.weight == 4.0


def test_brute_force_p3(p3_weighted):
    sol = brute_force_mwis(p3_weighted)
    assert sol.members == (1,) and sol.weight == 3.0


def test_brute_force_c5_uniform():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [1.0] * 5)
    sol = brute_force_mwis(g)
    assert sol.weight == 2.0 and len(sol.members) == 2


def test_brute_force_rejects_large():
    g = build_graph(33, [], [1.0] * 33)
    with pytest.raises(ValueError):
        brute_force_mwis(g)


def test_enumeration_and_correspondence_reject_large():
    with pytest.raises(ValueError, match="enumeration supports n <= 24, got 25"):
        enumerate_mises(build_graph(25, [], [1.0] * 25))
    with pytest.raises(ValueError, match="correspondence check supports n <= 16"):
        correspondence_check(build_graph(17, [], [1.0] * 17), 1.5, 0)


def test_brute_force_matches_subset_scan():
    # oracle-of-the-oracle on a deterministic random corpus
    rng = np.random.default_rng(5)
    for k in range(120):
        g = erdos_renyi(int(rng.integers(2, 13)), 0.35, [91, k])
        sol = brute_force_mwis(g)
        members, weight = exhaustive_mwis(g)
        assert sol.weight == pytest.approx(weight, rel=1e-12)
        assert list(sol.members) == members
        assert sol.independent and sol.maximal


def test_enumerate_k2(k2_uniform):
    sets = [s.members for s in enumerate_mises(k2_uniform)]
    assert sets == [(0,), (1,)]


def test_enumerate_p3(p3_uniform):
    sets = [s.members for s in enumerate_mises(p3_uniform)]
    assert sets == [(0, 2), (1,)]


def test_enumerate_k1():
    g = build_graph(1, [], [2.0])
    assert [s.members for s in enumerate_mises(g)] == [(0,)]


def test_oracle_empty_graph():
    g = build_graph(0, [], [])
    empty = brute_force_mwis(g)
    assert empty.members == () and empty.weight == 0.0
    assert empty.independent and empty.maximal
    assert enumerate_mises(g) == [empty]


def test_correspondence_check_rejects_empty_graph():
    # the empty MIS carries no tilted-simplex point, so there is nothing to check
    with pytest.raises(ValueError, match="needs at least one vertex"):
        correspondence_check(build_graph(0, [], []), 1.5, 10)


def test_enumerate_matches_subset_scan():
    rng = np.random.default_rng(6)
    for k in range(80):
        g = erdos_renyi(int(rng.integers(1, 12)), 0.3, [92, k])
        got = [s.members for s in enumerate_mises(g)]
        assert got == exhaustive_maximal_sets(g)
        assert all(s.independent and s.maximal for s in enumerate_mises(g))


def test_enumerate_emits_ascending_member_tuples():
    # the search's own order is the contract: no sort on the way out, and
    # none here, only a check that each tuple is below the next
    rng = np.random.default_rng(15)
    for k in range(300):
        g = erdos_renyi(int(rng.integers(0, 17)), float(rng.uniform(0.05, 0.6)), [15, k])
        tuples = [s.members for s in enumerate_mises(g)]
        assert all(a < b for a, b in zip(tuples, tuples[1:]))


def test_correspondence_k2_heavy(k2_heavy):
    report = correspondence_check(k2_heavy, 1.5, perturbations=500)
    by_members = {r.solution.members: r for r in report.mis_list}
    heavy, light = by_members[(0,)], by_members[(1,)]
    assert heavy.stab == pytest.approx(3.0)
    assert heavy.q_value == pytest.approx(0.25, abs=1e-12)
    assert heavy.local_min_verified
    assert light.stab == pytest.approx(0.75)
    assert light.q_value == pytest.approx(1.0, abs=1e-12)
    assert not light.local_min_verified
    assert report.optimum.members == (0,)
    assert not report.violations


def test_correspondence_k1():
    g = build_graph(1, [], [5.0])
    report = correspondence_check(g, 1.5, perturbations=50)
    (rec,) = report.mis_list
    assert rec.stab == math.inf
    assert rec.q_value == pytest.approx(0.2, abs=1e-12)
    assert rec.local_min_verified


def test_correspondence_rejects_negative_perturbations(p3_uniform):
    with pytest.raises(ValueError, match="perturbations must be nonnegative"):
        correspondence_check(p3_uniform, 1.5, -5)


def test_correspondence_without_random_probes(k2_heavy):
    # the one deterministic probe per outside vertex still decides each MIS
    report = correspondence_check(k2_heavy, 1.5, perturbations=0)
    by_members = {r.solution.members: r for r in report.mis_list}
    assert by_members[(0,)].local_min_verified
    assert not by_members[(1,)].local_min_verified
    assert not report.violations


def test_correspondence_p3_uniform(p3_uniform):
    report = correspondence_check(p3_uniform, 1.5, perturbations=300)
    by_members = {r.solution.members: r for r in report.mis_list}
    assert by_members[(1,)].stab == pytest.approx(1.5)
    assert by_members[(0, 2)].stab == pytest.approx(3.0)
    assert by_members[(1,)].q_value == pytest.approx(1.0, abs=1e-12)
    assert by_members[(0, 2)].q_value == pytest.approx(0.5, abs=1e-12)
    assert all(r.local_min_verified for r in report.mis_list)


def test_correspondence_report_invariants():
    rng = np.random.default_rng(7)
    for k in range(25):
        g = erdos_renyi(int(rng.integers(2, 11)), 0.35, [93, k])
        report = correspondence_check(g, 1.5, perturbations=200, seed=k)
        weights = [r.solution.weight for r in report.mis_list]
        assert report.optimum.weight == pytest.approx(max(weights), rel=1e-12)
        assert report.optimum.members in [r.solution.members for r in report.mis_list]
        for r in report.mis_list:
            assert r.q_matches
        assert not report.violations


def _record(stab, verified):
    sol = MisSolution.from_members(build_graph(1, [], [1.0]), [0])
    return MisCorrespondence(
        solution=sol,
        stab=stab,
        q_value=1.0,
        q_matches=True,
        local_min_verified=verified,
        worst_descent=0.0 if verified else -1e-6,
    )


def test_violations_report_contradicting_records_in_order():
    # stable but not a local minimum, and unstable but a local minimum, are
    # violations; scores in the marginal band [0.95, 1.05] never are
    records = (
        _record(1.2, False),
        _record(0.97, False),
        _record(2.0, True),
        _record(0.9, True),
        _record(1.03, True),
        _record(0.97, True),
        _record(1.03, False),
        _record(0.5, False),
    )
    report = OracleReport(optimum=records[0].solution, mis_list=records)
    assert report.violations == [records[0], records[3]]


def test_motzkin_straus_small_graphs_thorough():
    # connected graphs up to 6 vertices, random positive weights, gamma=1.5:
    # gamma-stable sets are local minima under 1000 random probes, sets with
    # stab < 1 admit a strictly decreasing direction
    from graphnorm.enumeration import connected_graphs_upto
    from graphnorm import build_graph as bg

    rng = np.random.default_rng(8)
    stable_seen = unstable_seen = 0
    for n in range(1, 7):
        for adj in connected_graphs_upto(n):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j]]
            g = bg(n, edges, rng.uniform(0.1, 10.0, n))
            report = correspondence_check(g, 1.5, perturbations=1000, seed=n)
            for rec in report.mis_list:
                assert rec.q_matches
                if rec.stab > 1.05:
                    assert rec.local_min_verified
                    stable_seen += 1
                elif rec.stab < 0.95:
                    assert not rec.local_min_verified
                    unstable_seen += 1
    assert stable_seen > 100 and unstable_seen > 30


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_correspondence_flags_are_scale_free(scale):
    # Q at the point of an MIS of weight W is 1/W: probes and tolerances scale with it
    for k in range(30):
        g = erdos_renyi(12, 0.3, k)
        scaled = build_graph(g.n, reference.edges(g), g.w * scale)
        flags = [
            [(r.local_min_verified, r.q_matches) for r in correspondence_check(h, 1.5, 1000).mis_list]
            for h in (g, scaled)
        ]
        assert flags[1] == flags[0], f"graph {k}"
