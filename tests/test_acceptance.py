"""Acceptance suite: one test per criterion of the build contract.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``).
Criteria with stated runtime budgets assert them.  Everything is seeded,
so reruns are bit-reproducible.
"""

import math
import time

import numpy as np
import pytest

from graphnorm import (
    GammaSchedule,
    build_graph,
    erdos_renyi,
    energy,
    fitness,
    gn_step,
    init_random,
    round_to_mis,
    run_wrgn,
    simplex_state,
    weighted_mass,
)
from graphnorm.cli import main
from graphnorm.enumeration import census
from graphnorm.oracle import brute_force_mwis, correspondence_check

from exhaustive import exhaustive_mwis
from reference import parse_result

CORPUS_SIZE = 200


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """200 Erdos-Renyi instances, n in [4, 64], p = 0.3, weights U[0.1, 10]."""
    rng = np.random.default_rng(20_240_001)
    graphs = []
    for k in range(CORPUS_SIZE):
        n = int(rng.integers(4, 65))
        graphs.append(erdos_renyi(n, 0.3, [20_240_001, k]))
    return graphs


def test_criterion_1_lyapunov_monotonicity(corpus):
    """Strict energy descent and mass growth, slack 1e-10 per step, < 60 s."""
    t0 = time.perf_counter()
    energy_violations = 0
    mass_violations = 0
    steps = 0
    for i, g in enumerate(corpus):
        for gamma in (1.2, 1.5):
            x0 = init_random(g.n, [1001, i])
            _, trace = run_wrgn(
                g, x0, GammaSchedule.constant(gamma, 500), record_trace=True
            )
            e = np.asarray(trace.energy)
            pe = np.asarray(trace.pre_energy)
            m = np.asarray(trace.mass)
            energy_violations += int(np.sum(e - pe > 1e-10))
            mass_violations += int(np.sum(np.diff(m) < -1e-10))
            steps += len(trace)
            assert trace.total_fallbacks == 0
    elapsed = time.perf_counter() - t0
    ok = energy_violations == 0 and mass_violations == 0 and elapsed < 60.0
    _report(
        1,
        ok,
        f"energy violations {energy_violations}, mass violations {mass_violations} "
        f"over {steps} steps in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_algebraic_identities(corpus):
    """Preconditioned-gradient identity (rel 1e-10) and replicator mass
    identity (rel 1e-12) along trajectories over the same corpus."""
    worst_precond = 0.0
    worst_replicator = 0.0
    for i, g in enumerate(corpus):
        for gamma in (1.2, 1.5):
            x = init_random(g.n, [2001, i])
            for _ in range(100):
                y = g.v * x
                grad = y + gamma * (g.adjacency() @ y) - g.v
                p = simplex_state(g, x)
                _, fbar = fitness(g, p, gamma)
                x_new = gn_step(g, x, gamma)
                y_new = g.v * x_new
                rhs = -(y_new / g.v) * grad
                scale = max(float(np.max(np.abs(y))), float(np.max(np.abs(y_new))))
                resid = float(np.max(np.abs((y_new - y) - rhs))) / scale
                worst_precond = max(worst_precond, resid)
                m_next = weighted_mass(g, x_new)
                worst_replicator = max(
                    worst_replicator, abs(m_next - fbar) / abs(fbar)
                )
                x = x_new
    ok = worst_precond < 1e-10 and worst_replicator < 1e-12
    _report(
        2,
        ok,
        f"preconditioned-gradient residual {worst_precond:.2e} (tol 1e-10), "
        f"replicator mass residual {worst_replicator:.2e} (tol 1e-12)",
    )


def test_criterion_3_binarization(corpus):
    """Default pursuit schedule rounds to a valid maximal IS on 100% of the
    corpus; pre-rounding states are within 1e-3 of binary on >= 99%."""
    valid = 0
    near_binary = 0
    for i, g in enumerate(corpus):
        x0 = init_random(g.n, [3001, i])
        x, _ = run_wrgn(g, x0, GammaSchedule.pursuit())
        sol = round_to_mis(g, x)
        valid += int(sol.independent and sol.maximal)
        near_binary += int(float(np.max(np.minimum(x, 1.0 - x))) <= 1e-3)
    ok = valid == CORPUS_SIZE and near_binary >= math.ceil(0.99 * CORPUS_SIZE)
    _report(
        3,
        ok,
        f"valid maximal sets {valid}/{CORPUS_SIZE}, "
        f"near-binary states {near_binary}/{CORPUS_SIZE} (need >= 198)",
    )


def test_criterion_4_atomic_census():
    """Census rows n = 1..7 match the published table exactly, < 5 min."""
    t0 = time.perf_counter()
    rows = [census(n) for n in range(1, 8)]
    elapsed = time.perf_counter() - t0
    connected = tuple(r.connected_total for r in rows)
    atomic = tuple(r.atomic_total for r in rows)
    splits = {
        r.n: (
            r.irregular_discrete,
            r.irregular_continuous,
            r.regular_discrete,
            r.regular_continuous,
        )
        for r in rows
    }
    ok = (
        connected == (1, 1, 2, 6, 21, 112, 853)
        and atomic == (1, 1, 1, 2, 4, 13, 44)
        and splits[5] == (1, 1, 1, 1)
        and splits[6] == (2, 6, 3, 2)
        and splits[7] == (19, 21, 2, 2)
        and elapsed < 300.0
    )
    _report(
        4,
        ok,
        f"connected {connected}, atomic {atomic}, splits 5/6/7 "
        f"{splits[5]}/{splits[6]}/{splits[7]} in {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_5_oracle_agreement():
    """brute force == exhaustive scan on 500 graphs (n <= 14); the stability
    score and the tilted-simplex local-minimum test agree outside the
    |stab - 1| < 0.05 band.  Budget 10 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5001)
    mismatches = 0
    correspondence_failures = 0
    stable_checked = unstable_checked = 0
    for k in range(500):
        n = int(rng.integers(2, 15))
        g = erdos_renyi(n, 0.3, [5001, k])
        sol = brute_force_mwis(g)
        members, weight = exhaustive_mwis(g)
        if list(sol.members) != members:
            mismatches += 1
        report = correspondence_check(g, 1.5, perturbations=200, seed=k)
        for rec in report.mis_list:
            if rec.stab > 1.05:
                stable_checked += 1
                if not rec.local_min_verified:
                    correspondence_failures += 1
            elif rec.stab < 0.95:
                unstable_checked += 1
                if rec.local_min_verified:
                    correspondence_failures += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and correspondence_failures == 0 and elapsed < 600.0
    _report(
        5,
        ok,
        f"oracle mismatches {mismatches}/500, correspondence failures "
        f"{correspondence_failures} ({stable_checked} stable / {unstable_checked} "
        f"unstable checked) in {elapsed:.1f}s (budget 600s)",
    )


def test_criterion_6_mwis_attractor():
    """Perturbing the optimum indicator by 1e-3 noise and iterating at
    constant gamma = 1.5 rounds back to the optimum on 100% of trials."""
    rng_n = np.random.default_rng(6001)
    trials = 0
    recovered = 0
    for k in range(200):
        n = int(rng_n.integers(2, 17))
        g = erdos_renyi(n, 0.3, [6001, k])
        opt = brute_force_mwis(g)
        indicator = np.zeros(g.n)
        indicator[list(opt.members)] = 1.0
        for trial in range(2):
            noise_rng = np.random.default_rng([6001, k, trial])
            x0 = np.clip(indicator + noise_rng.uniform(-1e-3, 1e-3, g.n), 0.0, None)
            x, _ = run_wrgn(g, x0, GammaSchedule.constant(1.5, 400))
            trials += 1
            recovered += int(round_to_mis(g, x).members == opt.members)
    ok = recovered == trials
    _report(6, ok, f"optimum recovered on {recovered}/{trials} perturbed trials")


def _k2_limit(g, x0, gamma):
    x, _ = run_wrgn(
        g, np.asarray(x0, float), GammaSchedule.constant(gamma, 200_000),
        early_exit=True,
    )
    return x


def _simplex_start(g, p):
    """State whose simplex coordinates are p (the map is scale invariant)."""
    x = np.asarray(p, float) / g.w
    return x / x.max()


def test_criterion_7_k2_phase_transitions():
    """Sweeping constant gamma on a weighted edge recovers both transitions:
    fractional limits matching the energy-apex formula below 1/sqrt(w0),
    the heavy endpoint from every start in between, and the light endpoint
    from the simplex start (0.01, 0.99) above sqrt(w0) + 0.01."""
    failures = []
    for w0 in (2.0, 4.0):
        g = build_graph(2, [(0, 1)], [w0, 1.0])
        gamma_b = 1.0 / math.sqrt(w0)
        gamma_d = math.sqrt(w0)
        grid = np.round(np.arange(0.01, gamma_d + 0.30, 0.01), 2)

        # transition to binary from the central start
        first_binary = None
        for gamma in grid:
            x = _k2_limit(g, _simplex_start(g, [0.5, 0.5]), float(gamma))
            is_binary = float(np.max(np.minimum(x, 1.0 - x))) < 1e-3
            if is_binary and first_binary is None:
                first_binary = float(gamma)
            if not is_binary:
                p1 = simplex_state(g, x)[1]
                apex = (1 - gamma * math.sqrt(w0)) / (1 + w0 - 2 * gamma * math.sqrt(w0))
                if abs(p1 - apex) > 1e-4:
                    failures.append(f"w0={w0} gamma={gamma}: apex mismatch {p1} vs {apex}")
                if gamma > gamma_b + 1e-9:
                    failures.append(f"w0={w0} gamma={gamma}: fractional above gamma_B")
        if first_binary is None or abs(first_binary - gamma_b) > 0.01 + 1e-9:
            failures.append(f"w0={w0}: binarization onset {first_binary} vs gamma_B {gamma_b}")

        # between the transitions every start reaches the heavy endpoint
        battery = [(0.5, 0.5), (0.01, 0.99), (0.99, 0.01), (0.3, 0.7), (0.7, 0.3)]
        for gamma in grid:
            if not (gamma_b + 1e-9 < gamma <= gamma_d - 0.01 + 1e-9):
                continue
            for p in battery:
                x = _k2_limit(g, _simplex_start(g, p), float(gamma))
                if round_to_mis(g, x).members != (0,):
                    failures.append(f"w0={w0} gamma={gamma}: start {p} missed heavy")

        # above gamma_D + 0.01 the light-biased start stays light
        first_light = None
        for gamma in grid:
            x = _k2_limit(g, _simplex_start(g, [0.01, 0.99]), float(gamma))
            reached_light = round_to_mis(g, x).members == (1,)
            if reached_light and first_light is None:
                first_light = float(gamma)
            if gamma > gamma_d + 0.01 + 1e-9 and not reached_light:
                failures.append(f"w0={w0} gamma={gamma}: light MIS not reached")
            if reached_light and gamma < gamma_d - 1e-9:
                failures.append(f"w0={w0} gamma={gamma}: light MIS below gamma_D")
        if first_light is None or not (gamma_d < first_light <= gamma_d + 0.02 + 1e-9):
            failures.append(f"w0={w0}: light onset {first_light} vs gamma_D {gamma_d}")

    ok = not failures
    _report(7, ok, "transitions recovered at grid 0.01" if ok else "; ".join(failures[:4]))


def test_criterion_8_bench_format_on_toys(tmp_path, capsys):
    """Full-scale gap/timing tables need the proprietary benchmark instances
    and external fractional warm starts; out of desk scope by design.  The
    bench harness reproduces the table format and gap arithmetic on toys and
    accepts the real instances through the same interface if obtained."""
    (tmp_path / "k2.mwis").write_text("p mwis 2 1\nn 1 4\nn 2 1\ne 1 2\n")
    (tmp_path / "p3.mwis").write_text(
        "p mwis 3 2\nn 1 1\nn 2 3\nn 3 1\ne 1 2\ne 2 3\n"
    )
    refs = tmp_path / "refs.csv"
    refs.write_text("k2,4\np3,6\n")  # p3 reference chosen above optimum: 50% gap
    results = tmp_path / "results"
    code = main(
        [
            "bench",
            str(tmp_path),
            "--reference",
            str(refs),
            "--starts",
            "2",
            "--iterations",
            "200",
            "--results-dir",
            str(results),
        ]
    )
    table = capsys.readouterr().out
    k2_res = parse_result((results / "k2.json").read_text())
    p3_res = parse_result((results / "p3.json").read_text())
    ok = (
        code == 0
        and "E[Gap]" in table
        and "BestGap" in table
        and k2_res.gap_percent == pytest.approx(0.0)
        and p3_res.gap_percent == pytest.approx(50.0)
        and p3_res.best_objective == 3.0
    )
    _report(
        8,
        ok,
        "bench table format and gap arithmetic reproduced on toy instances "
        "(full AVR/MSCD tables not reproducible at desk scale)",
    )
