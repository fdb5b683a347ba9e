"""Multi-start orchestration: run trajectories, round, and aggregate.

Each random start owns an RNG stream derived from (base seed, start
index), so results are byte-identical whichever pool thread runs a start
and in whatever order the starts finish.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .dynamics import (
    GammaSchedule,
    NormalizationError,
    SolveTrace,
    init_random,
    init_warm,
    round_to_mis,
    run_wrgn,
)
from .graph import WeightedGraph
from .io import SolveResult, StartRecord, make_result


_PURSUIT = GammaSchedule.pursuit()


@dataclass
class RunConfig:
    """Knobs of a solve run; the schedule defaults are GammaSchedule.pursuit()'s."""

    gamma0: float = _PURSUIT.gamma0
    gamma1: float = _PURSUIT.gamma1
    iterations: int = _PURSUIT.iterations
    starts: int = 16
    seed: int = 0
    trace: bool = False

    def schedule(self) -> GammaSchedule:
        """The run's schedule; ValueError on a config no solve accepts, each gamma checked first."""
        schedule = GammaSchedule(self.gamma0, self.gamma1, self.iterations)
        if schedule.gamma1 < schedule.gamma0:
            raise ValueError("need gamma1 >= gamma0")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        return schedule


def _run_single(
    g: WeightedGraph,
    schedule: GammaSchedule,
    record_trace: bool,
    start_id: str,
    x0: np.ndarray,
) -> tuple[StartRecord, Optional[SolveTrace]]:
    """One start, rounded; an aborted start has no trace and an empty, invalid record."""
    t0 = time.perf_counter()
    try:
        x, trace = run_wrgn(g, x0, schedule, record_trace=record_trace)
    except NormalizationError:
        trace = None
    elapsed = (time.perf_counter() - t0) * 1000.0
    if trace is None:
        outcome = (0.0, False, False, 0)
    else:
        solution = round_to_mis(g, x)
        outcome = (solution.weight, solution.independent, solution.maximal, len(trace))
    return StartRecord(start_id, *outcome, elapsed), trace


def solve_instance(
    g: WeightedGraph,
    instance_name: str,
    config: RunConfig,
    warm_starts: Optional[list[np.ndarray]] = None,
    reference_objective: Optional[float] = None,
) -> tuple[SolveResult, dict[str, SolveTrace]]:
    """Run the configured number of starts; return the result and the traces.

    With warm starts supplied, one trajectory runs per vector; otherwise
    `config.starts` random starts are used.  The traces are keyed by start
    id in start order, one per start that ran (an aborted start has none);
    their energy and mass series are filled only under `config.trace`.
    """
    schedule = config.schedule()
    if g.n < 1:
        raise ValueError("a solve needs at least one vertex")
    if warm_starts:
        tasks = [(f"warm-{i}", init_warm(vec, g.n)) for i, vec in enumerate(warm_starts)]
    else:
        tasks = [
            (f"seed-{config.seed}.{i}", init_random(g.n, [config.seed, i]))
            for i in range(config.starts)
        ]
    ids, starts = zip(*tasks)

    # one thread per usable CPU at most: more only contend for the same cores
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(len(tasks), cpus)) as pool:
        outcomes = list(
            pool.map(_run_single, repeat(g), repeat(schedule), repeat(config.trace), ids, starts)
        )

    records = [rec for rec, _ in outcomes]
    traces = {rec.start: trace for rec, trace in outcomes if trace is not None}
    result = make_result(
        instance_name, g, records, asdict(schedule), reference_objective
    )
    return result, traces
