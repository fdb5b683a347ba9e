"""Multi-start orchestration: run trajectories, round, and aggregate.

Each random start owns an RNG stream derived from (base seed, start
index), so results are byte-identical whichever pool thread runs a start
and in whatever order the starts finish.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
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
        """The run's schedule; raises ValueError on a config no solve accepts.

        GammaSchedule checks gamma > 0 and the iteration budget against the mode.
        """
        if not self.gamma1 >= self.gamma0:
            raise ValueError("need gamma1 >= gamma0")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        return GammaSchedule(self.gamma0, self.gamma1, self.iterations)


@dataclass
class RunStats:
    """Non-serialized run diagnostics."""

    fallback_events: int = 0
    aborted_starts: int = 0
    traces: dict = field(default_factory=dict)


def _run_single(
    g: WeightedGraph,
    x0: np.ndarray,
    schedule: GammaSchedule,
    start_id: str,
    record_trace: bool,
) -> tuple[StartRecord, Optional[SolveTrace]]:
    """One start, rounded; the trace is None when the start aborted."""
    t0 = time.perf_counter()
    try:
        x, trace = run_wrgn(g, x0, schedule, record_trace=record_trace)
    except NormalizationError:
        elapsed = (time.perf_counter() - t0) * 1000.0
        rec = StartRecord(
            start=start_id,
            objective=0.0,
            valid=False,
            maximal=False,
            iterations=0,
            wall_time_ms=elapsed,
        )
        return rec, None
    elapsed = (time.perf_counter() - t0) * 1000.0
    solution = round_to_mis(g, x)
    rec = StartRecord(
        start=start_id,
        objective=solution.weight,
        valid=solution.independent,
        maximal=solution.maximal,
        iterations=len(trace),
        wall_time_ms=elapsed,
    )
    return rec, trace


def solve_instance(
    g: WeightedGraph,
    instance_name: str,
    config: RunConfig,
    warm_starts: Optional[list[np.ndarray]] = None,
    reference_objective: Optional[float] = None,
) -> tuple[SolveResult, RunStats]:
    """Run the configured number of starts and aggregate a SolveResult.

    With warm starts supplied, one trajectory runs per vector; otherwise
    `config.starts` random starts are used.
    """
    schedule = config.schedule()

    tasks: list[tuple[str, np.ndarray]] = []
    if warm_starts:
        for i, vec in enumerate(warm_starts):
            tasks.append((f"warm-{i}", init_warm(vec, g.n)))
    else:
        for i in range(config.starts):
            tasks.append((f"seed-{config.seed}.{i}", init_random(g.n, [config.seed, i])))

    def work(item):
        start_id, x0 = item
        return _run_single(g, x0, schedule, start_id, config.trace)

    with ThreadPoolExecutor(max_workers=min(len(tasks), 8)) as pool:
        outcomes = list(pool.map(work, tasks))

    stats = RunStats()
    records = []
    for (start_id, _), (rec, trace) in zip(tasks, outcomes):
        records.append(rec)
        if trace is None:
            stats.aborted_starts += 1
            continue
        stats.fallback_events += trace.total_fallbacks
        if config.trace:
            stats.traces[start_id] = trace

    result = make_result(
        instance_name, g, records, asdict(schedule), reference_objective
    )
    return result, stats
