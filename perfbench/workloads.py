"""Workloads: seeded instance generators, the ops each workload runs, and output checks.

Every input is generated here from the workload seed with numpy and
written as ``.mwis`` text by this file, so set-up does not depend on the
speed of the code under test.  The program receives only those files and
CLI arguments (solve workloads), or the graphs and seeds named by the
paper-repro ops.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
WEIGHT_LOW, WEIGHT_HIGH = 0.1, 10.0

# README table for n = 1..7: connected graphs and atomic graphs.
CENSUS_CONNECTED = (1, 1, 2, 6, 21, 112, 853)
CENSUS_ATOMIC = (1, 1, 1, 2, 4, 13, 44)

CLI_DEFAULT_STARTS = 16
LYAPUNOV_SLACK = 1e-10
GAP_TOLERANCE = 1e-8


# ---------------------------------------------------------------------------
# Instance generation


def er_edges(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Erdős–Rényi G(n, p) edge list as a (k, 2) array with u < v."""
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.random(iu.size) < p
    return np.stack([iu[pick], ju[pick]], axis=1)


def sparse_edges(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """m uniform vertex pairs; self-loops dropped, duplicates left for build_graph."""
    pairs = rng.integers(0, n, size=(m, 2))
    return pairs[pairs[:, 0] != pairs[:, 1]]


def weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=n)


def write_mwis(path: Path, n: int, edges: np.ndarray, w: np.ndarray, chunk: int = 65536) -> None:
    """Write the DIMACS-flavoured instance text in chunks, so no large temporaries stay alive."""
    with open(path, "w") as f:
        f.write(f"c generated by perfbench\np mwis {n} {len(edges)}\n")
        for lo in range(0, n, chunk):
            f.write("".join(map("n {} {!r}\n".format, range(lo + 1, min(lo + chunk, n) + 1), w[lo : lo + chunk].tolist())))
        for lo in range(0, len(edges), chunk):
            part = edges[lo : lo + chunk] + 1
            f.write("".join(map("e {} {}\n".format, part[:, 0].tolist(), part[:, 1].tolist())))


def distinct_edges(n: int, edges: np.ndarray) -> int:
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    return int(np.unique(lo * n + hi).size)


def greedy_mis_weight(n: int, edges: np.ndarray, w: np.ndarray) -> float:
    """Weight of the greedy maximal IS: descending weight, ties to the smaller index."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(src, kind="stable")
    dst = dst[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]).tolist()
    blocked = np.zeros(n, dtype=bool)
    total = 0.0
    for i in np.lexsort((np.arange(n), -w)).tolist():
        if not blocked[i]:
            total += float(w[i])
            blocked[dst[indptr[i] : indptr[i + 1]]] = True
    return total


# ---------------------------------------------------------------------------
# Ops and their checks


@dataclass
class OpRecord:
    """One op: its timed seconds, the checked outputs it produced, and what failed."""

    seconds: float
    attempted: int = 1
    failures: list[str] = field(default_factory=list)
    gap_pct: Optional[float] = None
    parts: dict[str, list[float]] = field(default_factory=dict)


@dataclass(frozen=True)
class Instance:
    name: str
    path: Path
    n: int
    edges: int
    reference: float
    exact: bool  # reference is the optimum, so no start may beat it


class SolveSession:
    """One in-process ``graphnorm solve`` per op, cycling over the instances."""

    def __init__(self, instances: list[Instance], reference_csv: Path, args: list[str], starts: int, workdir: Path):
        self.instances = instances
        self.reference_csv = reference_csv
        self.args = args
        self.starts = starts
        self.output = workdir / "result.json"
        self.calls = 0

    def op(self, tracer) -> OpRecord:
        import graphnorm.cli

        inst = self.instances[self.calls % len(self.instances)]
        self.calls += 1
        self.output.unlink(missing_ok=True)
        argv = ["solve", str(inst.path), "--reference", str(self.reference_csv), "--output", str(self.output)]
        t0 = time.perf_counter()
        with tracer.op("cli.main"):
            code = graphnorm.cli.main(argv + self.args)
        rec = OpRecord(time.perf_counter() - t0)
        self._check(inst, code, rec)
        return rec

    def _check(self, inst: Instance, code: int, rec: OpRecord) -> None:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if self.output.is_file():
            res = json.loads(self.output.read_text())
            if (res["n"], res["edges"]) != (inst.n, inst.edges):
                problems.append(f"result reports n={res['n']} m={res['edges']}, instance has n={inst.n} m={inst.edges}")
            if len(res["starts"]) != self.starts:
                problems.append(f"{len(res['starts'])} starts reported, {self.starts} run")
            bad = [s["start"] for s in res["starts"] if not (s["valid"] and s["maximal"])]
            if bad:
                problems.append(f"starts not a valid maximal IS: {bad}")
            best = res["best_objective"]
            rec.gap_pct = (inst.reference - best) / inst.reference * 100.0
            reported = res.get("gap_percent")
            if reported is None or abs(reported - rec.gap_pct) > GAP_TOLERANCE * max(1.0, abs(rec.gap_pct)):
                problems.append(f"gap_percent {reported}, but best {best} against {inst.reference} gives {rec.gap_pct}")
            if inst.exact and best > inst.reference * (1.0 + 1e-9):
                problems.append(f"best {best} exceeds the exact optimum {inst.reference}")
        else:
            problems.append("no result file")
        if problems:
            rec.failures.append(f"{inst.name}: " + "; ".join(problems))


def _solve_args(sizes: dict) -> list[str]:
    """CLI flags for the sizes a workload sets; the rest keep the CLI defaults."""
    args = []
    for key in ("starts", "iterations"):
        if key in sizes:
            args += [f"--{key}", str(sizes[key])]
    return args


def _reference_csv(workdir: Path, instances: list[Instance]) -> Path:
    path = workdir / "reference.csv"
    path.write_text("".join(f"{inst.name},{inst.reference!r}\n" for inst in instances))
    return path


def make_small_er(seed: int, sizes: dict, workdir: Path) -> SolveSession:
    from graphnorm import build_graph
    from graphnorm.oracle import brute_force_mwis

    rng = np.random.default_rng(seed)
    instances = []
    for k in range(sizes["instances"]):
        n = int(rng.integers(sizes["n_low"], sizes["n_high"] + 1))
        edges, w = er_edges(rng, n, sizes["p"]), weights(rng, n)
        name = f"er-{k:03d}"
        path = workdir / f"{name}.mwis"
        write_mwis(path, n, edges, w)
        optimum = brute_force_mwis(build_graph(n, edges.tolist(), w)).weight
        instances.append(Instance(name, path, n, len(edges), optimum, exact=True))
    return SolveSession(instances, _reference_csv(workdir, instances), _solve_args(sizes), sizes.get("starts", CLI_DEFAULT_STARTS), workdir)


def make_sparse(seed: int, sizes: dict, workdir: Path) -> SolveSession:
    rng = np.random.default_rng(seed)
    n = sizes["n"]
    edges = sparse_edges(rng, n, sizes["m"])
    w = weights(rng, n)
    name = f"sparse-n{n}"
    path = workdir / f"{name}.mwis"
    write_mwis(path, n, edges, w)
    inst = Instance(name, path, n, distinct_edges(n, edges), greedy_mis_weight(n, edges, w), exact=False)
    return SolveSession([inst], _reference_csv(workdir, [inst]), _solve_args(sizes), sizes["starts"], workdir)


class PaperSession:
    """One round per op: (a) a cold census, (b) correspondence checks, (c) traced runs."""

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        from graphnorm import build_graph, init_random

        rng = np.random.default_rng(seed)

        def graph(lo: int, hi: int):
            n = int(rng.integers(lo, hi + 1))
            return build_graph(n, er_edges(rng, n, sizes["p"]).tolist(), weights(rng, n))

        self.census_n = sizes["census_n"]
        self.oracle_cases = [(graph(*sizes["oracle_n"]), seed * 1000 + i) for i in range(sizes["oracle_graphs"])]
        self.lyapunov_cases = []
        for i in range(sizes["lyapunov_graphs"]):
            g = graph(*sizes["lyapunov_n"])
            x0 = init_random(g.n, [seed, i])
            self.lyapunov_cases += [(g, x0, gamma) for gamma in (1.2, 1.5)]
        self.steps = sizes.get("steps")
        self.workdir = workdir

    def op(self, tracer) -> OpRecord:
        parts = {"census_s": [], "oracle_s": [], "lyapunov_s": []}
        failures: list[str] = []
        with tracer.op("paper.round"):
            parts["census_s"].append(self._census(tracer, failures))
            for g, seed in self.oracle_cases:
                parts["oracle_s"].append(self._oracle(g, seed, failures))
            for g, x0, gamma in self.lyapunov_cases:
                parts["lyapunov_s"].append(self._lyapunov(g, x0, gamma, failures))
        parts = {kind: times for kind, times in parts.items() if times}
        seconds = sum(sum(v) for v in parts.values())
        attempted = 1 + len(self.oracle_cases) + len(self.lyapunov_cases)
        return OpRecord(seconds, attempted, failures, parts=parts)

    def _census(self, tracer, failures: list[str]) -> float:
        """``graphnorm atoms --n N --cumulative`` in a fresh interpreter, as a CLI user pays it."""
        table = self.workdir / "census.txt"
        table.unlink(missing_ok=True)
        spans = self.workdir / "census-spans.json"
        cmd = [sys.executable, str(HERE / "atoms_child.py"), str(self.census_n), str(table)]
        if tracer.records:
            cmd += [str(spans)]
        with tracer.span("cli.atoms") as span:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            seconds = time.perf_counter() - t0
        if tracer.records and spans.is_file():
            tracer.merge(json.loads(spans.read_text()), span)
        if proc.returncode != 0:
            failures.append(f"census: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return seconds
        rows = [line.split() for line in table.read_text().splitlines()[1:] if line.strip()]
        connected = tuple(int(r[1]) for r in rows)
        atomic = tuple(int(r[6]) for r in rows)
        want = (CENSUS_CONNECTED[: self.census_n], CENSUS_ATOMIC[: self.census_n])
        if (connected, atomic) != want:
            failures.append(f"census: connected {connected} atomic {atomic}, expected {want}")
        return seconds

    def _oracle(self, g, seed: int, failures: list[str]) -> float:
        import graphnorm.oracle

        t0 = time.perf_counter()
        report = graphnorm.oracle.correspondence_check(g, 1.5, 1000, seed)
        seconds = time.perf_counter() - t0
        if report.violations:
            failures.append(f"oracle n={g.n} seed={seed}: {len(report.violations)} correspondence violations")
        best = max(rec.solution.weight for rec in report.mis_list)
        if abs(report.optimum.weight - best) > 1e-9 * best:
            failures.append(f"oracle n={g.n} seed={seed}: optimum {report.optimum.weight} but best MIS {best}")
        return seconds

    def _lyapunov(self, g, x0, gamma: float, failures: list[str]) -> float:
        import graphnorm.dynamics
        from graphnorm import GammaSchedule

        schedule = GammaSchedule.constant(gamma, self.steps)
        t0 = time.perf_counter()
        _, trace = graphnorm.dynamics.run_wrgn(g, x0, schedule, record_trace=True)
        seconds = time.perf_counter() - t0
        rises = int(np.sum(np.asarray(trace.energy) - np.asarray(trace.pre_energy) > LYAPUNOV_SLACK))
        drops = int(np.sum(np.diff(np.asarray(trace.mass)) < -LYAPUNOV_SLACK))
        if rises or drops or trace.total_fallbacks or len(trace.energy) != self.steps:
            failures.append(
                f"lyapunov n={g.n} gamma={gamma}: {rises} energy rises, {drops} mass drops, "
                f"{trace.total_fallbacks} fallbacks, {len(trace.energy)} of {self.steps} steps recorded"
            )
        return seconds


# ---------------------------------------------------------------------------
# Workload table


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable
    full: dict
    quick: dict
    min_ops: int = 1  # ops per run at least, so peak RSS always covers the same number
    # Non-empty: the program fails some ops of this workload, so it is left
    # out of BENCHMARK.json (whose workloads must not fail) and says why here.
    # It still runs and reports its failures.
    known_failure: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-er",
            why=(
                "Each step here is about 30 us of interpreter overhead, and 8 threads contend "
                "for 2 cores. Batching, loop-overhead and thread-pool changes show here. Parse, "
                "build and rounding cost almost nothing."
            ),
            # CLI defaults: 16 starts, pursuit 0.9 -> 1.5, 1000 steps.  The
            # reference is the exact optimum from oracle.brute_force_mwis.
            make=make_small_er,
            full=dict(instances=64, n_low=16, n_high=32, p=0.3),
            quick=dict(instances=3, n_low=16, n_high=32, p=0.3, starts=4, iterations=50),
            known_failure=(
                "Every solve of the first instance of seed 25 (n = 24) exits 3 on one safe-division "
                "fallback: 1 of 1,320 solves over seeds 1-45, so about one seed in 40 fails a run."
            ),
        ),
        Workload(
            "sparse-1e4",
            why=(
                "The SpMV kernel does about 90% of the work, and late steps run with decayed, "
                "subnormal and zero states. The batched kernel (ROADMAP 4) and the subnormal fix "
                "(ROADMAP 2) show here. Parsing is about 10%."
            ),
            # Average degree 10; the CSR (about 1.2 MB computed) fits in one core's L2.
            make=make_sparse,
            full=dict(n=10_000, m=50_000, starts=8),
            min_ops=2,
            quick=dict(n=500, m=2_500, starts=2, iterations=50),
            known_failure=(
                "Every solve exits 3 on 16 of seeds 1-30: the safe-division fallback fires on a "
                "vertex whose closed neighbourhood has decayed below the absolute threshold 1e-9 "
                "(ROADMAP 2)."
            ),
        ),
        Workload(
            "sparse-1e5",
            why=(
                "Parse and build, rounding and validation, and memory dominate, while the kernel "
                "does little. The vectorised graph layer and the single CSR store (ROADMAP 3) show "
                "here. It is the mirror image of sparse-1e4."
            ),
            # The CSR (nnz ~ 1e6: about 12 MB computed with float64 values and
            # int32 indices) exceeds the 2 MiB per-core L2 but fits in the
            # 105 MiB L3 of the reference machine.
            make=make_sparse,
            full=dict(n=100_000, m=500_000, starts=2, iterations=100),
            min_ops=2,
            quick=dict(n=2_000, m=10_000, starts=2, iterations=20),
        ),
        Workload(
            "paper-repro",
            why=(
                "Without this workload, enumeration, analysis and oracle would go unmeasured. "
                "Its traced runs record energy and mass every step, so a change that speeds "
                "untraced runs but slows traced ones shows here."
            ),
            # One op is a round: one cold census (n = 7, cumulative), then one
            # correspondence check per oracle graph and one traced run per
            # lyapunov graph and gamma in {1.2, 1.5}.  The counts give the
            # checks and the traced runs about a sixth of a round at seed.
            make=PaperSession,
            full=dict(census_n=7, p=0.3, oracle_graphs=16, oracle_n=(12, 16), lyapunov_graphs=16, lyapunov_n=(16, 64), steps=1000),
            quick=dict(census_n=4, p=0.3, oracle_graphs=2, oracle_n=(8, 10), lyapunov_graphs=2, lyapunov_n=(16, 24), steps=100),
            known_failure=(
                "A traced 1000-step run hits the same safe-division fallback as sparse-1e4 on about "
                "one seed in 40 (seed 11: n = 47, gamma 1.5, step 613)."
            ),
        ),
        Workload(
            "census-oracle",
            why=(
                "Cold atoms --n 7 census and correspondence checks: paper-repro without its traced "
                "runs, so enumeration, analysis and oracle are measured on a workload with no known failure."
            ),
            # One op is a round of paper-repro with no lyapunov graphs.  A
            # round takes about 20 s, so a run times two and reports their median.
            make=PaperSession,
            full=dict(census_n=7, p=0.3, oracle_graphs=16, oracle_n=(12, 16), lyapunov_graphs=0),
            min_ops=2,
            quick=dict(census_n=4, p=0.3, oracle_graphs=2, oracle_n=(8, 10), lyapunov_graphs=0),
        ),
    )
}
