"""Spans recorded from outside the program, and the per-layer metrics built on them.

The tracer wraps module attributes at the place where their caller looks
them up (``graphnorm.cli.parse_instance`` is the name ``cmd_solve`` calls,
``graphnorm.solver.run_wrgn`` the one ``_run_single`` calls), records one
span per call in memory, and restores every attribute on ``uninstall``.
Nothing in the program is edited.  A wrapped name the program no longer
has is listed in ``absent``; one it no longer calls simply records no span,
so its metrics read 0.

A span's parent is the innermost open span of the same thread.  A span
opened on a thread with no open span (a solver pool thread) takes the
innermost open span of the thread that opened the op, which is blocked in
the call that started the pool.  Self time is a span's duration minus the
union of its children's intervals; children on different threads overlap.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np
import scipy.sparse as sp

TINY = np.finfo(np.float64).tiny


class NullTracer:
    """The untraced run's stand-in: records nothing and patches nothing."""

    records = False

    def op(self, name: str):
        return nullcontext(-1)

    def span(self, name: str):
        return nullcontext(-1)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus named counters."""

    records = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.ops = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner: list[int] | None = None
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        owner = self._owner
        if stack:
            parent = stack[-1]
        elif owner:
            parent = owner[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            stack.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one op; threads the op starts attach below it."""
        self._owner = self._stack()
        try:
            with self.span(name) as idx:
                yield idx
        finally:
            self._owner = None
            self.ops += 1

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def merge(self, dumped: dict, parent: int) -> None:
        """Adopt spans and counters written by a child interpreter."""
        with self._lock:
            base = len(self.spans)
            for name, start, end, p in dumped["spans"]:
                self.spans.append([name, start, end, parent if p < 0 else p + base])
            for key, value in dumped["counts"].items():
                self.counts[key] += value
        self.absent.extend(a for a in dumped["absent"] if a not in self.absent)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent},
                f,
            )

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name, observe in WRAPS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if leaf not in vars(owner):
                label = f"{module_name}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            original = vars(owner)[leaf]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, span_name, observe))
            else:
                wrapped = self._wrap(original, span_name, observe)
            setattr(owner, leaf, wrapped)
            self._saved.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, span_name, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            name = span_name(args, kwargs) if callable(span_name) else span_name
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    observe(tracer, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                    tracer.add(f"observer_errors.{name}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# Observers: counts read from a call's arguments and result, outside its span


def _observe_parse(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.add("io.instance_bytes", len(text.encode()))


def held_bytes(obj) -> int:
    """Bytes of the distinct array buffers an object holds, scipy matrices included."""
    arrays = []

    def visit(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif sp.issparse(value):
            for part in ("data", "indices", "indptr"):
                if isinstance(getattr(value, part, None), np.ndarray):
                    arrays.append(getattr(value, part))

    names = [s for klass in type(obj).__mro__ for s in getattr(klass, "__slots__", ())]
    names += list(getattr(obj, "__dict__", {}))
    for name in names:
        visit(getattr(obj, name, None))
    ranges = sorted(
        (a.__array_interface__["data"][0], a.__array_interface__["data"][0] + a.nbytes)
        for a in arrays
        if a.nbytes
    )
    return _union_length(ranges)


def _observe_build(tracer, args, kwargs, g):
    tracer.add("graph.builds")
    tracer.add("graph.store_bytes", held_bytes(g))


def spmv_bytes(g) -> int:
    """Computed bytes one CSR mat-vec moves: values, indices, row pointers, x in, y out."""
    a = g.adjacency()
    n = a.shape[0]
    return (
        a.nnz * (a.data.itemsize + a.indices.itemsize)
        + (n + 1) * a.indptr.itemsize
        + 2 * n * 8
    )


def _observe_run(tracer, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    x, trace = result
    x = np.asarray(x)
    prefix = "dynamics.traced" if _records_trace(args, kwargs) else "dynamics"
    tracer.add(f"{prefix}.runs")
    tracer.add(f"{prefix}.steps", len(trace))
    tracer.add("dynamics.fallbacks", trace.total_fallbacks)
    tracer.add("dynamics.final_entries", x.size)
    tracer.add("dynamics.final_zeros", int(np.count_nonzero(x == 0.0)))
    tracer.add("dynamics.final_subnormals", int(np.count_nonzero((x != 0.0) & (np.abs(x) < TINY))))
    if prefix == "dynamics":
        tracer.add("dynamics.spmv_bytes", spmv_bytes(g))


def _observe_round(tracer, args, kwargs, solution):
    g = args[0] if args else kwargs["g"]
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    thresholded = x >= 0.5
    members = np.zeros(g.n, dtype=bool)
    members[list(solution.members)] = True
    tracer.add("dynamics.round_conflicts", int(np.count_nonzero(thresholded & ~members)))
    tracer.add("dynamics.round_completions", int(np.count_nonzero(members & ~thresholded)))


def _observe_solve(tracer, args, kwargs, result):
    solve_result, _stats = result
    tracer.add("solver.starts", len(solve_result.starts))


def _records_trace(args, kwargs) -> bool:
    return bool(kwargs.get("record_trace", args[3] if len(args) > 3 else False))


def _run_span(args, kwargs) -> str:
    return "dynamics.traced_run" if _records_trace(args, kwargs) else "dynamics.run_wrgn"


# (module, attribute as its caller looks it up, span name, observer)
WRAPS = [
    ("graphnorm.cli", "parse_instance", "io.parse_instance", _observe_parse),
    ("graphnorm.cli", "solve_instance", "solver.solve_instance", _observe_solve),
    ("graphnorm.cli", "write_result", "io.write_result", None),
    ("graphnorm.io", "build_graph", "graph.build_graph", _observe_build),
    ("graphnorm.solver", "init_random", "solver.init_random", None),
    ("graphnorm.solver", "run_wrgn", _run_span, _observe_run),
    ("graphnorm.solver", "round_to_mis", "dynamics.round_to_mis", _observe_round),
    ("graphnorm.dynamics", "run_wrgn", _run_span, _observe_run),
    ("graphnorm.graph", "MisSolution.from_members", "graph.from_members", None),
    ("graphnorm.enumeration", "census", "enumeration.census", None),
    ("graphnorm.enumeration", "canonical_form", "enumeration.canonical_form", None),
    ("graphnorm.enumeration", "atom_spectrum", "analysis.atom_spectrum", None),
    ("graphnorm.oracle", "correspondence_check", "oracle.correspondence_check", None),
    ("graphnorm.oracle", "enumerate_mises", "oracle.enumerate_mises", None),
    ("graphnorm.oracle", "brute_force_mwis", "oracle.brute_force_mwis", None),
    ("graphnorm.oracle", "mis_stability", "analysis.mis_stability", None),
]


# ---------------------------------------------------------------------------
# Per-layer metrics


def _union_length(intervals) -> float:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per name: summed duration, summed self time, and call count."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    dur = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for idx, (name, start, end, _parent) in enumerate(spans):
        covered = _union_length(
            (max(a, start), min(b, end)) for a, b in children.get(idx, ()) if b > start and a < end
        )
        dur[name] += end - start
        self_time[name] += end - start - covered
        calls[name] += 1
    return dur, self_time, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, per traced op where it is a time or a count."""
    dur, own, calls = span_totals(tracer.spans)
    c = tracer.counts
    ops = max(tracer.ops, 1)
    steps = c["dynamics.steps"]
    runs = c["dynamics.runs"]
    return {
        "cli.self_s": own["cli.main"] / ops,
        "io.parse_instance.self_s": own["io.parse_instance"] / ops,
        "io.instance_bytes": c["io.instance_bytes"] / ops,
        "io.write_result_s": dur["io.write_result"] / ops,
        "graph.build_graph_s": dur["graph.build_graph"] / ops,
        "graph.from_members_s": dur["graph.from_members"] / ops,
        "graph.store_bytes": _ratio(c["graph.store_bytes"], c["graph.builds"]),
        "dynamics.run_wrgn_s": dur["dynamics.run_wrgn"] / ops,
        "dynamics.steps": steps / ops,
        "dynamics.step_us": _ratio(dur["dynamics.run_wrgn"], steps) * 1e6,
        "dynamics.spmv_bytes_per_step": _ratio(c["dynamics.spmv_bytes"], runs),
        "dynamics.final_zero_frac": _ratio(c["dynamics.final_zeros"], c["dynamics.final_entries"]),
        "dynamics.final_subnormal_frac": _ratio(
            c["dynamics.final_subnormals"], c["dynamics.final_entries"]
        ),
        "dynamics.round_to_mis.self_s": own["dynamics.round_to_mis"] / ops,
        "dynamics.round_conflicts": c["dynamics.round_conflicts"] / ops,
        "dynamics.round_completions": c["dynamics.round_completions"] / ops,
        "dynamics.fallbacks": c["dynamics.fallbacks"] / ops,
        "dynamics.traced_run_s": dur["dynamics.traced_run"] / ops,
        "solver.self_s": own["solver.solve_instance"] / ops,
        "solver.init_random_s": dur["solver.init_random"] / ops,
        "solver.starts": c["solver.starts"] / ops,
        "solver.concurrency": _ratio(dur["dynamics.run_wrgn"], dur["solver.solve_instance"]),
        "enumeration.self_s": own["enumeration.census"] / ops,
        "enumeration.canonical_form_calls": calls["enumeration.canonical_form"] / ops,
        "enumeration.canonical_form_us": _ratio(
            dur["enumeration.canonical_form"], calls["enumeration.canonical_form"]
        )
        * 1e6,
        "analysis.atom_spectrum_s": dur["analysis.atom_spectrum"] / ops,
        "analysis.atom_spectrum_calls": calls["analysis.atom_spectrum"] / ops,
        "analysis.mis_stability_s": dur["analysis.mis_stability"] / ops,
        "oracle.correspondence_check.self_s": own["oracle.correspondence_check"] / ops,
        "oracle.enumerate_mises_s": dur["oracle.enumerate_mises"] / ops,
        "oracle.brute_force_mwis_s": dur["oracle.brute_force_mwis"] / ops,
    }

