"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-er --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One process runs the workload's ops in a closed loop, one op at
a time, until the next op would end past ``--seconds``.  Every op's output
is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it start with ``#`` and carry the details:
machine facts, quartiles and tail, failed fraction, gap, failures.

With ``--trace 1`` ops alternate between traced (wrappers installed, see
spans.py) and untraced; per-layer metrics come from the traced ops,
``trace.overhead_pct`` compares the two medians, and the spans are written
to ``.perfbench/spans-<workload>-seed<seed>.json`` at the end.

``--quick`` runs each workload at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPS = 8

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import graphnorm, graphnorm.cli\n"
    "print(time.perf_counter() - t, graphnorm.__file__)\n"
)


def setup_seconds() -> float:
    """Seconds a fresh interpreter spends importing graphnorm and graphnorm.cli."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported graphnorm from {path}")
    return float(seconds)


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size, cpus = (
                (index / name).read_text().strip() for name in ("level", "type", "size", "shared_cpu_list")
            )
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            facts["caches"][f"L{level}{suffix}"] = f"{size} shared by cpus {cpus}"
    except OSError:
        pass
    return facts


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_ops(session, seconds: float, min_ops: int, tracer) -> list:
    """Closed loop: one op at a time until the next op would end past the deadline.

    Returns (traced, OpRecord) pairs; with a tracer, every other op is traced.
    """
    from spans import NullTracer
    from workloads import OpRecord

    plain = NullTracer()
    records = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rec = session.op(tracer if traced else plain)
        except Exception:  # an op that raises is a failed op; keep measuring
            rec = OpRecord(time.perf_counter() - t0, failures=[traceback.format_exc(limit=4)])
        finally:
            if traced:
                tracer.uninstall()
        records.append((traced, rec))
        now = time.perf_counter()
        per_op = (now - start) / len(records)
        if len(records) >= min_ops and now + per_op > start + seconds:
            return records


def tail(samples: list[float]):
    """Highest whole percentile with at least ten samples above it, as (p, value)."""
    xs = sorted(samples)
    for p in range(99, 0, -1):
        value = xs[max(math.ceil(p / 100 * len(xs)) - 1, 0)]
        if sum(x > value for x in xs) >= 10:
            return p, value
    return None


def summary(records, setup: list[float]) -> dict:
    """The details printed on the `#` lines."""
    times = [rec.seconds for _, rec in records]
    attempted = sum(rec.attempted for _, rec in records)
    failed = sum(len(rec.failures) for _, rec in records)
    gaps = [rec.gap_pct for _, rec in records if rec.gap_pct is not None]
    out = {
        "ops": len(times),
        "op_s": statistics.median(times),
        "op_s_quartiles": statistics.quantiles(times, n=4) if len(times) > 1 else None,
        "op_s_tail": None,
        "setup_s_samples": setup,
        "failed_frac": failed / attempted,
        "gap_pct": statistics.fmean(gaps) if gaps else None,
    }
    found = tail(times)
    if found:
        out["op_s_tail"] = {"percentile": found[0], "value": found[1], "samples": len(times)}
    parts = {}
    for _, rec in records:
        for key, values in rec.parts.items():
            parts.setdefault(key, []).extend(values)
    for key, values in parts.items():
        out[key] = statistics.median(values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "graphnorm" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    sizes = workload.quick if args.quick else workload.full

    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        session = workload.make(args.seed, sizes, workdir)
        # half the set-up probes before the ops and half after, so their
        # median sees the machine over the same stretch as the ops
        reps = SETUP_REPS if not args.quick else 2
        setup = [setup_seconds() for _ in range(reps // 2)]
        min_ops = max(workload.min_ops, 2) if tracer else workload.min_ops
        records = run_ops(session, args.seconds, min_ops, tracer)
        setup += [setup_seconds() for _ in range(reps - reps // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = summary(records, setup)
    if tracer is None:
        kind = "end_to_end"
        values = {
            "op_s": detail["op_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        kind = "per_layer"
        traced = [rec.seconds for was_traced, rec in records if was_traced]
        plain = [rec.seconds for was_traced, rec in records if not was_traced]
        values = layer_metrics(tracer)
        values["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
        values["solver.gap_pct"] = detail["gap_pct"] or 0.0
        detail["absent_wraps"] = tracer.absent
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.dump(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    failures = [msg for _, rec in records for msg in rec.failures]
    print(f"# workload {workload.name} (seed {args.seed}, {'quick' if args.quick else 'full'} size): {workload.why}")
    if workload.known_failure:
        print(f"# left out of BENCHMARK.json: {workload.known_failure}")
    print(f"# sizes {json.dumps(sizes)}")
    print(f"# facts {json.dumps(machine_facts())}")
    for key, value in detail.items():
        print(f"# {key} {json.dumps(value)}")
    for msg in failures[:10]:
        print("# FAILED " + msg.replace("\n", " | "))
    attempted = sum(rec.attempted for _, rec in records)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
