"""The benchmark's own tests.

    python3 -m pytest perfbench

Quick mode must print every metric BENCHMARK.json names, with its unit, for
every workload and both trace settings; the span arithmetic and the input
generator are checked directly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402
from spans import span_totals  # noqa: E402
from workloads import WORKLOADS, greedy_mis_weight, sparse_edges, weights, write_mwis  # noqa: E402


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_the_spec():
    # the spec lists every workload but those the program is known to fail,
    # and each of those says why it is left out
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS.values() if not w.known_failure]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_mode_prints_every_metric_with_its_unit(workload, trace, kind):
    proc = run_bench(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if kind == "end_to_end":
        assert all(v > 0 for v in values)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "small-er", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        ["solve", 0.0, 10.0, -1],
        ["run", 1.0, 5.0, 0],  # two pool threads, overlapping
        ["run", 3.0, 7.0, 0],
        ["round", 6.0, 6.5, 2],
    ]
    dur, own, calls = span_totals(spans)
    assert own["solve"] == pytest.approx(4.0)
    assert own["run"] == pytest.approx(7.5)
    assert dur["run"] == pytest.approx(8.0) and calls["run"] == 2


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(10))) is None
    p, value = tail([float(i) for i in range(1, 101)])
    assert p == 90 and value == 90.0


def test_generator_is_seeded_and_greedy_is_maximal(tmp_path):
    texts = []
    for k in range(2):
        rng = np.random.default_rng(7)
        edges, w = sparse_edges(rng, 300, 1500), weights(rng, 300)
        write_mwis(tmp_path / f"{k}.mwis", 300, edges, w)
        texts.append((tmp_path / f"{k}.mwis").read_text())
    assert texts[0] == texts[1]
    assert not np.any(edges[:, 0] == edges[:, 1])

    # a path 0-1-2 with the heavy middle: greedy takes {1}
    assert greedy_mis_weight(3, np.array([[0, 1], [1, 2]]), np.array([1.0, 3.0, 1.0])) == 3.0
    # equal weights: ties go to the smaller index, so {0, 2}
    assert greedy_mis_weight(3, np.array([[0, 1], [1, 2]]), np.ones(3)) == 2.0
