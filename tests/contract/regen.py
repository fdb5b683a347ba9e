"""The output contract: command runs whose outputs a refactor must keep.

Each case writes its inputs into a fresh directory, runs one command
in-process (graphnorm.cli.main, or a script's main), and collects its exit
code, stdout, stderr and every file it wrote under ``out/``.  Wall times
are blanked and the run's directory reads ``<dir>``.  The sparse-1e5
result is too large to keep, so the case keeps the SHA-256 of its blanked
text instead.  tests/test_contract.py compares a run with the files kept
under ``expected/``: results and text byte for byte, trace files number by
number (see that test).

A change meant to alter an output rewrites the expected files with

    PYTHONPATH=src python tests/contract/regen.py [CASE ...]

and names each changed file, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import re
import runpy
import shutil
import sys
from pathlib import Path
from unittest import mock

from graphnorm import build_graph, erdos_renyi
from graphnorm.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected"

K2 = "p mwis 2 1\nn 1 4\nn 2 1\ne 1 2\n"
# a traced energy beyond the float range has no JSON form: exit 2, no file written
OVERFLOW = "p mwis 2 1\nn 1 1e300\nn 2 1e300\ne 1 2\n"
OVERFLOW_FLAGS = ["--gamma0", "1e300", "--gamma1", "1e300", "--starts", "1", "--iterations", "5"]
# short traced runs: a trace file holds six series per start
TRACE_FLAGS = SPARSE_FLAGS = ["--starts", "2", "--iterations", "100"]


def _import(directory: Path, name: str):
    sys.path.insert(0, str(directory))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(directory))


def _inputs(d: Path) -> None:
    """The small inputs every case may name."""
    write = _import(HERE.parent, "reference").write_instance
    (d / "k2.mwis").write_text(K2)
    (d / "er40.mwis").write_text(write(erdos_renyi(40, 0.3, 2)))
    (d / "overflow.mwis").write_text(OVERFLOW)
    (d / "er12.mwis").write_text(write(erdos_renyi(12, 0.3, 1)))
    (d / "c8.mwis").write_text(write(build_graph(8, [(i, (i + 1) % 8) for i in range(8)], [1.0] * 8)))
    (d / "refs.csv").write_text("k2,4\ner40,62\n")
    (d / "bench").mkdir()
    for name in ("k2.mwis", "er40.mwis"):
        shutil.copy(d / name, d / "bench" / name)


def _sparse_inputs(d: Path) -> None:
    """perfbench's sparse-1e5 instance at seed 1, with its greedy reference as sparse.csv."""
    sizes = dict(n=100_000, m=500_000, starts=2, iterations=100)
    made = _import(ROOT / "perfbench", "workloads").make_sparse(1, sizes, d)
    made.instances[0].path.rename(d / "sparse.mwis")
    made.reference_csv.write_text(made.reference_csv.read_text().replace("sparse-n100000", "sparse"))
    made.reference_csv.rename(d / "sparse.csv")


def _solve(instance: str, *flags: str) -> list[str]:
    return ["solve", f"{{in}}/{instance}", *flags, "--output", "{out}/result.json"]


# name -> argv of graphnorm.cli.main, or ("script", path, argv) for a script's main
CASES = {
    "solve-k2": _solve("k2.mwis"),
    "solve-k2-reference": _solve("k2.mwis", "--reference", "{in}/refs.csv"),
    "solve-er40": _solve("er40.mwis"),
    "solve-er40-reference": _solve("er40.mwis", "--reference", "{in}/refs.csv"),
    "trace-k2": _solve("k2.mwis", *TRACE_FLAGS, "--trace"),
    "trace-er40": _solve("er40.mwis", *TRACE_FLAGS, "--trace"),
    "trace-overflow": _solve("overflow.mwis", *OVERFLOW_FLAGS, "--trace"),
    "bench": ["bench", "{in}/bench", "--reference", "{in}/refs.csv", "--results-dir", "{out}/results"],
    "sparse-1e5": _solve("sparse.mwis", *SPARSE_FLAGS, "--reference", "{in}/sparse.csv"),
    "atoms-7": ["atoms", "--n", "7", "--cumulative"],
    "oracle-er12": ["oracle", "{in}/er12.mwis"],
    "oracle-c8": ["oracle", "{in}/c8.mwis"],
    "solve-random": ("script", "scripts/solve_random.py", ["--count", "2", "--n", "12", "--iterations", "200"]),
}
HASHED = {"sparse-1e5": "result.json"}  # case -> output kept as the SHA-256 of its blanked text


def _blank(text: str, d: Path) -> str:
    text = text.replace(str(d), "<dir>")
    text = re.sub(r'("wall_time_ms": )[^,\n]+', r"\1null", text)
    return re.sub(r"[0-9.]+ms\b", "-ms", text)  # bench's meanTime column


def run_case(name: str, d: Path) -> dict[str, str]:
    """{file name: text} of case name run in the empty directory d: exit_code, stdout, stderr, out/..."""
    (d / "in").mkdir()
    (d / "out").mkdir()
    (_sparse_inputs if name in HASHED else _inputs)(d / "in")
    spec = CASES[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if spec[0] == "script":
            with mock.patch.object(sys, "argv", [spec[1], *spec[2]]):
                runpy.run_path(str(ROOT / spec[1]), run_name="__main__")
            code = 0
        else:
            code = main([arg.format(**{"in": d / "in", "out": d / "out"}) for arg in spec])
    texts = {"exit_code": f"{code}\n", "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    for path in sorted((d / "out").rglob("*")):
        if path.is_file():
            texts[path.relative_to(d).as_posix()] = path.read_text()
    texts = {key: _blank(text, d) for key, text in texts.items()}
    if name in HASHED:
        key = f"out/{HASHED[name]}"
        texts[key + ".sha256"] = hashlib.sha256(texts.pop(key).encode()).hexdigest() + "\n"
    return texts


def read_expected(name: str) -> dict[str, str]:
    root = EXPECTED / name
    return {p.relative_to(root).as_posix(): p.read_text() for p in sorted(root.rglob("*")) if p.is_file()}


def regenerate(name: str, workdir: Path) -> None:
    texts = run_case(name, workdir)
    root = EXPECTED / name
    shutil.rmtree(root, ignore_errors=True)
    for key, text in texts.items():
        (root / key).parent.mkdir(parents=True, exist_ok=True)
        (root / key).write_text(text)


if __name__ == "__main__":
    import tempfile

    for case in sys.argv[1:] or CASES:
        with tempfile.TemporaryDirectory() as workdir:
            regenerate(case, Path(workdir))
        print(f"wrote {EXPECTED.relative_to(ROOT) / case}")
