import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
import graphnorm.solver
from graphnorm import (
    GammaSchedule,
    MisSolution,
    NormalizationError,
    SolveTrace,
    build_graph,
    erdos_renyi,
    init_random,
)
from graphnorm.cli import _config_from_args, build_parser, exit_code_for, main
from graphnorm.io import SolveResult, StartRecord, write_result
from graphnorm.oracle import MisCorrespondence, OracleReport
from graphnorm.solver import RunConfig, solve_instance

K2_TEXT = "p mwis 2 1\nn 1 4\nn 2 1\ne 1 2\n"


@pytest.fixture
def k2_file(tmp_path):
    p = tmp_path / "k2.mwis"
    p.write_text(K2_TEXT)
    return p


def test_solve_finds_heavy_endpoint(k2_heavy):
    config = RunConfig(starts=4, iterations=300)
    result, traces = solve_instance(k2_heavy, "k2", config)
    assert result.best_objective == 4.0
    assert all(s.valid and s.maximal for s in result.starts)
    assert len(traces) == 4
    assert not any(trace.total_fallbacks for trace in traces.values())


def test_solve_gap_against_reference(k2_heavy):
    config = RunConfig(starts=2, iterations=300)
    result, _ = solve_instance(k2_heavy, "k2", config, reference_objective=4.0)
    assert result.gap_percent == pytest.approx(0.0)


def test_solve_warm_start_at_optimum(k2_heavy):
    config = RunConfig(starts=16, iterations=300)
    result, _ = solve_instance(
        k2_heavy, "k2", config, warm_starts=[np.array([1.0, 0.0])]
    )
    assert len(result.starts) == 1  # one trajectory per warm vector
    assert result.starts[0].start == "warm-0"
    assert result.starts[0].objective == 4.0


@pytest.mark.parametrize("warm", [None, [np.zeros(0)]], ids=["random", "warm"])
def test_solve_rejects_empty_graph(warm):
    empty = build_graph(0, [], [])
    with pytest.raises(ValueError, match="a solve needs at least one vertex"):
        solve_instance(empty, "empty", RunConfig(starts=2, iterations=50), warm)


def test_solve_small_er_seed_25_never_falls_back():
    # the first instance of the small-er benchmark workload at seed 25:
    # its states decay until some closed-neighbourhood sums fall below
    # 1e-9, still inside the map's domain
    rng = np.random.default_rng(25)
    n = int(rng.integers(16, 33))
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.random(iu.size) < 0.3
    g = build_graph(n, np.column_stack((iu[pick], ju[pick])), rng.uniform(0.1, 10.0, size=n))
    result, traces = solve_instance(g, "er-000", RunConfig())
    assert len(traces) == len(result.starts)
    assert not any(trace.total_fallbacks for trace in traces.values())
    assert all(s.valid and s.maximal for s in result.starts)


def _stable_view(result_text: str) -> str:
    """Result JSON with the wall-clock measurements blanked."""
    obj = json.loads(result_text)
    for start in obj["starts"]:
        start["wall_time_ms"] = None
    return json.dumps(obj, indent=2)


# every start of every case below ends at a different objective, so a
# start run with the wrong seed, vector or schedule, or reported out of
# order, changes the result
ER40 = erdos_renyi(40, 0.15, 1)


@pytest.mark.parametrize(
    "config, warm",
    [
        (RunConfig(starts=6, iterations=150, seed=5), None),
        (RunConfig(iterations=150), list(np.random.default_rng(1).random((3, 40)))),
        (RunConfig(gamma0=1.2, gamma1=1.2, starts=3, iterations=150), None),
    ],
    ids=["random", "warm", "constant"],
)
# a positive reference sets the gap; 0 and None leave it out
@pytest.mark.parametrize("ref", [95.0, 0.0, None])
def test_solver_matches_serial_reference(config, warm, ref):
    pooled, traces = solve_instance(ER40, "er40", config, warm, reference_objective=ref)
    serial, serial_traces = reference.solve_instance(ER40, "er40", config, warm, reference_objective=ref)
    assert (pooled.gap_percent is None) == (not ref)
    assert _stable_view(write_result(pooled)) == _stable_view(write_result(serial))
    assert len({s.objective for s in pooled.starts}) == len(pooled.starts)
    assert list(traces) == [s.start for s in pooled.starts]
    assert traces == serial_traces
    assert all(t.energy == [] and t.pre_energy == [] and t.mass == [] for t in traces.values())


def test_an_error_in_any_start_fails_the_solve(k2_heavy, k2_file, tmp_path, capsys):
    # init_random and init_warm clamp every start into [1e-3, 1], so no CLI
    # input makes run_wrgn raise; a patched one raises on the second start
    config = RunConfig(starts=3, iterations=100)
    failing_x0 = init_random(k2_heavy.n, [config.seed, 1])
    real_run = graphnorm.solver.run_wrgn

    def run_or_raise(g, x0, schedule, **kwargs):
        if np.array_equal(x0, failing_x0):
            raise NormalizationError("initial state has a zero closed neighborhood sum")
        return real_run(g, x0, schedule, **kwargs)

    out = tmp_path / "result.json"
    argv = ["solve", str(k2_file), "--starts", "3", "--iterations", "100", "--trace", "--output", str(out)]
    with mock.patch("graphnorm.solver.run_wrgn", run_or_raise):
        with pytest.raises(NormalizationError, match="zero closed neighborhood sum"):
            solve_instance(k2_heavy, "k2", config)
        code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: initial state has a zero closed neighborhood sum\n"
    assert not out.exists() and not Path(str(out) + ".trace.json").exists()


@st.composite
def extreme_solves(draw):
    """A graph on at most 8 vertices, a run config and maybe warm starts, at the float range's ends."""
    n = draw(st.integers(1, 8))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    # at most 8 weights of at most 1e300, so the total is finite
    weights = draw(st.lists(st.floats(5e-324, 1e300), min_size=n, max_size=n))
    gamma0 = draw(st.floats(1e-300, 1e300))
    gamma1 = draw(st.one_of(st.just(gamma0), st.floats(gamma0, 1e300)))
    config = RunConfig(gamma0, gamma1, draw(st.integers(2, 60)), draw(st.integers(1, 3)), draw(st.integers(0, 2**32)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    warm = draw(st.one_of(st.none(), st.lists(st.lists(finite, min_size=n, max_size=n).map(np.array), min_size=1, max_size=3)))
    return build_graph(n, edges, weights), config, warm


@given(extreme_solves())
def test_every_start_runs_at_extreme_weights_and_gammas(case):
    # gamma*A*y may overflow to inf, which sends its entry to 0 without a
    # warning; no start leaves the map's domain, so none raises
    g, config, warm = case
    finals = []
    real_run = graphnorm.solver.run_wrgn

    def run_and_keep(*args, **kwargs):
        x, trace = real_run(*args, **kwargs)
        finals.append(x)
        return x, trace

    with mock.patch("graphnorm.solver.run_wrgn", run_and_keep):
        result, traces = solve_instance(g, "extreme", config, warm)
    starts = len(warm) if warm else config.starts
    assert len(result.starts) == len(traces) == len(finals) == starts
    assert list(traces) == [s.start for s in result.starts]
    assert all(s.valid and s.maximal for s in result.starts)
    assert all(np.all(np.isfinite(x) & (x >= 0.0) & (x <= 1.0)) for x in finals)


@pytest.mark.parametrize(
    "config, mode",
    [
        (RunConfig(starts=1, iterations=50), "linear"),
        (RunConfig(gamma0=1.2, gamma1=1.2, starts=1, iterations=50), "constant"),
    ],
)
def test_result_schedule_block_text(k2_heavy, config, mode):
    text = write_result(solve_instance(k2_heavy, "k2", config)[0])
    block = (
        '  "schedule": {\n'
        f'    "gamma0": {config.gamma0},\n'
        f'    "gamma1": {config.gamma1},\n'
        '    "iterations": 50,\n'
        f'    "mode": "{mode}"\n'
        "  },\n"
    )
    assert block in text


def test_run_defaults_have_one_source():
    assert RunConfig().schedule() == GammaSchedule.pursuit()
    solve_args = build_parser().parse_args(["solve", "x.mwis"])
    assert _config_from_args(solve_args, solve_args.trace) == RunConfig()
    assert _config_from_args(build_parser().parse_args(["bench", "dir"])) == RunConfig()


def test_config_validation(k2_heavy):
    bad = [
        RunConfig(gamma0=1.6, gamma1=1.5),
        RunConfig(gamma0=0.0),
        RunConfig(gamma0=-0.5, gamma1=-0.5),
        RunConfig(iterations=1),  # linear default needs >= 2
        RunConfig(iterations=0),
        RunConfig(gamma0=1.5, gamma1=1.5, iterations=0),
        RunConfig(starts=0),
    ]
    for config in bad:
        with pytest.raises(ValueError):
            config.schedule()
        with pytest.raises(ValueError):
            solve_instance(k2_heavy, "k2", config)
    # constant is fine with one iteration
    assert RunConfig(gamma0=1.5, gamma1=1.5, iterations=1).schedule().mode == "constant"


def test_cli_solve_writes_result(k2_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(
        ["solve", str(k2_file), "--starts", "2", "--iterations", "200", "--output", str(out)]
    )
    assert code == 0
    result = reference.parse_result(out.read_text())
    assert result.best_objective == 4.0
    assert result.n == 2 and result.edges == 1


def test_cli_solve_stdout_deterministic(k2_file, capsys):
    assert main(["solve", str(k2_file), "--starts", "3", "--iterations", "150"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", str(k2_file), "--starts", "3", "--iterations", "150"]) == 0
    second = capsys.readouterr().out
    assert _stable_view(first) == _stable_view(second)


def test_cli_solve_with_reference_and_trace(k2_file, tmp_path):
    refs = tmp_path / "refs.csv"
    refs.write_text("k2,4\n")
    out = tmp_path / "res.json"
    code = main(
        [
            "solve",
            str(k2_file),
            "--starts",
            "2",
            "--iterations",
            "120",
            "--reference",
            str(refs),
            "--output",
            str(out),
            "--trace",
        ]
    )
    assert code == 0
    assert reference.parse_result(out.read_text()).gap_percent == pytest.approx(0.0)
    traces = json.loads(Path(str(out) + ".trace.json").read_text())
    assert set(traces) == {"seed-0.0", "seed-0.1"}
    energies = traces["seed-0.0"]["energy"]
    assert len(energies) == 120


@pytest.mark.parametrize("output", [[], ["--output", "-"]])
def test_cli_solve_trace_needs_output_file(tmp_path, capsys, output):
    # the instance is never read: the missing file would be a different error
    code = main(["solve", str(tmp_path / "missing.mwis"), "--trace"] + output)
    assert code == 2
    err = capsys.readouterr().err
    assert "--output" in err and "missing.mwis" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_solve_trace_leaves_no_file_when_the_result_write_fails(k2_file, tmp_path, capsys):
    # the trace file was written first, so a result path that is a directory
    # exited 2 but left out.trace.json behind
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", str(k2_file), "--iterations", "50", "--trace", "--output", str(out)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert not (tmp_path / "out.trace.json").exists()


def test_cli_solve_trace_with_an_overflowing_energy_names_its_start(tmp_path, capsys):
    # gamma*A*y overflows, so the traced energy is inf, which has no JSON form;
    # json.dumps once raised a message that named neither start nor step
    inst = tmp_path / "big.mwis"
    inst.write_text("p mwis 2 1\nn 1 1e300\nn 2 1e300\ne 1 2\n")
    out = tmp_path / "res.json"
    argv = ["solve", str(inst), "--gamma0", "1e300", "--gamma1", "1e300", "--starts", "1", "--iterations", "5"]
    assert main(argv + ["--trace", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: start seed-0\.0: trace \w+ is inf at step \d+, which has no JSON form\n", captured.err)
    assert list(tmp_path.iterdir()) == [inst]


@pytest.mark.parametrize("flag", [["--trace"], ["--warm-start", "warm.txt"]])
def test_cli_bench_rejects_solve_only_flags(tmp_path, capsys, flag):
    (tmp_path / "k2.mwis").write_text(K2_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(tmp_path)] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_cli_solve_warm_start(k2_file, tmp_path, capsys):
    warm = tmp_path / "warm.txt"
    warm.write_text("1.0\n0.0\n")
    code = main(["solve", str(k2_file), "--warm-start", str(warm)])
    assert code == 0
    out = capsys.readouterr().out
    assert '"start": "warm-0"' in out


@pytest.mark.parametrize("flag", [["--starts", "4"], ["--seed", "0"]])
def test_cli_solve_warm_start_rejects_starts_and_seed(tmp_path, capsys, flag):
    # the instance is never read: the missing file would be a different error
    warm = tmp_path / "warm.txt"
    warm.write_text("1.0\n0.0\n")
    code = main(["solve", str(tmp_path / "missing.mwis"), "--warm-start", str(warm)] + flag)
    assert code == 2
    err = capsys.readouterr().err
    assert "--warm-start" in err and flag[0] in err and "missing.mwis" not in err


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mwis"
    bad.write_text("p mwis 2 1\nn 1 4\ne 1 2\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.mwis")]) == 2


@pytest.mark.parametrize("warm", [False, True], ids=["random", "warm"])
def test_cli_solve_rejects_empty_graph(tmp_path, capsys, warm):
    # random starts failed inside init_random with "n must be at least 1",
    # and a warm start solved the empty instance with exit 0
    f = tmp_path / "empty.mwis"
    f.write_text("p mwis 0 0\n")
    argv = ["solve", str(f), "--output", str(tmp_path / "res.json")]
    if warm:
        (tmp_path / "warm.txt").write_text("")
        argv += ["--warm-start", str(tmp_path / "warm.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "a solve needs at least one vertex" in captured.err
    assert captured.out == "" and not (tmp_path / "res.json").exists()


def test_cli_verify(k2_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("{0}\n")
    assert main(["verify", str(k2_file), str(sol)]) == 0
    out = capsys.readouterr().out
    assert "independent: true" in out
    assert "maximal: true" in out
    assert "weight: 4" in out
    # the member list verify prints reads back: "[0]" was "invalid literal for int()"
    members = next(line for line in out.splitlines() if line.startswith("members: "))
    sol.write_text(members.removeprefix("members: ") + "\n")
    assert main(["verify", str(k2_file), str(sol)]) == 0
    assert capsys.readouterr().out == out
    sol.write_text("0 1\n")
    assert main(["verify", str(k2_file), str(sol)]) == 1
    out = capsys.readouterr().out
    assert "independent: false" in out


def test_cli_verify_id_beyond_int64_is_an_input_error(k2_file, tmp_path, capsys):
    # such an id raised OverflowError: a traceback and exit 1
    sol = tmp_path / "sol.txt"
    sol.write_text("0 99999999999999999999999\n")
    assert main(["verify", str(k2_file), str(sol)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err
    assert "outside [0,2)" in captured.err


def test_cli_reads_files_with_a_byte_order_mark(k2_file, tmp_path, capsys):
    # the mark was read as part of the first token: "unknown line type '\ufeffp'",
    # and "cannot parse reference objective in ['\ufeffinstance', 'objective']"
    (tmp_path / "bom").mkdir()
    bom_file = tmp_path / "bom" / "k2.mwis"
    bom_file.write_text(K2_TEXT, encoding="utf-8-sig")
    refs = tmp_path / "refs.csv"
    refs.write_text("instance,objective\nk2,4\n", encoding="utf-8-sig")
    texts = []
    for path in (k2_file, bom_file):
        out = tmp_path / "res.json"
        assert main(["solve", str(path), "--starts", "2", "--iterations", "100", "--reference", str(refs), "--output", str(out)]) == 0
        texts.append(re.sub(r'"wall_time_ms": [^,\n]+', '"wall_time_ms": 0', out.read_text()))
    assert texts[0] == texts[1]
    assert reference.parse_result(texts[1]).gap_percent == 0.0
    assert capsys.readouterr().err == ""


def test_cli_verify_not_maximal(tmp_path, capsys):
    inst = tmp_path / "p3.mwis"
    inst.write_text("p mwis 3 2\nn 1 1\nn 2 3\nn 3 1\ne 1 2\ne 2 3\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("0\n")
    assert main(["verify", str(inst), str(sol)]) == 0
    out = capsys.readouterr().out
    assert "maximal: false" in out


@pytest.mark.parametrize("gamma", ["nan", "0", "-1"])
def test_cli_verify_checks_gamma_for_any_set(tmp_path, capsys, gamma):
    # {0} on the path 0-1-2 is independent but not maximal, so no stability
    # score was computed and a bad gamma went unchecked with exit 0
    inst = tmp_path / "p3.mwis"
    inst.write_text("p mwis 3 2\nn 1 1\nn 2 3\nn 3 1\ne 1 2\ne 2 3\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("0\n")
    assert main(["verify", str(inst), str(sol), "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert "gamma must be positive and finite" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["solve", "DIR"], ["solve", "K2", "--output", "DIR"], ["verify", "DIR", "SOL"]],
    ids=["solve-instance", "solve-output", "verify-instance"],
)
def test_cli_unusable_path_is_an_input_error(k2_file, tmp_path, capsys, argv):
    # a directory where a file belongs raised IsADirectoryError: a traceback and exit 1
    sol = tmp_path / "sol.txt"
    sol.write_text("0\n")
    argv = [{"K2": str(k2_file), "SOL": str(sol), "DIR": str(tmp_path)}.get(a, a) for a in argv]
    assert main(argv + (["--iterations", "50"] if argv[0] == "solve" else [])) == 2
    assert "Is a directory" in capsys.readouterr().err


def test_cli_atoms_builtin(capsys):
    assert main(["atoms", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "21" in out and "4" in out


@pytest.mark.parametrize("n", [5, 1])
def test_cli_atoms_cumulative(n, capsys):
    assert main(["atoms", "--n", str(n), "--cumulative"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1], r[6]) for r in rows] == [
        ("1", "1", "1"), ("2", "1", "1"), ("3", "2", "1"), ("4", "6", "2"), ("5", "21", "4")
    ][:n]


def test_cli_atoms_never_imports_scipy():
    # the census builds no WeightedGraph; a stray top-level scipy import
    # would cost every cold census call its import time
    code = (
        "import sys, graphnorm.cli\n"
        "assert graphnorm.cli.main(['atoms', '--n', '5', '--cumulative']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "19.0%" in done.stdout


def test_cli_import_loads_no_census_code():
    # solve, verify and oracle need neither the exact census nor Fraction;
    # atoms imports them when it runs
    code = (
        "import sys, graphnorm.cli\n"
        "loaded = sorted({'fractions', 'graphnorm.enumeration'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("n", ["0", "8"])
def test_cli_atoms_cumulative_rejects_order(n, capsys):
    with mock.patch("graphnorm.enumeration.atom_spectrum") as spectrum:
        assert main(["atoms", "--n", n, "--cumulative"]) == 2
    assert not spectrum.called  # rejected before any row is built
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "built-in enumeration supports 1 <= n <= 7" in captured.err


def test_cli_atoms_graph6(tmp_path, capsys):
    from graphnorm.enumeration import connected_graphs_upto

    f = tmp_path / "graphs.g6"
    f.write_text("\n".join(reference.write_graph6(a) for a in connected_graphs_upto(4)) + "\n")
    assert main(["atoms", "--graph6", str(f)]) == 0
    out = capsys.readouterr().out
    assert "6" in out and "2" in out


def test_cli_atoms_graph6_four_byte_size(tmp_path, capsys):
    # the 63-cycle: the first order past graph6's one-byte size; connected, regular, continuous
    step = np.roll(np.eye(63, dtype=np.int8), 1, axis=1)  # i -> i + 1 mod 63
    f = tmp_path / "c63.g6"
    f.write_text(reference.write_graph6(step + step.T) + "\n")
    assert main(["atoms", "--graph6", str(f)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(), row.split())) == {
        "n": "63", "connected": "1", "irr.disc": "0", "irr.cont": "0",
        "reg.disc": "0", "reg.cont": "1", "atomic": "1", "density": "100.0%",
    }


def test_cli_atoms_graph6_rejects_cumulative(tmp_path, capsys):
    # --cumulative was ignored for a graph6 stream, which gave one row and exit 0
    f = tmp_path / "graphs.g6"
    f.write_text("A_\n")
    assert main(["atoms", "--graph6", str(f), "--cumulative"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cumulative applies to --n only" in captured.err


def test_cli_atoms_graph6_skips_blank_lines_and_disconnected_records(tmp_path, capsys):
    f = tmp_path / "graphs.g6"
    f.write_text("A_\n\nA?\n")  # K2, a blank line, two isolated vertices
    assert main(["atoms", "--graph6", str(f)]) == 0
    out = capsys.readouterr().out
    assert "skipped 1 disconnected record(s)" in out
    # a leading byte-order mark is dropped, and a form feed ends a record as
    # str.splitlines ends a line
    for text in ("\ufeffA_\n\nA?\n", "A_\fA?\r\n"):
        f.write_text(text, encoding="utf-8")
        assert main(["atoms", "--graph6", str(f)]) == 0
        assert capsys.readouterr().out == out


def test_cli_atoms_empty_stream(tmp_path, capsys):
    f = tmp_path / "empty.g6"
    f.write_text("")
    assert main(["atoms", "--graph6", str(f)]) == 0
    out = capsys.readouterr().out
    assert "0" in out


def test_cli_oracle(k2_file, capsys):
    assert main(["oracle", str(k2_file), "--perturbations", "100"]) == 0
    out = capsys.readouterr().out
    assert "optimum: [0] weight 4" in out
    assert "correspondence violations: 0" in out


def test_cli_oracle_exits_1_on_a_violation(k2_file, capsys):
    g = build_graph(2, [(0, 1)], [4.0, 1.0])
    sol = MisSolution.from_members(g, [0])
    rec = MisCorrespondence(sol, 1.2, 0.25, True, False, -1e-6)
    report = OracleReport(optimum=sol, mis_list=(rec,))
    with mock.patch("graphnorm.cli.correspondence_check", return_value=report):
        assert main(["oracle", str(k2_file)]) == 1
    assert "correspondence violations: 1" in capsys.readouterr().out


def test_cli_oracle_rejects_negative_perturbations(k2_file, capsys):
    assert main(["oracle", str(k2_file), "--perturbations", "-1"]) == 2
    assert "perturbations must be nonnegative" in capsys.readouterr().err


def test_cli_oracle_rejects_empty_graph(tmp_path, capsys):
    f = tmp_path / "empty.mwis"
    f.write_text("p mwis 0 0\n")
    assert main(["oracle", str(f)]) == 2
    captured = capsys.readouterr()
    assert "correspondence check needs at least one vertex" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "K2", "--gamma1", "inf"],
        ["solve", "K2", "--gamma0", "inf", "--gamma1", "inf"],
        ["oracle", "K2", "--gamma", "inf"],
        ["verify", "K2", "SOL", "--gamma", "inf"],
        ["solve", "K2", "--gamma0", "nan"],
        ["solve", "K2", "--gamma1", "nan"],
        ["solve", "K2", "--gamma0", "inf"],
        ["bench", "DIR", "--gamma0", "nan"],
    ],
    ids=["solve-gamma1", "solve-both", "oracle", "verify", "solve-gamma0-nan", "solve-gamma1-nan", "solve-gamma0", "bench"],
)
def test_cli_rejects_non_finite_gamma(k2_file, tmp_path, capsys, argv):
    # at gamma = inf, solve fell back on every entry and exited 3, oracle printed q nan;
    # a nan, or an inf gamma0, was reported as "need gamma1 >= gamma0"
    sol = tmp_path / "sol.txt"
    sol.write_text("0\n")
    argv = [{"K2": str(k2_file), "SOL": str(sol), "DIR": str(tmp_path)}.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err and captured.out == ""


def test_cli_solve_rejects_non_finite_reference(k2_file, tmp_path, capsys):
    # the row for an instance named g0 would write "reference_objective": Infinity,
    # which is not JSON; any such row is an input error, whichever instance runs
    refs = tmp_path / "refs.csv"
    refs.write_text("k2,4\ng0,inf\n")
    out = tmp_path / "res.json"
    assert main(["solve", str(k2_file), "--reference", str(refs), "--output", str(out)]) == 2
    assert "g0" in capsys.readouterr().err and not out.exists()


def test_cli_solve_rejects_overflowing_weight_total(tmp_path, capsys):
    # each objective would be 2e308, written as "objective": Infinity
    inst = tmp_path / "big.mwis"
    inst.write_text("p mwis 2 0\nn 1 1e308\nn 2 1e308\n")
    out = tmp_path / "res.json"
    assert main(["solve", str(inst), "--output", str(out)]) == 2
    assert "total weight" in capsys.readouterr().err and not out.exists()


def test_cli_solve_rejects_overflowing_gap(tmp_path, capsys):
    # best 1e300 against reference 1e-300 gives gap -inf, which has no JSON form
    inst = tmp_path / "big.mwis"
    inst.write_text("p mwis 2 1\nn 1 1e300\nn 2 1\ne 1 2\n")
    refs = tmp_path / "refs.csv"
    refs.write_text("big,1e-300\n")
    out = tmp_path / "res.json"
    argv = ["solve", str(inst), "--reference", str(refs), "--output", str(out), "--trace"]
    assert main(argv + ["--starts", "2", "--iterations", "50"]) == 2
    # the message bench prints in the error row of the same instance
    message = "best 1e+300 against reference 1e-300 gives a non-finite gap, which has no JSON form"
    assert message in capsys.readouterr().err
    assert not out.exists() and not Path(str(out) + ".trace.json").exists()


def test_result_renders_int_inputs_as_floats(k2_heavy):
    config = RunConfig(gamma0=1, gamma1=2, starts=1, iterations=50)
    text = write_result(solve_instance(k2_heavy, "k2", config, reference_objective=95)[0])
    assert '"gamma0": 1.0,\n    "gamma1": 2.0,' in text
    assert '"reference_objective": 95.0,' in text


def test_cli_bench(tmp_path, capsys):
    (tmp_path / "k2.mwis").write_text(K2_TEXT)
    g = build_graph(3, [(0, 1), (1, 2)], [1.0, 3.0, 1.0])
    (tmp_path / "p3.mwis").write_text(reference.write_instance(g))
    refs = tmp_path / "refs.csv"
    refs.write_text("k2,4\np3,3\n")
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
            "150",
            "--results-dir",
            str(results),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0.00%" in out
    assert (results / "k2.json").exists() and (results / "p3.json").exists()
    assert reference.parse_result((results / "p3.json").read_text()).best_objective == 3.0


def test_cli_bench_sweeps_dimacs_files_after_mwis_files(tmp_path, capsys):
    # same instance format; the .dimacs rows follow every .mwis row
    (tmp_path / "a.dimacs").write_text(K2_TEXT)
    (tmp_path / "z.mwis").write_text(K2_TEXT)
    (tmp_path / "skip.txt").write_text(K2_TEXT)
    results = tmp_path / "results"
    argv = ["bench", str(tmp_path), "--starts", "1", "--iterations", "120", "--results-dir", str(results)]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["z", "a"]
    assert sorted(p.name for p in results.iterdir()) == ["a.json", "z.json"]
    assert reference.parse_result((results / "a.json").read_text()).best_objective == 4.0


def test_cli_bench_repeated_name_is_an_error_row(tmp_path, capsys):
    # a.dimacs once overwrote a.json from a.mwis, and took its reference row
    (tmp_path / "a.mwis").write_text(K2_TEXT)
    (tmp_path / "a.dimacs").write_text("p mwis 1 0\nn 1 7\n")
    refs = tmp_path / "refs.csv"
    refs.write_text("a,4\n")
    results = tmp_path / "results"
    argv = ["bench", str(tmp_path), "--reference", str(refs), "--starts", "1", "--iterations", "120"]
    assert main(argv + ["--results-dir", str(results)]) == 2
    rows = capsys.readouterr().out.splitlines()[1:]
    message = "a.dimacs has the name of a.mwis, which keys its reference row and result file"
    assert rows[1] == f"{'a':>20}  error: {message}"
    assert rows[0].split()[0] == "a" and "0.00%" in rows[0]
    assert sorted(p.name for p in results.iterdir()) == ["a.json"]
    assert reference.parse_result((results / "a.json").read_text()).best_objective == 4.0


def test_cli_bench_overflowing_gap_is_an_input_error_row(tmp_path, capsys):
    # best 1e300 against reference 1e-300 gives gap -inf: that instance gets
    # an error row and no result file, and the sweep goes on to the next
    (tmp_path / "big.mwis").write_text("p mwis 2 1\nn 1 1e300\nn 2 1\ne 1 2\n")
    (tmp_path / "k2.mwis").write_text(K2_TEXT)
    refs = tmp_path / "refs.csv"
    refs.write_text("big,1e-300\nk2,4\n")
    results = tmp_path / "results"
    argv = ["bench", str(tmp_path), "--reference", str(refs), "--results-dir", str(results)]
    assert main(argv + ["--starts", "2", "--iterations", "150"]) == 2
    out = capsys.readouterr().out
    message = "best 1e+300 against reference 1e-300 gives a non-finite gap, which has no JSON form"
    assert f"big  error: {message}\n" in out
    assert "inf" not in out.replace("1e+300", "")
    assert "aggregate" in out and "0.00%" in out
    assert not (results / "big.json").exists()
    assert reference.parse_result((results / "k2.json").read_text()).best_objective == 4.0


def test_cli_bench_overflowing_mean_gap_is_an_input_error_row(tmp_path, capsys):
    # against 1e-6 the best gap is -1e308, which is finite, but the two starts'
    # gaps sum to -inf
    (tmp_path / "big.mwis").write_text("p mwis 2 1\nn 1 1e300\nn 2 1\ne 1 2\n")
    refs = tmp_path / "refs.csv"
    refs.write_text("big,1e-6\n")
    argv = ["bench", str(tmp_path), "--reference", str(refs), "--starts", "2", "--iterations", "150"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "big  error: mean gap over the starts against reference 1e-06 overflows\n" in out
    assert "inf" not in out


def test_cli_bench_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["bench", str(empty)]) == 0


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_cli_bench_needs_a_directory(tmp_path, capsys, kind):
    # a missing path and a regular file both gave an empty table and exit 0
    path = tmp_path / "k2.mwis"
    if kind == "file":
        path.write_text(K2_TEXT)
    assert main(["bench", str(path)]) == 2
    captured = capsys.readouterr()
    assert "bench needs a directory of instances" in captured.err and captured.out == ""


def test_cli_bench_unreadable_instance_is_an_error_row(tmp_path, capsys):
    # a directory named sub.mwis raised IsADirectoryError and ended the sweep
    # in a traceback with exit 1 and no table
    (tmp_path / "k2.mwis").write_text(K2_TEXT)
    (tmp_path / "sub.mwis").mkdir()
    results = tmp_path / "results"
    argv = ["bench", str(tmp_path), "--starts", "1", "--iterations", "120"]
    assert main(argv + ["--results-dir", str(results)]) == 2
    out = capsys.readouterr().out
    assert "                 sub  error: [Errno 21] Is a directory" in out
    assert "k2" in out and "best 4" in out
    assert sorted(p.name for p in results.iterdir()) == ["k2.json"]


def test_cli_bench_writes_what_solve_writes(tmp_path, capsys):
    (tmp_path / "k2.mwis").write_text(K2_TEXT)
    g = build_graph(3, [(0, 1), (1, 2)], [1.0, 3.0, 1.0])
    (tmp_path / "p3.mwis").write_text(reference.write_instance(g))
    refs = tmp_path / "refs.csv"
    refs.write_text("k2,4\n")
    flags = ["--reference", str(refs), "--starts", "3", "--iterations", "150", "--seed", "7"]
    results = tmp_path / "results"
    assert main(["bench", str(tmp_path), "--results-dir", str(results)] + flags) == 0

    def blank(path):
        return re.sub(r'"wall_time_ms": [^,\n]+', '"wall_time_ms": 0', path.read_text())

    for name in ("k2", "p3"):
        solved = tmp_path / f"{name}.json"
        assert main(["solve", str(tmp_path / f"{name}.mwis"), "--output", str(solved)] + flags) == 0
        assert blank(results / f"{name}.json") == blank(solved)


def test_cli_bench_rejects_bad_config_over_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["bench", str(empty), "--gamma0", "0"]) == 2
    captured = capsys.readouterr()
    assert "gamma must be positive" in captured.err and captured.out == ""


def test_cli_bench_empty_graph_is_an_error_row(tmp_path, capsys):
    # the 0-vertex instance aborted the whole sweep, with no table
    (tmp_path / "empty.mwis").write_text("p mwis 0 0\n")
    (tmp_path / "k2.mwis").write_text(K2_TEXT)
    results = tmp_path / "results"
    argv = ["bench", str(tmp_path), "--starts", "1", "--iterations", "120"]
    assert main(argv + ["--results-dir", str(results)]) == 2
    out = capsys.readouterr().out
    assert "empty  error: a solve needs at least one vertex" in out
    assert "k2" in out and "best 4" in out
    assert sorted(p.name for p in results.iterdir()) == ["k2.json"]


def test_cli_bench_missing_reference_still_reports(tmp_path, capsys):
    (tmp_path / "k2.mwis").write_text(K2_TEXT)
    assert main(["bench", str(tmp_path), "--starts", "1", "--iterations", "120"]) == 0
    out = capsys.readouterr().out
    assert "best 4" in out


def test_cli_bench_aggregate_line(tmp_path, capsys):
    (tmp_path / "k2.mwis").write_text(K2_TEXT)
    refs = tmp_path / "refs.csv"
    refs.write_text("k2,4\n")
    assert main(["bench", str(tmp_path), "--reference", str(refs), "--starts", "1", "--iterations", "120"]) == 0
    out = capsys.readouterr().out
    assert "aggregate" in out


def test_exit_code_precedence():
    def result_with(valid, maximal):
        rec = StartRecord("seed-0.0", 1.0, valid, maximal, 10, 1.0)
        return SolveResult("x", 1, 0, (rec,), 1.0, {})

    clean = {"seed-0.0": SolveTrace(fallbacks=[0] * 10)}
    anomalous = {"seed-0.0": SolveTrace(fallbacks=[0, 2, 0, 1] + [0] * 6)}
    assert exit_code_for(result_with(True, True), clean) == 0
    assert exit_code_for(result_with(True, True), anomalous) == 3
    assert exit_code_for(result_with(False, False), clean) == 1
    # an invalid solution outranks the anomaly signal
    assert exit_code_for(result_with(False, True), anomalous) == 1

