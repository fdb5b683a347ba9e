"""Command-line surface.

Subcommands:
    solve   multi-start run on one instance, JSON result
    verify  validate a vertex subset against an instance
    atoms   atomic census (built-in n <= 7 or a graph6 file)
    oracle  exact optimum and per-MIS correspondence report
    bench   directory sweep with gap table against reference objectives

Exit codes: 0 success, 1 invalid solution produced, 2 input error,
3 numerical anomaly (a closed-neighbourhood sum was exactly 0, so a step
set that entry to the fallback value).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .dynamics import GammaSchedule, mis_stability
from .graph import MisSolution, WeightedGraph
from .io import SolveResult, parse_instance, parse_warm_start, read_reference_csv, write_result, write_traces
from .oracle import correspondence_check
from .solver import RunConfig, solve_instance

EXIT_OK = 0
EXIT_INVALID_SOLUTION = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ANOMALY = 3


def _emit(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8-sig")  # UTF-8; a leading byte-order mark is dropped


def _load_instance(path: str) -> tuple[str, WeightedGraph]:
    return Path(path).stem, parse_instance(_read_text(path))


def _solve_file(path, config: RunConfig, refs: dict, warm_files=()) -> tuple[SolveResult, dict, str]:
    """An instance file's result, traces and result text; writes no file.

    Every input error raises OSError or ValueError (FormatError, GraphError
    and NormalizationError are ValueErrors).
    """
    name, g = _load_instance(path)
    warm = [parse_warm_start(_read_text(w), g.n) for w in warm_files]
    result, traces = solve_instance(g, name, config, warm, refs.get(name))
    return result, traces, write_result(result)


# RunConfig fields set from same-named flags; a flag not given is None and
# leaves the RunConfig default
_RUN_FLAGS = ("gamma0", "gamma1", "iterations", "starts", "seed")


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    defaults = RunConfig()
    for name in _RUN_FLAGS:
        sp.add_argument(f"--{name}", type=type(getattr(defaults, name)))
    sp.add_argument("--reference", metavar="CSV", help="reference objectives")
    sp.add_argument("--output", metavar="FILE", help="result destination (default stdout)")


def _config_from_args(args, trace: bool = False) -> RunConfig:
    given = {name: getattr(args, name) for name in _RUN_FLAGS}
    return RunConfig(trace=trace, **{k: v for k, v in given.items() if v is not None})


def exit_code_for(result, traces) -> int:
    """Exit code of a solve from its result and traces; validity outranks a fallback."""
    if not all(s.valid and s.maximal for s in result.starts):
        return EXIT_INVALID_SOLUTION
    if any(trace.total_fallbacks for trace in traces.values()):
        return EXIT_NUMERICAL_ANOMALY
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.trace and args.output in (None, "-"):
        raise ValueError("--trace writes FILE.trace.json next to the result; give --output FILE")
    if args.warm_start and (args.starts is not None or args.seed is not None):
        raise ValueError("--warm-start runs one trajectory per file; it takes no --starts or --seed")
    refs = read_reference_csv(_read_text(args.reference)) if args.reference else {}
    config = _config_from_args(args, args.trace)
    result, traces, text = _solve_file(args.instance, config, refs, args.warm_start)
    if args.trace:  # both texts render before either file is written; the result goes first
        trace_text = write_traces(traces)
    _emit(text, args.output)
    if args.trace:
        Path(args.output + ".trace.json").write_text(trace_text)
    return exit_code_for(result, traces)


def _parse_solution_file(text: str) -> list[int]:
    return [int(tok) for tok in text.translate(str.maketrans("{}[],;", "      ")).split()]


def cmd_verify(args) -> int:
    GammaSchedule.constant(args.gamma, 1)  # a bad gamma is an input error for any set
    name, g = _load_instance(args.instance)
    members = _parse_solution_file(_read_text(args.solution))
    sol = MisSolution.from_members(g, members)
    lines = [
        f"instance: {name}",
        f"members: {list(sol.members)}",
        f"independent: {str(sol.independent).lower()}",
        f"maximal: {str(sol.maximal).lower()}",
        f"weight: {sol.weight:.12g}",
    ]
    if sol.independent and sol.maximal:
        stab = mis_stability(g, sol, args.gamma)
        lines.append(f"stability(gamma={args.gamma:g}): {stab:.12g}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if sol.independent else EXIT_INVALID_SOLUTION


def cmd_atoms(args) -> int:
    """Census table of the built-in enumeration, or of a graph6 file read one block at a time."""
    from .enumeration import census, census_from_stream, format_census_table

    if args.graph6:
        if args.cumulative:
            raise ValueError("--cumulative applies to --n only; a graph6 stream gives one row")
        with open(args.graph6, encoding="utf-8-sig") as f:  # str.splitlines also ends lines at \f, U+2028 and others
            row, skipped = census_from_stream(part for line in f for part in line.splitlines())
        text = format_census_table([row])
        if skipped:
            text += f"\nskipped {skipped} disconnected record(s)"
        _emit(text + "\n", args.output)
        return EXIT_OK
    rows = [census(args.n)]  # rejects n outside 1..7 before any other row is built
    if args.cumulative:
        rows[:0] = [census(k) for k in range(1, args.n)]
    _emit(format_census_table(rows) + "\n", args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    name, g = _load_instance(args.instance)
    report = correspondence_check(g, args.gamma, args.perturbations, seed=args.seed)
    lines = [
        f"instance: {name}",
        f"optimum: {list(report.optimum.members)} weight {report.optimum.weight:.12g}",
        f"maximal independent sets: {len(report.mis_list)}",
    ]
    for rec in report.mis_list:
        lines.append(
            f"  members {list(rec.solution.members)} weight {rec.solution.weight:.12g}"
            f" stab {rec.stab:.6g} q {rec.q_value:.12g}"
            f" local_min {str(rec.local_min_verified).lower()}"
        )
    bad = report.violations
    lines.append(f"correspondence violations: {len(bad)}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if not bad else EXIT_INVALID_SOLUTION


def cmd_bench(args) -> int:
    refs = read_reference_csv(_read_text(args.reference)) if args.reference else {}
    config = _config_from_args(args)
    config.schedule()  # a bad config is an input error before the sweep, even over no instances
    directory = Path(args.directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"bench needs a directory of instances: {directory}")

    instances = sorted(directory.glob("*.mwis")) + sorted(directory.glob("*.dimacs"))
    rows = []
    exit_code = EXIT_OK
    egaps: list[float] = []
    best_gaps: list[float] = []
    out_dir = Path(args.results_dir) if args.results_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    claimed: dict[str, Path] = {}  # the first file of each name
    for path in instances:
        name = path.stem
        try:  # a bad instance costs its own row and result file, not the sweep
            first = claimed.setdefault(name, path)
            if first != path:
                raise ValueError(
                    f"{path.name} has the name of {first.name}, which keys its reference row and result file"
                )
            result, traces, text = _solve_file(path, config, refs)
            egap = None
            if result.gap_percent is not None:
                ref = result.reference_objective
                egap = sum(SolveResult.gap_of(ref, s.objective) for s in result.starts)
                egap /= len(result.starts)
                if not math.isfinite(egap):
                    raise ValueError(f"mean gap over the starts against reference {ref:.12g} overflows")
            if out_dir:
                (out_dir / f"{name}.json").write_text(text)
        except (OSError, ValueError) as exc:
            rows.append(f"{name:>20}  error: {exc}")
            exit_code = max(exit_code, EXIT_INPUT_ERROR)
            continue
        mean_ms = sum(s.wall_time_ms for s in result.starts) / len(result.starts)
        if egap is not None:
            egaps.append(egap)
            best_gaps.append(result.gap_percent)
            rows.append(
                f"{name:>20} {result.n:>7} {result.edges:>9} {egap:>8.2f}% "
                f"{result.gap_percent:>8.2f}% {mean_ms:>9.1f}ms"
            )
        else:
            rows.append(
                f"{name:>20} {result.n:>7} {result.edges:>9} {'-':>9} {'-':>9} "
                f"{mean_ms:>9.1f}ms  best {result.best_objective:.12g}"
            )
        exit_code = max(exit_code, exit_code_for(result, traces))
    header = (
        f"{'instance':>20} {'n':>7} {'edges':>9} {'E[Gap]':>9} {'BestGap':>9} "
        f"{'meanTime':>11}"
    )
    lines = [header] + rows
    if egaps:
        lines.append(
            f"{'aggregate':>20} {len(egaps):>7} {'':>9} "
            f"{sum(egaps) / len(egaps):>8.2f}% "
            f"{sum(best_gaps) / len(best_gaps):>8.2f}%  over referenced instances"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphnorm",
        description="Graph-normalization dynamics for maximum-weight independent sets",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="multi-start solve of one instance")
    sp.add_argument("instance")
    _add_run_flags(sp)
    sp.add_argument(
        "--warm-start",
        action="append",
        default=[],
        metavar="FILE",
        help="fractional start vector (repeatable; one trajectory per file)",
    )
    sp.add_argument(
        "--trace",
        action="store_true",
        help="write per-iteration traces to FILE.trace.json (needs --output FILE)",
    )
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="check a vertex subset against an instance")
    sp.add_argument("instance")
    sp.add_argument("solution", help="file of 0-based member indices")
    sp.add_argument("--gamma", type=float, default=1.5)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("atoms", help="atomic census table")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="built-in enumeration order (<= 7)")
    group.add_argument("--graph6", metavar="FILE", help="external graph6 stream")
    sp.add_argument("--cumulative", action="store_true", help="rows 1..n")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_atoms)

    sp = sub.add_parser("oracle", help="exact optimum and correspondence report")
    sp.add_argument("instance")
    sp.add_argument("--gamma", type=float, default=1.5)
    sp.add_argument("--perturbations", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("bench", help="sweep a directory of instances")
    sp.add_argument("directory", help="its *.mwis files, then its *.dimacs files, each in name order")
    sp.add_argument(
        "--results-dir", metavar="DIR", help="write per-instance JSON results here"
    )
    _add_run_flags(sp)
    sp.set_defaults(func=cmd_bench)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
