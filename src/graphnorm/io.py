"""Instance, vector, and result serialization.

Three text formats live here:

* MWIS instances, DIMACS-flavored::

      c optional comments
      p mwis <n> <m>
      n <vertex-id> <weight>     (one line per vertex, ids 1-based)
      e <u> <v>                  (one line per edge, ids 1-based)

* warm-start vectors: exactly n lines, one finite decimal per line.

* graph6 records: standard sparse-graph encoding, one per line,
  single size byte (n <= 62), upper-triangle bits column-major,
  6 bits per payload byte offset by 63; graph6_code reads the payload
  bits before padding as one integer, the enumeration's graph code.

Solve results are JSON with a fixed key order and floats rendered to 12
significant digits, so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .graph import GraphError, WeightedGraph, build_graph

FORMAT_VERSION = "0.1.0"


class FormatError(ValueError):
    """Raised on malformed instance, vector, graph6, or result text."""


# ---------------------------------------------------------------------------
# MWIS instances


# Lines per bulk-read chunk: big enough to amortise the array calls, small
# enough that the chunk's token list stays a few MB.
CHUNK_LINES = 65536


def parse_instance(text: str) -> WeightedGraph:
    """Parse a DIMACS-flavored MWIS instance into a validated graph.

    Vertex ids are 1-based in the file and converted to 0-based here.
    Lines up to the problem line are read one at a time; the rest is read
    in chunks of CHUNK_LINES lines whose tokens are converted and checked
    as arrays.  A chunk that fails any check is read again line by line,
    so the error names the first bad line, with the same message, as a
    line-by-line reader would.
    """
    lines = text.splitlines()
    reader = _LineReader()
    pos = reader.read(lines, 0, until_problem=True)
    n, m = reader.n, reader.m
    if n is None:
        raise FormatError("missing problem line")
    if n > len(lines):
        # too few lines to weight n vertices, so the file is bad: find the
        # error line by line rather than size arrays by an untrusted n
        reader.read(lines, pos)
        _check_edge_count(m, reader.edges)
        first = next(vid for vid in itertools.count(1) if vid not in reader.ids)
        raise FormatError(f"missing weight for vertex {first}")

    weighted = np.zeros(max(n, 0) + 1, dtype=bool)  # by 1-based vertex id
    w = np.empty(max(n, 0))
    edge_chunks = []
    for lo in range(pos, len(lines), CHUNK_LINES):
        hi = min(lo + CHUNK_LINES, len(lines))
        chunk = _read_chunk(lines[lo:hi], n, weighted)
        if chunk is None:
            _LineReader(n, m, weighted).read(lines, lo, hi)
            raise AssertionError(f"lines {lo + 1}-{hi} failed a bulk check but read cleanly")
        ids, values, edges = chunk
        weighted[ids] = True
        w[ids - 1] = values
        edge_chunks.append(edges)
    edges = np.concatenate(edge_chunks) if edge_chunks else np.empty((0, 2), dtype=np.int64)
    _check_edge_count(m, len(edges))
    if not weighted[1:].all():
        raise FormatError(f"missing weight for vertex {int(np.argmin(weighted[1:])) + 1}")
    try:
        return build_graph(n, edges, w)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def _check_edge_count(m: int, count: int) -> None:
    if count != m:
        raise FormatError(f"problem line declares {m} edges, file has {count}")


def _read_chunk(lines: list[str], n: int, weighted: np.ndarray):
    """(vertex ids, weights, 0-based edges) of a chunk read as arrays.

    Returns None if a line is malformed, a number does not parse, an id is
    out of range, or a weight is repeated (in the chunk or in weighted).
    Numbers go through int() and float(), as on the line-by-line path.
    """
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    tokens = np.array("\n".join(lines).split(), dtype=object)
    nonblank = counts > 0
    starts = (np.cumsum(counts) - counts)[nonblank]
    heads = tokens[starts]
    is_e = heads == "e"
    data = is_e | (heads == "n")
    comments = heads[~data]
    if not all(map(str.startswith, comments, itertools.repeat("c"))):
        return None
    if not np.all(counts[nonblank][data] == 3):
        return None
    starts, is_e = starts[data], is_e[data]
    try:
        first = np.fromiter(map(int, tokens[starts + 1]), dtype=np.int64, count=starts.size)
        second = np.fromiter(map(int, tokens[starts[is_e] + 2]), dtype=np.int64)
        values = np.fromiter(map(float, tokens[starts[~is_e] + 2]), dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    ids, u = first[~is_e], first[is_e]
    ids_sorted = np.sort(ids)
    if (
        np.any((first < 1) | (first > n))
        or np.any((second < 1) | (second > n))
        or np.any(ids_sorted[1:] == ids_sorted[:-1])
        or np.any(weighted[ids])
    ):
        return None
    return ids, values, np.column_stack((u - 1, second - 1))


class _LineReader:
    """The line-by-line instance reader, which defines every error message.

    It reads the lines before the problem line, re-reads a chunk that
    failed a bulk check, and reads files with fewer lines than vertices.
    It keeps only what its checks need: n, m, the vertex ids given a
    weight, and the edge-line count.
    """

    def __init__(self, n=None, m=None, weighted=None):
        self.n, self.m = n, m
        self.weighted = weighted  # ids weighted by earlier chunks, or None
        self.ids: set[int] = set()
        self.edges = 0

    def read(self, lines: list[str], lo: int, hi=None, until_problem: bool = False) -> int:
        """Read lines[lo:hi], or up to the problem line; returns the next index."""
        hi = len(lines) if hi is None else hi
        for lineno in range(lo + 1, hi + 1):
            line = lines[lineno - 1].strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "p":
                    if len(parts) != 4 or parts[1] != "mwis":
                        raise FormatError(f"line {lineno}: malformed problem line {line!r}")
                    if self.n is not None:
                        raise FormatError(f"line {lineno}: duplicate problem line")
                    self.n, self.m = int(parts[2]), int(parts[3])
                    if until_problem:
                        return lineno
                elif kind == "n":
                    if self.n is None:
                        raise FormatError(f"line {lineno}: weight line before problem line")
                    if len(parts) != 3:
                        raise FormatError(f"line {lineno}: malformed weight line {line!r}")
                    vid = int(parts[1])
                    if not 1 <= vid <= self.n:
                        raise FormatError(f"line {lineno}: vertex id {vid} outside 1..{self.n}")
                    if vid in self.ids or (self.weighted is not None and self.weighted[vid]):
                        raise FormatError(f"line {lineno}: duplicate weight for vertex {vid}")
                    float(parts[2])
                    self.ids.add(vid)
                elif kind == "e":
                    if self.n is None:
                        raise FormatError(f"line {lineno}: edge line before problem line")
                    if len(parts) != 3:
                        raise FormatError(f"line {lineno}: malformed edge line {line!r}")
                    u, v = int(parts[1]), int(parts[2])
                    if not (1 <= u <= self.n and 1 <= v <= self.n):
                        raise FormatError(f"line {lineno}: edge ({u},{v}) outside 1..{self.n}")
                    self.edges += 1
                else:
                    raise FormatError(f"line {lineno}: unknown line type {kind!r}")
            except ValueError as exc:
                if isinstance(exc, FormatError):
                    raise
                raise FormatError(f"line {lineno}: cannot parse number in {line!r}") from exc
        return hi


def write_instance(g: WeightedGraph, comment: Optional[str] = None) -> str:
    """Render a graph in the instance format (edges canonicalized u < v)."""
    head = [f"c {c}" for c in comment.splitlines()] if comment else []
    head.append(f"p mwis {g.n} {g.num_edges}")
    u, v = g.edge_arrays()
    return "".join(
        [
            "\n".join(head) + "\n",
            "".join(map("n {} {!r}\n".format, range(1, g.n + 1), g.w.tolist())),
            "".join(map("e {} {}\n".format, (u + 1).tolist(), (v + 1).tolist())),
        ]
    )


# ---------------------------------------------------------------------------
# Warm-start vectors


def parse_warm_start(text: str, n: int) -> np.ndarray:
    """Parse a fractional start: exactly n non-empty lines of finite decimals."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) != n:
        raise FormatError(f"warm start has {len(lines)} values, expected {n}")
    values = np.empty(n, dtype=np.float64)
    for i, ln in enumerate(lines):
        try:
            values[i] = float(ln)
        except ValueError as exc:
            raise FormatError(f"warm start line {i + 1}: cannot parse {ln!r}") from exc
        if not np.isfinite(values[i]):
            raise FormatError(f"warm start line {i + 1}: non-finite value {ln!r}")
    return values


# ---------------------------------------------------------------------------
# graph6


@lru_cache(maxsize=None)
def graph6_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j of the pairs i < j in graph6 order: by j, then by i."""
    j, i = np.tril_indices(n, -1)
    return i, j


def graph6_code(adj: np.ndarray) -> int:
    """The graph6 payload bits before padding as one integer, first pair most significant."""
    i, j = graph6_pairs(len(adj))
    return int(b"0" + np.where(np.asarray(adj)[i, j], b"1", b"0").tobytes(), 2)


def graph6_adjacency(n: int, code: int) -> np.ndarray:
    """The symmetric 0/1 int8 adjacency matrix whose graph6_code is code."""
    i, j = graph6_pairs(n)
    bits = f"{code:0{len(i)}b}"[: len(i)]  # the slice drops the lone "0" when there is no pair
    adj = np.zeros((n, n), dtype=np.int8)
    adj[i, j] = adj[j, i] = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
    return adj


def parse_graph6(line: str) -> np.ndarray:
    """Decode a single graph6 record into a symmetric 0/1 adjacency matrix."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 record")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"character {ch!r} outside graph6 alphabet")
    n = ord(s[0]) - 63
    if n == 63:
        raise FormatError("multi-byte graph6 sizes (n > 62) not supported")
    payload = s[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(payload) != expected:
        raise FormatError(
            f"graph6 payload has {len(payload)} bytes, expected {expected} for n={n}"
        )
    bits = "".join(f"{ord(ch) - 63:06b}" for ch in payload)
    return graph6_adjacency(n, int("0" + bits[:nbits], 2))


def write_graph6(adj: np.ndarray) -> str:
    """Encode a symmetric 0/1 adjacency matrix as one graph6 record."""
    n = len(adj)
    if n > 62:
        raise FormatError("graph6 writer supports n <= 62")
    nbits = n * (n - 1) // 2
    width = (nbits + 5) // 6 * 6  # the payload's bits, padded to whole characters
    bits = f"{graph6_code(adj) << (width - nbits):0{width}b}"
    return chr(n + 63) + "".join(chr(63 + int(bits[k : k + 6], 2)) for k in range(0, nbits, 6))


# ---------------------------------------------------------------------------
# Solve results


def _f12(x: float) -> float:
    """Quantize to 12 significant digits (the on-disk float resolution)."""
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class StartRecord:
    """Outcome of a single trajectory."""

    start: str  # seed tag for random starts, file id for warm starts
    objective: float
    valid: bool
    maximal: bool
    iterations: int
    wall_time_ms: float


@dataclass(frozen=True)
class SolveResult:
    """Aggregated outcome of a multi-start run on one instance."""

    instance: str
    n: int
    edges: int
    starts: tuple[StartRecord, ...]
    best_objective: float
    schedule: dict
    reference_objective: Optional[float] = None
    gap_percent: Optional[float] = field(default=None)
    version: str = FORMAT_VERSION

    @staticmethod
    def gap_of(reference: float, best: float) -> Optional[float]:
        if reference > 0:
            return (reference - best) / reference * 100.0
        return None


def make_result(
    instance: str,
    g: WeightedGraph,
    starts: list[StartRecord],
    schedule: dict,
    reference_objective: Optional[float] = None,
) -> SolveResult:
    best = max((s.objective for s in starts), default=0.0)
    gap = None
    if reference_objective is not None:
        gap = SolveResult.gap_of(reference_objective, best)
    return SolveResult(
        instance=instance,
        n=g.n,
        edges=g.num_edges,
        starts=tuple(starts),
        best_objective=best,
        schedule=schedule,
        reference_objective=reference_objective,
        gap_percent=gap,
    )


def write_result(result: SolveResult) -> str:
    """Render a result as canonical JSON (stable keys, 12-digit floats)."""
    obj: dict = {
        "instance": result.instance,
        "n": result.n,
        "edges": result.edges,
        "starts": [
            {
                "start": s.start,
                "objective": _f12(s.objective),
                "valid": s.valid,
                "maximal": s.maximal,
                "iterations": s.iterations,
                "wall_time_ms": _f12(s.wall_time_ms),
            }
            for s in result.starts
        ],
        "best_objective": _f12(result.best_objective),
    }
    if result.reference_objective is not None:
        obj["reference_objective"] = _f12(result.reference_objective)
    if result.gap_percent is not None:
        obj["gap_percent"] = _f12(result.gap_percent)
    obj["schedule"] = {
        "gamma0": _f12(result.schedule["gamma0"]),
        "gamma1": _f12(result.schedule["gamma1"]),
        "iterations": result.schedule["iterations"],
        "mode": result.schedule["mode"],
    }
    obj["version"] = result.version
    return json.dumps(obj, indent=2) + "\n"


def parse_result(text: str) -> SolveResult:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed result JSON: {exc}") from exc
    starts = tuple(
        StartRecord(
            start=s["start"],
            objective=float(s["objective"]),
            valid=bool(s["valid"]),
            maximal=bool(s["maximal"]),
            iterations=int(s["iterations"]),
            wall_time_ms=float(s["wall_time_ms"]),
        )
        for s in obj["starts"]
    )
    return SolveResult(
        instance=obj["instance"],
        n=int(obj["n"]),
        edges=int(obj["edges"]),
        starts=starts,
        best_objective=float(obj["best_objective"]),
        schedule=obj["schedule"],
        reference_objective=obj.get("reference_objective"),
        gap_percent=obj.get("gap_percent"),
        version=obj.get("version", FORMAT_VERSION),
    )


def read_reference_csv(text: str) -> dict[str, float]:
    """Two-column CSV (instance name, best-known objective) -> lookup table."""
    import csv
    import io as _io

    table: dict[str, float] = {}
    for row in csv.reader(_io.StringIO(text)):
        if not row or not "".join(row).strip():
            continue
        if len(row) < 2:
            raise FormatError(f"reference row needs two columns: {row!r}")
        name = row[0].strip()
        try:
            value = float(row[1])
        except ValueError:
            if not table and name.lower() in ("instance", "name"):
                continue  # header row
            raise FormatError(f"cannot parse reference objective in {row!r}")
        table[name] = value
    return table
