"""Readers for instances, warm-start vectors and graph6 records; the result writer.

Three input formats are read here:

* MWIS instances, DIMACS-flavored::

      c optional comments
      p mwis <n> <m>
      n <vertex-id> <weight>     (one line per vertex, ids 1-based)
      e <u> <v>                  (one line per edge, ids 1-based)

  parse_instance reads text with printable-ASCII data lines and plain
  ids (see its docstring) as byte arrays, in one pass, checking only the
  grammar, counts and ids; build_graph judges edges and weights.  Other
  text, and byte-read text build_graph rejects, is read line by line, so an
  error names the first bad line, save a weight total that overflows.

* warm-start vectors: exactly n lines, one finite decimal per line.

* graph6 records: standard sparse-graph encoding, one per line,
  single size byte (n <= 62), upper-triangle bits column-major,
  6 bits per payload byte offset by 63; the enumeration's graph code is
  the payload bits before padding as one integer (graph6_adjacency).

Solve results are written as JSON keyed by the fields of SolveResult and
StartRecord in order; write_result states the one rule for every value.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from io import StringIO  # the standard library's io: imports are absolute
from typing import Optional

import numpy as np

from .graph import GraphError, WeightedGraph, build_graph

FORMAT_VERSION = "0.1.0"


class FormatError(ValueError):
    """Raised on malformed instance, vector, or graph6 text."""


# ---------------------------------------------------------------------------
# MWIS instances


# Bytes per chunk of the byte reader, extended to the end of a line: enough to
# amortise the array calls, few enough that the chunk's index arrays, about 13
# times its bytes for edge lines, stay a few MB beside the instance's own arrays.
CHUNK_BYTES = 1 << 18

# The byte reader's alphabet: tab, newline, carriage return, printable ASCII, and
# the bytes above 127 of UTF-8 text, which no token outside a comment line passes.
_PLAIN = b"\t\n\r" + bytes(range(32, 127)) + bytes(range(128, 256))


def parse_instance(text: str) -> WeightedGraph:
    """Parse a DIMACS-flavored MWIS instance into a validated graph.

    Vertex ids are 1-based in the file and converted to 0-based here.
    The byte reader (_read_bytes) reads, as arrays, lines ended by LF or
    CR LF, of which: any number are blank or comments, the first other
    line is "p mwis <n> <m>", and every later one is "n <id> <weight>" or
    "e <u> <v>" in printable ASCII, tokens split by spaces and tabs, ids
    and counts of 1 to 18 ASCII digits, weights as float() reads them.
    Comments may hold any text without U+0085, U+2028, U+2029 or a
    control character other than tab.  It checks the grammar, the counts
    and the ids; build_graph judges edges and weights.  All other text,
    and byte-read text build_graph rejects, goes to the line reader
    (_read_lines), which defines the format and names the first bad line
    in every error but one: a weight total that overflows float64.
    """
    instance = _read_bytes(text) or _read_lines(text.splitlines())
    n, w = instance[0], instance[2]
    try:
        # popped, the (m, 2) edge array is held by the call alone, so
        # build_graph frees it before it sorts the packed keys
        return build_graph(n, instance.pop(1), w)
    except GraphError as exc:
        _read_lines(text.splitlines())  # raises for the first bad line, if one is bad
        raise FormatError(str(exc)) from exc


def _read_bytes(text: str):
    """[n, 0-based edges, weights by vertex] of text in the byte reader's grammar, else None.

    Reads the lines up to the problem line one at a time, then the body in
    chunks of about CHUNK_BYTES, each written into arrays sized from the
    problem line.  The text is read only if every chunk reads, there are m
    edge lines, and the weight-line ids, sorted once, are exactly 1..n;
    that sort also places the weights.  Edge ends and weights are left to
    build_graph.  Any other text goes to the line reader.
    """
    if not text.isascii() and any(map(text.__contains__, "\x85\u2028\u2029")):
        return None  # line ends to str.splitlines that UTF-8 spells with bytes above 127
    data = text.encode("utf-8", "surrogatepass")
    if data.translate(None, _PLAIN) or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos) + 1 or len(data)
        parts, pos = data[pos:end].split(), end
        if parts and not parts[0].startswith(b"c"):
            break
    else:
        return None
    if len(parts) != 4 or parts[:2] != [b"p", b"mwis"]:
        return None
    if not all(count.isdigit() and len(count) <= 18 for count in parts[2:]):
        return None
    n, m = int(parts[2]), int(parts[3])
    if n + m > len(data) // 6:
        return None  # too short: every body line takes at least 6 bytes, as "e 1 2\n"
    ids, values, edges = np.empty(n, dtype=np.int64), np.empty(n), np.empty((m, 2), dtype=np.int64)
    at_n = at_m = 0  # weight and edge lines read
    while pos < len(data):
        end = data.find(b"\n", pos + CHUNK_BYTES - 1) + 1 or len(data)
        chunk = _read_chunk(data[pos:end])
        if chunk is None:
            return None
        next_n, next_m = at_n + len(chunk[0]), at_m + len(chunk[2])
        if next_n > n or next_m > m:
            return None
        ids[at_n:next_n], values[at_n:next_n], edges[at_m:next_m] = chunk
        at_n, at_m, pos = next_n, next_m, end
    if at_n != n or at_m != m:
        return None
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(1, n + 1)):
        return None
    return [n, edges, values[order]]


def _read_chunk(chunk: bytes):
    """(vertex ids, weights, 0-based edges) of the body lines in chunk, else None.

    Tokens are the runs of bytes above space.  A line whose first token
    starts with "c" is a comment, whatever else it holds; every other
    non-blank line must be "n" or "e" and two more tokens.  Those hold no
    byte above 127: ids are ASCII digits, and float() reads bytes as ASCII.
    """
    b = np.frombuffer(chunk, dtype=np.uint8)
    solid = np.concatenate(([False], b > 32, [False]))
    starts, ends = np.flatnonzero(solid[1:] != solid[:-1]).reshape(-1, 2).T
    lines = np.flatnonzero(np.concatenate(([True], b[:-1] == 10)))  # where each line starts
    heads = np.arange(0, starts.size, 3)  # each line's first token, if every line holds three
    if heads.size != lines.size or not np.array_equal(starts[heads], lines):
        # comments, blank lines or leading blanks: find each line's first token
        heads = np.searchsorted(starts, lines)
    counts = np.diff(heads, append=starts.size)  # tokens on each line
    heads, counts = heads[counts > 0], counts[counts > 0]
    comment = b[starts[heads]] == ord("c")
    heads, counts = heads[~comment], counts[~comment]
    kind = b[starts[heads]]
    is_e = kind == ord("e")
    if not (np.all(is_e | (kind == ord("n"))) and np.all(ends[heads] == starts[heads] + 1) and np.all(counts == 3)):
        return None
    first, second = (_integers(b, starts[at], ends[at]) for at in (heads + 1, heads[is_e] + 2))
    weight = heads[~is_e] + 2
    try:
        # over _PLAIN, split() cuts the tokens the b > 32 mask finds; a chunk of
        # edge lines alone skips it
        words = map(chunk.split().__getitem__, weight.tolist()) if weight.size else ()
        values = np.fromiter(map(float, words), dtype=np.float64, count=weight.size)
    except ValueError:
        return None
    if first is None or second is None:
        return None
    return first[~is_e], values, np.column_stack((first[is_e] - 1, second - 1))


def _integers(b: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Values of the tokens b[starts:ends] if each is 1 to 18 ASCII digits, else None."""
    size = ends - starts
    values = np.zeros(size.size, dtype=np.int64)
    for k in range(size.max(initial=0)):
        live = size > k
        digit = b[starts[live] + k] - ord("0")  # uint8: every other byte wraps past 9
        if k == 18 or np.any(digit > 9):
            return None
        values[live] = values[live] * 10 + digit
    return values


def _read_lines(lines: list[str]):
    """[n, 0-based edges, weights by vertex] of lines read one at a time.

    This reader defines every error message.  It raises, in order: the
    first bad line, a missing problem line, a wrong edge count, and the
    first vertex id in 1..n with no weight.
    """
    n = m = None
    weights: dict[int, float] = {}
    ends: list[int] = []  # edge ends, two per edge
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "p":
                if len(parts) != 4 or parts[1] != "mwis":
                    raise FormatError(f"line {lineno}: malformed problem line {line!r}")
                if n is not None:
                    raise FormatError(f"line {lineno}: duplicate problem line")
                n, m = int(parts[2]), int(parts[3])
            elif kind == "n":
                if n is None:
                    raise FormatError(f"line {lineno}: weight line before problem line")
                if len(parts) != 3:
                    raise FormatError(f"line {lineno}: malformed weight line {line!r}")
                vid = int(parts[1])
                if not 1 <= vid <= n:
                    raise FormatError(f"line {lineno}: vertex id {vid} outside 1..{n}")
                if vid in weights:
                    raise FormatError(f"line {lineno}: duplicate weight for vertex {vid}")
                weight = float(parts[2])
                if not 0 < weight < math.inf:
                    raise FormatError(f"line {lineno}: weight of vertex {vid} must be positive and finite, got {weight}")
                weights[vid] = weight
            elif kind == "e":
                if n is None:
                    raise FormatError(f"line {lineno}: edge line before problem line")
                if len(parts) != 3:
                    raise FormatError(f"line {lineno}: malformed edge line {line!r}")
                u, v = int(parts[1]), int(parts[2])
                if not (1 <= u <= n and 1 <= v <= n):
                    raise FormatError(f"line {lineno}: edge ({u},{v}) outside 1..{n}")
                if u == v:
                    raise FormatError(f"line {lineno}: self-loop at vertex {u}")
                ends += u, v
            else:
                raise FormatError(f"line {lineno}: unknown line type {kind!r}")
        except ValueError as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: cannot parse number in {line!r}") from exc
    if n is None:
        raise FormatError("missing problem line")
    if len(ends) != 2 * m:
        raise FormatError(f"problem line declares {m} edges, file has {len(ends) // 2}")
    first = next(vid for vid in itertools.count(1) if vid not in weights)
    if first <= n:
        raise FormatError(f"missing weight for vertex {first}")
    return [n, np.array(ends, dtype=np.int64).reshape(-1, 2) - 1, [weights[vid] for vid in range(1, n + 1)]]


# ---------------------------------------------------------------------------
# Warm-start vectors


def parse_warm_start(text: str, n: int) -> np.ndarray:
    """Parse a fractional start: exactly n non-empty lines of finite decimals; errors name the file line."""
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), start=1)]
    lines = [(lineno, ln) for lineno, ln in lines if ln]
    if len(lines) != n:
        raise FormatError(f"warm start has {len(lines)} values, expected {n}")
    values = np.empty(n, dtype=np.float64)
    for i, (lineno, ln) in enumerate(lines):
        try:
            values[i] = float(ln)
        except ValueError as exc:
            raise FormatError(f"warm start line {lineno}: cannot parse {ln!r}") from exc
        if not np.isfinite(values[i]):
            raise FormatError(f"warm start line {lineno}: non-finite value {ln!r}")
    return values


# ---------------------------------------------------------------------------
# graph6


@lru_cache(maxsize=None)
def graph6_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j of the pairs i < j in graph6 order: by j, then by i."""
    j, i = np.tril_indices(n, -1)
    return i, j


def graph6_adjacency(n: int, code: int) -> np.ndarray:
    """The symmetric 0/1 int8 adjacency matrix whose graph6 payload bits before padding read as code."""
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


# ---------------------------------------------------------------------------
# Solve results


class _Record:
    """Base of the result dataclasses, whose fields, in order, are the JSON keys."""

    def __post_init__(self):  # a float field given an int holds, and renders as, a float
        for f in fields(self):
            if f.type in ("float", "Optional[float]") and getattr(self, f.name) is not None:
                object.__setattr__(self, f.name, float(getattr(self, f.name)))


@dataclass(frozen=True)
class StartRecord(_Record):
    """Outcome of a single trajectory."""

    start: str  # seed tag for random starts, file id for warm starts
    objective: float
    valid: bool
    maximal: bool
    iterations: int
    wall_time_ms: float


@dataclass(frozen=True)
class SolveResult(_Record):
    """Aggregated outcome of a multi-start run on one instance."""

    instance: str
    n: int
    edges: int
    starts: tuple[StartRecord, ...]
    best_objective: float
    reference_objective: Optional[float] = field(default=None, kw_only=True)
    gap_percent: Optional[float] = field(default=None, kw_only=True)
    schedule: dict  # GammaSchedule fields: gamma0, gamma1, iterations, mode
    version: str = field(default=FORMAT_VERSION, kw_only=True)

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


def _canonical(value):
    """value as JSON data: floats at 12 significant digits, None-valued keys left out."""
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items() if item is not None}
    if isinstance(value, (list, tuple)):
        return list(map(_canonical, value))
    return float(f"{value:.12g}") if isinstance(value, float) else value


def write_result(result: SolveResult) -> str:
    """Render a result as JSON, by one rule for every field.

    The JSON is asdict(result) with its keys in field order, every float
    at 12 significant digits, and every field that is None left out, so a
    result read back from the JSON writes the same bytes.  A float that is
    not finite has no JSON form and raises ValueError; for a gap, the
    message names the best objective and the reference it was measured
    against.
    """
    if result.gap_percent is not None and not math.isfinite(result.gap_percent):
        raise ValueError(
            f"best {result.best_objective:.12g} against reference {result.reference_objective:.12g}"
            " gives a non-finite gap, which has no JSON form"
        )
    return json.dumps(_canonical(asdict(result)), indent=2, allow_nan=False) + "\n"


def read_reference_csv(text: str) -> dict[str, float]:
    """Two-column CSV (instance name, best-known objective) -> lookup table; a name may appear once."""
    table: dict[str, float] = {}
    for row in csv.reader(StringIO(text)):
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
        if not math.isfinite(value):
            raise FormatError(f"reference objective must be finite in {row!r}")
        if name in table:
            raise FormatError(f"reference instance {name!r} appears more than once")
        table[name] = value
    return table
