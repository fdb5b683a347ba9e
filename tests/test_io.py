import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from graphnorm import build_graph, erdos_renyi
from graphnorm.io import (
    FormatError,
    SolveResult,
    StartRecord,
    parse_graph6,
    parse_instance,
    parse_warm_start,
    read_reference_csv,
    write_result,
)
import reference
from reference import parse_result, solve_result, write_graph6, write_instance

K2_TEXT = "p mwis 2 1\nn 1 4\nn 2 1\ne 1 2\n"


def test_parse_minimal_instance():
    g = parse_instance(K2_TEXT)
    assert g.n == 2 and g.num_edges == 1
    np.testing.assert_array_equal(g.w, [4.0, 1.0])


def test_comments_ignored():
    g = parse_instance("c hello\nc world\n" + K2_TEXT)
    assert g.n == 2


def test_missing_weight_is_error():
    with pytest.raises(FormatError, match="missing weight for vertex 2"):
        parse_instance("p mwis 2 1\nn 1 4\ne 1 2\n")


def test_unknown_line_type():
    with pytest.raises(FormatError, match="unknown line type"):
        parse_instance("p mwis 1 0\nn 1 1\nq zzz\n")


def test_body_line_before_problem_line():
    with pytest.raises(FormatError, match="^line 1: edge line before problem line$"):
        parse_instance("e 1 2\n" + K2_TEXT)
    with pytest.raises(FormatError, match="^line 2: weight line before problem line$"):
        parse_instance("c weights first\nn 1 4\n" + K2_TEXT)


def test_edge_count_mismatch():
    with pytest.raises(FormatError, match="declares"):
        parse_instance("p mwis 2 2\nn 1 1\nn 2 1\ne 1 2\n")


def test_malformed_numbers_raise_format_error():
    with pytest.raises(FormatError, match="cannot parse number"):
        parse_instance("p mwis 2 1\nn 1 abc\nn 2 1\ne 1 2\n")
    with pytest.raises(FormatError, match="cannot parse number"):
        parse_instance("p mwis two 1\n")
    with pytest.raises(FormatError, match="cannot parse number"):
        parse_instance("p mwis 2 1\nn 1 4\nn 2 1\ne 1 x\n")


PLUS_SEVEN = "p mwis 7 1\n" + "".join(f"n {k} 1\n" for k in range(1, 7))  # line 8 is vertex 7's


@pytest.mark.parametrize(
    "text, message",
    [
        ("p mwis 5 1\n" + "".join(f"n {k} 1\n" for k in range(1, 6)) + "e 5 5\n", "line 7: self-loop at vertex 5"),
        ("p mwis 2 1\nn 1 4\nn 2 -2\ne 1 2\n", "line 3: weight of vertex 2 must be positive and finite, got -2.0"),
        (PLUS_SEVEN + "n +7 1\ne 7 +7\n", "line 9: self-loop at vertex 7"),
        (PLUS_SEVEN + "n +7 nan\ne 1 7\n", "line 8: weight of vertex 7 must be positive and finite, got nan"),
    ],
    ids=["byte-self-loop", "byte-weight", "plus-self-loop", "plus-weight"],
)
def test_instance_error_names_line_and_1_based_id(text, message):
    # both came from build_graph, with no line and a 0-based vertex
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_instance(text)


def test_instance_roundtrip():
    g = erdos_renyi(9, 0.35, [77, 0])
    g2 = parse_instance(write_instance(g, comment="roundtrip"))
    assert g2.n == g.n
    np.testing.assert_array_equal(g2.indices, g.indices)
    np.testing.assert_array_equal(g2.w, g.w)


def test_parse_warm_start():
    np.testing.assert_array_equal(parse_warm_start("0.5\n0.25\n", 2), [0.5, 0.25])
    with pytest.raises(FormatError):
        parse_warm_start("0.5\n", 2)
    with pytest.raises(FormatError):
        parse_warm_start("nan\n0.1\n", 2)
    with pytest.raises(FormatError):
        parse_warm_start("0.5\nfoo\n", 2)
    with pytest.raises(FormatError, match="warm start line 2: cannot parse '1 2'"):
        parse_warm_start("0.5\n1 2\n", 2)
    # an error names the file's line, blank lines counted
    with pytest.raises(FormatError, match="^warm start line 3: cannot parse 'abc'$"):
        parse_warm_start("0.5\n\nabc\n", 2)
    with pytest.raises(FormatError, match="^warm start line 4: non-finite value 'inf'$"):
        parse_warm_start("\n\n0.5\ninf\n", 2)


def test_graph6_k2():
    adj = parse_graph6("A_")
    np.testing.assert_array_equal(adj, [[0, 1], [1, 0]])
    adj = parse_graph6("A?")
    np.testing.assert_array_equal(adj, [[0, 0], [0, 0]])


def test_graph6_errors():
    with pytest.raises(FormatError):
        parse_graph6("B")  # truncated payload
    with pytest.raises(FormatError):
        parse_graph6("A!")  # character below 63
    for record in ("~", "~??"):
        with pytest.raises(FormatError, match="^graph6 record ends inside its 4-byte size$"):
            parse_graph6(record)
    with pytest.raises(FormatError, match=r"^8-byte graph6 sizes \(n > 258047\) not supported$"):
        parse_graph6("~~???????")
    for record in ("", ">>graph6<<"):
        with pytest.raises(FormatError, match="empty graph6 record"):
            parse_graph6(record)
    with pytest.raises(FormatError, match="graph6 writer supports n <= 258047"):
        write_graph6(np.broadcast_to(np.int8(0), (258048, 258048)))  # a view: no memory


def _edges_adjacency(n, edges):
    adj = np.zeros((n, n), dtype=np.int8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return adj


PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
PETERSEN += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


@pytest.mark.parametrize(
    "n,edges,record",
    [
        (3, [(0, 1), (1, 2)], "Bg"),  # P3
        (4, [(u, v) for u in range(4) for v in range(u + 1, 4)], "C~"),  # K4
        (5, [(i, (i + 1) % 5) for i in range(5)], "Dhc"),  # C5
        (10, PETERSEN, "IheA@GUAo"),  # outer 5-cycle, spokes i-(i+5), inner pentagram
        (7, [(0, v) for v in range(1, 7)], "FsaC?"),  # star K1,6 centred at 0
    ],
    ids=["P3", "K4", "C5", "Petersen", "K1,6"],
)
def test_graph6_external_records(n, edges, record):
    # records as the standard graph6 writers (nauty, networkx) print them
    adj = _edges_adjacency(n, edges)
    assert write_graph6(adj) == record
    np.testing.assert_array_equal(parse_graph6(record), adj)


@given(st.integers(1, 9), st.integers(0, 2**20))
def test_graph6_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    iu, ju = np.triu_indices(n, k=1)
    bits = rng.integers(0, 2, size=len(iu))
    adj[iu, ju] = adj[ju, iu] = bits
    line = write_graph6(adj)
    np.testing.assert_array_equal(parse_graph6(line), adj)


def test_graph6_four_byte_size_from_networkx():
    # n = 63 is the first size past one byte: "~" and three 6-bit bytes
    nx = pytest.importorskip("networkx")
    record = nx.to_graph6_bytes(nx.cycle_graph(63), header=False).decode().strip()
    assert record.startswith("~??~")
    adj = _edges_adjacency(63, [(i, (i + 1) % 63) for i in range(63)])
    np.testing.assert_array_equal(parse_graph6(record), adj)
    assert write_graph6(adj) == record


@pytest.mark.parametrize("n", range(63, 71))
def test_graph6_four_byte_size_roundtrip(n):
    rng = np.random.default_rng(n)
    adj = np.zeros((n, n), dtype=np.int8)
    iu, ju = np.triu_indices(n, k=1)
    adj[iu, ju] = adj[ju, iu] = rng.integers(0, 2, size=len(iu))
    line = write_graph6(adj)
    assert line[0] == "~" and len(line) == 4 + (len(iu) + 5) // 6
    np.testing.assert_array_equal(parse_graph6(line), adj)
    np.testing.assert_array_equal(reference.parse_graph6(line), adj)


def _toy_result(reference=None):
    g = build_graph(2, [(0, 1)], [4, 1])
    starts = [
        StartRecord("seed-0.0", 4.0, True, True, 1000, 12.5),
        StartRecord("seed-0.1", 1.0, True, True, 1000, 11.25),
    ]
    schedule = {"gamma0": 0.9, "gamma1": 1.5, "iterations": 1000, "mode": "linear"}
    return solve_result("k2", g, starts, schedule, reference)


def test_gap_formula():
    res = _toy_result(reference=100.0)
    res2 = _toy_result(reference=None)
    assert res.best_objective == 4.0
    assert res.gap_percent == pytest.approx(96.0)
    assert res2.gap_percent is None
    assert "gap_percent" not in write_result(res2)
    # reference 100 against best 99 leaves a 1.0 percent gap
    assert SolveResult.gap_of(100.0, 99.0) == pytest.approx(1.0)
    assert SolveResult.gap_of(0.0, 99.0) is None


def test_result_roundtrip_byte_identical():
    res = _toy_result(reference=4.0)
    text = write_result(res)
    assert write_result(parse_result(text)) == text
    text2 = write_result(_toy_result())
    assert write_result(parse_result(text2)) == text2


TOY_HEAD = """{
  "instance": "k2",
  "n": 2,
  "edges": 1,
  "starts": [
    {
      "start": "seed-0.0",
      "objective": 4.0,
      "valid": true,
      "maximal": true,
      "iterations": 1000,
      "wall_time_ms": 12.5
    },
    {
      "start": "seed-0.1",
      "objective": 1.0,
      "valid": true,
      "maximal": true,
      "iterations": 1000,
      "wall_time_ms": 11.25
    }
  ],
  "best_objective": 4.0,
"""
TOY_TAIL = """  "schedule": {
    "gamma0": 0.9,
    "gamma1": 1.5,
    "iterations": 1000,
    "mode": "linear"
  },
  "version": "0.1.0"
}
"""


def test_result_text_is_pinned():
    with_reference = '  "reference_objective": 4.0,\n  "gap_percent": 0.0,\n'
    assert write_result(_toy_result(4.0)) == TOY_HEAD + with_reference + TOY_TAIL
    assert write_result(_toy_result()) == TOY_HEAD + TOY_TAIL


_floats = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
_starts = st.builds(StartRecord, st.text(max_size=8), _floats, st.booleans(), st.booleans(), st.integers(0, 10**6), _floats)


@given(
    st.lists(_starts, max_size=3),
    st.one_of(st.none(), _floats),
    st.tuples(_floats, _floats, st.integers(1, 10**6)),
    st.booleans(),
)
# best 2.9e8 against reference 1.6e-298: the gap overflows to -inf
@example([StartRecord("", 292719107.0, False, False, 0, 0.0)], 1.6283040804296264e-298, (0.0, 0.0, 1), False)
def test_result_roundtrip_property(starts, reference, gammas, constant):
    gamma0, gamma1, iterations = gammas
    schedule = {
        "gamma0": gamma0,
        "gamma1": gamma0 if constant else gamma1,
        "iterations": iterations,
        "mode": "constant" if constant else "linear",
    }
    g = build_graph(2, [(0, 1)], [4.0, 1.0])
    result = solve_result("k2", g, starts, schedule, reference)
    if result.gap_percent is not None and not math.isfinite(result.gap_percent):
        # a non-finite float has no JSON form
        with pytest.raises(ValueError, match="JSON"):
            write_result(result)
        return
    text = write_result(result)
    assert write_result(parse_result(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{}",
        "not json",
        TOY_HEAD.replace('      "objective": 4.0,\n', "", 1) + TOY_TAIL,
        TOY_HEAD + '  "note": "extra",\n' + TOY_TAIL,
    ],
    ids=["array", "empty-object", "not-json", "start-without-objective", "unknown-key"],
)
def test_parse_result_rejects_other_layouts(text):
    with pytest.raises(FormatError, match="malformed result JSON"):
        parse_result(text)


def test_result_float_rendering():
    res = _toy_result(reference=3.0)
    text = write_result(res)
    # (3 - 4)/3 * 100 rendered at 12 significant digits
    assert '"gap_percent": -33.3333333333' in text


def test_reference_csv():
    table = read_reference_csv("instance,objective\nk2,4\nbig,1234.5\n")
    assert table == {"k2": 4.0, "big": 1234.5}
    with pytest.raises(FormatError):
        read_reference_csv("k2,notanumber\n")
    assert read_reference_csv("k2,4\n\n , \nbig,5\n") == {"k2": 4.0, "big": 5.0}  # blank rows skipped
    with pytest.raises(FormatError, match="reference row needs two columns"):
        read_reference_csv("k2,4\nsolo\n")
    # the last row once won, so a gap was measured against whichever came last
    with pytest.raises(FormatError, match="reference instance 'a' appears more than once"):
        read_reference_csv("a,1\nb,2\na,3\n")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_reference_csv_rejects_non_finite(value):
    # an infinite reference wrote "reference_objective": Infinity, which is not JSON
    with pytest.raises(FormatError, match=f"g0.*{value}"):
        read_reference_csv(f"k2,4\ng0,{value}\n")
