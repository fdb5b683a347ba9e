"""Differential tests: the package's array code against the loop references."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import graphnorm.io
import reference
from graphnorm import (
    GammaSchedule,
    GraphError,
    MisSolution,
    NormalizationError,
    build_graph,
    erdos_renyi,
    init_random,
    round_to_mis,
    run_wrgn,
)
from graphnorm.dynamics import energy, mis_stability, weighted_mass
from graphnorm.enumeration import (
    SpectrumKind,
    _dominated,
    _is_connected,
    _solve_exact,
    atom_spectrum,
    canonical_form,
    connected_graphs_upto,
)
from graphnorm.io import (
    FormatError,
    graph6_adjacency,
    parse_graph6,
    parse_instance,
)
from graphnorm.oracle import (
    DESCENT_TOL,
    _tangent_probes,
    correspondence_check,
    enumerate_mises,
    mis_simplex_point,
)


@st.composite
def edge_lists(draw, max_n=12):
    """Vertex count plus an edge list with duplicates, both orientations and isolated vertices."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    flipped = [(v, u) for u, v in repeats]
    order = draw(st.permutations(edges + repeats + flipped))
    return n, list(order)


@st.composite
def tie_heavy_graphs(draw):
    n, edges = draw(edge_lists())
    weights = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    return build_graph(n, edges, weights)


@given(edge_lists(), st.booleans())
def test_build_graph_matches_reference(parts, as_array):
    n, edges = parts
    w = np.arange(1.0, n + 1.0)
    g = build_graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges, w)
    indptr, indices = reference.csr_lists(n, edges)
    np.testing.assert_array_equal(g.indptr, indptr)
    np.testing.assert_array_equal(g.indices, indices)
    np.testing.assert_array_equal(g.w, w)


@given(edge_lists(), st.lists(st.tuples(st.integers(-2, 14), st.integers(-2, 14)), min_size=1, max_size=3), st.data())
def test_build_graph_errors_match_reference(parts, bad, data):
    n, edges = parts
    at = data.draw(st.integers(0, len(edges)))
    edges = edges[:at] + bad + edges[at:]
    w = np.ones(n)

    def message(build):
        try:
            build(n, edges, w)
        except GraphError as exc:
            return str(exc)
        return None

    assert message(build_graph) == message(reference.build_graph)


@given(tie_heavy_graphs(), st.data())
def test_predicates_match_reference(g, data):
    members = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n + 2))
    sol = MisSolution.from_members(g, members)
    assert sol.independent == reference.is_independent(g, members)
    assert sol.maximal == reference.is_maximal_independent(g, members)
    from_array = MisSolution.from_members(g, np.array(members, dtype=np.int64))
    assert from_array.independent == reference.is_independent(g, members)
    assert sol == reference.mis_solution(g, members)


@given(tie_heavy_graphs(), st.data())
def test_round_to_mis_matches_reference(g, data):
    # most entries at or above 0.5, so thresholding leaves many conflicts
    x = data.draw(
        st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.5, 0.7, 1.0, 1.0]), min_size=g.n, max_size=g.n)
    )
    assert round_to_mis(g, x) == reference.round_to_mis(g, x)


def _trajectory(run, g, x0, schedule, record_trace, early_exit):
    try:
        x, trace = run(g, x0, schedule, record_trace=record_trace, early_exit=early_exit)
    except NormalizationError as exc:
        return str(exc)
    return x.tolist(), trace


@st.composite
def schedules(draw):
    gamma0 = draw(st.floats(0.1, 3.0))
    gamma1 = draw(st.one_of(st.just(gamma0), st.floats(0.1, 3.0)))
    return GammaSchedule(gamma0, gamma1, draw(st.integers(2, 150)))


WEIGHTS = st.one_of(st.just(0.01), st.floats(0.1, 10.0))


@given(edge_lists(), schedules(), st.booleans(), st.booleans(), st.data())
def test_run_wrgn_matches_reference(parts, schedule, record_trace, early_exit, data):
    # states and every trace list equal, not close: the package reads each
    # energy and mass from the step's own products, the reference recomputes them
    n, edges = parts
    weights = data.draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    g = build_graph(n, edges, weights)
    x0 = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    # a few exact zeros (absorbing, or outside the domain when a whole closed
    # neighbourhood is 0) and 5e-324, whose v*x underflows to 0 at weight
    # 0.01 and so takes the fallback
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        x0[i] = data.draw(st.sampled_from([0.0, 5e-324]))
    args = (g, x0, schedule, record_trace, early_exit)
    assert _trajectory(run_wrgn, *args) == _trajectory(reference.run_wrgn, *args)


@pytest.mark.parametrize("x, w", [(0.0, 1.0), (5e-324, 0.01)])
@pytest.mark.parametrize("record_trace", [False, True])
def test_run_wrgn_matches_reference_on_zero_denominator(x, w, record_trace):
    # the inputs of test_step_fallback_fires_on_zero_denominator: x = 0 is
    # not normalizable, x = 5e-324 falls back on every step
    lone = build_graph(1, [], [w])
    args = (lone, np.array([x]), GammaSchedule.pursuit(iterations=20), record_trace, False)
    assert _trajectory(run_wrgn, *args) == _trajectory(reference.run_wrgn, *args)


@pytest.mark.parametrize("record_trace", [False, True])
def test_run_wrgn_matches_reference_on_early_exit(record_trace):
    g = erdos_renyi(20, 0.3, [11, 0])
    args = (g, init_random(20, 42), GammaSchedule.constant(1.5, 100_000), record_trace, True)
    got = _trajectory(run_wrgn, *args)
    assert len(got[1]) < 100_000
    assert got == _trajectory(reference.run_wrgn, *args)


@pytest.mark.parametrize("record_trace", [False, True])
def test_run_wrgn_matches_reference_on_mid_run_overflow(record_trace):
    # a finite start whose v*x overflows, where the first step divided inf by
    # inf and the run stopped at iteration 0: both step from the start scaled
    # by 2**-997 and run to the end, without a warning; the start's own energy is inf
    g = build_graph(2, [(0, 1)], [1e300, 1e300])
    args = (g, np.array([1e300, 1e300]), GammaSchedule.pursuit(iterations=20), record_trace, False)
    got = _trajectory(run_wrgn, *args)
    assert got == _trajectory(reference.run_wrgn, *args)
    x, trace = got
    assert len(trace) == 20 and np.all(np.isfinite(x))
    assert trace.pre_energy[0] == math.inf if record_trace else not trace.pre_energy


def _star_and_path():
    # a path 0..39, and the centre 40 of a star with leaves 41..59 joined to 0
    path = [(i, i + 1) for i in range(39)]
    star = [(40, j) for j in range(41, 60)] + [(40, 0)]
    return build_graph(60, path + star, np.linspace(0.5, 3.0, 60))


def _sparse_with_duplicates():
    rng = np.random.default_rng(2000)
    pairs = rng.integers(0, 2000, size=(10_000, 2))
    return build_graph(2000, pairs[pairs[:, 0] != pairs[:, 1]], rng.uniform(0.1, 10.0, 2000))


def _cycle():
    return build_graph(50, [(i, (i + 1) % 50) for i in range(50)], np.linspace(1.0, 2.0, 50))


@pytest.mark.parametrize(
    "make, identity",
    [(_star_and_path, False), (_sparse_with_duplicates, False), (_cycle, True)],
    ids=["star-and-path", "sparse-2000", "cycle"],
)
@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("early_exit", [False, True])
def test_run_wrgn_matches_reference_in_degree_order(make, identity, record_trace, early_exit):
    # an untraced run steps in the kernel's degree order: far from vertex
    # order on the first two graphs, and vertex order itself on the regular one
    g = make()
    order, _ = g.kernel()
    assert np.array_equal(order, np.arange(g.n)) == identity
    schedule = GammaSchedule.constant(1.5, 20_000) if early_exit else GammaSchedule.pursuit(iterations=200)
    args = (g, init_random(g.n, 3), schedule, record_trace, early_exit)
    got = _trajectory(run_wrgn, *args)
    assert len(got[1]) < schedule.iterations if early_exit else len(got[1]) == schedule.iterations
    assert got == _trajectory(reference.run_wrgn, *args)


@pytest.mark.parametrize("make", [_star_and_path, _sparse_with_duplicates])
def test_energy_and_mass_in_kernel_order_differ_from_vertex_order_by_rounding(make):
    # energy() and weighted_mass() sum their dot products in the kernel's
    # order, far from vertex order on these graphs; the terms are the same
    g = make()
    assert not np.array_equal(g.kernel()[0], np.arange(g.n))
    rng = np.random.default_rng(5)
    for gamma in (0.5, 1.0, 1.5):
        for _ in range(10):
            x = rng.random(g.n)
            y, mass = g.v * x, g.w @ x
            in_vertex_order = 0.5 * (y @ y + gamma * (y @ (g.adjacency() @ y))) - mass
            assert abs(energy(g, x, gamma) - in_vertex_order) <= 1e-13 * mass
            assert abs(weighted_mass(g, x) - mass) <= 1e-14 * mass


@pytest.mark.parametrize(
    "x0,want",
    [
        # a (6, 1) start broadcast v*x to (6, 6) and failed inside the step
        (np.full((6, 1), 0.5), "start has shape (6, 1), expected (6,)"),
        # a length-4 start failed inside scipy's product
        (np.full(4, 0.5), "start has shape (4,), expected (6,)"),
        (np.array([0.5, 0.5, np.nan, 0.5, 0.5, 0.5]), "state entries must be finite"),
        (np.array([0.5, 0.5, np.inf, 0.5, 0.5, 0.5]), "state entries must be finite"),
    ],
    ids=["column", "short", "nan", "inf"],
)
def test_run_wrgn_rejects_a_bad_start_like_reference(x0, want):
    args = (erdos_renyi(6, 0.4, 1), x0, GammaSchedule.constant(1.5, 10), False, False)
    assert _trajectory(run_wrgn, *args) == want
    assert _trajectory(reference.run_wrgn, *args) == want


# ---------------------------------------------------------------------------
# Instance parsing on mutated texts

ODD_LINES = [
    "", "   ", "c note", "cx y z", "p mwis 3 1", "p mwis x 1", "p xyz 1 2", "p mwis 2",
    "n 1", "n 1 2 3", "n 0 1", "n 99 1", "n 1 abc", "n 1 -2", "n 1 nan", "n 1 inf", "n 1 0",
    "n 2 1.5", "n 1_0 2", "n 99999999999999999999999 1", "\tn 1 2 ", "q 1 2",
    "e 1", "e 1 1", "e 0 1", "e 1 99", "e 1 x", "e +1 2", "e\t2\t1", "e 1 2 3", "e 2 1",
    "ex 1 2", "e 01 2", "e 0000000000000000001 2", "n 1 1e-3", "e 1\x0c2", "n 1\r2", "n 1\u00a02", "e \uff11 2",
    "c \u00e9t\u00e9", "c x\u2028q", "n 1 1\u00e9", "e 1 2 c\u00e9",
]


@st.composite
def instance_texts(draw, mutate=True):
    n, edges = draw(edge_lists(max_n=8))
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 0.5, 3.25]), min_size=n, max_size=n))
    body = [f"n {i + 1} {wi!r}" for i, wi in enumerate(weights)]
    body += [f"e {u + 1} {v + 1}" for u, v in edges]
    head = draw(st.sampled_from(["c generated", "c g\u00e9n\u00e9r\u00e9 \u2603"]))
    lines = [head, f"p mwis {n} {len(edges)}"] + draw(st.permutations(body))
    for _ in range(draw(st.integers(0, 3 if mutate else 0))):
        k = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["delete", "copy", "replace", "insert", "problem"]))
        if op == "insert" or not lines:
            lines.insert(k, draw(st.sampled_from(ODD_LINES)))
        elif op == "delete":
            del lines[min(k, len(lines) - 1)]
        elif op == "copy":
            lines.insert(k, lines[min(k, len(lines) - 1)])
        elif op == "replace":
            lines[min(k, len(lines) - 1)] = draw(st.sampled_from(ODD_LINES))
        elif len(lines) > 1:
            lines[1] = draw(st.sampled_from([f"p mwis {n + 50} {len(edges)}", f"p mwis {n} {len(edges) + 1}", "p mwis -1 0", "p mwis 0 0"]))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def _outcome(parse, text):
    try:
        g = parse(text)
    except FormatError as exc:
        return str(exc)
    return g.n, g.indptr.tolist(), g.indices.tolist(), g.w.tolist()


CHUNK_SIZES = [1, 7, 64, graphnorm.io.CHUNK_BYTES]


@given(instance_texts(), st.sampled_from(CHUNK_SIZES))
def test_parse_instance_matches_reference(text, chunk_bytes):
    with mock.patch.object(graphnorm.io, "CHUNK_BYTES", chunk_bytes):
        assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, text)


@given(instance_texts(mutate=False), st.sampled_from(CHUNK_SIZES))
def test_parse_instance_byte_reader_reads_clean_texts(text, chunk_bytes):
    # a byte reader that always fell back to the line reader would pass every other test
    with mock.patch.object(graphnorm.io, "CHUNK_BYTES", chunk_bytes):
        assert graphnorm.io._read_bytes(text) is not None
        assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, text)


@given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**16), st.sampled_from([None, "one", "two\nlines", "\u0141\u00f3d\u017a"]))
def test_parse_instance_byte_reader_reads_written_instances(n, p, seed, comment):
    g = erdos_renyi(n, p, seed) if n else build_graph(0, [], [])
    text = reference.write_instance(g, comment)
    with mock.patch.object(graphnorm.io, "CHUNK_BYTES", 7):
        assert graphnorm.io._read_bytes(text) is not None
        assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, text)


@pytest.mark.parametrize(
    "text",
    [
        "p mwis 2 1\nn 1 4\nn 2 1\ne 1 2\nn 1 3\n",  # duplicate weight in a later chunk
        "p mwis 3 0\nn 1 4\nn 2 x\nn 2 1\n",  # bad number before a duplicate
        "p mwis 2 1\nn 1 4\nn 2 1\ne 2 2\n",  # self-loop reported at its line, 1-based
        "p mwis 2 1\nn 1 4\nn 2 -2\ne 1 2\n",  # a weight that is not positive, at its line
        "p mwis 3 1\nn 1 4\nn 2 1\nn +3 1\ne +3 3\n",  # a self-loop outside the byte grammar
        "p mwis 3 1\nn 1 4\nn 2 1\nn +3 inf\ne 1 2\n",  # a weight that is not finite, the same
        "c only comments\n\n",
        "p mwis 500 0\nn 1 1\n",  # fewer lines than vertices
        "p mwis 500 3\nn 1 1\ne 1 2\n",  # the edge count wins over a missing weight
        "p mwis 3 0\nn 1 4\nn 2 1\nn 1 3\nn 3 x\n",  # duplicate of an earlier chunk, then a bad number
        "p mwis 2 1\nn 1 1\nn 2 1\ne 1 2\np mwis 2 1\n",  # second problem line after the body
        "p mwis -1 0\n",  # negative vertex count, no body
        "p mwis -1 0\nn 1 1\n",  # negative vertex count, one weight line
        "c a\n\n   \ncx y\np mwis 2 1\nn 1 1\nn 2 2\ne 2 1\n",  # comments and blanks before the problem line
        "\n c indented\n\np mwis 2 0\nn 1 1\n",  # the same, then a missing weight
        "p mwis 2 0\nn 1 1\nn 1 2\n",  # a duplicate weight in place of a missing one
        "p mwis 2 1\nn 1 1\nn 2 1\ne 1 3\n",  # an edge outside 1..n, edge count right
        "p mwis 2 1\nn 1 1\nn 2 1\ne 3 1\n",  # the same, first endpoint
        "p mwis 2 1\nn 1 1\nc note\nn 2 1\ne 1 2\n",  # a comment mid-body
        "p mwis 2 1\r\nn 1 1\r\nn 2 1\re 1 2\r\n",  # a lone carriage return ends a line
        "p mwis 2 1\nn 1 1\nn 2 0x1\ne 1 2\n",  # a weight float() does not read
        pytest.param("p mwis " + "1" * 5000 + " 0\n", id="p mwis <5000 digits> 0"),  # int() refuses it
    ],
)
def test_parse_instance_errors_match_reference(text):
    with mock.patch.object(graphnorm.io, "CHUNK_BYTES", 7):
        assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, text)


@pytest.mark.parametrize(
    "text",
    [
        "p mwis 2 1\nn 1 4\nn 2 1\ne 0 1\n",  # an edge end below 1
        "p mwis 2 1\nn 1 4\nn 2 1\ne 1 3\n",  # an edge end above n
        "p mwis 2 1\nn 1 4\nn 2 1\ne 2 2\n",  # a self-loop
        "p mwis 2 1\nn 1 4\nn 2 0\ne 1 2\n",
        "p mwis 2 1\nn 1 4\nn 2 -1\ne 1 2\n",
        "p mwis 2 1\nn 1 4\nn 2 inf\ne 1 2\n",
        "p mwis 2 1\nn 1 4\nn 2 nan\ne 1 2\n",
        "p mwis 2 1\nn 1 4\nn 2 0\ne 2 2\n",  # two bad lines: the weight's is named
        "p mwis 2 1\ne 2 2\nn 1 4\nn 2 0\n",  # the same: the self-loop's is named
        "p mwis 2 0\nn 1 1e308\nn 2 1e308\n",  # no bad line: a total that overflows
    ],
)
@pytest.mark.parametrize("chunk_bytes", [7, graphnorm.io.CHUNK_BYTES])
def test_parse_instance_byte_reader_leaves_graph_rules_to_build_graph(text, chunk_bytes):
    # the byte reader reads the text, build_graph rejects it, and the line
    # reader names the first bad line; with none, build_graph's message stands
    with mock.patch.object(graphnorm.io, "CHUNK_BYTES", chunk_bytes):
        assert graphnorm.io._read_bytes(text) is not None
        assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, text)


@pytest.mark.parametrize("line", ODD_LINES)
@pytest.mark.parametrize("replaced", ["n 1 1", "e 3 2"])
def test_parse_instance_odd_line_matches_reference(line, replaced):
    # in place of a weight or an edge line, so that misreading the line can give a valid graph
    text = "c head\np mwis 3 2\nn 1 1\nn 2 2\nn 3 0.5\ne 1 2\ne 3 2\n".replace(replaced, line)
    with mock.patch.object(graphnorm.io, "CHUNK_BYTES", 7):
        assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, text)


@pytest.mark.parametrize(
    "line, meaning",
    [
        ("e 0000000000000000001 2", "e 1 2"),  # 19 digits
        ("e +1 2", "e 1 2"),
        ("e 1_0 2", "e 10 2"),
        ("e \uff11 2", "e 1 2"),  # fullwidth digit
        ("e 1\u00a02", "e 1 2"),  # no-break space
        ("e\x1f1 2", "e 1 2"),  # unit separator, whitespace to str.split
        ("n 1\x0b\n", "n 1"),  # vertical tab, a line end to str.splitlines
        ("n 1\r2", "n 1\n2"),  # lone carriage return
        ("e 1 2\nc \u00e9\x85q", "e 1 2\nc \u00e9\nq"),  # next line, a line end to str.splitlines
        ("e 1 2\nc\u2028q", "e 1 2\nc\nq"),  # line separator
        ("e 1 2\nc\u2029q", "e 1 2\nc\nq"),  # paragraph separator
        ("\u00a0c x\ne 1 2", "e 1 2"),  # a comment to str.strip, not to the byte reader
    ],
)
def test_parse_instance_byte_reader_falls_back(line, meaning):
    head = "p mwis 10 1\n" + "".join(f"n {i} {i}\n" for i in range(10, 0, -1))
    text, same = head + line, head + meaning
    assert graphnorm.io._read_bytes(text) is None
    assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, same)


def test_parse_instance_byte_reader_skips_comments_anywhere():
    text = "c a \u00e9\n\np mwis 2 1\nn 1 1\n  c n\u00f6te \udc80\nn 2 1\ncx y\r\ne 1 2\nc end \u2603"
    assert graphnorm.io._read_bytes(text) is not None
    assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, text)


@pytest.mark.parametrize(
    "odd, counted_chunks",
    [
        ("c two words\n{}", "none"),
        ("c note\n{}", "some"),
        ("\n{}", "some"),
        ("   \n{}", "some"),
        ("  {}", "some"),
        ("\t{}", "some"),
    ],
    ids=["comment-3-tokens", "comment", "blank", "spaces", "leading-spaces", "leading-tab"],
)
def test_parse_instance_reads_both_chunk_layouts(odd, counted_chunks):
    # the first 40 body lines clean, then every fifth line made odd: at 64-byte
    # chunks the clean chunks take the three-tokens-a-line layout and the others
    # count each line's tokens; a three-token comment fits the first layout
    head, *body = reference.write_instance(erdos_renyi(40, 0.3, 5)).splitlines()
    body[40:] = [odd.format(line) if k % 5 == 0 else line for k, line in enumerate(body[40:])]
    text = "\n".join([head] + body) + "\n"
    with (
        mock.patch.object(graphnorm.io, "CHUNK_BYTES", 64),
        mock.patch.object(graphnorm.io, "_read_chunk", wraps=graphnorm.io._read_chunk) as chunks,
        mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as counted,
    ):
        assert graphnorm.io._read_bytes(text) is not None
        assert _outcome(parse_instance, text) == _outcome(reference.parse_instance, text)
    if counted_chunks == "none":
        assert counted.call_count == 0
    else:
        assert 0 < counted.call_count < chunks.call_count


def test_parse_instance_huge_vertex_count_is_quick():
    # the reference would list every missing id; the parser stops at the first
    with pytest.raises(FormatError, match="missing weight for vertex 2"):
        parse_instance("p mwis 1000000000000 0\nn 1 1\n")


def test_parse_instance_huge_edge_count_is_quick():
    # the byte reader sizes its arrays from the problem line only when the text can hold it
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="problem line declares 1000000000000 edges, file has 0"):
            parse_instance("p mwis 1 1000000000000\nn 1 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Small-graph codes


@st.composite
def small_graphs(draw, max_n=7, n=None):
    """A 0/1 adjacency matrix on n vertices (drawn from 0..max_n if n is None)."""
    n = draw(st.integers(0, max_n)) if n is None else n
    m = n * (n - 1) // 2
    bits = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    adj = np.zeros((n, n), dtype=np.int8)
    i, j = np.triu_indices(n, k=1)
    adj[i, j] = adj[j, i] = bits
    return adj


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_covers_reference_classes(n):
    emitted = [reference.canonical_form(adj) for adj in connected_graphs_upto(n)]
    assert sorted(emitted) == list(reference.connected_codes(n))


@given(small_graphs(), st.data())
def test_canonical_form_classes_match_reference(a, data):
    n = len(a)
    perm = data.draw(st.permutations(range(n)))
    copy = a[np.ix_(perm, perm)]
    near = copy.copy()
    if n >= 2:
        u, v = data.draw(st.sampled_from(list(zip(*np.triu_indices(n, k=1)))))
        near[u, v] = near[v, u] = 1 - near[u, v]
    other = data.draw(small_graphs(n=n))
    assert reference.canonical_code(copy) == reference.canonical_code(a)
    for b in (near, other):
        same = reference.canonical_form(a) == reference.canonical_form(b)
        assert (reference.canonical_code(a) == reference.canonical_code(b)) == same


def test_canonical_form_batch_matches_reference():
    codes = np.arange(1 << 10, dtype=np.int64)  # every labelled graph on 5 vertices
    forms = canonical_form(5, codes)
    classes = [reference.canonical_form(graph6_adjacency(5, int(code))) for code in codes]
    # equal forms exactly for equal reference classes: the pairs biject the two
    assert len(set(zip(forms.tolist(), classes))) == len(set(forms.tolist())) == len(set(classes)) == 34
    np.testing.assert_array_equal(canonical_form(5, forms), forms)
    assert np.all(forms <= codes)
    assert forms.tolist() == [int(canonical_form(5, codes[k : k + 1])[0]) for k in range(len(codes))]


@given(small_graphs(max_n=12))
def test_graph6_matches_reference(adj):
    n = len(adj)
    record = reference.write_graph6(adj)
    parsed = parse_graph6(record)
    assert parsed.dtype == np.int8
    np.testing.assert_array_equal(parsed, reference.parse_graph6(record))
    # the code is the payload bits before padding, first pair most significant
    payload = "".join(f"{ord(ch) - 63:06b}" for ch in record[1:])
    assert reference.graph6_code(adj) == int("0" + payload[: n * (n - 1) // 2], 2)
    np.testing.assert_array_equal(graph6_adjacency(n, reference.graph6_code(adj)), adj)


@st.composite
def graph6_records(draw):
    """graph6 records with bad characters, short or long payloads, a '~' size byte or 4-byte sizes.

    A 4-byte size ("~" and three 6-bit bytes) holds the record's own order,
    so the payload still fits, or any 18-bit value: a first size byte of
    "~" makes it the 8-byte form, and a large order leaves the payload short.
    """
    adj = draw(small_graphs(max_n=12))
    s = reference.write_graph6(adj)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["char", "short", "long", "size", "wide", "header", "space"]))
        k = draw(st.integers(0, len(s)))
        if op == "char":
            s = s[:k] + draw(st.sampled_from(["!", " ", ">", "\x7f", "\u00e9", "\x00"])) + s[k:]
        elif op == "short":
            s = s[:k] + s[k + 1 :]
        elif op == "long":
            s = s[:k] + draw(st.sampled_from(["?", "~", "A", "_"])) + s[k:]
        elif op == "size":
            s = "~" + s[1:]
        elif op == "wide":
            n = draw(st.just(len(adj)) | st.integers(0, 2**18 - 1))
            s = "~" + "".join(chr((n >> shift) % 64 + 63) for shift in (12, 6, 0)) + s[1:]
        elif op == "header":
            s = ">>graph6<<" + s
        else:
            s = draw(st.sampled_from([" ", "\n", "\t"])) + s + "\n"
    return s


def _graph6_outcome(parse, record):
    try:
        return parse(record).tolist()
    except FormatError as exc:
        return str(exc)


@given(graph6_records())
def test_graph6_errors_match_reference(record):
    assert _graph6_outcome(parse_graph6, record) == _graph6_outcome(
        reference.parse_graph6, record
    )


# ---------------------------------------------------------------------------
# Exact layer


def _spectrum_matches_reference(adj):
    got, want = atom_spectrum(adj), reference.atom_spectrum(adj)
    assert (got.kind, got.witness, got.nullity, got.regular) == (
        want.kind,
        want.witness,
        want.nullity,
        want.regular,
    )
    # the domination lemma, against the reference's own exact solve
    if _dominated(adj):
        assert want.kind is SpectrumKind.EMPTY


def test_is_connected_matches_reference_all_connected_small():
    for n in range(1, 8):
        for adj in connected_graphs_upto(n):
            assert _is_connected(adj) and reference.is_connected(adj)


@given(small_graphs(max_n=10), st.data())
def test_is_connected_matches_reference_random(adj, data):
    n = len(adj)
    if data.draw(st.booleans()):
        # cut every edge across a drawn split, so disconnected draws are common
        side = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        adj = adj * (side[:, None] == side[None, :])
    assert _is_connected(adj) == reference.is_connected(adj)


def test_atom_spectrum_matches_reference_all_small():
    for n in range(1, 8):
        for adj in connected_graphs_upto(n):
            _spectrum_matches_reference(adj)


@st.composite
def integer_systems(draw, max_n=5):
    """A square integer system: full rank, singular, or singular but consistent.

    Entries are small and signed, so negative pivots are common; a singular
    draw replaces one row by an integer combination of the others.
    """
    n = draw(st.integers(0, max_n))

    def vector():
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)

    M = np.array([vector() for _ in range(n)], dtype=np.int64).reshape(n, n)
    rhs = vector()
    if n >= 2 and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        coef = vector()
        coef[j] = 0
        M[j] = coef @ M
        if draw(st.booleans()):
            rhs = M @ vector()
    return M.tolist(), rhs.tolist()


@given(integer_systems())
def test_integer_solver_matches_rational_reference(system):
    B, rhs = system
    consistent, P, K, L = _solve_exact(B, rhs)
    want_consistent, want_particular, want_kernel = reference.solve_exact(B, rhs)
    assert consistent == want_consistent
    assert len(K) == len(want_kernel)  # same rank
    assert L > 0
    assert [Fraction(p, L) for p in P] == want_particular
    assert [[Fraction(k, L) for k in vec] for vec in K] == want_kernel


def _tree_plus_edges(draw, n):
    """A random tree on n vertices plus up to n extra edges."""
    adj = np.zeros((n, n), dtype=np.int8)
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        adj[u, v] = adj[v, u] = 1
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pairs, max_size=n)):
        if u != v:
            adj[u, v] = adj[v, u] = 1
    return adj


@st.composite
def connected_graphs(draw, max_n=9):
    """Connected adjacencies: sparse, circulant (regular), or blown up into twin classes.

    The reference enumerates C(2n, d) vertex candidates, so draws with
    nullity d above 5 are left to the exhaustive test on n <= 6.
    """
    family = draw(st.sampled_from(["sparse", "circulant", "blowup"]))
    if family == "sparse":
        adj = _tree_plus_edges(draw, draw(st.integers(1, max_n)))
    elif family == "circulant":
        n = draw(st.integers(3, max_n))
        adj = np.zeros((n, n), dtype=np.int8)
        for k in draw(st.sets(st.integers(1, n // 2), min_size=1)):
            for v in range(n):
                adj[v, (v + k) % n] = adj[(v + k) % n, v] = 1
    else:
        # each vertex of a small graph becomes a clique or an independent set
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
        assume(sum(sizes) <= max_n)
        quotient = _tree_plus_edges(draw, len(sizes))
        part = np.repeat(np.arange(len(sizes)), sizes)
        adj = quotient[np.ix_(part, part)]
        for k in range(len(sizes)):
            if draw(st.booleans()):
                adj[np.ix_(part == k, part == k)] = 1
        np.fill_diagonal(adj, 0)
    n = len(adj)
    assume(_is_connected(adj) and n - np.linalg.matrix_rank(adj + np.eye(n)) <= 5)
    perm = draw(st.permutations(range(n)))
    return adj[np.ix_(perm, perm)]


@given(connected_graphs())
def test_atom_spectrum_matches_reference_random(adj):
    _spectrum_matches_reference(adj)


@pytest.mark.parametrize("count", [0, 1, 7, 40])
@pytest.mark.parametrize("edgeless", [False, True])
def test_tangent_probes_match_reference(count, edgeless):
    g = build_graph(6, [], np.arange(1.0, 7.0)) if edgeless else erdos_renyi(9, 0.35, count)
    for seed, sol in enumerate(enumerate_mises(g)):
        members = np.asarray(sol.members, dtype=np.int64)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        D = _tangent_probes(g, members, count, rng)
        assert np.array_equal(D, reference.tangent_probes(g, members, count, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(tie_heavy_graphs(), st.integers(0, 30), st.integers(0, 2**16), st.data())
def test_tangent_probes_match_reference_random(g, count, seed, data):
    sol = data.draw(st.sampled_from(enumerate_mises(g)))
    members = np.asarray(sol.members, dtype=np.int64)
    D = _tangent_probes(g, members, count, np.random.default_rng(seed))
    want = reference.tangent_probes(g, members, count, np.random.default_rng(seed))
    assert np.array_equal(D, want)


def _stability_matches_reference(g, sol, gamma):
    """Equal when no outside vertex has more than 7 member neighbours, else within the sums' error.

    np.sum adds up to 7 terms in order but splits 8 or more into pairwise
    blocks, while bincount always adds in order.  Either sum of k positive
    terms is within (k - 1) eps/2 of the exact sum, relative, so the two
    differ by at most (k - 1) eps; the product with gamma may add one
    more eps.
    """
    got, want = mis_stability(g, sol, gamma), reference.mis_stability(g, sol, gamma)
    mask = np.zeros(g.n, dtype=bool)
    mask[list(sol.members)] = True
    k = int((g.adjacency() @ mask)[~mask].max(initial=0))
    if k <= 7:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=k * np.finfo(float).eps, abs=0)


@given(edge_lists(), st.floats(0.01, 3.0), st.data())
def test_mis_stability_matches_reference(parts, gamma, data):
    n, edges = parts
    w = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    g = build_graph(n, edges, w)
    _stability_matches_reference(g, data.draw(st.sampled_from(enumerate_mises(g))), gamma)


@pytest.mark.parametrize("leaves", [7, 8, 30, 200])
def test_mis_stability_matches_reference_many_member_neighbours(leaves):
    # a double star: two hubs outside, joined to every leaf of the MIS
    edges = [(h, j) for h in (0, 1) for j in range(2, leaves + 2)]
    w = np.random.default_rng(leaves).uniform(0.1, 10.0, leaves + 2)
    g = build_graph(leaves + 2, edges, w)
    _stability_matches_reference(g, MisSolution.from_members(g, range(2, leaves + 2)), 1.3)


def test_mis_stability_errors_match_reference(p3_uniform):
    for members, gamma in (([1], 0.0), ([1], math.inf), ([0], 1.5), ([0, 1], 1.5)):
        sol = MisSolution.from_members(p3_uniform, members)
        with pytest.raises(ValueError) as got:
            mis_stability(p3_uniform, sol, gamma)
        with pytest.raises(ValueError) as want:
            reference.mis_stability(p3_uniform, sol, gamma)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("gamma", [1.2, 1.5, 3.0])
def test_correspondence_check_matches_reference_pieces(gamma):
    # Q is read from the product the probes use; it must equal the validated
    # evaluation at the carried point bit for bit
    count = 20
    for n in range(2, 13):
        g = erdos_renyi(n, 0.35, [n, 29])
        report = correspondence_check(g, gamma, count, seed=n)
        assert [rec.solution for rec in report.mis_list] == enumerate_mises(g)
        B = gamma * g.adjacency().toarray()
        np.fill_diagonal(B, 1.0)
        rng = np.random.default_rng(n)  # one stream, drawn in enumeration order
        for rec in report.mis_list:
            sol = rec.solution
            members = np.asarray(sol.members, dtype=np.int64)
            r = mis_simplex_point(g, members)
            assert rec.q_value == reference.tilted_simplex_q(g, r, gamma)
            assert rec.stab == mis_stability(g, sol, gamma)
            _stability_matches_reference(g, sol, gamma)
            s = 1.0 / math.sqrt(sol.weight)
            descents = [
                2.0 * s * float(d @ (B @ r)) + s * s * float(d @ (B @ d))
                for d in reference.tangent_probes(g, members, count, rng)
            ]
            worst = min(descents, default=0.0)
            assert rec.worst_descent == pytest.approx(worst, rel=1e-9, abs=1e-18)
            assert rec.local_min_verified == (worst >= -DESCENT_TOL / sol.weight)


@pytest.mark.parametrize("n,p,seed", [(12, 0.3, 1), (16, 0.3, 2), (14, 0.5, 3)])
def test_correspondence_check_equals_report_from_reference_probes(n, p, seed):
    # the whole report, every float included, is the one the loop-built
    # probes give
    g = erdos_renyi(n, p, seed)
    got = correspondence_check(g, 1.5, 1000, seed)
    with mock.patch("graphnorm.oracle._tangent_probes", reference.tangent_probes):
        want = correspondence_check(g, 1.5, 1000, seed)
    assert got == want
