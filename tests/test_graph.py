import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphnorm import GraphError, MisSolution, build_graph, erdos_renyi


def test_build_k2():
    g = build_graph(2, [(0, 1)], [1, 1])
    assert g.n == 2 and g.num_edges == 1
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]


def test_build_p3_weighted():
    g = build_graph(3, [(0, 1), (1, 2)], [1, 3, 1])
    assert g.num_edges == 2
    assert list(g.neighbors(1)) == [0, 2]
    np.testing.assert_allclose(g.v, np.sqrt([1, 3, 1]))


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)], [1, 1])


def test_bad_weights_rejected():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)], [1, 0])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)], [1, -3])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)], [1, float("nan")])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)], [1])


def test_weight_total_must_be_finite():
    # each weight is finite, but an objective summing both would be inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphError, match="total weight"):
            build_graph(2, [], [1e308, 1e308])
    assert build_graph(2, [(0, 1)], [1e308, 7e307]).w.sum() == 1.7e308


def test_out_of_range_edge_rejected():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)], [1, 1])


def test_edges_must_be_pairs():
    with pytest.raises(GraphError, match=r"edges must be \(u, v\) pairs, got an array of shape \(2, 3\)"):
        build_graph(3, np.zeros((2, 3), dtype=np.int64), [1, 1, 1])
    # float endpoints were truncated, into the edges 0-1 and 1-2
    with pytest.raises(GraphError, match="vertex indices must be integers, got float64"):
        build_graph(3, [(0.7, 1.2), (1.9, 2.5)], [1, 1, 1])
    # True beside an int was read as the endpoint 1, into the edge 1-2
    with pytest.raises(GraphError, match="vertex indices must be integers, got bool"):
        build_graph(3, [(True, 2)], [1, 1, 1])
    # endpoints are read by value: uint64 ones are accepted, and one beyond
    # int64, or beside one that is, is outside the range and named
    uint = build_graph(3, np.array([[0, 1], [2, 1]], dtype=np.uint64), [1, 1, 1])
    assert uint.indices.tolist() == build_graph(3, [(0, 1), (2, 1)], [1, 1, 1]).indices.tolist()
    for edge in ((-1, 2**63), (0, 99999999999999999999999), (0, 10**30)):
        with pytest.raises(GraphError, match=rf"edge \({edge[0]},{edge[1]}\) has an endpoint outside \[0,3\)"):
            build_graph(3, [edge], [1, 1, 1])


def test_duplicate_edges_merged():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)], [1, 1, 1])
    assert g.num_edges == 2


def test_is_independent_examples():
    k2 = build_graph(2, [(0, 1)], [1, 1])
    assert MisSolution.from_members(k2, [0]).independent
    assert not MisSolution.from_members(k2, [0, 1]).independent
    p3 = build_graph(3, [(0, 1), (1, 2)], [1, 1, 1])
    assert MisSolution.from_members(p3, [0, 2]).independent


def test_is_maximal_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)], [1, 1, 1])
    assert MisSolution.from_members(p3, [1]).maximal
    assert not MisSolution.from_members(p3, [0]).maximal
    edgeless = build_graph(3, [], [1, 1, 1])
    assert MisSolution.from_members(edgeless, [0, 1, 2]).maximal


def test_set_weight_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)], [1, 3, 1])
    assert MisSolution.from_members(p3, []).weight == 0
    assert MisSolution.from_members(p3, [1]).weight == 3
    assert MisSolution.from_members(p3, [0, 2]).weight == 2


def test_predicate_index_errors():
    p3 = build_graph(3, [(0, 1), (1, 2)], [1, 1, 1])
    with pytest.raises(GraphError):
        MisSolution.from_members(p3, [3]).independent
    with pytest.raises(GraphError):
        MisSolution.from_members(p3, [-1]).weight
    # a mask read as the ids {0, 1}, and a float and a string were truncated to 1
    for members in (np.array([True, False, True]), [True], [1.7], ["1"]):
        with pytest.raises(GraphError, match="vertex indices must be integers"):
            MisSolution.from_members(p3, members)
    # ids are read by value: an id beyond int64 raised OverflowError, and
    # numpy reads -1 beside 2**63 as floats
    for members in ([99999999999999999999999], [-1, 2**63]):
        with pytest.raises(GraphError, match=r"vertex index outside \[0,3\)"):
            MisSolution.from_members(p3, members)
    assert MisSolution.from_members(p3, np.array([2, 0], dtype=np.uint64)).members == (0, 2)
    # numpy reads a bool among ints as an int: True was the id 1
    for members in ([True, 2], [np.True_, 1]):
        with pytest.raises(GraphError, match="vertex indices must be integers, got bool"):
            MisSolution.from_members(p3, members)


def test_mis_solution_from_members():
    p3 = build_graph(3, [(0, 1), (1, 2)], [1, 3, 1])
    sol = MisSolution.from_members(p3, [2, 0])
    assert sol.members == (0, 2)
    assert sol.weight == 2
    assert sol.independent and sol.maximal


@st.composite
def random_graph_parts(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, mask) if keep]
    weights = draw(
        st.lists(
            st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return n, edges, weights


@given(random_graph_parts())
def test_adjacency_symmetry(parts):
    n, edges, weights = parts
    g = build_graph(n, edges, weights)
    pairs = {(u, v) for u in range(n) for v in g.neighbors(u)}
    assert pairs == {(v, u) for (u, v) in pairs}
    for i in range(n):
        nb = list(g.neighbors(i))
        assert nb == sorted(nb)
        assert i not in nb
        assert len(nb) == len(set(nb))


@given(random_graph_parts())
def test_maximal_implies_independent(parts):
    n, edges, weights = parts
    g = build_graph(n, edges, weights)
    members = [i for i in range(n) if i % 2 == 0]
    if MisSolution.from_members(g, members).maximal:
        assert MisSolution.from_members(g, members).independent


def test_erdos_renyi_deterministic():
    g1 = erdos_renyi(12, 0.3, [5, 1])
    g2 = erdos_renyi(12, 0.3, [5, 1])
    assert np.array_equal(g1.indices, g2.indices)
    np.testing.assert_array_equal(g1.w, g2.w)
    assert np.all(g1.w >= 0.1) and np.all(g1.w <= 10.0)


def test_single_csr_store():
    g = erdos_renyi(30, 0.3, 4)
    adj = g.adjacency()
    assert g.indptr is adj.indptr and g.indices is adj.indices
    assert g.indices.dtype == np.int32 and g.indptr.dtype == np.int32
    for a in (g.indptr, g.indices, adj.data):
        assert not a.flags.writeable


def test_build_graph_copies_the_weights():
    w = np.array([1.0, 2.0, 3.0])
    g = build_graph(3, [(0, 1)], w)
    assert w.flags.writeable
    w[0] = 5.0
    np.testing.assert_array_equal(g.w, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(g.v, np.sqrt([1.0, 2.0, 3.0]))


def test_build_graph_transient_memory():
    # beside the edges and the graph: the 2k packed keys and their deduplicated copy
    n = 20_000
    rng = np.random.default_rng(7)
    edges = rng.integers(0, n, size=(5 * n, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    w = rng.uniform(0.1, 10.0, n)
    build_graph(2, [(0, 1)], [1.0, 1.0])  # imports scipy outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_graph(n, edges, w)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3 * edges.nbytes
