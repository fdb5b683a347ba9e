from unittest import mock

import numpy as np
import pytest

from graphnorm.enumeration import (
    DOMINATION_BLOCK,
    CensusRow,
    _connected_codes,
    atom_spectrum,
    census,
    census_from_stream,
    connected_graphs_upto,
    format_census_table,
)
from reference import canonical_code, write_graph6

# published counts of connected graphs per order
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n,count", list(CONNECTED_COUNTS.items()))
def test_connected_counts_small(n, count):
    assert sum(1 for _ in connected_graphs_upto(n)) == count


def test_out_of_range():
    with pytest.raises(ValueError):
        list(connected_graphs_upto(0))
    with pytest.raises(ValueError):
        list(connected_graphs_upto(8))


def test_connected_codes_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {n: set() for n in range(1, 8)}
    for graph in nx.graph_atlas_g():
        n = graph.number_of_nodes()
        if n >= 1 and nx.is_connected(graph):
            adj = nx.to_numpy_array(graph, nodelist=range(n), dtype=np.int8)
            atlas[n].add(canonical_code(adj))
    for n, codes in atlas.items():
        assert codes == set(_connected_codes(n))


def test_no_two_emitted_graphs_isomorphic():
    for n in range(1, 6):
        codes = [canonical_code(a) for a in connected_graphs_upto(n)]
        assert len(codes) == len(set(codes))


def test_canonical_form_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        adj = np.zeros((n, n), dtype=np.int8)
        iu, ju = np.triu_indices(n, k=1)
        bits = rng.integers(0, 2, len(iu))
        adj[iu, ju] = adj[ju, iu] = bits
        perm = rng.permutation(n)
        shuffled = adj[np.ix_(perm, perm)]
        assert canonical_code(adj) == canonical_code(shuffled)


def test_census_row_arithmetic():
    row = CensusRow(5, 21, 1, 1, 1, 1)
    assert row.atomic_total == 4
    assert row.atomic_total <= row.connected_total


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, (1, 0, 0, 1, 0)),
        (2, (1, 0, 0, 0, 1)),
        (3, (2, 0, 0, 0, 1)),
        (4, (6, 0, 0, 1, 1)),
        (5, (21, 1, 1, 1, 1)),
    ],
)
def test_census_small_rows(n, expected):
    row = census(n)
    got = (
        row.connected_total,
        row.irregular_discrete,
        row.irregular_continuous,
        row.regular_discrete,
        row.regular_continuous,
    )
    assert got == expected


def test_census_stream_equals_builtin():
    for n in (3, 4, 5, 6, 7):
        lines = [write_graph6(a) for a in connected_graphs_upto(n)]
        row, skipped = census_from_stream(lines)
        assert skipped == 0
        assert row == census(n)


def test_census_solves_only_undominated_graphs():
    # 895 of the 996 connected graphs on n <= 7 are EMPTY by domination
    with mock.patch("graphnorm.enumeration.atom_spectrum", wraps=atom_spectrum) as spectrum:
        rows = [census(k) for k in range(1, 8)]
    assert spectrum.call_count == 101
    assert [row.connected_total for row in rows] == list(CONNECTED_COUNTS.values())


def test_census_stream_mixes_dominated_undominated_and_disconnected():
    # every connected 7-vertex graph, plus disconnected ones (a 6-vertex graph
    # beside an isolated vertex, a 4-vertex graph beside a triangle), shuffled
    # over several DOMINATION_BLOCK stacks
    triangle = np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8)
    disconnected = [np.pad(a, (0, 1)) for a in connected_graphs_upto(6)]
    for a in connected_graphs_upto(4):
        pair = np.zeros((7, 7), dtype=np.int8)
        pair[:4, :4], pair[4:, 4:] = a, triangle
        disconnected.append(pair)
    graphs = list(connected_graphs_upto(7)) + disconnected
    order = np.random.default_rng(18).permutation(len(graphs))
    lines = [write_graph6(graphs[i]) for i in order]
    assert len(lines) > 3 * DOMINATION_BLOCK
    with mock.patch("graphnorm.enumeration.atom_spectrum", wraps=atom_spectrum) as spectrum:
        row, skipped = census_from_stream(lines)
    assert skipped == len(disconnected)
    assert row == census(7)
    assert spectrum.call_count == 76


def test_census_stream_is_tallied_one_block_at_a_time():
    # every record was decoded and kept before the first stack was screened
    graphs = list(connected_graphs_upto(7))
    assert len(graphs) > 3 * DOMINATION_BLOCK
    pulled_before_first_solve = 0

    def lines():
        nonlocal pulled_before_first_solve
        for adj in graphs:
            pulled_before_first_solve += spectrum.call_count == 0
            yield write_graph6(adj)

    with mock.patch("graphnorm.enumeration.atom_spectrum", wraps=atom_spectrum) as spectrum:
        row, skipped = census_from_stream(lines())
    assert pulled_before_first_solve <= DOMINATION_BLOCK + 1
    assert (row, skipped) == (census(7), 0)


def test_census_stream_n3_total():
    lines = [write_graph6(a) for a in connected_graphs_upto(3)]
    row, _ = census_from_stream(lines)
    assert row.connected_total == 2 and row.atomic_total == 1


def test_census_stream_empty():
    row, skipped = census_from_stream([])
    assert row.atomic_total == 0 and row.connected_total == 0 and skipped == 0


def test_census_stream_skips_disconnected():
    disconnected = np.zeros((3, 3), dtype=np.int8)  # no edges, 3 vertices
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
    row, skipped = census_from_stream([write_graph6(disconnected), write_graph6(path)])
    assert skipped == 1
    assert row.connected_total == 1


def test_census_stream_rejects_mixed_orders():
    a2 = np.array([[0, 1], [1, 0]], dtype=np.int8)
    a3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
    with pytest.raises(ValueError):
        census_from_stream([write_graph6(a2), write_graph6(a3)])


def test_format_table_contains_counts():
    text = format_census_table([census(4)])
    assert "6" in text and "2" in text


def test_graph6_roundtrip_all_connected_up_to_7():
    from graphnorm.io import parse_graph6

    for n in range(1, 8):
        for adj in connected_graphs_upto(n):
            recovered = parse_graph6(write_graph6(adj))
            assert np.array_equal(recovered, adj)
