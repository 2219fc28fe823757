from __future__ import annotations

import numpy as np
import pytest

from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import (
    Graph,
    generate_circulant,
    generate_regular,
    is_locally_irregular,
    is_subgraph_locally_irregular,
    read_graph,
    subgraph_conflicts,
    subgraph_degrees,
    validate_edge_subset,
    write_graph,
)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_canonical_edge_order() -> None:
    g = Graph(4, [(3, 1), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.edge_id(3, 1) == 2
    assert g.adjacency[1] == (0, 3)
    assert g.degrees == (2, 2, 1, 1)


def test_construction_rejects_bad_edges() -> None:
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def test_locally_irregular_basics() -> None:
    assert is_locally_irregular(path_graph(3))  # degrees 1,2,1
    assert not is_locally_irregular(complete_graph(2))  # single edge
    assert not is_locally_irregular(generate_circulant(4, [1]))  # 4-cycle
    assert is_locally_irregular(Graph(5, []))  # no edges


def test_subgraph_degrees_examples() -> None:
    c4 = generate_circulant(4, [1])
    assert subgraph_degrees(c4, frozenset(range(c4.m))) == [2, 2, 2, 2]
    assert subgraph_degrees(c4, frozenset()) == [0, 0, 0, 0]
    k3 = complete_graph(3)
    assert subgraph_degrees(k3, frozenset({k3.edge_id(0, 1)})) == [1, 1, 0]


def test_endpoint_arrays_cached_and_read_only() -> None:
    g = Graph(4, [(3, 1), (0, 2), (1, 0)])
    eu, ev = g.endpoint_arrays()
    assert eu.tolist() == [0, 0, 1] and ev.tolist() == [1, 2, 3]
    assert eu.dtype == ev.dtype == np.int64
    assert g.endpoint_arrays()[0] is eu
    with pytest.raises(ValueError):
        eu[0] = 2
    assert g == Graph(4, g.edges)  # the cache takes no part in equality
    empty_u, empty_v = Graph(3, []).endpoint_arrays()
    assert empty_u.shape == empty_v.shape == (0,)
    assert subgraph_degrees(Graph(0, []), frozenset()) == []


def test_subgraph_degree_sum_matches_edge_count() -> None:
    rng = np.random.default_rng(7)
    g = generate_regular(20, 5, seed=3)
    for _ in range(25):
        size = int(rng.integers(0, g.m + 1))
        es = frozenset(rng.choice(g.m, size=size, replace=False).tolist())
        validate_edge_subset(g, es)
        assert sum(subgraph_degrees(g, es)) == 2 * len(es)


def test_subgraph_local_irregularity_and_conflicts() -> None:
    g = path_graph(4)
    full = frozenset(range(g.m))
    # degrees 1,2,2,1: the middle edge joins two degree-2 vertices
    assert not is_subgraph_locally_irregular(g, full)
    assert subgraph_conflicts(g, full) == [g.edge_id(1, 2)]
    assert is_subgraph_locally_irregular(g, frozenset({0, 1}))


def test_generate_regular_k4() -> None:
    g = generate_regular(4, 3, seed=0)
    assert g.edges == complete_graph(4).edges


def test_generate_regular_rejects_bad_inputs() -> None:
    with pytest.raises(InputError):
        generate_regular(5, 3, seed=0)  # parity
    with pytest.raises(InputError):
        generate_regular(3, 3, seed=0)  # n <= d
    with pytest.raises(InputError):
        generate_regular(4, 0, seed=0)


def test_generate_regular_properties_and_determinism() -> None:
    g1 = generate_regular(50, 6, seed=1)
    g2 = generate_regular(50, 6, seed=1)
    assert g1.edges == g2.edges
    assert subgraph_degrees(g1, frozenset(range(g1.m))) == [6] * 50
    g3 = generate_regular(50, 6, seed=2)
    assert g3.edges != g1.edges


def test_generate_regular_dense_degrees() -> None:
    # Dense instances defeat plain rejection sampling; re-pairing must cope.
    g = generate_regular(50, 24, seed=11)
    assert set(g.degrees) == {24}


def test_generate_circulant() -> None:
    assert generate_circulant(4, [1]).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert generate_circulant(5, [1, 2]).edges == complete_graph(5).edges
    g = generate_circulant(8, [1, 4])
    assert set(g.degrees) == {3}
    with pytest.raises(InputError):
        generate_circulant(8, [5])
    with pytest.raises(InputError):
        generate_circulant(8, [2, 2])


def test_file_round_trip(tmp_path) -> None:
    g = generate_regular(12, 3, seed=5)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_graph(g, p1)
    h = read_graph(p1)
    assert h == g
    write_graph(h, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_accepts_comments_and_any_order(tmp_path) -> None:
    p = tmp_path / "g.txt"
    p.write_text("# header comment\n3 2\n1 2\n# middle\n0 1\n")
    g = read_graph(p)
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("3 1\n3 3\n", "self-loop"),
        ("3 2\n0 1\n", "declares m=2"),
        ("3 1\n0 1\n1 0\n", "declares m=1"),
        ("3 2\n0 1\n0 1\n", "duplicate"),
        ("3 1\n0 5\n", "out of range"),
        ("3 1\na b\n", "non-integer"),
        ("", "missing"),
        ("3 1\n0 1 2\n", "two integers"),
    ],
)
def test_read_rejects_malformed(tmp_path, content, fragment) -> None:
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(InputError, match=fragment):
        read_graph(p)


def test_generation_budget_error() -> None:
    with pytest.raises(BudgetError):
        # Forcing zero restarts exhausts the budget immediately.
        generate_regular(10, 3, seed=0, max_restarts=0)
