from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import (
    Graph,
    degree_vector,
    generate_circulant,
    generate_regular,
    is_locally_irregular,
    is_subgraph_locally_irregular,
    read_graph,
    subgraph_conflicts,
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
    assert g.neighbors(1) == (0, 3)
    assert g.degrees == (2, 2, 1, 1)


def test_construction_rejects_bad_edges() -> None:
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


# Messages recorded on the tuple-and-dict constructor: a self-loop or
# out-of-range pair is the first offending pair in input order (self-loop
# checked first within a pair), a duplicate the lowest pair in canonical order.
@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(1, 1)], "self-loop at vertex 1"),
        (3, [(0, 1), (2, 2), (1, 1)], "self-loop at vertex 2"),
        (3, [(0, 3)], "edge (0,3) out of range for n=3"),
        (3, [(0, 1), (5, 1), (-1, 2)], "edge (5,1) out of range for n=3"),
        (3, [(-1, 2)], "edge (-1,2) out of range for n=3"),
        (3, [(0, 1), (0, 5), (1, 1)], "edge (0,5) out of range for n=3"),
        (3, [(1, 1), (0, 5)], "self-loop at vertex 1"),
        (4, [(0, 5), (2, 2)], "edge (0,5) out of range for n=4"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        (4, [(2, 3), (1, 0), (3, 2), (0, 1)], "duplicate edge (0, 1)"),
        (5, [(3, 4), (4, 3), (1, 2), (2, 1)], "duplicate edge (1, 2)"),
        (2, [(0, 1), (1, 0), (0, 7)], "edge (0,7) out of range for n=2"),
        (3, [(0, 2**70)], f"edge (0,{2**70}) out of range for n=3"),
        (-1, [], "vertex count must be nonnegative, got -1"),
    ],
)
def test_construction_error_messages_pinned(n, edges, message) -> None:
    with pytest.raises(InputError) as info:
        Graph(n, edges)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "content, message",
    [
        ("3 1\n3 3\n", "self-loop at vertex 3"),
        ("4 3\n0 1\n0 9\n2 2\n", "edge (0,9) out of range for n=4"),
        ("4 4\n2 3\n1 0\n3 2\n0 1\n", "duplicate edge (0, 1)"),
        ("3 1\n-1 2\n", "edge (-1,2) out of range for n=3"),
        ("3 1\n1_0 2\n", "edge (10,2) out of range for n=3"),
        ("3 1\n0 99999999999999999999\n", "edge (0,99999999999999999999) out of range for n=3"),
        ("-3 1\n", "line 1: invalid header '-3 1'"),
        ("3 1\na b\n", "line 2: non-integer token in 'a b'"),
        ("3 1\n1.0 2\n", "line 2: non-integer token in '1.0 2'"),
        ("# c\n\n3 1\n0 1 2\n", "line 4: expected two integers, got '0 1 2'"),
        ("3\n", "line 1: expected two integers, got '3'"),
        ("3 2\n0 1\n", "header declares m=2 but found 1 edge lines"),
        ("", "missing 'n m' header line"),
        ("# only a comment\n", "missing 'n m' header line"),
    ],
)
def test_read_error_messages_pinned(tmp_path, content, message) -> None:
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(InputError) as info:
        read_graph(p)
    assert str(info.value) == f"{p}: {message}"


@pytest.mark.parametrize(
    "content",
    ["3 2\n0 1\n1 2\n", "3 2\r\n1 0\r\n2 1\r\n", "3 2\r1 2\r0 1", "\t3 2\n\n+0 1\n# x\n 1  02 \n"],
)
def test_read_layouts_agree(tmp_path, content) -> None:
    p = tmp_path / "g.txt"
    p.write_text(content, newline="")
    assert read_graph(p) == Graph(3, [(0, 1), (1, 2)])


def ref_graph(n: int, edges: list[tuple[int, int]]) -> dict:
    """The former tuple-and-dict construction, kept as the reference."""
    canon = sorted((u, v) if u < v else (v, u) for u, v in edges)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    return {
        "edges": tuple(canon),
        "adjacency": tuple(tuple(sorted(a)) for a in adj),
        "degrees": tuple(len(a) for a in adj),
        "index": {e: i for i, e in enumerate(canon)},
    }


@st.composite
def shuffled_edge_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = [p for p, k in zip(pairs, keep) if k]
    chosen = draw(st.permutations(chosen))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]


@settings(max_examples=300, deadline=None)
@given(shuffled_edge_lists(), st.booleans())
def test_array_graph_matches_reference(case, as_array) -> None:
    n, edges = case
    ref = ref_graph(n, edges)
    g = Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges)
    assert g.edges == ref["edges"]
    assert g.m == len(ref["edges"])
    assert g.degrees == ref["degrees"]
    assert all(g.neighbors(v) == ref["adjacency"][v] for v in range(n))
    eu, ev = g.endpoint_arrays()
    assert eu.tolist() == [u for u, _ in ref["edges"]]
    assert ev.tolist() == [v for _, v in ref["edges"]]
    for u in range(n):
        for v in range(n):
            key = (u, v) if u < v else (v, u)
            assert g.has_edge(u, v) == (key in ref["index"])
            if key in ref["index"]:
                assert g.edge_id(u, v) == ref["index"][key]
            else:
                with pytest.raises(KeyError):
                    g.edge_id(u, v)
    same = Graph(n, ref["edges"])
    assert g == same and hash(g) == hash(same)
    if ref["edges"]:
        assert g != Graph(n, ref["edges"][1:])
    assert g != Graph(n + 1, ref["edges"])


def test_locally_irregular_basics() -> None:
    assert is_locally_irregular(path_graph(3))  # degrees 1,2,1
    assert not is_locally_irregular(complete_graph(2))  # single edge
    assert not is_locally_irregular(generate_circulant(4, [1]))  # 4-cycle
    assert is_locally_irregular(Graph(5, []))  # no edges


def test_subgraph_degrees_examples() -> None:
    c4 = generate_circulant(4, [1])
    assert degree_vector(c4, np.ones(c4.m, dtype=bool)).tolist() == [2, 2, 2, 2]
    assert degree_vector(c4, np.zeros(c4.m, dtype=bool)).tolist() == [0, 0, 0, 0]
    k3 = complete_graph(3)
    assert degree_vector(k3, np.arange(k3.m) == k3.edge_id(0, 1)).tolist() == [1, 1, 0]


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
    assert degree_vector(Graph(0, []), np.zeros(0, dtype=bool)).tolist() == []


def test_subgraph_degree_sum_matches_edge_count() -> None:
    rng = np.random.default_rng(7)
    g = generate_regular(20, 5, seed=3)
    for _ in range(25):
        size = int(rng.integers(0, g.m + 1))
        es = frozenset(rng.choice(g.m, size=size, replace=False).tolist())
        validate_edge_subset(g, es)
        assert degree_vector(g, np.isin(np.arange(g.m), list(es))).sum() == 2 * len(es)


@st.composite
def masked_graphs(draw) -> tuple[Graph, np.ndarray]:
    """A graph with isolated vertices before, inside and after its edges, and a mask."""
    core = draw(st.integers(0, 10))
    lead, mid, trail = (draw(st.integers(0, 3)) for _ in range(3))
    half = core // 2

    def place(v: int) -> int:
        return v + lead + (mid if v >= half else 0)

    pairs = list(itertools.combinations(range(core), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(place(u), place(v)) for (u, v), k in zip(pairs, keep) if k]
    g = Graph(core + lead + mid + trail, edges)
    kind = draw(st.sampled_from(["drawn", "all", "none"]))
    if kind == "drawn":
        mask = np.asarray(draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
    else:
        mask = np.full(g.m, kind == "all", dtype=bool)
    return g, mask


@settings(max_examples=400, deadline=None)
@given(masked_graphs())
@example((Graph(0, []), np.zeros(0, dtype=bool)))
@example((Graph(4, []), np.zeros(0, dtype=bool)))
@example((Graph(5, [(0, 1)]), np.ones(1, dtype=bool)))
@example((Graph(5, [(3, 4)]), np.ones(1, dtype=bool)))
@example((Graph(6, [(0, 5), (1, 2)]), np.array([True, False])))
def test_degree_vector_mask_matches_bincount_reference(case) -> None:
    g, mask = case
    eu, ev = g.endpoint_arrays()
    expected = np.bincount(eu[mask], minlength=g.n) + np.bincount(ev[mask], minlength=g.n)
    got = degree_vector(g, mask)
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
    # Slot j of row v holds the edge joining v to indices[j].
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    ends = np.sort(np.stack((rows, g.indices)), axis=0)
    assert ends[0].tolist() == eu[g.slot_edges].tolist()
    assert ends[1].tolist() == ev[g.slot_edges].tolist()


def test_degree_vector_rejects_wrong_mask_length_and_counts_repeated_indices() -> None:
    g = generate_circulant(5, [1])
    for size in (g.m - 1, g.m + 1, 0):
        with pytest.raises(IndexError):
            degree_vector(g, np.ones(size, dtype=bool))
    repeated = np.array([g.edge_id(0, 1), g.edge_id(0, 1), g.edge_id(2, 3)])
    assert degree_vector(g, repeated).tolist() == [2, 2, 1, 1, 0]


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
    assert degree_vector(g1, np.ones(g1.m, dtype=bool)).tolist() == [6] * 50
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
