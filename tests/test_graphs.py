from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidecomp.coloring import VertexColoring
from lidecomp.constants import REFERENCE_PROFILE, ConstantProfile
from lidecomp.dcs import DcsInstance
from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import (
    Graph,
    _decimal_rows,
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
from oracles import edge_index, edge_list, neighbors


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_canonical_edge_order() -> None:
    g = Graph(4, [(3, 1), (0, 2), (1, 0)])
    assert edge_list(g) == ((0, 1), (0, 2), (1, 3))
    assert neighbors(g, 1) == (0, 3)
    assert g.slot_edges.tolist() == [0, 1, 0, 2, 1, 2]
    assert g.degrees.tolist() == [2, 2, 1, 1]


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


_PROFILE = REFERENCE_PROFILE.to_json()
_PATH3 = Graph(3, [(0, 1), (1, 2)])


def _dcs(moduli, targets) -> dict:
    return dict(graph=_PATH3, moduli=moduli, targets=targets)


def _colouring(palette, first, second) -> dict:
    return dict(palette=palette, first=first, second=second)


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        *(
            (ConstantProfile, {**_PROFILE, name: bad}, f"profile field {name}={bad} outside (0, 1)")
            for name in ("k", "s", "r", "u")
            for bad in (0.0, 1.0)
        ),
        (ConstantProfile, {**_PROFILE, "s1": 0.0}, "profile split s1=0.0 must be positive"),
        (ConstantProfile, {**_PROFILE, "s1": 0.0031}, "profile split s2=0.0 must be positive"),
        (ConstantProfile, {**_PROFILE, "r1": -0.1}, "profile split r1=-0.1 must be positive"),
        (ConstantProfile, {**_PROFILE, "r1": 0.26}, "profile split r2=0.0 must be positive"),
        (ConstantProfile, {**_PROFILE, "u1": 0.0}, "profile split u1=0.0 must be positive"),
        (ConstantProfile, {**_PROFILE, "u1": 0.131}, "profile split u2=0.0 must be positive"),
        # u2^2 underflows to 0, so the uncoloured tail base exp(-u2^2/8) is 1.
        (
            ConstantProfile,
            {**_PROFILE, "u": 1e-200, "u1": 5e-201},
            "tail base u3 not in (0, 1): exp(-0.0)",
        ),
        (DcsInstance, _dcs((2, 2), (0, 0, 0)), "moduli/targets must cover every vertex"),
        (DcsInstance, _dcs((2, 2, 2), (0,) * 4), "moduli/targets must cover every vertex"),
        (DcsInstance, _dcs((2, 2, 1), (0, 0, 0)), "modulus at vertex 2 must be >= 2, got 1"),
        (DcsInstance, _dcs((0, 2, 1), (0, 0, 0)), "modulus at vertex 0 must be >= 2, got 0"),
        (VertexColoring, _colouring(0, [1], [1]), "palette must be in 1..2**63 - 1, got 0"),
        (
            VertexColoring,
            _colouring(2**63, [1], [1]),
            f"palette must be in 1..2**63 - 1, got {2**63}",
        ),
        (VertexColoring, _colouring(3, [1, 0], [1, 1]), "colour value outside 1..palette"),
        (VertexColoring, _colouring(3, [1, 1], [4, 1]), "colour value outside 1..palette"),
        (VertexColoring, _colouring(3, [2**64], [1]), "colour value outside int64"),
    ],
)
def test_input_types_reject_invalid_values_when_built(cls, fields, message) -> None:
    # Every input type checks itself once, in its constructor, with the
    # message a stage would otherwise have raised.
    with pytest.raises(InputError) as info:
        cls(**fields)
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
    assert edge_list(g) == ref["edges"]
    assert g.m == len(ref["edges"])
    assert tuple(g.degrees.tolist()) == ref["degrees"]
    assert all(neighbors(g, v) == ref["adjacency"][v] for v in range(n))
    # Slot j of v's CSR row holds the edge joining v to its j-th neighbour.
    for v in range(n):
        for j in range(g.indptr[v], g.indptr[v + 1]):
            w = int(g.indices[j])
            assert g.slot_edges[j] == ref["index"][(min(v, w), max(v, w))]
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
    assert degree_vector(k3, np.arange(k3.m) == edge_index(k3)[0, 1]).tolist() == [1, 1, 0]


def test_endpoint_arrays_cached_and_read_only() -> None:
    g = Graph(4, [(3, 1), (0, 2), (1, 0)])
    eu, ev = g.endpoint_arrays()
    assert eu.tolist() == [0, 0, 1] and ev.tolist() == [1, 2, 3]
    assert eu.dtype == ev.dtype == np.int64
    assert g.endpoint_arrays()[0] is eu
    with pytest.raises(ValueError):
        eu[0] = 2
    assert g == Graph(4, edge_list(g))
    empty_u, empty_v = Graph(3, []).endpoint_arrays()
    assert empty_u.shape == empty_v.shape == (0,)
    assert degree_vector(Graph(0, []), np.zeros(0, dtype=bool)).tolist() == []


def test_subgraph_degree_sum_matches_edge_count() -> None:
    rng = np.random.default_rng(7)
    g = generate_regular(20, 5, seed=3)
    for _ in range(25):
        size = int(rng.integers(0, g.m + 1))
        es = frozenset(rng.choice(g.m, size=size, replace=False).tolist())
        mask = validate_edge_subset(g, es)
        assert np.flatnonzero(mask).tolist() == sorted(es)
        assert degree_vector(g, mask).sum() == 2 * len(es)


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


def test_degree_vector_rejects_wrong_mask_length_and_index_arrays() -> None:
    g = generate_circulant(5, [1])
    for size in (g.m - 1, g.m + 1, 0):
        with pytest.raises(IndexError):
            degree_vector(g, np.ones(size, dtype=bool))
    with pytest.raises(IndexError, match=r"expected a boolean mask of length 5, got int64 \(5,\)"):
        degree_vector(g, np.arange(g.m))


def test_validate_edge_subset_masks_distinct_edges_and_names_the_first_bad_index() -> None:
    g = generate_circulant(5, [1])
    ids = edge_index(g)
    repeated = [ids[0, 1], ids[0, 1], ids[2, 3]]
    for form in (repeated, tuple(repeated), frozenset(repeated), np.array(repeated)):
        mask = validate_edge_subset(g, form)
        assert mask.dtype == bool and np.flatnonzero(mask).tolist() == sorted(set(repeated))
        assert degree_vector(g, mask).tolist() == [1, 1, 1, 1, 0]
    assert not validate_edge_subset(g, []).any()
    assert validate_edge_subset(Graph(3, []), np.zeros(0, dtype=np.int64)).shape == (0,)
    # The first bad member in iteration order, exact past int64; arrays are
    # checked without a Python loop.
    cases = [
        ([0, 5, -1], 5),
        (np.array([0, 5, -1]), 5),
        (np.array([-1, 5]), -1),
        ([0, 2**70, -1], 2**70),
        ((-(2**70), 9), -(2**70)),
        ([2, -1, 2**64], -1),
    ]
    for es, bad in cases:
        with pytest.raises(InputError) as info:
            validate_edge_subset(g, es)
        assert str(info.value) == f"edge index {bad} out of range for m=5"


def test_subgraph_local_irregularity_and_conflicts() -> None:
    g = path_graph(4)
    full = frozenset(range(g.m))
    # degrees 1,2,2,1: the middle edge joins two degree-2 vertices
    assert not is_subgraph_locally_irregular(g, full)
    assert subgraph_conflicts(g, validate_edge_subset(g, full)).tolist() == [edge_index(g)[1, 2]]
    assert is_subgraph_locally_irregular(g, frozenset({0, 1}))


def test_generate_regular_k4() -> None:
    g = generate_regular(4, 3, seed=0)
    assert g == complete_graph(4)


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
    assert g1 == g2
    assert degree_vector(g1, np.ones(g1.m, dtype=bool)).tolist() == [6] * 50
    g3 = generate_regular(50, 6, seed=2)
    assert g3 != g1


def test_generate_regular_dense_degrees() -> None:
    # Dense instances defeat plain rejection sampling; re-pairing must cope.
    g = generate_regular(50, 24, seed=11)
    assert set(g.degrees) == {24}


def test_generate_circulant() -> None:
    assert edge_list(generate_circulant(4, [1])) == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert generate_circulant(5, [1, 2]) == complete_graph(5)
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
    assert edge_list(g) == ((0, 1), (1, 2))


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


def reference_generate_regular(n: int, d: int, seed: int, max_restarts: int = 200) -> Graph:
    """The former pair-by-pair generator, kept verbatim (but for its name) as the reference."""
    if d < 1:
        raise InputError(f"degree must be >= 1, got {d}")
    if n <= d:
        raise InputError(f"need n > d, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise InputError(f"n*d must be even, got n={n}, d={d}")
    if 2 * d > n - 1:
        # Dense side: pairing stalls, so sample the sparse complement instead.
        co = n - 1 - d
        if co == 0:
            return Graph(n, np.column_stack(np.triu_indices(n, 1)))
        sparse = reference_generate_regular(n, co, seed, max_restarts)
        eu, ev = sparse.endpoint_arrays()
        iu, iv = np.triu_indices(n, 1)
        keep = ~np.isin(iu * n + iv, eu * n + ev, assume_unique=True)
        return Graph(n, np.column_stack((iu[keep], iv[keep])))
    rng = np.random.default_rng(seed)

    def suitable(edges: set[tuple[int, int]], counts: dict[int, int]) -> bool:
        # Some pair of leftover stubs must still form a fresh simple edge.
        verts = sorted(counts)
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                if (a, b) not in edges:
                    return True
        return not verts

    for _ in range(max_restarts):
        edges: set[tuple[int, int]] = set()
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        failed = False
        while stubs.size:
            rng.shuffle(stubs)
            leftover: dict[int, int] = {}
            it = iter(stubs.tolist())
            for a, b in zip(it, it):
                if a > b:
                    a, b = b, a
                if a != b and (a, b) not in edges:
                    edges.add((a, b))
                else:
                    leftover[a] = leftover.get(a, 0) + 1
                    leftover[b] = leftover.get(b, 0) + 1
            if not suitable(edges, leftover):
                failed = True
                break
            stubs = np.asarray(
                [v for v, c in leftover.items() for _ in range(c)], dtype=np.int64
            )
        if failed:
            continue
        g = Graph(n, edges)
        if all(x == d for x in g.degrees):
            return g
    raise BudgetError(f"regular graph generation failed after {max_restarts} restarts")


def _outcome(fn, *args, **kwargs):
    try:
        g = fn(*args, **kwargs)
    except (InputError, BudgetError) as exc:
        return type(exc), str(exc)
    return g.n, edge_list(g)


def test_generate_regular_matches_pair_by_pair_reference() -> None:
    # Every (n, d) with n <= 40, invalid degrees included, at a drawn seed;
    # small n also at budgets of 0, 1 and 2 restarts.
    rng = np.random.default_rng(2024)
    for n in range(41):
        for d in range(-1, n + 1):
            seed = int(rng.integers(2**32))
            assert _outcome(generate_regular, n, d, seed) == _outcome(
                reference_generate_regular, n, d, seed
            ), (n, d, seed)
            if n <= 12:
                for budget in (0, 1, 2):
                    assert _outcome(generate_regular, n, d, seed, budget) == _outcome(
                        reference_generate_regular, n, d, seed, budget
                    ), (n, d, seed, budget)


@pytest.mark.parametrize(
    "n, d, seed, max_restarts",
    [
        (5, 2, 0, 1),  # the first attempts stall: BudgetError after one restart
        (5, 2, 0, 2),
        (5, 2, 0, 200),  # succeeds after several restarts
        (10, 3, 0, 0),  # no attempt at all
        (10, 3, 0, 1),
        (10, 3, 0, 200),
        (9, 6, 3, 200),  # dense side: the complement of a 2-regular graph
        (9, 6, 3, 0),  # the complement's budget error surfaces
        (12, 11, 5, 0),  # d = n - 1 is the complete graph, whatever the budget
        (50, 24, 11, 200),
    ],
)
def test_generate_regular_examples_match_reference(n, d, seed, max_restarts) -> None:
    got = _outcome(generate_regular, n, d, seed, max_restarts)
    assert got == _outcome(reference_generate_regular, n, d, seed, max_restarts)


def test_generate_regular_restart_examples() -> None:
    with pytest.raises(BudgetError, match="after 1 restarts"):
        generate_regular(5, 2, seed=0, max_restarts=1)
    assert generate_regular(5, 2, seed=0).degrees.tolist() == [2] * 5
    assert generate_regular(12, 11, seed=5, max_restarts=0).m == 66


# sha256 of write_graph's bytes, recorded on the pair-by-pair generator.
LARGE_GOLDENS = [
    (4000, 128, 1, "9f88c739b5da7d2d3cbef67f1a57584ddedface2eb7adbfcb2a5991b00f3ef57"),
    (1000, 64, 2, "51e9453eea35292d650358cdec2c394389a6a3866b61eb3e5a0917f94be755aa"),
    (300, 24, 3, "66a0e83c78894dcc911c33d808f85e463e1b154da8a0d85ec92cdb7e6d91c52c"),
    (100, 10, 4, "fade587f53a7323ae29c42b4dc71fc3b6ab4411c251362130c0c662d584f71cc"),
]


@pytest.mark.parametrize("n, d, seed, digest", LARGE_GOLDENS)
def test_generate_regular_large_goldens(tmp_path, n, d, seed, digest) -> None:
    p = tmp_path / "g.txt"
    write_graph(generate_regular(n, d, seed=seed), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


def reference_generate_circulant(n: int, offsets) -> Graph:
    """The former set-based circulant construction, kept as the reference."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    offs = list(offsets)
    if len(set(offs)) != len(offs):
        raise InputError(f"offsets must be distinct, got {offs}")
    edges = set()
    for o in offs:
        if not (1 <= o and 2 * o <= n):
            raise InputError(f"offset {o} out of range 1..n/2 for n={n}")
        for i in range(n):
            j = (i + o) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph(n, edges)


def test_generate_circulant_matches_set_reference() -> None:
    # Offsets drawn from -1..n/2+2, so duplicates and out-of-range values
    # (before, after and between valid ones) occur alongside valid subsets.
    rng = np.random.default_rng(7)
    for n in range(-1, 41):
        for _ in range(25):
            offs = rng.integers(-1, n // 2 + 3, size=int(rng.integers(0, 6))).tolist()
            if rng.random() < 0.5:
                offs = sorted(set(offs))
            assert _outcome(generate_circulant, n, offs) == _outcome(
                reference_generate_circulant, n, offs
            ), (n, offs)


def reference_write_graph(g: Graph, path) -> None:
    """The former f-string writer, kept as the reference."""
    eu, ev = g.endpoint_arrays()
    lines = "".join(f"{u} {v}\n" for u, v in zip(eu.tolist(), ev.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        fh.write(lines)


@st.composite
def writable_graphs(draw) -> Graph:
    """A small graph, possibly with isolated trailing vertices, its ids shifted.

    Shifts just below a power of ten put ids of two digit counts on one line,
    so a short ``u`` sits beside a wider ``v``.
    """
    core = draw(st.integers(0, 9))
    shift = draw(st.sampled_from([0, 5, 95, 995, 99_995, 10**6]))
    trail = draw(st.integers(0, 3))
    pairs = list(itertools.combinations(range(core), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = np.asarray([p for p, k in zip(pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
    return Graph(shift + core + trail, edges + shift)


@settings(max_examples=100, deadline=None)
@given(writable_graphs())
@example(Graph(0, []))
@example(Graph(4, []))
@example(Graph(10**6 + 3, [(10**6, 10**6 + 2)]))
def test_write_graph_matches_fstring_writer(tmp_path_factory, g) -> None:
    d = tmp_path_factory.mktemp("w")
    write_graph(g, d / "new.txt")
    reference_write_graph(g, d / "ref.txt")
    assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()
    assert read_graph(d / "new.txt") == g


def test_edge_lines_match_fstring_lines_past_int32() -> None:
    # Ids from 2**31 on take the int64 digit path; no Graph that large fits
    # in memory, so the layout is checked on endpoint arrays directly. One
    # column with the payload's multi-byte separator is the JSON list layout,
    # whose entries need not ascend.
    sep = ",\n    "
    for top in (2**31 - 1, 2**31, 10**18 - 1, 10**18):
        eu = np.array([0, 9, top - 10, top - 1], dtype=np.int64)
        ev = np.array([top, top - 1, top, top], dtype=np.int64)
        expected = "".join(f"{u} {v}\n" for u, v in zip(eu.tolist(), ev.tolist()))
        assert _decimal_rows((eu, ev), (b" ", b"\n")) == expected.encode()
        ids = np.concatenate((ev, eu))
        expected = "".join(f"{i}{sep}" for i in ids.tolist())
        assert _decimal_rows((ids,), (sep.encode(),)) == expected.encode()


def test_generation_budget_error() -> None:
    with pytest.raises(BudgetError):
        # Forcing zero restarts exhausts the budget immediately.
        generate_regular(10, 3, seed=0, max_restarts=0)
