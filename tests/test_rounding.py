from __future__ import annotations

import itertools
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidecomp import rounding
from lidecomp.errors import InputError
from lidecomp.graphs import Graph, generate_circulant, generate_regular
from lidecomp.rounding import (
    BinaryEdgeLabels,
    FractionalEdgeWeights,
    _round_half_euler,
    balanced_round,
    round_half_edges,
    verify_rounding,
)


def ref_window_ok(g: Graph, z: list[Fraction], x: list[int]) -> bool:
    """Independent re-statement of the contract, used as the test oracle."""
    for v in range(g.n):
        zs = sum(z[i] for i in range(g.m) if v in g.edges[i])
        xs = sum(x[i] for i in range(g.m) if v in g.edges[i])
        if not (zs - 1 < xs <= zs + 1):
            return False
    return True


def brute_force_feasible(g: Graph, z: list[Fraction]) -> list[tuple[int, ...]]:
    return [
        labels
        for labels in itertools.product((0, 1), repeat=g.m)
        if ref_window_ok(g, z, list(labels))
    ]


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# Two triangles joined by a path.
DUMBBELL = Graph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)])

# Four components: the path 0-1-16-17, a star with centre 2 and leaves 3-5,
# the triangle 6-7-8 with tail 8-9, and triangles 10-11-12 and 13-14-15
# joined by the edge 12-13. The path holds the lowest and the highest
# vertices, so once its end at 0 has settled, the search moves on to the
# other components and comes back to the path last.
DISJOINT = Graph(18, [
    (0, 1), (1, 16), (16, 17),
    (2, 3), (2, 4), (2, 5),
    (6, 7), (6, 8), (7, 8), (8, 9),
    (10, 11), (10, 12), (11, 12), (12, 13), (13, 14), (13, 15), (14, 15),
])


def components(g: Graph) -> list[list[int]]:
    """Edge indices of each connected component with an edge."""
    label = list(range(g.n))

    def find(v: int) -> int:
        while label[v] != v:
            v = label[v]
        return v

    for u, v in g.edges:
        label[find(u)] = find(v)
    parts: dict[int, list[int]] = {}
    for i, (u, _) in enumerate(g.edges):
        parts.setdefault(find(u), []).append(i)
    return list(parts.values())


def test_k3_half_brute_force_oracle() -> None:
    # Enumerating all 8 labelings of K3 with z = 1/2: one vertex is always
    # left on sum 0 by a single edge, so the feasible set is the three
    # two-edge labelings plus the full labeling.
    g = complete_graph(3)
    z = [Fraction(1, 2)] * 3
    feasible = brute_force_feasible(g, z)
    assert len(feasible) == 4
    assert all(sum(lab) in (2, 3) for lab in feasible)
    assert (1, 0, 1) in feasible

    w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
    for labels in itertools.product((0, 1), repeat=3):
        got = verify_rounding(w, BinaryEdgeLabels(g, labels)).passed
        assert got == (labels in feasible)
    out = balanced_round(w)
    assert out.values in feasible


def test_zero_and_one_weights_are_fixed_points() -> None:
    g = generate_circulant(6, [1, 2])
    zeros = balanced_round(FractionalEdgeWeights.constant(g, 0))
    assert set(zeros.values) == {0}
    ones = balanced_round(FractionalEdgeWeights.constant(g, 1))
    assert set(ones.values) == {1}
    assert verify_rounding(FractionalEdgeWeights.constant(g, 1), ones).passed


def test_c4_half_sums() -> None:
    g = generate_circulant(4, [1])
    w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
    out = balanced_round(w)
    sums = out.vertex_sums()
    assert all(s in (1, 2) for s in sums)
    assert verify_rounding(w, out).passed


def test_verify_rejects_all_zero_on_k3_half() -> None:
    g = complete_graph(3)
    w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
    report = verify_rounding(w, BinaryEdgeLabels(g, (0, 0, 0)))
    assert not report.passed
    assert report.violations == (0, 1, 2)


def test_verify_rejects_mismatched_hosts() -> None:
    g1 = complete_graph(3)
    g2 = complete_graph(4)
    with pytest.raises(InputError):
        verify_rounding(
            FractionalEdgeWeights.constant(g1, 0),
            BinaryEdgeLabels(g2, (0,) * g2.m),
        )


def test_weight_validation() -> None:
    g = complete_graph(3)
    with pytest.raises(InputError):
        FractionalEdgeWeights.from_values(g, [2, 0, 0])
    with pytest.raises(InputError):
        FractionalEdgeWeights.from_values(g, [0, 0])
    with pytest.raises(InputError):
        BinaryEdgeLabels(g, (0, 1, 2))
    # The range check reads numerator and denominator; both closed bounds
    # and the signed zeros are inside, anything past either bound is not.
    inside = [0, 1, -0, -0.0, "-0", "0/5", Fraction(5, 5), 1.0, Fraction(-0, 3)]
    assert FractionalEdgeWeights.from_values(g, inside[:3]).values == (0, 1, 0)
    for value in inside:
        assert FractionalEdgeWeights.constant(g, value).values[0] in (0, 1)
    outside = [Fraction(65, 64), 1 + 2**-52, "1.0000000001", -1, Fraction(-1, 64), -2**-1074, "-1/3"]
    for value in outside:
        with pytest.raises(InputError, match=rf"^edge weight {re.escape(str(value))} outside \[0, 1\]$"):
            FractionalEdgeWeights.constant(g, value)


def test_half_specialization_even_degree_window() -> None:
    # At even-degree vertices, half weights force label sums into {m, m+1}.
    for seed in range(5):
        g = generate_regular(14, 4, seed=seed)
        w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
        out = balanced_round(w)
        assert verify_rounding(w, out).passed
        for v, s in enumerate(out.vertex_sums()):
            assert s in (2, 3)


def test_half_on_odd_degree_graphs() -> None:
    for seed in range(5):
        g = generate_regular(12, 5, seed=seed)
        w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
        out = balanced_round(w)
        assert verify_rounding(w, out).passed
        assert all(s in (2, 3) for s in out.vertex_sums())


def test_determinism_and_seed_independence() -> None:
    g = generate_regular(20, 5, seed=3)
    rng = np.random.default_rng(0)
    z = [Fraction(x) for x in rng.random(g.m)]
    w = FractionalEdgeWeights.from_values(g, z)
    a = balanced_round(w)
    b = balanced_round(w)
    assert a == b


def test_odd_cycle_general_weights() -> None:
    # Pure odd cycles are the shape with no sum-preserving move at all.
    for n in (3, 5, 7, 9):
        g = generate_circulant(n, [1])
        for scale in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 10)):
            w = FractionalEdgeWeights.constant(g, scale)
            out = balanced_round(w)
            assert verify_rounding(w, out).passed


def test_dumbbell_two_odd_cycles() -> None:
    # Two triangles joined by a path: the even-closed-walk case.
    g = DUMBBELL
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = [Fraction(x) for x in rng.random(g.m)]
        w = FractionalEdgeWeights.from_values(g, z)
        out = balanced_round(w)
        assert verify_rounding(w, out).passed


def test_search_root_moves_between_components(monkeypatch) -> None:
    # The path's middle edge has the least room, so the first shift settles
    # it; the piece at 0 settles next. The search then falls back to the
    # lowest fractional vertex, which lies in another component, and the
    # piece 16-17 settles last, after every other component.
    order: list[int] = []
    assign = rounding._State.assign

    def record(state, edge: int, val: int) -> None:
        order.append(edge)
        assign(state, edge, val)

    monkeypatch.setattr(rounding._State, "assign", record)
    path = {(0, 1): Fraction(1, 4), (1, 16): Fraction(1, 8), (16, 17): Fraction(1, 4)}
    w = FractionalEdgeWeights.from_values(DISJOINT, [path.get(e, Fraction(3, 8)) for e in DISJOINT.edges])
    out = balanced_round(w)
    assert verify_rounding(w, out).passed
    first, middle, last = (DISJOINT.edge_id(u, v) for u, v in path)
    assert order[:2] == [middle, first] and order[-1] == last
    assert sorted(order) == list(range(DISJOINT.m))


def test_odd_cycle_with_tail() -> None:
    # Triangle with a pendant path; exercises the tail finisher.
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    rng = np.random.default_rng(11)
    for _ in range(40):
        z = [Fraction(x) for x in rng.random(g.m)]
        w = FractionalEdgeWeights.from_values(g, z)
        out = balanced_round(w)
        assert verify_rounding(w, out).passed
        assert ref_window_ok(g, list(w.values), list(out.values))


def test_small_exhaustive_agreement_with_oracle() -> None:
    # On every tiny graph/weight pattern, the rounder must pick SOME member
    # of the brute-force feasible set (which the contract guarantees nonempty).
    shapes = [
        complete_graph(3),
        complete_graph(4),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
        generate_circulant(5, [1]),
        DISJOINT,
    ]
    rng = np.random.default_rng(2)
    for g in shapes:
        for _ in range(8):
            z = [Fraction(int(rng.integers(0, 5)), 4) for _ in range(g.m)]
            w = FractionalEdgeWeights.from_values(g, z)
            out = balanced_round(w)
            # Every window sits inside one component, so the feasible set is
            # the product of the components' feasible sets.
            for part in components(g):
                host = Graph(g.n, [g.edges[i] for i in part])
                feasible = brute_force_feasible(host, [w.values[i] for i in part])
                assert feasible, "contract guarantees a feasible labeling exists"
                assert tuple(out.values[i] for i in part) in feasible


def test_fuzz_random_graphs_and_weights() -> None:
    rng = np.random.default_rng(99)
    for trial in range(120):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, min(n, 7)))
        if (n * d) % 2:
            d = max(1, d - 1)
        if (n * d) % 2:
            n += 1
        g = generate_regular(n, d, seed=trial)
        if trial % 3 == 0:
            w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
        else:
            w = FractionalEdgeWeights.from_values(g, [Fraction(x) for x in rng.random(g.m)])
        out = balanced_round(w)
        report = verify_rounding(w, out)
        assert report.passed, (trial, report.violations)
        assert ref_window_ok(g, list(w.values), list(out.values))


def test_fuzz_coarse_dyadic_weights_hit_boundaries() -> None:
    # Eighth-step weights make vertex sums land exactly on the strict left
    # boundary often; the exact arithmetic must keep every verdict stable.
    rng = np.random.default_rng(31)
    for trial in range(150):
        n = int(rng.integers(3, 20))
        d = int(rng.integers(2, min(n, 6)))
        if (n * d) % 2:
            n += 1
        g = generate_regular(n, d, seed=1000 + trial)
        z = [Fraction(int(rng.integers(0, 9)), 8) for _ in range(g.m)]
        w = FractionalEdgeWeights.from_values(g, z)
        out = balanced_round(w)
        assert verify_rounding(w, out).passed
        assert ref_window_ok(g, list(w.values), list(out.values))


def test_report_drifts_shape() -> None:
    g = complete_graph(3)
    w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
    out = balanced_round(w)
    report = verify_rounding(w, out)
    assert len(report.drifts) == g.n
    assert all(-1 < dr <= 1 for dr in report.drifts)
    data = report.to_json()
    assert set(data) == {"passed", "drifts", "violations"}


@pytest.mark.parametrize(
    "n, edges, z, expected",
    [
        # Triangle with a pendant edge of weight exactly 1/2: the tail
        # finisher's nearest-integer choice rounds the tie up.
        (4, [(0, 1), (0, 3), (1, 3), (2, 3)], ["1/2", "1/4", "1/4", "1/2"], (1, 0, 0, 1)),
        (
            6,
            [(0, 2), (0, 3), (0, 5), (1, 4), (1, 5), (2, 3),
             (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
            ["0", "1/4", "1", "1/2", "3/4", "0", "1", "3/4", "1/4", "0", "1/2"],
            (0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1),
        ),
        (
            6,
            [(0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
             (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
            ["1/2", "1", "3/4", "1", "0", "0", "1/4", "3/4", "1/4", "1/2", "1/4"],
            (1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1),
        ),
    ],
)
def test_general_engine_labels_pinned(n, edges, z, expected) -> None:
    # Labels recorded on the Fraction-based engine; any change here is a
    # change of behaviour even when the new labels are also feasible.
    g = Graph(n, edges)
    w = FractionalEdgeWeights.from_values(g, [Fraction(v) for v in z])
    assert balanced_round(w).values == expected

# Weight families: dyadic steps (k/8, k/64), non-dyadic thirds and sevenths,
# exact 0/1/half mixes (the Euler path), and halves beside thirds (the general
# engine on half values).
WEIGHT_FAMILIES = (
    [Fraction(k, 8) for k in range(9)],
    [Fraction(k, 64) for k in range(65)],
    [Fraction(k, 3) for k in range(4)] + [Fraction(k, 7) for k in range(1, 7)],
    [Fraction(0), Fraction(1), Fraction(1, 2)],
    [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)],
)


@st.composite
def weighted_graphs(draw) -> FractionalEdgeWeights:
    pick = draw(st.integers(0, 9))
    if pick < 2:
        g = (DUMBBELL, DISJOINT)[pick]
    else:
        n = draw(st.integers(2, 8))
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [p for p, k in zip(pairs, keep) if k])
    family = draw(st.sampled_from(WEIGHT_FAMILIES))
    z = draw(st.lists(st.sampled_from(family), min_size=g.m, max_size=g.m))
    return FractionalEdgeWeights.from_values(g, z)


@settings(max_examples=300, deadline=None)
@given(weighted_graphs())
def test_property_general_engine_meets_window(w: FractionalEdgeWeights) -> None:
    out = balanced_round(w)
    assert verify_rounding(w, out).passed
    if w.graph.m <= 10:
        assert out.values in brute_force_feasible(w.graph, list(w.values))


def test_general_engine_scale_m4000() -> None:
    # The engine once walked the whole fractional component twice for every
    # settled edge (about 190 s here, about 0.5 s now); the limit catches a
    # return of that per-step full-component work.
    g = generate_regular(800, 10, seed=1)
    numerators = np.random.default_rng(0).integers(1, 64, size=g.m)
    w = FractionalEdgeWeights.from_values(g, [Fraction(int(k), 64) for k in numerators])
    assert g.m == 4000
    start = time.perf_counter()
    out = balanced_round(w)
    elapsed = time.perf_counter() - start
    assert verify_rounding(w, out).passed
    assert elapsed < 30, f"m = 4000 general rounding took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# The all-1/2 Euler walk against its former dict-and-set implementation
# ---------------------------------------------------------------------------


def ref_round_half_euler(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """The walk as it was written over dicts and sets, kept as the reference.

    ``edges`` are canonical pairs in canonical order; edge j carries key j and
    the j-th odd vertex's auxiliary edge key ``len(edges) + j``.
    """
    m = len(edges)
    x = [None] * m
    aux = n
    adj: dict[int, list[tuple[int, int]]] = {}
    deg: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    odd = sorted(v for v, dv in deg.items() if dv % 2)
    for j, v in enumerate(odd):
        key = m + j
        adj.setdefault(aux, []).append((v, key))
        adj[v].append((aux, key))
    for lst in adj.values():
        lst.sort()

    seen: set[int] = set()
    for start in ([aux] if aux in adj else []) + sorted(v for v in adj if v != aux):
        if start in seen or not adj[start]:
            continue
        circuit = ref_euler_circuit(adj, start, seen)
        bit = 1
        for key in circuit:
            if key < m:
                x[key] = bit
            bit = 1 - bit
    return x


def ref_euler_circuit(
    adj: dict[int, list[tuple[int, int]]], start: int, seen: set[int]
) -> list[int]:
    ptr: dict[int, int] = {}
    used: set[int] = set()
    stack: list[tuple[int, int | None]] = [(start, None)]
    out: list[int] = []
    while stack:
        v, incoming = stack[-1]
        seen.add(v)
        lst = adj.get(v, ())
        i = ptr.get(v, 0)
        advanced = False
        while i < len(lst):
            w, key = lst[i]
            i += 1
            if key not in used:
                used.add(key)
                ptr[v] = i
                stack.append((w, key))
                advanced = True
                break
        if not advanced:
            ptr[v] = i
            stack.pop()
            if incoming is not None:
                out.append(incoming)
    out.reverse()
    return out


@st.composite
def half_graphs(draw) -> Graph:
    """Several components, odd degrees and isolated vertices; n = 0 included."""
    n = draw(st.integers(0, 16))
    if n < 2:
        return Graph(n, [])
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    return Graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})


@settings(max_examples=400, deadline=None)
@given(half_graphs())
def test_csr_euler_walk_matches_reference(g: Graph) -> None:
    expected = ref_round_half_euler(g.n, list(g.edges))
    eu, ev = g.endpoint_arrays()
    assert list(_round_half_euler(g.n, eu, ev)) == expected
    assert list(round_half_edges(g.n, eu, ev)) == expected
    w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
    assert list(balanced_round(w).values) == expected


@settings(max_examples=100, deadline=None)
@given(half_graphs(), st.data())
def test_csr_euler_walk_on_edge_subsets_matches_reference(g: Graph, data) -> None:
    # As in the pipeline's rule groups: a subset of a host's edges, in canonical order.
    keep = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    members = np.flatnonzero(np.asarray(keep, dtype=bool))
    eu, ev = g.endpoint_arrays()
    expected = ref_round_half_euler(g.n, [g.edges[i] for i in members])
    assert list(round_half_edges(g.n, eu[members], ev[members])) == expected


def test_csr_euler_walk_matches_reference_on_odd_regular_graph() -> None:
    g = generate_regular(300, 9, seed=4)
    eu, ev = g.endpoint_arrays()
    assert list(_round_half_euler(g.n, eu, ev)) == ref_round_half_euler(g.n, list(g.edges))


def test_all_half_labels_are_plain_ints() -> None:
    # The walk returns a uint8 array; no numpy scalar may reach the labels or the JSON.
    g = generate_regular(30, 5, seed=2)
    values = balanced_round(FractionalEdgeWeights.constant(g, Fraction(1, 2))).values
    assert len(values) == g.m and {type(v) for v in values} == {int}
    eu, ev = g.endpoint_arrays()
    bits = _round_half_euler(g.n, eu, ev)
    assert bits.dtype == np.uint8 and bits.tolist() == list(values)


def test_euler_walk_rejects_edges_out_of_canonical_order() -> None:
    # The stable sort on sources lays out the rows only for canonical input.
    g = generate_regular(12, 3, seed=1)
    eu, ev = g.endpoint_arrays()
    for bad_u, bad_v in ((ev, eu), (eu[::-1], ev[::-1]), (np.r_[eu, eu[:1]], np.r_[ev, ev[:1]])):
        with pytest.raises(ValueError, match="canonical order"):
            _round_half_euler(g.n, bad_u, bad_v)
    assert len(_round_half_euler(g.n, eu[:0], ev[:0])) == 0


def test_exact_weights_pass_through_unchanged() -> None:
    g = generate_circulant(6, [1])
    values = [Fraction(k, 7) for k in range(6)]
    weights = FractionalEdgeWeights.from_values(g, values)
    assert all(a is b for a, b in zip(weights.values, values))
    assert FractionalEdgeWeights.from_values(g, ["1/2", 0, 1, 0.25, "3/8", 1]).values == (
        Fraction(1, 2), 0, 1, Fraction(1, 4), Fraction(3, 8), 1
    )
    with pytest.raises(InputError, match="outside"):
        FractionalEdgeWeights.from_values(g, values[:5] + [Fraction(8, 7)])
