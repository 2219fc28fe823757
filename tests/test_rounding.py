from __future__ import annotations

import functools
import hashlib
import itertools
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidecomp import pipeline, rounding
from lidecomp.constants import ConstantProfile
from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import Graph, generate_circulant, generate_regular
from lidecomp.rounding import (
    BinaryEdgeLabels,
    FractionalEdgeWeights,
    _round_half_euler,
    _segments,
    balanced_round,
    round_half_edges,
    verify_rounding,
)
from oracles import (
    edge_index,
    edge_list,
    ref_round_half_euler,
    vertex_sums,
    weight_fractions,
)


def ref_window_ok(g: Graph, z: list[Fraction], x: list[int]) -> bool:
    """Independent re-statement of the contract, used as the test oracle."""
    edges = edge_list(g)
    for v in range(g.n):
        zs = sum(z[i] for i in range(g.m) if v in edges[i])
        xs = sum(x[i] for i in range(g.m) if v in edges[i])
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

    for u, v in edge_list(g):
        label[find(u)] = find(v)
    parts: dict[int, list[int]] = {}
    for i, (u, _) in enumerate(edge_list(g)):
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
    assert tuple(out.values.tolist()) in feasible


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
    sums = vertex_sums(g, out.values.tolist())
    assert all(s in (1, 2) for s in sums)
    assert verify_rounding(w, out).passed


def test_verify_rejects_all_zero_on_k3_half() -> None:
    g = complete_graph(3)
    w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
    report = verify_rounding(w, BinaryEdgeLabels(g, (0, 0, 0)))
    assert not report.passed
    assert report.violations.tolist() == [0, 1, 2]


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
    # Checked before the uint8 cast, which would wrap or reject them.
    for bad in (2, -1, 256, 2**64):
        with pytest.raises(InputError, match="labels must be 0 or 1"):
            BinaryEdgeLabels(g, (0, 1, bad))
    # The range check reads numerator and denominator; both closed bounds
    # and the signed zeros are inside, anything past either bound is not.
    inside = [0, 1, -0, -0.0, "-0", "0/5", Fraction(5, 5), 1.0, Fraction(-0, 3)]
    assert weight_fractions(FractionalEdgeWeights.from_values(g, inside[:3])) == [0, 1, 0]
    for value in inside:
        assert weight_fractions(FractionalEdgeWeights.constant(g, value))[0] in (0, 1)
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
        for v, s in enumerate(vertex_sums(g, out.values.tolist())):
            assert s in (2, 3)


def test_half_on_odd_degree_graphs() -> None:
    for seed in range(5):
        g = generate_regular(12, 5, seed=seed)
        w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
        out = balanced_round(w)
        assert verify_rounding(w, out).passed
        assert all(s in (2, 3) for s in vertex_sums(g, out.values.tolist()))


def test_determinism_and_seed_independence() -> None:
    g = generate_regular(20, 5, seed=3)
    rng = np.random.default_rng(0)
    z = [Fraction(x) for x in rng.random(g.m)]
    w = FractionalEdgeWeights.from_values(g, z)
    a = balanced_round(w)
    b = balanced_round(w)
    assert np.array_equal(a.values, b.values)


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
    w = FractionalEdgeWeights.from_values(DISJOINT, [path.get(e, Fraction(3, 8)) for e in edge_list(DISJOINT)])
    out = balanced_round(w)
    assert verify_rounding(w, out).passed
    ids = edge_index(DISJOINT)
    first, middle, last = (ids[e] for e in path)
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
        assert ref_window_ok(g, weight_fractions(w), out.values.tolist())


def finisher_corpus():
    """300 odd cycles (length 3-9) with 0, 1 or 2 pendant paths, vertices shuffled.

    Each weight is k/q in lowest terms or not, with q drawn per edge from
    {2, 3, 4, 5, 7, 8, 64}, so the finisher meets many common denominators
    and many start sums on the boundary (t + 1) * den. Two pendant paths are
    shifted leaf to leaf before the finisher runs.
    """
    rng = np.random.default_rng(20)
    for i in range(300):
        length = (3, 5, 7, 9)[i % 4]
        pairs = [(v, (v + 1) % length) for v in range(length)]
        n = length
        for _ in range((i // 4) % 3):
            prev = int(rng.integers(length))
            for _ in range(int(rng.integers(1, 4))):
                pairs.append((prev, n))
                prev, n = n, n + 1
        perm = rng.permutation(n)
        g = Graph(n, [(int(perm[u]), int(perm[v])) for u, v in pairs])
        dens = rng.choice([2, 3, 4, 5, 7, 8, 64], size=g.m)
        z = [Fraction(int(rng.integers(1, q)), int(q)) for q in dens]
        yield FractionalEdgeWeights.from_values(g, z)


def test_odd_cycle_finisher_labels_pinned() -> None:
    # Recorded on the pattern-search finisher, which tried every start and
    # bit; the one-comparison finisher must give the same labels.
    digest = hashlib.sha256()
    for w in finisher_corpus():
        digest.update(bytes(balanced_round(w).values) + b"|")
    assert digest.hexdigest() == "b3d939861ed2377bcbf633625981e2aae45acaa61d9038939e461e503ad92763"


@pytest.mark.parametrize(
    ("tail", "triangle", "tail_bit", "doubled"),
    [
        (None, "1/3", None, 0),  # no tail: s = 2/3 < 1
        (None, "2/3", None, 1),  # no tail: s = 4/3 >= 1
        ("1/4", "1/3", 0, 0),  # t = 0: s = 11/12 < 1
        ("1/3", "1/3", 0, 1),  # t = 0: s = 1, on the boundary
        ("2/3", "1/3", 1, 0),  # t = 1: s = 4/3 < 2
        ("2/3", "2/3", 1, 1),  # t = 1: s = 2, on the boundary
    ],
)
def test_odd_cycle_finisher_doubles_the_bit_at_the_start(tail, triangle, tail_bit, doubled) -> None:
    # Triangle 0-1-2 with an optional pendant edge 0-3: the cycle starts at
    # vertex 0 either way (the lowest vertex, or the tail's attach vertex).
    pairs = [(0, 1), (0, 2), (1, 2)] + ([(0, 3)] if tail else [])
    g = Graph(4 if tail else 3, pairs)
    z = [Fraction(tail if (u, v) == (0, 3) else triangle) for u, v in edge_list(g)]
    w = FractionalEdgeWeights.from_values(g, z)
    x = balanced_round(w).values
    ids = edge_index(g)
    assert x[ids[0, 1]] == x[ids[0, 2]] == doubled
    assert x[ids[1, 2]] == 1 - doubled
    if tail:
        assert x[ids[0, 3]] == tail_bit


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
        edges = edge_list(g)
        for _ in range(8):
            z = [Fraction(int(rng.integers(0, 5)), 4) for _ in range(g.m)]
            w = FractionalEdgeWeights.from_values(g, z)
            out = balanced_round(w)
            # Every window sits inside one component, so the feasible set is
            # the product of the components' feasible sets.
            for part in components(g):
                host = Graph(g.n, [edges[i] for i in part])
                feasible = brute_force_feasible(host, [z[i] for i in part])
                assert feasible, "contract guarantees a feasible labeling exists"
                assert tuple(out.values[part].tolist()) in feasible


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
        assert ref_window_ok(g, weight_fractions(w), out.values.tolist())


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
        assert ref_window_ok(g, weight_fractions(w), out.values.tolist())


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
    assert tuple(balanced_round(w).values.tolist()) == expected

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
        assert tuple(out.values.tolist()) in brute_force_feasible(w.graph, weight_fractions(w))


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
# The all-1/2 circuit rounding against the Hierholzer walk it replaced
# ---------------------------------------------------------------------------


def half_drift(n: int, eu: np.ndarray, ev: np.ndarray, bits) -> np.ndarray:
    """``2 * ones - degree`` at every vertex: the window is ``-2 < drift <= 2``."""
    one = np.asarray(bits, dtype=np.uint8) == 1
    ones = np.bincount(eu[one], minlength=n) + np.bincount(ev[one], minlength=n)
    return 2 * ones - np.bincount(eu, minlength=n) - np.bincount(ev, minlength=n)


def assert_reference_drift(n: int, eu: np.ndarray, ev: np.ndarray, bits) -> None:
    """The drift of the reference walk at even-degree vertices, a half at odd ones.

    Any one closed trail per component that starts where the reference walk
    starts gives this profile, whatever its labels: 0 at every even vertex
    except +2 at the lowest vertex of a hub-free component with an odd
    number of edges.
    """
    expected = ref_round_half_euler(n, list(zip(eu.tolist(), ev.tolist())))
    got, ref = half_drift(n, eu, ev, bits), half_drift(n, eu, ev, expected)
    even = (np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)) % 2 == 0
    assert got[even].tolist() == ref[even].tolist()
    assert (np.abs(got[~even]) == 1).all()


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
    eu, ev = g.endpoint_arrays()
    bits = _round_half_euler(g.n, eu, ev)
    assert_reference_drift(g.n, eu, ev, bits)
    assert round_half_edges(g.n, eu, ev).tolist() == bits.tolist()
    w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
    assert list(balanced_round(w).values) == bits.tolist()


@settings(max_examples=100, deadline=None)
@given(half_graphs(), st.data())
def test_csr_euler_walk_on_edge_subsets_matches_reference(g: Graph, data) -> None:
    # As in the pipeline's rule groups: a subset of a host's edges, in canonical order.
    keep = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    members = np.flatnonzero(np.asarray(keep, dtype=bool))
    eu, ev = g.endpoint_arrays()
    assert_reference_drift(g.n, eu[members], ev[members], round_half_edges(g.n, eu[members], ev[members]))


def test_csr_euler_walk_matches_reference_on_odd_regular_graph() -> None:
    g = generate_regular(300, 9, seed=4)
    eu, ev = g.endpoint_arrays()
    assert_reference_drift(g.n, eu, ev, _round_half_euler(g.n, eu, ev))


def disjoint_cycles(length: int, copies: int) -> Graph:
    edges = []
    for c in range(copies):
        ring = [c * length + i for i in range(length)]
        edges += [tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1])]
    return Graph(length * copies, sorted(edges))


def windmill(blades: int) -> Graph:
    """``blades`` triangles through vertex 0."""
    edges = sorted((min(e), max(e)) for i in range(blades)
                   for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2)))
    return Graph(2 * blades + 1, edges)


def half_bits(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    eu, ev = g.endpoint_arrays()
    return eu, ev, _round_half_euler(g.n, eu, ev)


def test_half_circuit_splices_two_odd_trails_at_one_vertex() -> None:
    # The bowtie pairs into its two triangles, which meet only at vertex 0.
    # Unspliced, both seams would land on 0 (drift +4); as one circuit of six
    # edges it is balanced everywhere.
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    eu, ev, bits = half_bits(g)
    assert half_drift(g.n, eu, ev, bits).tolist() == [0] * 5
    # Windmills: many triangles through vertex 0 splice along one row, so
    # its transitions are re-paired again and again.
    for blades in range(2, 12):
        g = windmill(blades)
        eu, ev, bits = half_bits(g)
        assert_reference_drift(g.n, eu, ev, bits)
        assert half_drift(g.n, eu, ev, bits)[0] == (2 if blades % 2 else 0)


@pytest.mark.parametrize("n", range(1, 16))
def test_half_circuit_on_complete_graphs(n: int) -> None:
    # Odd n: one hub-free component; K3, K7, K11 and K15 have an odd number
    # of edges, so vertex 0 takes +2. Even n: every vertex is odd.
    g = complete_graph(n)
    eu, ev, bits = half_bits(g)
    assert_reference_drift(g.n, eu, ev, bits)
    drift = half_drift(g.n, eu, ev, bits)
    if n % 2:
        assert drift.tolist() == [2 * (g.m % 2)] + [0] * (n - 1)


@pytest.mark.parametrize("copies", [1, 2, 5])
@pytest.mark.parametrize("length", [3, 5, 7, 9, 11])
def test_half_circuit_on_disjoint_odd_cycles(length: int, copies: int) -> None:
    # Each cycle is its own odd circuit with the seam at its lowest vertex.
    g = disjoint_cycles(length, copies)
    eu, ev, bits = half_bits(g)
    assert_reference_drift(g.n, eu, ev, bits)
    expected = [0] * g.n
    for c in range(copies):
        expected[c * length] = 2
    assert half_drift(g.n, eu, ev, bits).tolist() == expected


def test_half_circuit_with_hub_and_hub_free_components() -> None:
    # K4 and a star hang on the hub; a triangle (odd) and a 4-cycle (even)
    # are hub-free, and vertex 12 is isolated.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 5), (4, 6), (5, 6),
             (7, 8), (7, 9), (7, 10),
             (11, 13), (11, 14), (13, 15), (14, 15)]
    g = Graph(16, edges)
    eu, ev, bits = half_bits(g)
    assert_reference_drift(g.n, eu, ev, bits)
    drift = half_drift(g.n, eu, ev, bits).tolist()
    assert [drift[v] for v in (4, 5, 6, 11, 12, 13, 14, 15)] == [2, 0, 0, 0, 0, 0, 0, 0]
    assert all(abs(drift[v]) == 1 for v in range(11) if v not in (4, 5, 6))


def test_half_circuit_on_the_empty_group() -> None:
    empty = np.zeros(0, dtype=np.int64)
    for n in (0, 5):
        for walk in (_round_half_euler, round_half_edges):
            bits = walk(n, empty, empty)
            assert bits.dtype == np.uint8 and bits.shape == (0,)


def test_half_circuit_is_deterministic_and_independent_of_head_spacing(monkeypatch) -> None:
    # The heads only cut the ranking into pieces; the circuit and its labels
    # come from the pairing and the splices. Spacing 1 makes every slot a
    # head; a spacing past the layout leaves most trails without a sampled
    # head and long gaps on the others.
    g = generate_regular(300, 9, seed=4)
    eu, ev = g.endpoint_arrays()
    bits = _round_half_euler(g.n, eu, ev)
    assert bits.dtype == np.uint8
    assert _round_half_euler(g.n, eu, ev).tobytes() == bits.tobytes()
    for spacing in (1, 3, 64, 10**6):
        monkeypatch.setattr(rounding, "_HEAD_SPACING", spacing)
        assert _round_half_euler(g.n, eu, ev).tobytes() == bits.tobytes()


@functools.cache
def half_corpus() -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """Inputs ``(n, eu, ev)`` of every shape the circuit ranking has to cut.

    The two non-empty rule groups of a (4000, 128) best-effort decompose run
    on the demo profile (the third is empty there), an odd-regular graph,
    disjoint odd cycles, the bowtie and windmills, complete graphs, hub and
    hub-free components side by side, and sparse random graphs with isolated
    vertices.
    """
    groups: list[tuple[int, np.ndarray, np.ndarray]] = []
    record = pipeline.round_half_edges

    def spy(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
        groups.append((n, eu, ev))
        return record(n, eu, ev)

    demo = ConstantProfile(k=0.1, s=0.05, r=0.3, u=0.2, s1=0.024, r1=0.279, u1=0.09)
    pipeline.round_half_edges = spy
    try:
        pipeline.decompose_to_four(
            generate_regular(4000, 128, seed=4), demo, mode="best-effort", seed=0, max_rounds=5
        )
    finally:
        pipeline.round_half_edges = record
    corpus = [group for group in groups if len(group[1])]
    assert [len(eu) for _, eu, _ in corpus] == [121654, 126480]
    graphs = [generate_regular(300, 9, seed=4)]
    graphs += [disjoint_cycles(length, copies)
               for length in (3, 5, 7, 9, 11) for copies in (1, 2, 5)]
    graphs += [Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])]
    graphs += [windmill(blades) for blades in range(2, 12)]
    graphs += [complete_graph(n) for n in range(1, 16)]
    graphs += [Graph(16, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                          (4, 5), (4, 6), (5, 6),
                          (7, 8), (7, 9), (7, 10),
                          (11, 13), (11, 14), (13, 15), (14, 15)])]
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(2, 60))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        graphs.append(Graph(n, {(int(min(a, b)), int(max(a, b))) for a, b in pairs if a != b}))
    corpus += [(g.n, *g.endpoint_arrays()) for g in graphs]
    return tuple(corpus)


@pytest.mark.parametrize("spacing", [1, 16, 10**6])
def test_half_labels_pinned_under_every_head_spacing(monkeypatch, spacing: int) -> None:
    # Recorded before the ranking cut the first walk's segments in place of
    # a second walk. Spacing 1 makes every slot a head. At 10**6 only the
    # rows' first slots and their twins are sampled (7922 of the first rule
    # group's 247304 slots), and every slot of a paired trail that holds
    # none of them (4334 slots there) becomes a head of its own.
    monkeypatch.setattr(rounding, "_HEAD_SPACING", spacing)
    digest = hashlib.sha256()
    for n, eu, ev in half_corpus():
        bits = _round_half_euler(n, eu, ev)
        digest.update(len(bits).to_bytes(8, "little") + bits.tobytes())
    assert digest.hexdigest() == "2ef9a34c4f90b72e2b7ce63fc1f24db9ed203b46a08c02f1c9a7652e1e927815"


def test_half_circuit_walks_the_slots_once(monkeypatch) -> None:
    # The splices re-pair a few hundred slots of a rule group; the ranking
    # cuts the first walk's segments there instead of walking every slot
    # again. An empty group returns before any walk.
    walks: list[int] = []
    walk = rounding._segments

    def count(nxt: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, ...]:
        walks.append(len(nxt))
        return walk(nxt, head)

    monkeypatch.setattr(rounding, "_segments", count)
    for n, eu, ev in half_corpus():
        walks.clear()
        _round_half_euler(n, eu, ev)
        assert len(walks) == (1 if len(eu) else 0)


def test_segments_turns_slots_on_headless_cycles_into_heads() -> None:
    # Cycles 0 -> 1 -> 2 -> 3 -> 0 with heads 0 and 2, and 4 -> 5 -> 6 -> 4
    # with none: its slots become heads 2, 3 and 4, one step apart.
    nxt = np.array([1, 2, 3, 0, 5, 6, 4], dtype=np.int32)
    head = np.zeros(7, dtype=bool)
    head[[0, 2]] = True
    owner, off, succ, gap = _segments(nxt, head)
    assert owner.tolist() == [0, 0, 1, 1, 2, 3, 4]
    assert off.tolist() == [0, 1, 0, 1, 0, 0, 0]
    assert succ.tolist() == [1, 0, 3, 4, 2]
    assert gap.tolist() == [2, 2, 1, 1, 1]
    assert head.tolist() == [True, False, True] + [False] * 4


def test_round_half_edges_checks_the_window(monkeypatch) -> None:
    # All-zero labels leave every vertex of a 4-regular graph at drift -4.
    g = generate_regular(10, 4, seed=1)
    eu, ev = g.endpoint_arrays()
    monkeypatch.setattr(rounding, "_round_half_euler", lambda n, u, v: np.zeros(len(u), dtype=np.uint8))
    with pytest.raises(BudgetError, match=re.escape(f"at vertices {tuple(range(10))}")):
        round_half_edges(g.n, eu, ev)


def test_all_half_labels_are_plain_ints() -> None:
    # The labels are the walk's read-only uint8 array, and the JSON reads
    # them through tolist(), so no numpy scalar reaches it.
    g = generate_regular(30, 5, seed=2)
    values = balanced_round(FractionalEdgeWeights.constant(g, Fraction(1, 2))).values
    assert values.dtype == np.uint8 and not values.flags.writeable
    assert len(values) == g.m and {type(v) for v in values.tolist()} == {int}
    eu, ev = g.endpoint_arrays()
    bits = _round_half_euler(g.n, eu, ev)
    assert bits.dtype == np.uint8 and bits.tolist() == values.tolist()


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
    assert (weights.numerators.tolist(), weights.denominator) == (list(range(6)), 7)
    assert weight_fractions(weights) == values
    mixed = FractionalEdgeWeights.from_values(g, ["1/2", 0, 1, 0.25, "3/8", 1])
    assert (mixed.numerators.tolist(), mixed.denominator) == ([4, 0, 8, 2, 3, 8], 8)
    assert weight_fractions(mixed) == [Fraction(1, 2), 0, 1, Fraction(1, 4), Fraction(3, 8), 1]
    with pytest.raises(InputError, match="outside"):
        FractionalEdgeWeights.from_values(g, values[:5] + [Fraction(8, 7)])
