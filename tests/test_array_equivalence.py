"""Array-native colouring and integer rounding checks against plain references.

The references restate the definitions in pure Python (sets, ``Fraction``
sums, one full ``distinguish`` + ``audit`` per resample round), so the mask,
``bincount`` and common-denominator paths are compared with an independent
evaluation on small random instances, including the empty graph and d = 0.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidecomp.coloring import (
    DistinguishedSets,
    ResampleResult,
    VertexColoring,
    _audit_caps,
    _audit_counts,
    _set_masks,
    _violating,
    _zero_ball,
    _zero_violates,
    audit,
    closeness_bound,
    distinguish,
    mod_distance,
    resample_until_good,
)
from lidecomp.constants import ConstantProfile, DerivedQuantities, REFERENCE_PROFILE
from lidecomp import coloring
from lidecomp.graphs import Graph, generate_regular
from oracles import edge_list, neighbors, vertex_sums, weight_fractions
from lidecomp.rounding import (
    BinaryEdgeLabels,
    FractionalEdgeWeights,
    verify_rounding,
)

PROFILES = (
    ConstantProfile(k=0.1, s=0.05, r=0.3, u=0.2, s1=0.024, r1=0.279, u1=0.09),
    ConstantProfile(k=0.03, s=0.003, r=0.26, u=0.13, s1=0.0015, r1=0.242, u1=0.059),
    REFERENCE_PROFILE,
)


@st.composite
def graphs(draw, max_n: int = 9) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def sparse_graphs(draw, max_n: int = 24) -> Graph:
    """Graphs whose two-hop balls stay small, so the redraw choice matters."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Graph(n, [])
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return Graph(n, {(min(p), max(p)) for p in pairs if p[0] != p[1]})


@st.composite
def isolated_prefix(draw, inner: st.SearchStrategy[Graph]) -> Graph:
    """A graph from ``inner`` behind 0-300 isolated vertices.

    An isolated vertex never violates, so vertex 0's judge sees a ball of
    one vertex that passes, and the full evaluation must name a first
    violator that lies well past it.
    """
    g = draw(inner)
    k = draw(st.integers(0, 300))
    eu, ev = g.endpoint_arrays()
    return Graph(g.n + k, np.column_stack((eu + k, ev + k)))


@st.composite
def colored_graphs(
    draw, shapes: st.SearchStrategy[Graph] = graphs()
) -> tuple[Graph, VertexColoring]:
    g = draw(shapes)
    palette = draw(st.integers(1, 6))
    values = st.lists(st.integers(1, palette), min_size=g.n, max_size=g.n)
    return g, VertexColoring(palette, tuple(draw(values)), tuple(draw(values)))


def reference_sets(g: Graph, c: VertexColoring, profile: ConstantProfile, d: int) -> dict:
    bound = closeness_bound(profile, d)
    pair = list(zip(c.first, c.second))
    unc = {v for v in range(g.n) if any(pair[w] == pair[v] for w in neighbors(g, v))}
    sets = {name: set() for name in (
        "uncolored_edges", "touching", "special", "risky",
        "risky_not_special", "residual", "residual_nonspecial",
    )}
    for i, (u, v) in enumerate(edge_list(g)):
        if u in unc and v in unc:
            sets["uncolored_edges"].add(i)
        if u in unc or v in unc:
            sets["touching"].add(i)
            continue
        special = (c.first[u] == c.first[v]) != (c.second[u] == c.second[v])
        risky = any(
            1 <= mod_distance(a, b, c.palette) <= bound
            for a, b in ((c.first[u], c.first[v]), (c.second[u], c.second[v]))
        )
        for name, member in (
            ("special", special),
            ("risky", risky),
            ("risky_not_special", risky and not special),
            ("residual", not risky),
            ("residual_nonspecial", not risky and not special),
        ):
            if member:
                sets[name].add(i)
    sets["uncolored"] = unc
    return sets


def reference_counts(g: Graph, sets: dict, profile: ConstantProfile, d: int):
    edges = edge_list(g)

    def incidence(es: set[int]) -> list[int]:
        deg = [0] * g.n
        for i in es:
            for v in edges[i]:
                deg[v] += 1
        return deg

    special = incidence(sets["special"])
    risky = incidence(sets["risky"])
    unc = [sum(w in sets["uncolored"] for w in neighbors(g, v)) for v in range(g.n)]
    thresholds = [Fraction(str(t)) * d for t in (profile.s, profile.r, profile.u)]
    violations = tuple(
        v
        for v in range(g.n)
        if any(
            count[v] > 0 and not count[v] < t
            for count, t in zip((special, risky, unc), thresholds)
        )
    )
    return (special, risky, unc), violations


def as_sets(sets: DistinguishedSets) -> dict:
    """Every set, with the two nonspecial groups ``split_edges`` rounds, as plain sets."""
    out = {name: set(np.flatnonzero(mask).tolist()) for name, mask in vars(sets).items()}
    out["uncolored"] = set(sets.uncolored.tolist())
    out["risky_not_special"] = set(np.flatnonzero(sets.risky & ~sets.special).tolist())
    out["residual_nonspecial"] = set(np.flatnonzero(sets.residual & ~sets.special).tolist())
    return out


def _palette_edge(palette: int) -> tuple[Graph, VertexColoring]:
    """Colours 1 and ``palette`` on adjacent vertices in both coordinates.

    Their gap is ``palette - 1``, so ``_close``'s ``palette - gap`` runs at
    the edge of the narrowest type that holds the palette.
    """
    g = Graph(3, [(0, 1), (1, 2)])
    return g, VertexColoring(palette, (1, palette, 1), (palette, 1, palette // 2))


@settings(max_examples=200, deadline=None)
@given(colored_graphs(), st.sampled_from(PROFILES), st.integers(0, 60))
# Palettes at the edges of int8, int16 and int32, and past them.
@example(_palette_edge(127), PROFILES[0], 60)
@example(_palette_edge(128), PROFILES[0], 60)
@example(_palette_edge(32767), PROFILES[0], 60)
@example(_palette_edge(32768), PROFILES[0], 60)
@example(_palette_edge(2**31 - 1), PROFILES[0], 60)
@example(_palette_edge(2**31), PROFILES[0], 60)
@example(_palette_edge(2**33), PROFILES[0], 60)
def test_masks_and_counts_match_references(case, profile, d) -> None:
    g, c = case
    first, second = c.first, c.second
    masks = _set_masks(g, first, second, c.palette, closeness_bound(profile, d))
    sets = distinguish(g, c, profile, d)
    assert as_sets(masks) == as_sets(sets) == reference_sets(g, c, profile, d)

    counts = _audit_counts(g, masks)
    loop_violations = tuple(_violating(counts, _audit_caps(profile, d)).tolist())
    full = audit(g, sets, profile, d)
    ref_counts, ref_violations = reference_counts(g, as_sets(sets), profile, d)
    assert counts.tolist() == [list(x) for x in ref_counts]
    rows = (full.special_counts, full.risky_counts, full.uncolored_counts)
    assert [row.tolist() for row in rows] == [list(x) for x in ref_counts]
    assert loop_violations == tuple(full.violations.tolist()) == ref_violations
    assert full.passed == (not ref_violations)


@settings(max_examples=300, deadline=None)
@given(
    colored_graphs(st.one_of(graphs(), isolated_prefix(graphs()))),
    st.sampled_from(PROFILES),
    st.integers(0, 60),
)
@example((Graph(0, []), VertexColoring(1, (), ())), PROFILES[0], 0)
@example((Graph(3, [(0, 1), (1, 2)]), VertexColoring(1, (1, 1, 1), (1, 1, 1))), PROFILES[2], 60)
# Distinct pairs whose code first * (palette + 1) + second wraps to one int64.
@example(
    (Graph(3, [(0, 1), (1, 2)]), VertexColoring(2**33, (5, 1, 1 + 2**31), (9, 1 + 2**31, 1))),
    PROFILES[0],
    1,
)
def test_zero_violates_matches_full_audit(case, profile, d) -> None:
    g, c = case
    first, second = c.first, c.second
    bound, caps = closeness_bound(profile, d), _audit_caps(profile, d)
    bad = _violating(_audit_counts(g, _set_masks(g, first, second, c.palette, bound)), caps)
    expected = int(bad[0]) if bad.size else -1
    if g.n:  # the batch judge, on one round holding these colours
        zero = _zero_ball(g)
        draws = np.stack((first[zero.ball], second[zero.ball]))[None]
        assert _zero_violates(zero, draws, c.palette, bound, caps).tolist() == [expected == 0]


@pytest.mark.parametrize("palette", [127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31])
def test_zero_violates_matches_full_audit_at_wide_palettes(palette) -> None:
    # The judge narrows colours to the smallest type holding +-palette. Values
    # at both ends of the palette make the cyclic gaps wrap, and the caps
    # leave the risky count alone to decide (nothing is risky at bound 0).
    rng = np.random.default_rng(palette)
    g = Graph(40, [(u, v) for u, v in combinations(range(40), 2) if rng.random() < 0.3])
    ends = np.array([1, 2, 3, palette - 2, palette - 1, palette], dtype=np.int64)
    zero, batch_rng = _zero_ball(g), np.random.default_rng([palette, 1])
    for bound in (0, 1, 2):
        caps = np.array([g.n, 3 * bound, g.n], dtype=np.int64)
        first, second = rng.choice(ends, g.n), rng.choice(ends, g.n)
        bad = _violating(_audit_counts(g, _set_masks(g, first, second, palette, bound)), caps)
        expected = int(bad[0]) if bad.size else -1
        now = np.stack((first[zero.ball], second[zero.ball]))[None]
        assert _zero_violates(zero, now, palette, bound, caps).tolist() == [expected == 0]
        # The batch judge, on rounds drawn from the same ends over vertex 0's ball.
        draws = batch_rng.choice(ends, (8, 2, zero.ball.size))
        verdicts = []
        for f, s in draws:
            first[zero.ball], second[zero.ball] = f, s
            counts = _audit_counts(g, _set_masks(g, first, second, palette, bound))
            verdicts.append(0 in _violating(counts, caps))
        assert _zero_violates(zero, draws, palette, bound, caps).tolist() == verdicts


def reference_resample(
    g: Graph, profile: ConstantProfile, d: int, seed: int, max_rounds: int
) -> ResampleResult:
    """One full distinguish + audit per round, redrawing from one RNG stream."""
    palette = DerivedQuantities.derive(profile, d).palette
    rng = np.random.default_rng(seed)
    first = rng.integers(1, palette + 1, size=g.n)
    second = rng.integers(1, palette + 1, size=g.n)
    rounds = 0
    while True:
        c = VertexColoring(palette, first, second)
        sets = distinguish(g, c, profile, d)
        result = audit(g, sets, profile, d)
        if result.passed or rounds >= max_rounds:
            return ResampleResult(c, sets, result, result.passed, rounds)
        centre = int(result.violations[0])
        ball = {centre, *neighbors(g, centre)}
        for w in neighbors(g, centre):
            ball.update(neighbors(g, w))
        redraw = sorted(ball)
        first[redraw] = rng.integers(1, palette + 1, size=len(redraw))
        second[redraw] = rng.integers(1, palette + 1, size=len(redraw))
        rounds += 1


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(sparse_graphs(), isolated_prefix(sparse_graphs())),
    st.sampled_from(PROFILES),
    st.integers(0, 60),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
)
def test_resample_matches_round_by_round_reference(g, profile, d, seed, max_rounds) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = resample_until_good(g, profile, d, seed=seed, max_rounds=max_rounds)
    ref = reference_resample(g, profile, d, seed, max_rounds)
    assert (result.coloring.to_json(), result.audit.to_json(), result.success, result.rounds) == (
        ref.coloring.to_json(), ref.audit.to_json(), ref.success, ref.rounds
    )
    assert as_sets(result.sets) == as_sets(ref.sets)
    assert as_sets(result.sets) == as_sets(distinguish(g, result.coloring, profile, d))
    assert result.audit.to_json() == audit(g, result.sets, profile, d).to_json()
    assert result.success == result.audit.passed
    assert result.success or result.rounds == max_rounds


@pytest.mark.parametrize(
    ("shape", "profile", "d", "max_rounds", "centres"),
    [
        # Every vertex fails the audit: each round redraws vertex 0's ball.
        ((60, 12), PROFILES[0], 12, 40, "repeat"),
        # A looser d: the centre moves and comes back (11, 5, 0, 5), then the audit passes.
        ((40, 6), PROFILES[1], 48, 40, "change"),
        # Forty rounds over many centres, some repeating back to back.
        ((60, 12), PROFILES[1], 96, 40, "change"),
    ],
    ids=["centre-repeats", "centre-changes-then-passes", "centre-changes"],
)
def test_long_resample_matches_round_by_round_reference(
    monkeypatch, shape, profile, d, max_rounds, centres
) -> None:
    # A round centred on vertex 0 is one _redraw_zero reports running; every
    # other round takes its centre's ball from _two_hop_ball. _zero_ball takes
    # vertex 0's ball once before any round, which is the first call seen.
    seen: list[int] = []
    redraw_zero, two_hop_ball = coloring._redraw_zero, coloring._two_hop_ball

    def record_zero(*args):
        ran = redraw_zero(*args)
        seen.extend([0] * ran)
        return ran

    def record_ball(g, centre):
        seen.append(centre)
        return two_hop_ball(g, centre)

    monkeypatch.setattr(coloring, "_redraw_zero", record_zero)
    monkeypatch.setattr(coloring, "_two_hop_ball", record_ball)
    g = generate_regular(*shape, seed=1)
    result = resample_until_good(g, profile, d, seed=0, max_rounds=max_rounds)
    ref = reference_resample(g, profile, d, 0, max_rounds)
    assert (result.coloring.to_json(), result.audit.to_json(), result.success, result.rounds) == (
        ref.coloring.to_json(), ref.audit.to_json(), ref.success, ref.rounds
    )
    assert as_sets(result.sets) == as_sets(ref.sets)
    assert seen[0] == 0
    rounds = seen[1:]
    assert len(rounds) == result.rounds
    if centres == "repeat":
        assert rounds == [0] * max_rounds
    else:
        assert len(set(rounds)) > 1


def test_vertex_zero_rounds_take_one_full_evaluation(monkeypatch) -> None:
    # The benchmark's regime: every vertex fails, so vertex 0 is the centre
    # of all forty rounds. Its judge alone finds it; the full sets are taken
    # once, for the result, not per vertex-0 chunk or per round.
    calls = []
    set_masks = coloring._set_masks

    def record(*args):
        calls.append(args)
        return set_masks(*args)

    monkeypatch.setattr(coloring, "_set_masks", record)
    g = generate_regular(60, 12, seed=1)
    result = resample_until_good(g, PROFILES[0], 12, seed=0, max_rounds=40)
    assert (result.rounds, result.success) == (40, False)
    assert len(calls) == 1


def reference_verify(weights: FractionalEdgeWeights, labels: BinaryEdgeLabels) -> dict:
    """The report's JSON, from plain ``Fraction`` sums."""
    g = weights.graph
    zsums = vertex_sums(g, weight_fractions(weights))
    xsums = vertex_sums(g, labels.values.tolist())
    violations = [v for v in range(g.n) if not zsums[v] - 1 < xsums[v] <= zsums[v] + 1]
    drifts = [float(x - z) for x, z in zip(xsums, zsums)]
    return {"passed": not violations, "drifts": drifts, "violations": violations}


fractions_01 = st.one_of(
    st.integers(1, 12).flatmap(lambda q: st.builds(Fraction, st.integers(0, q), st.just(q))),
    st.builds(Fraction, st.integers(0, 2**61 - 1), st.just(2**61 - 1)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
)


@st.composite
def labelled_weights(draw) -> tuple[Graph, list[Fraction], list[int]]:
    g = draw(graphs(max_n=8))
    z = draw(st.lists(fractions_01, min_size=g.m, max_size=g.m))
    return g, z, draw(st.lists(st.integers(0, 1), min_size=g.m, max_size=g.m))


# The numerators are int64 exactly while the common denominator times the
# largest degree (2 on the path) stays below 2**63: denominators 2**62 - 1
# (int64), 2**62 (product exactly 2**63) and 2**62 + 1 (Python ints).
PATH = Graph(3, [(0, 1), (1, 2)])


@settings(max_examples=300, deadline=None)
@given(labelled_weights())
@example((PATH, [Fraction(2**62 - 2, 2**62 - 1), Fraction(1, 2**62 - 1)], [1, 1]))
@example((PATH, [Fraction(2**62 - 2, 2**62 - 1), Fraction(2**62 - 3, 2**62 - 1)], [0, 0]))
@example((PATH, [Fraction(1, 2**62), Fraction(2**62 - 1, 2**62)], [0, 1]))
@example((PATH, [Fraction(2**62, 2**62 + 1), Fraction(1, 2**62 + 1)], [1, 1]))
@example((PATH, [Fraction(2**62, 2**62 + 1), Fraction(2**62 - 1, 2**62 + 1)], [0, 0]))
def test_integer_verify_matches_fraction_reference(case) -> None:
    g, z, x = case
    weights = FractionalEdgeWeights.from_values(g, z)
    labels = BinaryEdgeLabels(g, tuple(x))
    wide = weights.denominator * int(g.degrees.max(initial=1)) >= 2**63
    assert weights.numerators.dtype == (object if wide else np.int64)
    assert verify_rounding(weights, labels).to_json() == reference_verify(weights, labels)


def test_integer_verify_window_boundaries() -> None:
    # Path 0-1-2 with z = (1/3, 2/3): vertex 1 has z-sum exactly 1.
    g = Graph(3, [(0, 1), (1, 2)])
    weights = FractionalEdgeWeights.from_values(g, [Fraction(1, 3), Fraction(2, 3)])
    high = verify_rounding(weights, BinaryEdgeLabels(g, (1, 1)))
    assert high.passed and high.drifts[1] == 1.0  # drift exactly +1 is allowed
    low = verify_rounding(weights, BinaryEdgeLabels(g, (0, 0)))
    assert not low.passed and low.violations.tolist() == [1] and low.drifts[1] == -1.0
    for labels in ((1, 1), (0, 0), (1, 0), (0, 1)):
        got = verify_rounding(weights, BinaryEdgeLabels(g, labels))
        assert got.to_json() == reference_verify(weights, BinaryEdgeLabels(g, labels))
    assert math.isclose(high.drifts[0], 2 / 3)


def test_integer_verify_empty_graph() -> None:
    g = Graph(0, [])
    report = verify_rounding(FractionalEdgeWeights.from_values(g, []), BinaryEdgeLabels(g, ()))
    assert report.to_json() == {"passed": True, "drifts": [], "violations": []}
