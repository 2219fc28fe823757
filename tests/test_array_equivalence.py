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
from hypothesis import given, settings
from hypothesis import strategies as st

from lidecomp.coloring import (
    ResampleResult,
    VertexColoring,
    _audit_caps,
    _audit_counts,
    _collect,
    _set_masks,
    _violating,
    audit,
    closeness_bound,
    distinguish,
    mod_distance,
    resample_until_good,
)
from lidecomp.constants import ConstantProfile, DerivedQuantities, REFERENCE_PROFILE
from lidecomp.graphs import Graph
from lidecomp.rounding import (
    BinaryEdgeLabels,
    FractionalEdgeWeights,
    RoundingReport,
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
def colored_graphs(draw) -> tuple[Graph, VertexColoring]:
    g = draw(graphs())
    palette = draw(st.integers(1, 6))
    values = st.lists(st.integers(1, palette), min_size=g.n, max_size=g.n)
    return g, VertexColoring(palette, tuple(draw(values)), tuple(draw(values)))


def reference_sets(g: Graph, c: VertexColoring, profile: ConstantProfile, d: int) -> dict:
    bound = closeness_bound(profile, d)
    pair = list(zip(c.first, c.second))
    unc = {v for v in range(g.n) if any(pair[w] == pair[v] for w in g.neighbors(v))}
    sets = {name: set() for name in (
        "uncolored_edges", "touching", "special", "risky",
        "risky_not_special", "residual", "residual_nonspecial",
    )}
    for i, (u, v) in enumerate(g.edges):
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


def reference_counts(g: Graph, sets, profile: ConstantProfile, d: int):
    def incidence(es: frozenset[int]) -> list[int]:
        deg = [0] * g.n
        for i in es:
            for v in g.edges[i]:
                deg[v] += 1
        return deg

    special = incidence(sets.special)
    risky = incidence(sets.risky)
    unc = [sum(w in sets.uncolored for w in g.neighbors(v)) for v in range(g.n)]
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


@settings(max_examples=200, deadline=None)
@given(colored_graphs(), st.sampled_from(PROFILES), st.integers(0, 60))
def test_masks_and_counts_match_references(case, profile, d) -> None:
    g, c = case
    first = np.asarray(c.first, dtype=np.int64)
    second = np.asarray(c.second, dtype=np.int64)
    masks = _set_masks(g, first, second, c.palette, closeness_bound(profile, d))
    sets = distinguish(g, c, profile, d)
    assert _collect(masks) == sets
    assert {k: set(v) for k, v in vars(sets).items()} == reference_sets(g, c, profile, d)

    counts = _audit_counts(g, masks.special, masks.risky, masks.uncolored)
    loop_violations = tuple(_violating(counts, _audit_caps(profile, d)).tolist())
    full = audit(g, sets, profile, d)
    ref_counts, ref_violations = reference_counts(g, sets, profile, d)
    assert counts.tolist() == [list(x) for x in ref_counts]
    assert (full.special_counts, full.risky_counts, full.uncolored_counts) == tuple(
        tuple(x) for x in ref_counts
    )
    assert loop_violations == full.violations == ref_violations
    assert full.passed == (not ref_violations)


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
        c = VertexColoring(palette, tuple(first.tolist()), tuple(second.tolist()))
        sets = distinguish(g, c, profile, d)
        result = audit(g, sets, profile, d)
        if result.passed or rounds >= max_rounds:
            return ResampleResult(c, sets, result, result.passed, rounds)
        centre = result.violations[0]
        ball = {centre, *g.neighbors(centre)}
        for w in g.neighbors(centre):
            ball.update(g.neighbors(w))
        redraw = sorted(ball)
        first[redraw] = rng.integers(1, palette + 1, size=len(redraw))
        second[redraw] = rng.integers(1, palette + 1, size=len(redraw))
        rounds += 1


@settings(max_examples=150, deadline=None)
@given(
    sparse_graphs(),
    st.sampled_from(PROFILES),
    st.integers(0, 60),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
)
def test_resample_matches_round_by_round_reference(g, profile, d, seed, max_rounds) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = resample_until_good(g, profile, d, seed=seed, max_rounds=max_rounds)
    assert result == reference_resample(g, profile, d, seed, max_rounds)
    assert result.sets == distinguish(g, result.coloring, profile, d)
    assert result.audit == audit(g, result.sets, profile, d)
    assert result.success == result.audit.passed
    assert result.success or result.rounds == max_rounds


def reference_verify(weights: FractionalEdgeWeights, labels: BinaryEdgeLabels) -> RoundingReport:
    zsums = weights.vertex_sums()
    xsums = labels.vertex_sums()
    violations = tuple(
        v for v in range(weights.graph.n) if not zsums[v] - 1 < xsums[v] <= zsums[v] + 1
    )
    drifts = tuple(float(x - z) for x, z in zip(xsums, zsums))
    return RoundingReport(passed=not violations, drifts=drifts, violations=violations)


fractions_01 = st.one_of(
    st.integers(1, 12).flatmap(lambda q: st.builds(Fraction, st.integers(0, q), st.just(q))),
    st.builds(Fraction, st.integers(0, 2**61 - 1), st.just(2**61 - 1)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=8), st.data())
def test_integer_verify_matches_fraction_reference(g, data) -> None:
    z = data.draw(st.lists(fractions_01, min_size=g.m, max_size=g.m))
    x = data.draw(st.lists(st.integers(0, 1), min_size=g.m, max_size=g.m))
    weights = FractionalEdgeWeights.from_values(g, z)
    labels = BinaryEdgeLabels(g, tuple(x))
    assert verify_rounding(weights, labels) == reference_verify(weights, labels)


def test_integer_verify_window_boundaries() -> None:
    # Path 0-1-2 with z = (1/3, 2/3): vertex 1 has z-sum exactly 1.
    g = Graph(3, [(0, 1), (1, 2)])
    weights = FractionalEdgeWeights.from_values(g, [Fraction(1, 3), Fraction(2, 3)])
    high = verify_rounding(weights, BinaryEdgeLabels(g, (1, 1)))
    assert high.passed and high.drifts[1] == 1.0  # drift exactly +1 is allowed
    low = verify_rounding(weights, BinaryEdgeLabels(g, (0, 0)))
    assert not low.passed and low.violations == (1,) and low.drifts[1] == -1.0
    for labels in ((1, 1), (0, 0), (1, 0), (0, 1)):
        got = verify_rounding(weights, BinaryEdgeLabels(g, labels))
        assert got == reference_verify(weights, BinaryEdgeLabels(g, labels))
    assert math.isclose(high.drifts[0], 2 / 3)


def test_integer_verify_empty_graph() -> None:
    g = Graph(0, [])
    report = verify_rounding(FractionalEdgeWeights.from_values(g, []), BinaryEdgeLabels(g, ()))
    assert report == RoundingReport(passed=True, drifts=(), violations=())
