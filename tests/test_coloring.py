from __future__ import annotations

import numpy as np
import pytest

from lidecomp.coloring import (
    ColoringAudit,
    VertexColoring,
    assign_random,
    audit,
    closeness_bound,
    distinguish,
    mod_distance,
    resample_until_good,
)
from lidecomp.constants import ConstantProfile, REFERENCE_PROFILE
from lidecomp.errors import InputError
from lidecomp.graphs import Graph, generate_circulant, generate_regular

# Demo-scale profile used wherever the reference constants are too large.
DEMO = ConstantProfile(k=0.1, s=0.05, r=0.3, u=0.2, s1=0.024, r1=0.279, u1=0.09)


def members(mask: np.ndarray) -> set[int]:
    """The edge indices a boolean edge mask selects."""
    return set(np.flatnonzero(mask).tolist())


def test_mod_distance_examples() -> None:
    assert mod_distance(2, 9, 10) == 3
    assert mod_distance(9, 2, 10) == 3
    assert mod_distance(5, 5, 7) == 0
    for k in (2, 5, 8, 13):
        assert mod_distance(1, 1 + k // 2, k) == k // 2
    assert mod_distance(3, 7, 1) == 0
    with pytest.raises(InputError):
        mod_distance(1, 2, 0)


def test_mod_distance_symmetric_and_bounded() -> None:
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 30))
        a, b = int(rng.integers(-50, 50)), int(rng.integers(-50, 50))
        d = mod_distance(a, b, k)
        assert d == mod_distance(b, a, k)
        assert 0 <= d <= k // 2


def test_assign_random_deterministic_and_in_range() -> None:
    g = generate_circulant(30, [1, 2])
    c1 = assign_random(g, 6, seed=9)
    c2 = assign_random(g, 6, seed=9)
    assert c1 == c2
    c1.validate(g)
    assert assign_random(g, 6, seed=10) != c1
    forced = assign_random(g, 1, seed=0)
    assert set(forced.first) == {1} and set(forced.second) == {1}


def test_assign_random_empirical_uniformity() -> None:
    # 2n = 1e5 draws; each of the K values should land within 5 sigma of n/K... per array.
    g = Graph(50_000, [])
    k = 10
    c = assign_random(g, k, seed=123)
    total = 2 * g.n
    expect = total / k
    sigma = (total * (1 / k) * (1 - 1 / k)) ** 0.5
    counts = np.bincount(np.concatenate([np.asarray(c.first), np.asarray(c.second)]))[1:]
    assert counts.sum() == total
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_distinguish_path_example() -> None:
    # Path a-b-c with matching pairs on a, b and a fresh pair on c.
    g = Graph(3, [(0, 1), (1, 2)])
    c = VertexColoring(palette=4, first=(1, 1, 2), second=(1, 1, 3))
    sets = distinguish(g, c, REFERENCE_PROFILE, d=2)
    assert sets.uncolored.tolist() == [0, 1]
    assert members(sets.uncolored_edges) == {g.edge_id(0, 1)}
    assert members(sets.touching) == {0, 1}
    assert members(sets.special) == set()
    assert members(sets.risky) == set()
    assert members(sets.residual) == set()
    assert members(sets.residual & ~sets.special) == set()

    aud = audit(g, sets, REFERENCE_PROFILE, d=2)
    assert aud.uncolored_counts == (1, 1, 1)
    # u*d = 0.262 < 1, so every vertex violates the uncoloured bound.
    assert aud.violations == (0, 1, 2)
    assert not aud.passed


def test_distinguish_distant_colors_all_residual() -> None:
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c = VertexColoring(palette=100, first=(1, 20, 40, 60), second=(5, 25, 45, 65))
    assert closeness_bound(REFERENCE_PROFILE, 10) == 3  # floor((0.031+7)/2)
    sets = distinguish(g, c, REFERENCE_PROFILE, d=10)
    assert sets.uncolored.size == 0
    assert not (sets.touching.any() or sets.special.any() or sets.risky.any())
    assert members(sets.residual) == set(range(g.m))
    assert members(sets.residual & ~sets.special) == set(range(g.m))
    aud = audit(g, sets, REFERENCE_PROFILE, d=10)
    assert aud.passed


def test_distinguish_single_palette_collapses() -> None:
    g = generate_circulant(6, [1])
    c = assign_random(g, 1, seed=0)
    sets = distinguish(g, c, DEMO, d=2)
    assert sets.uncolored.tolist() == list(range(6))
    assert members(sets.touching) == set(range(g.m))
    assert members(sets.special) == set() and members(sets.risky) == set()


def test_special_and_risky_membership() -> None:
    #  Edges: (0,1) shares first coordinate only -> special;
    #  (1,2) coordinates differ but first distance 1 <= bound -> risky;
    #  (2,3) far apart in both -> residual.
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c = VertexColoring(palette=40, first=(7, 7, 8, 30), second=(3, 17, 9, 31))
    bound = closeness_bound(DEMO, 20)  # floor((1 + 7)/2) = 4
    assert bound == 4
    sets = distinguish(g, c, DEMO, d=20)
    assert sets.uncolored.size == 0
    assert members(sets.special) == {0}
    assert members(sets.risky) == {1}
    assert members(sets.risky & ~sets.special) == {1}
    # Special edges outside the risky band stay in the residual set; only
    # the nonspecial residual excludes them.
    assert members(sets.residual) == {0, 2}
    assert members(sets.residual & ~sets.special) == {2}


def test_special_inside_risky_band_overlap() -> None:
    # Shares second coordinate and is cyclically close in the first:
    # lands in special AND risky, hence not in risky_not_special.
    g = Graph(2, [(0, 1)])
    c = VertexColoring(palette=40, first=(7, 9), second=(3, 3))
    sets = distinguish(g, c, DEMO, d=20)
    assert members(sets.special) == {0}
    assert members(sets.risky) == {0}
    assert members(sets.risky & ~sets.special) == set()
    assert members(sets.residual) == set()
    assert members(sets.residual & ~sets.special) == set()


def _assert_partition(g: Graph, sets) -> None:
    parts = [
        members(sets.special),
        members(sets.risky & ~sets.special),
        members(sets.touching) - members(sets.uncolored_edges),
        members(sets.uncolored_edges),
        members(sets.residual & ~sets.special),
    ]
    union: set[int] = set()
    total = 0
    for part in parts:
        union |= part
        total += len(part)
    assert union == set(range(g.m))
    assert total == g.m  # pairwise disjoint


def test_partition_property_fuzz() -> None:
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(4, 26))
        d = int(rng.integers(1, min(n - 1, 8)))
        if (n * d) % 2:
            d = max(1, d - 1)
        if (n * d) % 2:
            n += 1
        g = generate_regular(n, d, seed=trial)
        k = int(rng.integers(1, 7))
        c = assign_random(g, k, seed=trial + 1000)
        sets = distinguish(g, c, DEMO, d=d)
        _assert_partition(g, sets)
        assert members(sets.special).isdisjoint(members(sets.touching))
        assert members(sets.risky).isdisjoint(members(sets.touching))
        assert members(sets.residual & ~sets.special) <= members(sets.residual)
        assert np.array_equal(sets.residual, ~sets.touching & ~sets.risky)
        # pure function: same inputs, same sets
        again = distinguish(g, c, DEMO, d=d)
        assert all(np.array_equal(getattr(again, f), v) for f, v in vars(sets).items())


def test_audit_threshold_exact_at_integer_boundary() -> None:
    # s*d = 7 exactly, but float 0.7*10 lands above 7; the strict bound must
    # still flag a vertex with seven special edges.
    g = Graph(8, [(0, i) for i in range(1, 8)])
    c = VertexColoring(
        palette=40,
        first=(1,) * 8,
        second=(3, 7, 11, 15, 19, 23, 27, 31),
    )
    prof = ConstantProfile(k=0.5, s=0.7, r=0.9, u=0.9, s1=0.3, r1=0.5, u1=0.4)
    sets = distinguish(g, c, prof, d=10)
    assert members(sets.special) == frozenset(range(7))
    aud = audit(g, sets, prof, d=10)
    assert aud.special_counts[0] == 7
    assert 0 in aud.violations
    assert not aud.passed


def test_closeness_bound_exact_at_half_integers() -> None:
    # (0.3*10 + 7)/2 is exactly 5; binary floats would floor it to 4.
    prof = ConstantProfile(k=0.5, s=0.3, r=0.9, u=0.9, s1=0.1, r1=0.5, u1=0.4)
    assert closeness_bound(prof, 10) == 5
    assert closeness_bound(REFERENCE_PROFILE, 54000) == (167 + 7) // 2


def test_audit_trivial_thresholds_always_pass() -> None:
    g = generate_circulant(10, [1, 2])
    c = assign_random(g, 3, seed=5)
    wide = ConstantProfile(k=0.5, s=0.9, r=0.9, u=0.9, s1=0.4, r1=0.4, u1=0.4)
    sets = distinguish(g, c, wide, d=g.degrees[0] + 1)
    aud = audit(g, sets, wide, d=g.degrees[0] + 1)
    assert aud.passed


def _star_counts(
    g: Graph, c: VertexColoring, profile: ConstantProfile, d: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Diagnostic supersets: same definitions without the touching restriction,
    plus the uncoloured superset counting colour repeats across the joint
    neighbourhood regardless of adjacency."""
    bound = closeness_bound(profile, d)
    kk = c.palette
    star_s = [0] * g.n
    star_r = [0] * g.n
    for u, v in g.edges:
        first_eq = c.first[u] == c.first[v]
        second_eq = c.second[u] == c.second[v]
        if first_eq or second_eq:
            star_s[u] += 1
            star_s[v] += 1
        do = mod_distance(c.first[u], c.first[v], kk)
        di = mod_distance(c.second[u], c.second[v], kk)
        if (1 <= do <= bound) or (1 <= di <= bound):
            star_r[u] += 1
            star_r[v] += 1
    pair = list(zip(c.first, c.second))
    star_u = [0] * g.n
    for v in range(g.n):
        nv = g.neighbors(v)
        for w in nv:
            others = [pair[x] for x in nv if x != w]
            others.extend(pair[x] for x in g.neighbors(w) if x != w)
            if pair[w] in others:
                star_u[v] += 1
    return tuple(star_s), tuple(star_r), tuple(star_u)


def test_audit_diagnostic_supersets_dominate() -> None:
    rng = np.random.default_rng(3)
    for trial in range(10):
        g = generate_regular(14, 4, seed=trial)
        c = assign_random(g, int(rng.integers(1, 5)), seed=trial)
        sets = distinguish(g, c, DEMO, d=4)
        aud = audit(g, sets, DEMO, d=4)
        star_s, star_r, star_u = _star_counts(g, c, DEMO, 4)
        for v in range(g.n):
            assert aud.special_counts[v] <= star_s[v]
            assert aud.risky_counts[v] <= star_r[v]
            assert aud.uncolored_counts[v] <= star_u[v]


def test_resample_empty_graph_immediate_success() -> None:
    g = Graph(5, [])
    res = resample_until_good(g, DEMO, d=0, seed=1, max_rounds=5)
    assert res.success and res.rounds == 0
    assert res.audit.passed


def test_resample_forced_failure_when_palette_one() -> None:
    # k*d < 1 forces a single colour; every vertex stays uncoloured forever.
    g = generate_circulant(8, [1])
    prof = ConstantProfile(k=0.2, s=0.3, r=0.3, u=0.2, s1=0.1, r1=0.2, u1=0.1)
    res = resample_until_good(g, prof, d=2, seed=3, max_rounds=12)
    assert not res.success
    assert res.rounds == 12
    assert res.sets.uncolored.tolist() == list(range(8))


def test_resample_success_is_sound() -> None:
    g = generate_circulant(60, [1, 2, 3])
    res = resample_until_good(g, DEMO, d=6, seed=2, max_rounds=300)
    if res.success:
        fresh = distinguish(g, res.coloring, DEMO, d=6)
        assert audit(g, fresh, DEMO, d=6).passed
    else:
        assert res.rounds == 300


def test_resample_demo_scale_flagged_return() -> None:
    # Circulant d=64 on 200 vertices with the scaled demo profile: either a
    # passing audit or an exhausted flag, and any success must re-audit clean.
    g = generate_circulant(200, list(range(1, 33)))
    res = resample_until_good(g, DEMO, d=64, seed=1, max_rounds=25)
    if res.success:
        fresh = distinguish(g, res.coloring, DEMO, d=64)
        assert audit(g, fresh, DEMO, d=64).passed
    else:
        assert res.rounds == 25
        assert not res.audit.passed


def test_resample_deterministic() -> None:
    g = generate_circulant(20, [1, 2])
    a = resample_until_good(g, DEMO, d=4, seed=7, max_rounds=20)
    b = resample_until_good(g, DEMO, d=4, seed=7, max_rounds=20)
    assert a.coloring == b.coloring and a.rounds == b.rounds


def test_resample_non_regular_warns_and_strict_rejects() -> None:
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.warns(UserWarning):
        resample_until_good(g, DEMO, d=2, seed=0, max_rounds=2)
    with pytest.raises(InputError):
        resample_until_good(g, DEMO, d=2, seed=0, max_rounds=2, strict=True)


def test_coloring_json_round_trip() -> None:
    c = VertexColoring(palette=3, first=(1, 2), second=(3, 1))
    assert VertexColoring.from_json(c.to_json()) == c
    assert c.to_json()["K"] == 3
    with pytest.raises(InputError):
        VertexColoring.from_json({"K": 3})


def test_coloring_json_rejects_non_integers() -> None:
    # int() would load these as palette 3 and colours 1 and 2.
    for data in ({"K": 3.7, "O": [1], "I": [1]}, {"K": 3, "O": [True], "I": [2.9]}):
        with pytest.raises(InputError, match="expected an integer"):
            VertexColoring.from_json(data)


def test_audit_json_shape() -> None:
    g = Graph(2, [(0, 1)])
    c = assign_random(g, 2, seed=0)
    sets = distinguish(g, c, DEMO, d=2)
    aud = audit(g, sets, DEMO, d=2)
    data = aud.to_json()
    assert set(data) >= {"special_counts", "risky_counts", "uncolored_counts", "passed"}
    assert isinstance(aud, ColoringAudit)
