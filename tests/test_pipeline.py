from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lidecomp
from lidecomp.coloring import VertexColoring, assign_random, distinguish
from lidecomp.constants import ConstantProfile, DerivedQuantities, REFERENCE_PROFILE
from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import (
    Graph,
    generate_circulant,
    generate_regular,
    is_subgraph_locally_irregular,
    subgraph_degrees,
)
from lidecomp.pipeline import (
    choose_selections,
    decompose_half,
    decompose_to_four,
    split_edges,
    verify_decomposition,
)

DEMO = ConstantProfile(k=0.1, s=0.05, r=0.3, u=0.2, s1=0.024, r1=0.279, u1=0.09)


def complete_bipartite(m: int) -> Graph:
    return Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


def far_apart_coloring(g: Graph, values: list[tuple[int, int]], palette: int) -> VertexColoring:
    return VertexColoring(palette, tuple(v[0] for v in values), tuple(v[1] for v in values))


def test_split_single_group_when_no_distinguished_edges() -> None:
    # Distinct, far-apart colours: everything lands in the plain-residual rule
    # and one rounding call balances the whole graph.
    g = generate_circulant(10, [1, 2])
    colors = [(1 + 7 * i, 1 + 7 * i) for i in range(10)]
    c = far_apart_coloring(g, colors, palette=100)
    sets = distinguish(g, c, REFERENCE_PROFILE, d=4)
    assert sets.residual_nonspecial == frozenset(range(g.m))
    split = split_edges(g, c, sets, seed=0)
    assert set(split.rules) == {4}
    for v, dz in enumerate(subgraph_degrees(g, split.halves[0])):
        assert abs(2 * dz - g.degree(v)) <= 2


def test_split_special_edges_deterministic() -> None:
    # Shared second coordinate -> half 0; shared first coordinate -> half 1.
    g = Graph(4, [(0, 1), (2, 3)])
    c = VertexColoring(palette=40, first=(1, 12, 25, 25), second=(5, 5, 9, 30))
    sets = distinguish(g, c, DEMO, d=20)
    assert sets.special == {0, 1}
    split = split_edges(g, c, sets, seed=3)
    assert split.labels[0] == 0 and split.rules[0] == 0
    assert split.labels[1] == 1 and split.rules[1] == 1


def _composite_balance_ok(g: Graph, sets, split) -> bool:
    dz = subgraph_degrees(g, split.halves[0])
    ds = subgraph_degrees(g, sets.special)
    special_zero = frozenset(i for i in sets.special if split.labels[i] == 0)
    dsz = subgraph_degrees(g, special_zero)
    for v in range(g.n):
        if v in sets.uncolored:
            if abs(2 * dz[v] - g.degree(v)) > 4:  # two rounded groups
                return False
        else:
            # three rounded groups plus the deterministic special edges
            if abs(2 * (dz[v] - dsz[v]) - (g.degree(v) - ds[v])) > 6:
                return False
    return True


def test_split_fuzz_balance_and_rule_partition() -> None:
    rng = np.random.default_rng(0)
    special_free_seen = 0
    for trial in range(30):
        n = int(rng.integers(8, 30))
        d = int(rng.integers(2, 7))
        if (n * d) % 2:
            n += 1
        g = generate_regular(n, d, seed=trial)
        c = assign_random(g, int(rng.integers(1, 8)), seed=trial)
        sets = distinguish(g, c, DEMO, d=d)
        split = split_edges(g, c, sets, seed=trial)
        assert all(split.balance_ok)
        assert split.halves[0] | split.halves[1] == frozenset(range(g.m))
        assert split.halves[0].isdisjoint(split.halves[1])
        assert all(r in range(5) for r in split.rules)
        assert _composite_balance_ok(g, sets, split)
        if not sets.special:
            special_free_seen += 1
            for v, dz in enumerate(subgraph_degrees(g, split.halves[0])):
                assert abs(2 * dz - g.degree(v)) <= 6  # |d0 - d/2| <= 3 literally
    assert special_free_seen > 0


def test_choose_selections_empty_uncolored() -> None:
    g = generate_circulant(6, [1])
    out = choose_selections(
        g, frozenset(), frozenset(range(g.m)), frozenset(), frozenset(), size_count=3
    )
    assert out.selections == {} and out.conflicts == ()


def test_choose_selections_forces_distinct_sizes() -> None:
    # Two adjacent uncoloured vertices with equal half-degrees must end up
    # with different selection sizes.
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    inside = frozenset({g.edge_id(0, 1)})
    fringe = frozenset(range(g.m)) - inside
    out = choose_selections(
        g,
        frozenset({0, 1}),
        frozenset(range(g.m)),
        inside,
        fringe,
        size_count=3,
    )
    assert out.sizes[0] != out.sizes[1]
    assert out.conflicts == ()
    assert out.selections[0] == tuple(sorted(out.selections[0]))
    assert set(out.selections[1]) <= fringe


def test_choose_selections_strict_rejects_infeasible() -> None:
    g = Graph(2, [(0, 1)])
    with pytest.raises(InputError):
        choose_selections(
            g,
            frozenset({0, 1}),
            frozenset({0}),
            frozenset({0}),
            frozenset(),
            size_count=1,
            strict=True,
        )


def test_choose_selections_fuzz_postcondition() -> None:
    rng = np.random.default_rng(4)
    for trial in range(25):
        n = int(rng.integers(10, 24))
        d = int(rng.integers(3, 7))
        if (n * d) % 2:
            n += 1
        g = generate_regular(n, d, seed=200 + trial)
        c = assign_random(g, 2, seed=trial)
        sets = distinguish(g, c, DEMO, d=d)
        split = split_edges(g, c, sets, seed=trial)
        restricted = split.restrict(sets, 0)
        inside = restricted["uncolored_edges"]
        fringe = restricted["touching"] - inside
        out = choose_selections(
            g, sets.uncolored, split.halves[0], inside, fringe, size_count=4
        )
        deg_half = subgraph_degrees(g, split.halves[0])
        # re-check the distinctness condition edge by edge
        expected_conflicts = {
            i
            for i in inside
            if deg_half[g.edges[i][0]] - out.sizes[g.edges[i][0]]
            == deg_half[g.edges[i][1]] - out.sizes[g.edges[i][1]]
        }
        assert set(out.conflicts) == expected_conflicts
        if not out.precondition_failures:
            assert not out.conflicts


def test_decompose_half_with_core_subgraph() -> None:
    # Bipartite host with two far-apart colours: no uncoloured, special or
    # risky edges, so each half's first part is exactly the solved core.
    m = 26
    g = complete_bipartite(m)
    prof = ConstantProfile(k=0.03, s=0.003, r=0.26, u=0.13, s1=0.0015, r1=0.242, u1=0.059)
    derived = DerivedQuantities.derive(prof, m)
    assert derived.palette == 1 and derived.modulus == 2
    colors = [(1, 1)] * m + [(20, 20)] * m
    c = far_apart_coloring(g, colors, palette=40)
    sets = distinguish(g, c, prof, d=m)
    assert sets.uncolored == frozenset()
    assert sets.residual == frozenset(range(g.m))
    split = split_edges(g, c, sets, seed=1)
    half = decompose_half(g, c, sets, split, 0, prof, m, seed=5)
    assert half.core, "core solver should have produced a nonempty subgraph"
    assert half.first_part == half.core
    assert half.first_part | half.second_part == split.halves[0]
    assert half.first_part.isdisjoint(half.second_part)
    assert half.diagnostics["core_certificate_ok"]
    assert half.diagnostics["first_part_residue_violations"] == 0
    assert half.core_excluded == ()
    # core degrees inside the middle third of the half-residual host
    host_deg = subgraph_degrees(g, split.halves[0])
    core_deg = subgraph_degrees(g, half.core)
    for v in range(g.n):
        assert host_deg[v] <= 3 * core_deg[v] <= 2 * host_deg[v]


def test_decompose_half_reports_core_budget_failure(monkeypatch) -> None:
    # Best effort keeps an empty core and flags it; strict mode still raises.
    m = 26
    g = complete_bipartite(m)
    prof = ConstantProfile(k=0.03, s=0.003, r=0.26, u=0.13, s1=0.0015, r1=0.242, u1=0.059)
    c = far_apart_coloring(g, [(1, 1)] * m + [(20, 20)] * m, palette=40)
    sets = distinguish(g, c, prof, d=m)
    split = split_edges(g, c, sets, seed=1)

    def exhausted(*args, **kwargs):
        raise BudgetError("no certified subgraph after 50 restarts")

    monkeypatch.setattr("lidecomp.pipeline.dcs_solve", exhausted)
    half = decompose_half(g, c, sets, split, 0, prof, m, seed=5)
    assert half.core == frozenset()
    assert half.diagnostics["core_certificate_ok"] is False
    assert half.first_part == frozenset()
    assert half.second_part == split.halves[0]
    with pytest.raises(BudgetError):
        decompose_half(g, c, sets, split, 0, prof, m, seed=5, strict=True)


def test_split_contract_check_survives_optimize_flag() -> None:
    # A "special" edge agreeing in both coordinates breaks the rule contract;
    # the check must fire even when python -O strips assert statements.
    code = """
import sys
from lidecomp.coloring import DistinguishedSets, VertexColoring
from lidecomp.graphs import Graph
from lidecomp.pipeline import split_edges

assert False, "assert statements are live"
empty = frozenset()
sets = DistinguishedSets(
    uncolored=empty, uncolored_edges=empty, touching=empty, special=frozenset({0}),
    risky=empty, risky_not_special=empty, residual=empty, residual_nonspecial=empty,
)
try:
    split_edges(Graph(2, [(0, 1)]), VertexColoring(3, (1, 1), (2, 2)), sets, seed=0)
except AssertionError as exc:
    print("raised:", exc)
"""
    src = str(Path(lidecomp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised: special edge must agree in exactly one coordinate"


def test_decompose_half_residues_make_first_part_irregular() -> None:
    # Modulus 4 with side colours 1 and 20: first-part degrees land in the
    # residue classes {2,3} respectively {0,1} mod 4, so every first-part
    # edge (always side to side) joins distinct degrees by construction.
    m = 52
    g = complete_bipartite(m)
    prof = ConstantProfile(
        k=0.038, s=0.003, r=0.26, u=0.13, s1=0.0015, r1=0.242, u1=0.059
    )
    derived = DerivedQuantities.derive(prof, m)
    assert derived.palette == 2 and derived.modulus == 4
    colors = [(1, 1)] * m + [(20, 20)] * m
    c = far_apart_coloring(g, colors, palette=40)
    sets = distinguish(g, c, prof, d=m)
    assert sets.residual == frozenset(range(g.m))
    split = split_edges(g, c, sets, seed=9)
    for half_idx in (0, 1):
        half = decompose_half(g, c, sets, split, half_idx, prof, m, seed=7)
        assert half.core and half.first_part == half.core
        assert half.core_excluded == ()
        assert half.diagnostics["first_part_residue_violations"] == 0
        assert is_subgraph_locally_irregular(g, half.first_part)


def test_decompose_half_degenerate_all_uncolored() -> None:
    g = generate_circulant(12, [1, 2])
    c = assign_random(g, 1, seed=0)  # single colour: everyone uncoloured
    sets = distinguish(g, c, DEMO, d=4)
    assert sets.uncolored == frozenset(range(12))
    split = split_edges(g, c, sets, seed=2)
    half = decompose_half(g, c, sets, split, 0, DEMO, 4, seed=3)
    assert half.core == frozenset()
    assert half.first_part == frozenset()  # no fringe edges to select from
    assert half.second_part == split.halves[0]


def test_decompose_to_four_rejects_bad_inputs() -> None:
    non_regular = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        decompose_to_four(non_regular, DEMO, mode="best-effort")
    c4 = generate_circulant(4, [1])
    with pytest.raises(InputError):
        decompose_to_four(c4, REFERENCE_PROFILE, mode="strict")
    with pytest.raises(InputError):
        decompose_to_four(c4, DEMO, mode="fast")


def test_decompose_to_four_trivial_on_edgeless() -> None:
    g = Graph(6, [])
    res = decompose_to_four(g, DEMO, mode="strict", seed=1)
    assert res.success
    assert all(p == frozenset() for p in res.decomposition.parts)


def test_decompose_to_four_invariants_best_effort() -> None:
    for seed in range(6):
        g = generate_circulant(30, [1, 2, 3, 4])
        res = decompose_to_four(g, DEMO, mode="best-effort", seed=seed, max_rounds=30)
        parts = res.decomposition.parts
        assert len(parts) == 4
        cover_ok, verdicts, conflicts = verify_decomposition(g, parts)
        assert cover_ok
        assert verdicts == res.decomposition.verdicts
        assert res.success == all(verdicts)
        for verdict, conf in zip(verdicts, conflicts):
            assert verdict == (len(conf) == 0)
        assert res.report["conflict_counts"] == [len(c) for c in conflicts]
        assert sum(res.report["split"]["rule_counts"]) == g.m


def test_decompose_to_four_deterministic() -> None:
    g = generate_circulant(24, [1, 2, 3])
    a = decompose_to_four(g, DEMO, mode="best-effort", seed=11, max_rounds=20)
    b = decompose_to_four(g, DEMO, mode="best-effort", seed=11, max_rounds=20)
    assert a.decomposition == b.decomposition
    assert a.report == b.report


def test_degenerate_conflicts_match_selection_diagnostics() -> None:
    # Palette 1 keeps every vertex uncoloured: the second parts equal the
    # halves and their conflicts are exactly the recorded selection conflicts.
    g = generate_circulant(14, [1, 2])
    prof = ConstantProfile(k=0.2, s=0.05, r=0.3, u=0.9, s1=0.024, r1=0.279, u1=0.45)
    res = decompose_to_four(g, prof, mode="best-effort", seed=4, max_rounds=3)
    assert res.report["palette"] == 1
    for half in (0, 1):
        diag = res.report["halves"][half]
        part_conflicts = res.report["conflicts"][2 * half + 1]
        assert diag["selection_conflicts"] == part_conflicts


def test_success_flag_soundness_fuzz() -> None:
    # Whatever the verdicts, a reported success must survive re-verification.
    rng = np.random.default_rng(77)
    successes = 0
    for trial in range(25):
        d = int(rng.choice([3, 4]))
        n = int(rng.integers(6, 12))
        if (n * d) % 2:
            n += 1
        g = generate_regular(n, d, seed=trial)
        prof = ConstantProfile(k=0.45, s=0.2, r=0.3, u=0.4, s1=0.1, r1=0.2, u1=0.2)
        res = decompose_to_four(g, prof, mode="best-effort", seed=trial, max_rounds=15)
        cover_ok, verdicts, _ = verify_decomposition(g, res.decomposition.parts)
        assert cover_ok
        if res.success:
            successes += 1
            assert all(verdicts)
    # success is luck at this scale; the loop only checks soundness
    assert successes >= 0
