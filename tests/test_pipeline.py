from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lidecomp
from lidecomp.coloring import VertexColoring, assign_random, distinguish, resample_until_good
from lidecomp.constants import (
    ConstantProfile,
    DerivedQuantities,
    REFERENCE_PROFILE,
    exact_degree_bounds,
)
from lidecomp.dcs import DcsCertificate, DcsInstance, solve as dcs_solve, verify as dcs_verify
from lidecomp.errors import BudgetError, InputError
from lidecomp.exact import is_decomposable
from lidecomp.graphs import (
    Graph,
    degree_vector,
    generate_circulant,
    generate_regular,
    is_subgraph_locally_irregular,
    read_graph,
    write_graph,
)
from lidecomp.pipeline import (
    SelectionResult,
    _peel_core_host,
    choose_selections,
    decompose_half,
    decompose_to_four,
    split_edges,
    verify_decomposition,
)
from lidecomp.rounding import FractionalEdgeWeights, balanced_round, verify_rounding
from oracles import double_cover, edge_index, edge_list, planted_coloring

DEMO = ConstantProfile(k=0.1, s=0.05, r=0.3, u=0.2, s1=0.024, r1=0.279, u1=0.09)


def members(mask: np.ndarray) -> set[int]:
    """The edge (or vertex) indices a boolean mask selects."""
    return set(np.flatnonzero(mask).tolist())


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
    assert members(sets.residual & ~sets.special) == set(range(g.m))
    split = split_edges(g, c, sets)
    assert set(split.rules) == {4}
    for v, dz in enumerate(degree_vector(g, split.labels == 0).tolist()):
        assert abs(2 * dz - g.degrees[v]) <= 2


def test_split_special_edges_deterministic() -> None:
    # Shared second coordinate -> half 0; shared first coordinate -> half 1.
    g = Graph(4, [(0, 1), (2, 3)])
    c = VertexColoring(palette=40, first=(1, 12, 25, 25), second=(5, 5, 9, 30))
    sets = distinguish(g, c, DEMO, d=20)
    assert members(sets.special) == {0, 1}
    split = split_edges(g, c, sets)
    assert split.labels[0] == 0 and split.rules[0] == 0
    assert split.labels[1] == 1 and split.rules[1] == 1


def _composite_balance_ok(g: Graph, sets, split) -> bool:
    dz = degree_vector(g, split.labels == 0)
    ds = degree_vector(g, sets.special)
    dsz = degree_vector(g, sets.special & (split.labels == 0))
    uncolored = set(sets.uncolored.tolist())
    for v in range(g.n):
        if v in uncolored:
            if abs(2 * dz[v] - g.degrees[v]) > 4:  # two rounded groups
                return False
        else:
            # three rounded groups plus the deterministic special edges
            if abs(2 * (dz[v] - dsz[v]) - (g.degrees[v] - ds[v])) > 6:
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
        split = split_edges(g, c, sets)
        assert members(split.labels == 0) | members(split.labels == 1) == set(range(g.m))
        assert members(split.labels == 0).isdisjoint(members(split.labels == 1))
        assert all(r in range(5) for r in split.rules)
        assert _composite_balance_ok(g, sets, split)
        if not sets.special.any():
            special_free_seen += 1
            for v, dz in enumerate(degree_vector(g, split.labels == 0).tolist()):
                assert abs(2 * dz - g.degrees[v]) <= 6  # |d0 - d/2| <= 3 literally
    assert special_free_seen > 0


def test_choose_selections_empty_uncolored() -> None:
    g = generate_circulant(6, [1])
    none = np.zeros(g.m, dtype=bool)
    out = choose_selections(
        g, np.zeros(0, dtype=np.int64), ~none, none, none, size_count=3
    )
    assert not out.selected.any() and out.selected.shape == (g.m,)
    assert out.conflicts.tolist() == [] and out.precondition_failures.tolist() == []


def test_choose_selections_forces_distinct_sizes() -> None:
    # Two adjacent uncoloured vertices with equal half-degrees must end up
    # with different selection sizes.
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    inside = np.arange(g.m) == edge_index(g)[0, 1]
    fringe = ~inside
    out = choose_selections(
        g,
        np.array([0, 1]),
        np.ones(g.m, dtype=bool),
        inside,
        fringe,
        size_count=3,
    )
    sizes = degree_vector(g, out.selected)
    assert sizes[0] != sizes[1]
    assert out.conflicts.tolist() == []
    assert members(out.selected) <= members(fringe)


def test_choose_selections_strict_rejects_infeasible() -> None:
    g = Graph(2, [(0, 1)])
    with pytest.raises(InputError):
        choose_selections(
            g,
            np.array([0, 1]),
            np.array([True]),
            np.array([True]),
            np.array([False]),
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
        split = split_edges(g, c, sets)
        half = split.labels == 0
        inside = sets.uncolored_edges & half
        fringe = sets.touching & half & ~inside
        out = choose_selections(
            g, sets.uncolored, half, inside, fringe, size_count=4
        )
        # Each selected edge has one uncoloured end, so the selection sizes
        # are the selected degrees at the uncoloured vertices.
        adjusted = (degree_vector(g, half) - degree_vector(g, out.selected)).tolist()
        edges = edge_list(g)
        # re-check the distinctness condition edge by edge
        expected_conflicts = {
            i for i in members(inside) if adjusted[edges[i][0]] == adjusted[edges[i][1]]
        }
        assert set(out.conflicts.tolist()) == expected_conflicts
        if not out.precondition_failures.size:
            assert not out.conflicts.size


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
    assert sets.uncolored.size == 0
    assert sets.residual.all()
    split = split_edges(g, c, sets)
    half = decompose_half(g, c, sets, split, 0, prof, m, seed=5)
    assert half.core.any(), "core solver should have produced a nonempty subgraph"
    assert np.array_equal(half.first_part, half.core)
    assert np.array_equal(half.first_part | half.second_part, split.labels == 0)
    assert not (half.first_part & half.second_part).any()
    assert half.diagnostics["core_certificate_ok"]
    assert half.diagnostics["first_part_residue_violations"] == 0
    assert half.core_excluded.tolist() == []
    # core degrees inside the middle third of the half-residual host
    host_deg = degree_vector(g, split.labels == 0)
    core_deg = degree_vector(g, half.core)
    for v in range(g.n):
        assert host_deg[v] <= 3 * core_deg[v] <= 2 * host_deg[v]


def _half_json(g, c, sets, split, h, lam, half) -> dict:
    """The half's fields as pinned, with the per-vertex selections and residue
    targets of the former dict form rebuilt from the masks."""
    risky_half = sets.risky & (split.labels == h)
    selected = half.first_part & ~half.core & ~risky_half
    # A selected edge is a fringe edge, with exactly one uncoloured end.
    edges = edge_list(g)
    selections = {v: [] for v in sets.uncolored.tolist()}
    for i in members(selected):
        selections[next(v for v in edges[i] if v in selections)].append(i)
    colored = np.ones(g.n, dtype=bool)
    colored[sets.uncolored] = False
    coord = c.first if h == 0 else c.second
    residue = (2 * coord - degree_vector(g, selected | risky_half)) % lam
    return {
        "half": h,
        "first_part": np.flatnonzero(half.first_part).tolist(),
        "second_part": np.flatnonzero(half.second_part).tolist(),
        "core": np.flatnonzero(half.core).tolist(),
        "core_excluded": half.core_excluded.tolist(),
        "selections": {str(v): sorted(e) for v, e in selections.items()},
        "residue_targets": {
            str(v): t for v, t in zip(np.flatnonzero(colored).tolist(), residue[colored].tolist())
        },
        "diagnostics": half.diagnostics,
    }


@pytest.mark.parametrize(
    "m, k, seed, digest",
    [
        (26, 0.03, 5, "3cc1d07c3b7ecabaf7fc92f3cb86f6d11485b7a64c3b2954b3c3342d52d5fbe3"),
        (52, 0.038, 7, "6a7f3f98e79f04bde8e399195d40fdd3ad849d51362c74526ad7306b49ff4c96"),
    ],
)
def test_decompose_half_core_path_pinned(m, k, seed, digest) -> None:
    # Both halves of the K_{m,m} fixtures, where DCS solves a nonempty core.
    # The hashes were recorded while stage two still ran on frozensets, and
    # K52,52's again when the DCS potential became the distance to the nearest
    # certifiable degree; the golden decompose runs with an empty core, so
    # only these pin this path.
    g = complete_bipartite(m)
    prof = ConstantProfile(k=k, s=0.003, r=0.26, u=0.13, s1=0.0015, r1=0.242, u1=0.059)
    c = far_apart_coloring(g, [(1, 1)] * m + [(20, 20)] * m, palette=40)
    sets = distinguish(g, c, prof, d=m)
    split = split_edges(g, c, sets)
    lam = DerivedQuantities.derive(prof, m).modulus
    halves = [
        _half_json(
            g, c, sets, split, h, lam, decompose_half(g, c, sets, split, h, prof, m, seed=seed)
        )
        for h in (0, 1)
    ]
    assert all(h["core"] for h in halves)
    text = json.dumps(halves, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _planted_run(n: int, d: int, palette: int, seed: int) -> tuple:
    """Stage two on the double cover of a d-regular graph, coloured by side.

    The profile's k gives the palette ``palette`` at degree d. With s*d < 1
    the closeness bound is 3, below P/2, so every edge is residual and each
    half's core host is the whole half. Returns the verifier's cover
    flag, verdicts and conflicts, and each half's peeled vertices.
    """
    g = double_cover(generate_regular(n // 2, d, seed))
    c = planted_coloring(n // 2, palette)
    prof = dataclasses.replace(REFERENCE_PROFILE, k=(palette - 0.5) / d)
    assert DerivedQuantities.derive(prof, d).palette == palette
    sets = distinguish(g, c, prof, d)
    assert not sets.special.any() and not sets.risky.any() and not sets.uncolored.size
    split = split_edges(g, c, sets)
    halves = [decompose_half(g, c, sets, split, h, prof, d, seed=seed) for h in (0, 1)]
    parts = [np.flatnonzero(p) for half in halves for p in (half.first_part, half.second_part)]
    return (*verify_decomposition(g, parts), [half.core_excluded for half in halves])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, d, palette", [(800, 256, 8), (800, 256, 10), (600, 192, 8)])
def test_planted_double_cover_decomposes(n, d, palette, seed) -> None:
    # 6 * lambda = 12P <= d/2, the host degree of each half, so DCS certifies
    # a core on the whole half and all four parts verify.
    cover_ok, verdicts, _, excluded = _planted_run(n, d, palette, seed)
    assert cover_ok and verdicts == (True,) * 4
    assert not any(ex.size for ex in excluded)


def test_planted_double_cover_peels_below_six_lambda() -> None:
    # P = 11: 6 * lambda = 132 exceeds the host degree 96, so every coloured
    # vertex is peeled, the cores are empty, and each second part is a whole
    # 96-regular half: every one of its 600 * 96 / 2 edges conflicts.
    cover_ok, verdicts, conflicts, excluded = _planted_run(600, 192, 11, 0)
    assert cover_ok and verdicts == (True, False, True, False)
    assert [c.size for c in conflicts] == [0, 28_800, 0, 28_800]
    assert [ex.size for ex in excluded] == [600, 600]


def _graph_state(g: Graph) -> dict:
    """Every attribute of ``g``; an array by its bytes, dtype, shape and writeable flag."""
    return {
        name: (value.tobytes(), value.dtype, value.shape, value.flags.writeable)
        if isinstance(value, np.ndarray)
        else value
        for name, value in vars(g).items()
    }


def _solve_dcs(g: Graph) -> DcsCertificate:
    inst = DcsInstance(g, (4,) * g.n, tuple(v % 8 for v in range(g.n)))
    return dcs_verify(inst, dcs_solve(inst, seed=2).edges)


def _arrays(obj) -> list[np.ndarray]:
    """Every array reachable from ``obj`` through attributes, sequences and dict values."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (tuple, list)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [a for item in items for a in _arrays(item)]


@pytest.mark.parametrize(
    "make, action",
    [
        (
            lambda: generate_regular(60, 8, seed=2),
            lambda g: decompose_to_four(g, DEMO, mode="best-effort", seed=1, max_rounds=5),
        ),
        (
            lambda: generate_regular(60, 8, seed=2),
            lambda g: verify_decomposition(g, (range(0, g.m, 2), range(1, g.m, 2), [0])),
        ),
        (
            lambda: generate_circulant(9, [1, 3]),
            lambda g: balanced_round(
                FractionalEdgeWeights.from_values(g, [Fraction(e % 9, 8) for e in range(g.m)])
            ),
        ),
        (
            lambda: generate_circulant(9, [1, 3]),
            lambda g: balanced_round(FractionalEdgeWeights.constant(g, Fraction(1, 2))),
        ),
        (lambda: generate_regular(60, 24, seed=3), _solve_dcs),
        (lambda: generate_circulant(9, [1, 3]), lambda g: is_decomposable(g, 2)),
    ],
    ids=["decompose", "verify", "round-general", "round-half", "dcs", "exact"],
)
def test_graph_is_not_modified_by_use(make, action) -> None:
    # A graph is immutable after construction: no stage caches anything on
    # it or writes to its arrays, so it is safe to share between threads.
    # Every array a stage returns is read-only as well.
    g = make()
    before = _graph_state(g)
    returned = _arrays(action(g))
    assert _graph_state(g) == before
    arrays = [value for value in vars(g).values() if isinstance(value, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert not any(a.flags.writeable for a in returned)


def test_decompose_half_reports_core_budget_failure(monkeypatch) -> None:
    # Best effort keeps an empty core and flags it; strict mode still raises.
    m = 26
    g = complete_bipartite(m)
    prof = ConstantProfile(k=0.03, s=0.003, r=0.26, u=0.13, s1=0.0015, r1=0.242, u1=0.059)
    c = far_apart_coloring(g, [(1, 1)] * m + [(20, 20)] * m, palette=40)
    sets = distinguish(g, c, prof, d=m)
    split = split_edges(g, c, sets)

    def exhausted(*args, **kwargs):
        raise BudgetError("no certified subgraph after 50 restarts")

    monkeypatch.setattr("lidecomp.pipeline.dcs_solve", exhausted)
    half = decompose_half(g, c, sets, split, 0, prof, m, seed=5)
    assert not half.core.any()
    assert half.diagnostics["core_certificate_ok"] is False
    assert not half.first_part.any()
    assert np.array_equal(half.second_part, split.labels == 0)
    with pytest.raises(BudgetError):
        decompose_half(g, c, sets, split, 0, prof, m, seed=5, strict=True)


def _run_optimized(code: str) -> str:
    """Run ``code`` under ``python -O`` (assert statements stripped); return stdout."""
    src = str(Path(lidecomp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_split_contract_check_survives_optimize_flag() -> None:
    # A "special" edge agreeing in both coordinates breaks the rule contract;
    # the check must fire even when python -O strips assert statements.
    code = """
import numpy as np
from lidecomp.coloring import DistinguishedSets, VertexColoring
from lidecomp.graphs import Graph
from lidecomp.pipeline import split_edges

assert False, "assert statements are live"
empty = np.zeros(1, dtype=bool)
sets = DistinguishedSets(
    uncolored=np.zeros(0, dtype=np.int64), uncolored_edges=empty, touching=empty,
    special=~empty, risky=empty, residual=empty,
)
try:
    split_edges(Graph(2, [(0, 1)]), VertexColoring(3, (1, 1), (2, 2)), sets)
except AssertionError as exc:
    print("raised:", exc)
"""
    assert _run_optimized(code) == "raised: special edge must agree in exactly one coordinate"


def test_split_stops_unbalanced_group_under_optimize_flag() -> None:
    # The rounding's window check is the only per-group balance check in the
    # split; with every bit 0 each vertex lands its whole group degree in
    # half 0, and the check must fire when python -O strips assert statements.
    code = """
import lidecomp.rounding as rounding
from lidecomp.coloring import assign_random, distinguish
from lidecomp.constants import REFERENCE_PROFILE
from lidecomp.errors import BudgetError
from lidecomp.graphs import generate_regular
from lidecomp.pipeline import split_edges

assert False, "assert statements are live"
rounding._round_half_euler = lambda n, eu, ev: (eu * 0).astype("uint8")
g = generate_regular(20, 6, seed=1)
c = assign_random(g, 3, seed=1)
try:
    split_edges(g, c, distinguish(g, c, REFERENCE_PROFILE, d=6))
except BudgetError as exc:
    print("raised:", exc)
"""
    assert _run_optimized(code).startswith("raised: rounding violated its window at vertices")


def test_rounding_contract_check_survives_optimize_flag() -> None:
    # A closed walk of odd length (a triangle) cannot preserve every vertex
    # sum; the general rounding engine must refuse it under python -O too.
    code = """
import numpy as np
from lidecomp.graphs import Graph
from lidecomp.rounding import _State

assert False, "assert statements are live"
weights = {e: 1 for e in range(3)}  # 1/3 each
state = _State(Graph(3, [(0, 1), (0, 2), (1, 2)]), 3, weights, np.zeros(3, dtype=np.uint8))
try:
    state.apply_shift([0, 2, 1], closed=True)
except AssertionError as exc:
    print("raised:", exc)
"""
    assert _run_optimized(code) == "raised: closed walk must have even length"


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
    assert sets.residual.all()
    split = split_edges(g, c, sets)
    for half_idx in (0, 1):
        half = decompose_half(g, c, sets, split, half_idx, prof, m, seed=7)
        assert half.core.any() and np.array_equal(half.first_part, half.core)
        assert half.core_excluded.tolist() == []
        assert half.diagnostics["first_part_residue_violations"] == 0
        assert is_subgraph_locally_irregular(g, np.flatnonzero(half.first_part))


def test_decompose_half_degenerate_all_uncolored() -> None:
    g = generate_circulant(12, [1, 2])
    c = assign_random(g, 1, seed=0)  # single colour: everyone uncoloured
    sets = distinguish(g, c, DEMO, d=4)
    assert sets.uncolored.tolist() == list(range(12))
    split = split_edges(g, c, sets)
    half = decompose_half(g, c, sets, split, 0, DEMO, 4, seed=3)
    assert not half.core.any()
    assert not half.first_part.any()  # no fringe edges to select from
    assert np.array_equal(half.second_part, split.labels == 0)


#: The profile of the K_{m,m} core-path fixtures; k does not enter the windows.
KMM = ConstantProfile(k=0.03, s=0.003, r=0.26, u=0.13, s1=0.0015, r1=0.242, u1=0.059)


@pytest.mark.parametrize("prof", [DEMO, REFERENCE_PROFILE, KMM], ids=["demo", "reference", "kmm"])
def test_report_cuts_match_float_thresholds(prof) -> None:
    # decompose_half counts integer degrees outside exact integer cuts. Each
    # pair holds a reference predicate, the float threshold expression it
    # replaced, and the cut; both must flag the same degrees x = 0..d.
    s, u = prof.s, prof.u
    for d in range(13, 5001):
        derived = DerivedQuantities.derive(prof, d)
        bounds = exact_degree_bounds(prof, d)
        low, high = bounds.colored_half
        d1 = float(derived.separation)
        bound29 = d / 3 + s * d / 3 + u * d / 6 + 7 / 3
        x = np.arange(d + 1)
        pairs = (
            (~((d / 2 - 2 <= x) & (x <= d / 2 + 2)), np.abs(2 * x - d) > 4),
            (
                ~(((d - s * d) / 2 - 3 < x) & (x < (d + s * d) / 2 + 3)),
                (x <= math.floor(low)) | (x >= math.ceil(high)),
            ),
            (~(x < u * d / 2 + 1), x >= math.ceil(bounds.inside_cap)),
            (~(x > (d - u * d) / 2 - 1), x <= math.floor(bounds.fringe_floor)),
            (~(x > d1), x <= math.floor(derived.separation)),
            (~(x < d1), x >= derived.size_count),
            (~(x > bound29), x <= math.floor(bounds.second_part)),
            (~(x < bound29), x >= math.ceil(bounds.second_part)),
        )
        for row, (floats, cut) in enumerate(pairs):
            assert np.array_equal(floats, cut), (d, row)
        assert 6 * derived.modulus == max(12, 6 * derived.modulus)


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
    assert all(p.size == 0 for p in res.decomposition.parts)


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


def reference_verify(g: Graph, parts) -> tuple:
    """Exact cover and per-part conflicts on each part's set of distinct edges."""
    union = set().union(*map(set, parts))
    cover_ok = union == set(range(g.m)) and sum(map(len, parts)) == g.m
    edges = edge_list(g)
    conflicts = []
    for part in parts:
        distinct = sorted(set(part))
        deg: dict[int, int] = {}
        for i in distinct:
            for w in edges[i]:
                deg[w] = deg.get(w, 0) + 1
        conflicts.append([i for i in distinct if deg[edges[i][0]] == deg[edges[i][1]]])
    return cover_ok, tuple(not c for c in conflicts), conflicts


def test_verify_decomposition_cover_matches_set_reference() -> None:
    # Exact cover means: the parts' union is every edge and their sizes sum to m.
    # Verdicts and conflicts are taken on each part's distinct edges; each
    # part's conflicts are an ascending int64 array.
    def checked(result: tuple) -> tuple:
        cover_ok, verdicts, conflicts = result
        for c in conflicts:
            assert c.dtype == np.int64 and (np.diff(c) > 0).all()
        return cover_ok, verdicts, [c.tolist() for c in conflicts]

    rng = np.random.default_rng(3)
    for g in (Graph(5, [(0, i) for i in range(1, 5)] + [(1, 2)]), generate_circulant(8, [1, 2])):
        for trial in range(300):
            count = int(rng.integers(0, 5))
            if trial % 3 == 0:  # subsets, often overlapping
                parts = [np.flatnonzero(rng.random(g.m) < 0.4).tolist() for _ in range(count)]
            elif trial % 3 == 1:  # a partition, some parts empty, one edge maybe repeated
                labels = rng.integers(0, max(count, 1), size=g.m)
                parts = [np.flatnonzero(labels == p).tolist() for p in range(count)]
                if parts and rng.random() < 0.5:
                    parts[0] = parts[0] + parts[0][:1]
            else:  # unsorted index lists that repeat edges
                parts = [
                    rng.integers(0, g.m, size=int(rng.integers(0, 2 * g.m))).tolist()
                    for _ in range(count)
                ]
            expected = reference_verify(g, parts)
            assert checked(verify_decomposition(g, tuple(parts))) == expected
            arrays = tuple(np.asarray(p, dtype=np.int64) for p in parts)
            assert checked(verify_decomposition(g, arrays)) == expected
    g = Graph(5, [(0, i) for i in range(1, 5)] + [(1, 2)])
    assert not verify_decomposition(g, (frozenset({0, 1, 2}), frozenset({0, 1})))[0]
    # P4 with edge 0 twice: the set {0, 1, 2} has conflict edge 1. P3: edge 1 once.
    p4, p3 = Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(3, [(0, 1), (1, 2)])
    assert checked(verify_decomposition(p4, ([0, 0, 1, 2],))) == (False, (False,), [[1]])
    assert checked(verify_decomposition(p3, ([1, 1], [0]))) == (
        False,
        (False, False),
        [[1], [0]],
    )


def test_decompose_to_four_deterministic() -> None:
    g = generate_circulant(24, [1, 2, 3])
    a = decompose_to_four(g, DEMO, mode="best-effort", seed=11, max_rounds=20)
    b = decompose_to_four(g, DEMO, mode="best-effort", seed=11, max_rounds=20)
    first, second = a.decomposition.to_json(), b.decomposition.to_json()
    assert first["verdicts"] == second["verdicts"]
    assert len(first["parts"]) == len(second["parts"]) == 4
    assert all(map(np.array_equal, first["parts"], second["parts"]))
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


def reference_peel(
    g: Graph, vertices: set[int], edges: frozenset[int], min_degree: int
) -> tuple[set[int], frozenset[int]]:
    """Fixed-point peel: sweep the survivors until none is below ``min_degree``."""
    alive = set(vertices)
    pairs = edge_list(g)
    active = {i for i in edges if set(pairs[i]) <= alive}
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if sum(v in pairs[i] for i in active) < min_degree:
                alive.discard(v)
                active = {i for i in active if v not in pairs[i]}
                changed = True
    return alive, frozenset(active)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 14), st.floats(0.0, 1.0), st.randoms(use_true_random=False), st.integers(0, 7))
def test_peel_core_host_matches_fixed_point(n, density, rnd, min_degree) -> None:
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density])
    vertices = {v for v in range(n) if rnd.random() < 0.8}
    edges = frozenset(i for i in range(g.m) if rnd.random() < 0.8)
    alive, host = _peel_core_host(
        g, np.isin(np.arange(n), list(vertices)), np.isin(np.arange(g.m), list(edges)), min_degree
    )
    assert (members(alive), frozenset(members(host))) == reference_peel(
        g, vertices, edges, min_degree
    )


def reference_choose_selections(
    g: Graph,
    uncolored: frozenset[int],
    half_edges: frozenset[int],
    inside_half: frozenset[int],
    fringe_half: frozenset[int],
    size_count: int,
    strict: bool = False,
) -> SelectionResult:
    """The greedy selection on frozensets and dicts, as written before the mask version.

    The per-vertex selections become the selected-edge mask at the end.
    """
    edges = edge_list(g)
    deg_half = [0] * g.n
    for i in half_edges:
        for v in edges[i]:
            deg_half[v] += 1
    fringe_at: dict[int, list[int]] = {v: [] for v in uncolored}
    inside_neighbors: dict[int, list[int]] = {v: [] for v in uncolored}
    for i in sorted(fringe_half):
        for v in edges[i]:
            if v in fringe_at:
                fringe_at[v].append(i)
    for i in inside_half:
        u, v = edges[i]
        inside_neighbors[u].append(v)
        inside_neighbors[v].append(u)

    failures = []
    for v in sorted(uncolored):
        if len(fringe_at[v]) < size_count - 1 or len(inside_neighbors[v]) >= size_count:
            failures.append(v)
    if failures and strict:
        raise InputError(
            f"selection feasibility fails at vertices {failures[:10]} "
            f"(need {size_count - 1} fringe edges and < {size_count} inside edges)"
        )

    selections: dict[int, tuple[int, ...]] = {}
    sizes: dict[int, int] = {}
    for v in sorted(uncolored):
        forbidden = {
            deg_half[v] - (deg_half[w] - sizes[w])
            for w in inside_neighbors[v]
            if w in sizes
        }
        avail = len(fringe_at[v])
        size = None
        for cand in range(0, min(size_count, avail + 1)):
            if cand not in forbidden:
                size = cand
                break
        if size is None:
            if strict:
                raise InputError(f"no admissible selection size at vertex {v}")
            size = next((c for c in range(0, avail + 1) if c not in forbidden), 0)
        selections[v] = tuple(fringe_at[v][:size])
        sizes[v] = size

    conflicts = sorted(
        i
        for i in inside_half
        if (
            deg_half[edges[i][0]] - sizes[edges[i][0]]
            == deg_half[edges[i][1]] - sizes[edges[i][1]]
        )
    )
    selected = np.zeros(g.m, dtype=bool)
    selected[[i for chosen in selections.values() for i in chosen]] = True
    inside_degrees, fringe_degrees = [0] * g.n, [0] * g.n
    for v in uncolored:
        inside_degrees[v] = len(inside_neighbors[v])
        fringe_degrees[v] = len(fringe_at[v])
    return SelectionResult(
        selected=selected,
        precondition_failures=np.asarray(failures, dtype=np.int64),
        conflicts=np.asarray(conflicts, dtype=np.int64),
        half_degrees=np.asarray(deg_half, dtype=np.int64),
        inside_degrees=np.asarray(inside_degrees, dtype=np.int64),
        fringe_degrees=np.asarray(fringe_degrees, dtype=np.int64),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(2, 40),
    st.integers(1, 5),
    st.integers(0, 2**16),
    st.integers(0, 1),
    st.integers(1, 6),
    st.booleans(),
)
def test_choose_selections_matches_reference(d, n, palette, seed, half, size_count, strict) -> None:
    n = max(n, d + 1)
    n += (n * d) % 2
    g = generate_regular(n, d, seed=seed)
    c = assign_random(g, palette, seed=seed)
    sets = distinguish(g, c, DEMO, d=d)
    half_edges = split_edges(g, c, sets).labels == half
    inside = sets.uncolored_edges & half_edges
    fringe = sets.touching & half_edges & ~inside

    def run(fn, *args):
        try:
            return fn(g, *args, size_count, strict=strict)
        except InputError as exc:
            return str(exc)

    got = run(choose_selections, sets.uncolored, half_edges, inside, fringe)
    expected = run(
        reference_choose_selections,
        frozenset(sets.uncolored.tolist()),
        frozenset(members(half_edges)),
        frozenset(members(inside)),
        frozenset(members(fringe)),
    )
    if isinstance(got, str) or isinstance(expected, str):
        assert got == expected
        return
    for field in dataclasses.fields(SelectionResult):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def test_array_dataclasses_compare_by_identity() -> None:
    # The generated == compared array fields and raised ValueError; these
    # results now compare by identity, so == answers instead of raising.
    g = generate_regular(40, 8, seed=2)
    resampled = resample_until_good(g, DEMO, 8, seed=1, max_rounds=3)
    sets = resampled.sets
    split = split_edges(g, resampled.coloring, sets)
    half = decompose_half(g, resampled.coloring, sets, split, 0, DEMO, 8, seed=1)
    decomposition = decompose_to_four(g, DEMO, mode="best-effort", max_rounds=3).decomposition
    half_edges = split.labels == 0
    inside = sets.uncolored_edges & half_edges
    fringe = sets.touching & half_edges & ~inside
    selection = choose_selections(g, sets.uncolored, half_edges, inside, fringe, 3)
    weights = FractionalEdgeWeights.constant(g, Fraction(1, 2))
    labels = balanced_round(weights)
    vectors = (resampled.coloring, resampled.audit, weights, labels, verify_rounding(weights, labels))
    for obj in (sets, resampled, split, selection, half, decomposition, *vectors):
        twin = dataclasses.replace(obj)
        assert obj == obj
        assert not obj == twin
        assert obj != twin


def test_slot_edges_built_by_dcs_only(monkeypatch) -> None:
    # Only DCS needs a slot's edge id. The desk-scale pipeline peels its core
    # host empty, so it never solves DCS and must never build the map; a DCS
    # solve builds it once. Building slot_edges in the constructor again
    # fails the first check.
    built: list[int] = []
    build = Graph.slot_edges.fget

    def spy(g: Graph) -> np.ndarray:
        built.append(g.m)
        return build(g)

    solves: list[int] = []
    solve = lidecomp.pipeline.dcs_solve

    def spy_solve(inst, **kwargs):
        solves.append(inst.graph.m)
        return solve(inst, **kwargs)

    monkeypatch.setattr(Graph, "slot_edges", property(spy))
    monkeypatch.setattr(lidecomp.pipeline, "dcs_solve", spy_solve)
    g = generate_regular(300, 24, seed=1)
    decompose_to_four(g, DEMO, mode="best-effort", seed=1, max_rounds=5)
    assert solves == [] and built == []
    h = generate_regular(60, 24, seed=3)
    _solve_dcs(h)
    assert built == [h.m]


def _traced_peak(action) -> int:
    """Peak traced bytes above the level at entry while ``action()`` runs.

    Tracing is started and stopped here only if it was off; a run already
    tracing keeps tracing (its recorded peak restarts at the call).
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_decompose_and_read_peak_memory_stay_within_budget(tmp_path) -> None:
    # Bounds in bytes per edge, about 15% above what a (1000, 64) run gives
    # with the lazily built slot_edges, narrow per-edge temporaries and the
    # walk's state freed after its splices: 56.2 for the pipeline, 51.5 for
    # split_edges and 40.8 for reading (the graph included). With slot_edges
    # built eagerly, int64 rule-group copies, int64 token offsets and the
    # read path's copies alive together they were 75.3, 71.3 and 81.6.
    g = generate_regular(1000, 64, seed=1)
    path = tmp_path / "graph.txt"
    write_graph(g, path)

    def run() -> None:
        decompose_to_four(g, DEMO, mode="best-effort", seed=1, max_rounds=5)

    run()  # the first call also imports what numpy loads lazily
    resampled = resample_until_good(g, DEMO, 64, seed=1, max_rounds=5)
    assert _traced_peak(run) <= 64.6 * g.m
    assert _traced_peak(lambda: split_edges(g, resampled.coloring, resampled.sets)) <= 59.2 * g.m
    assert _traced_peak(lambda: read_graph(path)) <= 46.9 * g.m
