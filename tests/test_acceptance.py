"""Acceptance suite: one test per criterion, each printing its verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; every criterion asserts its stated tolerances and runtime
budget.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

from lidecomp.cli import main
from lidecomp.constants import (
    ConstantProfile,
    REFERENCE_PROFILE,
    bound_functions,
    check_profile,
    min_feasible_d,
    monotonicity_thresholds,
)
from lidecomp.dcs import DcsInstance, solve as dcs_solve, verify as dcs_verify
from lidecomp.errors import BudgetError
from lidecomp.exact import is_decomposable
from lidecomp.graphs import (
    Graph,
    generate_circulant,
    generate_regular,
    is_subgraph_locally_irregular,
)
from lidecomp.pipeline import decompose_to_four, verify_decomposition
from lidecomp.rounding import FractionalEdgeWeights, balanced_round, verify_rounding
from oracles import exhaustive_solve

DEMO = ConstantProfile(k=0.1, s=0.05, r=0.3, u=0.2, s1=0.024, r1=0.279, u1=0.09)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_constants_reproduction(capsys) -> None:
    start = time.perf_counter()
    code = main(["constants", "check", "--d", "54000", "--out", "/dev/null"])
    fs, fr, fu = bound_functions(REFERENCE_PROFILE, 54000)
    ts, tr, tu = monotonicity_thresholds(REFERENCE_PROFILE)
    special_mean = 2 / REFERENCE_PROFILE.k
    q_exact = Fraction("0.0031") / Fraction("0.025") + Fraction(7) / (Fraction("0.025") * 54000)
    q = REFERENCE_PROFILE.s / REFERENCE_PROFILE.k + 7 / (REFERENCE_PROFILE.k * 54000)
    mean = 2 * q - q * q
    elapsed = time.perf_counter() - start
    ok = (
        code == 0
        and fs < 0.1
        and fr < 0.1
        and fu < 0.11
        and ts < 4613
        and tr < 4592
        and tu < 4630
        and abs(special_mean - 80.0) <= 1e-9 * 80.0
        and abs(q - float(q_exact)) <= 1e-9 * float(q_exact)
        and q < 0.1292
        and abs(mean - float(2 * q_exact - q_exact**2)) <= 1e-9
        and mean < 0.242
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(
            "1 constants-reproduction",
            ok,
            f"check exit={code}, f=({fs:.4f},{fr:.4f},{fu:.4f}), "
            f"thresholds=({ts:.1f},{tr:.1f},{tu:.1f}), q={q:.9f}, "
            f"2q-q^2={mean:.9f}, {elapsed:.2f}s",
        )


def test_criterion_2_minimal_degree(capsys) -> None:
    start = time.perf_counter()
    d = min_feasible_d(REFERENCE_PROFILE)
    at_d = check_profile(REFERENCE_PROFILE, d)
    below = check_profile(REFERENCE_PROFILE, d - 1)
    elapsed = time.perf_counter() - start
    ok = d <= 54000 and at_d.passed and not below.passed and elapsed < 10.0
    with capsys.disabled():
        _report(
            "2 minimal-degree",
            ok,
            f"min_d={d}, passes={at_d.passed}, below fails {below.failing()}, {elapsed:.2f}s",
        )


def test_criterion_3_rounding_contract(capsys) -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    cases = 0
    for trial in range(1000):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, min(n, 9)))
        if (n * d) % 2:
            d = max(1, d - 1)
        if (n * d) % 2:
            n += 1
        g = generate_regular(n, d, seed=trial)
        if trial % 2 == 0:
            w = FractionalEdgeWeights.constant(g, Fraction(1, 2))
        else:
            w = FractionalEdgeWeights.from_values(g, [Fraction(x) for x in rng.random(g.m)])
        labels = balanced_round(w)
        if not verify_rounding(w, labels).passed:
            failures += 1
        cases += 1
    elapsed = time.perf_counter() - start
    ok = cases == 1000 and failures == 0 and elapsed < 30.0
    with capsys.disabled():
        _report(
            "3 rounding-contract",
            ok,
            f"{cases} cases, {failures} failures, {elapsed:.1f}s",
        )


def test_criterion_4_dcs_certification(capsys) -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    solved = 0
    verified = 0
    total = 100
    for trial in range(total):
        d = int(rng.choice([24, 30, 36, 42, 48]))
        n = int(rng.integers(d + 2, d + 40))
        if (n * d) % 2:
            n += 1
        g = generate_regular(n, d, seed=trial)
        lam = int(rng.choice([2, 3, 4]))
        targets = tuple(int(x) for x in rng.integers(0, 2 * lam, size=n))
        inst = DcsInstance(g, (lam,) * n, targets)
        try:
            cert = dcs_solve(inst, seed=trial, restarts=50)
        except BudgetError:
            continue
        solved += 1
        if cert.passed and dcs_verify(inst, cert.edges).passed:
            verified += 1

    # Small hosts with relaxed preconditions against the exhaustive oracle.
    exhaustive_checked = 0
    exhaustive_agreed = 0
    for trial in range(6):
        g = generate_regular(8, 4, seed=500 + trial)  # 16 edges
        lam = int(rng.integers(2, 4))
        targets = tuple(int(x) for x in rng.integers(0, lam, size=8))
        inst = DcsInstance(g, (lam,) * 8, targets)
        best = exhaustive_solve(inst, max_edges=20)
        exhaustive_checked += 1
        if best is None:
            try:
                dcs_solve(inst, seed=trial, restarts=20, strict=False)
            except BudgetError:
                exhaustive_agreed += 1
        else:
            if not dcs_verify(inst, best).passed:
                continue
            cert = dcs_solve(inst, seed=trial, restarts=50, strict=False)
            if cert.passed:
                exhaustive_agreed += 1
    elapsed = time.perf_counter() - start
    ok = (
        verified == solved
        and solved >= 95
        and exhaustive_agreed == exhaustive_checked
        and elapsed < 120.0
    )
    with capsys.disabled():
        _report(
            "4 dcs-certification",
            ok,
            f"{solved}/{total} solved within 50 restarts, {verified} verified, "
            f"exhaustive agreement {exhaustive_agreed}/{exhaustive_checked}, {elapsed:.1f}s",
        )


def test_criterion_5_exact_oracle(capsys) -> None:
    start = time.perf_counter()
    k2 = Graph(2, [(0, 1)])
    k2_ok = all(not is_decomposable(k2, k)[0] for k in range(1, 7))
    p3_ok = is_decomposable(Graph(3, [(0, 1), (1, 2)]), 1)[0]

    # Independent 3^3 brute force for the triangle.
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    brute_false = True
    for labeling in itertools.product((1, 2, 3), repeat=3):
        if all(
            is_subgraph_locally_irregular(
                k3, frozenset(i for i, c in enumerate(labeling) if c == part)
            )
            for part in (1, 2, 3)
        ):
            brute_false = False
    k3_ok = brute_false and not is_decomposable(k3, 3)[0]

    rng = np.random.default_rng(5)
    violations = 0
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 9))
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        m = int(rng.integers(1, min(12, len(pairs)) + 1))
        g = Graph(n, pairs[:m])
        k = int(rng.integers(1, 4))
        ok_k, _ = is_decomposable(g, k, node_budget=30_000_000, force=True)
        if ok_k and not is_decomposable(g, k + 1, node_budget=30_000_000, force=True)[0]:
            violations += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = k2_ok and p3_ok and k3_ok and violations == 0 and elapsed < 60.0
    with capsys.disabled():
        _report(
            "5 exact-oracle",
            ok,
            f"K2 false 1..6={k2_ok}, P3 true={p3_ok}, K3@3 false={k3_ok}, "
            f"monotonicity {checked} graphs {violations} violations, {elapsed:.1f}s",
        )


def test_criterion_6_pipeline_soundness(capsys) -> None:
    start = time.perf_counter()
    runs = []
    for d, n, count, rounds in ((32, 200, 20, 10), (64, 200, 15, 10), (32, 500, 10, 5), (64, 500, 5, 5)):
        g = generate_circulant(n, list(range(1, d // 2 + 1)))
        for i in range(count):
            runs.append((g, d, n, i, rounds))
    total = len(runs)
    assert total == 50
    sound = 0
    covered = 0
    successes = 0
    for g, d, n, seed, rounds in runs:
        # split_edges raises unless every rule group balances, so a run that
        # returns is balanced.
        res = decompose_to_four(g, DEMO, mode="best-effort", seed=seed, max_rounds=rounds)
        cover_ok, verdicts, _ = verify_decomposition(g, res.decomposition.parts)
        rule_ok = sum(res.report["split"]["rule_counts"]) == g.m
        if cover_ok and rule_ok:
            covered += 1
        if res.success:
            successes += 1
            if all(verdicts):
                sound += 1
        else:
            sound += 1  # nothing claimed, nothing to confirm
    elapsed = time.perf_counter() - start
    ok = sound == total and covered == total and elapsed < 600.0
    with capsys.disabled():
        _report(
            "6 pipeline-soundness",
            ok,
            f"{total} runs, success frequency {successes}/{total} (reported, not gated), "
            f"soundness {sound}/{total}, cover+rules {covered}/{total}, {elapsed:.1f}s",
        )


def test_criterion_7_cross_module_agreement(capsys) -> None:
    start = time.perf_counter()
    profiles = [
        ConstantProfile(k=0.7, s=0.2, r=0.3, u=0.5, s1=0.1, r1=0.2, u1=0.25),
        ConstantProfile(k=0.9, s=0.4, r=0.45, u=0.5, s1=0.2, r1=0.25, u1=0.25),
        ConstantProfile(k=0.45, s=0.2, r=0.3, u=0.4, s1=0.1, r1=0.2, u1=0.2),
    ]
    shapes = [(3, 6), (3, 8), (4, 6), (4, 8), (5, 6), (3, 10)]
    rng = np.random.default_rng(3)
    successes: list[tuple[Graph, int, int]] = []
    attempts = 0
    trial = 0
    while len(successes) < 20 and attempts < 8000:
        trial += 1
        d, n = shapes[int(rng.integers(0, len(shapes)))]
        if n * d // 2 > 16:
            continue
        g = generate_regular(n, d, seed=trial)
        prof = profiles[trial % len(profiles)]
        for seed in range(4):
            attempts += 1
            res = decompose_to_four(g, prof, mode="best-effort", seed=seed, max_rounds=10)
            if res.success:
                successes.append((g, trial, seed))
                break
    confirmed = 0
    inconclusive = 0
    for g, trial, seed in successes:
        try:
            ok_exact, _ = is_decomposable(g, 4, node_budget=30_000_000, force=True)
        except BudgetError:
            inconclusive += 1
            continue
        if ok_exact:
            confirmed += 1
    conclusive = len(successes) - inconclusive
    elapsed = time.perf_counter() - start
    ok = len(successes) >= 20 and conclusive > 0 and confirmed == conclusive
    with capsys.disabled():
        _report(
            "7 cross-module-agreement",
            ok,
            f"{len(successes)} successes from {attempts} attempts, "
            f"exact confirmed {confirmed}/{conclusive} conclusive "
            f"({inconclusive} inconclusive), {elapsed:.1f}s",
        )
