from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lidecomp.constants import (
    SCAN_LO,
    ConstantProfile,
    DerivedQuantities,
    REFERENCE_PROFILE,
    _constraint_table,
    _dec,
    _holds,
    _vector_rows,
    bound_functions,
    check_profile,
    min_feasible_d,
    monotonicity_thresholds,
    optimize_profile,
)
from lidecomp.errors import BudgetError, InputError

# Minimal feasible degree of the reference profile, frozen from the scan.
REFERENCE_MIN_D = 53657


def test_reference_profile_splits() -> None:
    p = REFERENCE_PROFILE
    assert p.s2 == pytest.approx(0.0016, abs=1e-12)
    assert p.r2 == pytest.approx(0.018, abs=1e-12)
    assert p.u2 == pytest.approx(0.072, abs=1e-12)


def test_bound_functions_at_reference_degree() -> None:
    fs, fr, fu = bound_functions(REFERENCE_PROFILE, 54000)
    assert fs < 0.1
    assert fr < 0.1
    assert fu < 0.11
    assert max(fs, fr, fu) < 1 / (3 * math.e)


def test_bound_functions_d1_equals_bases() -> None:
    fs, fr, fu = bound_functions(REFERENCE_PROFILE, 1)
    s3, r3, u3 = REFERENCE_PROFILE.tail_bases()
    assert fs == pytest.approx(s3, rel=1e-12)
    assert fr == pytest.approx(r3, rel=1e-12)
    assert fu == pytest.approx(u3, rel=1e-12)


def test_bound_functions_deep_decay() -> None:
    fs, fr, fu = bound_functions(REFERENCE_PROFILE, 10**6)
    assert max(fs, fr, fu) < 1e-100


def test_monotonicity_thresholds() -> None:
    ts, tr, tu = monotonicity_thresholds(REFERENCE_PROFILE)
    assert ts < 4613
    assert tr < 4592
    assert tu < 4630
    assert tu == pytest.approx(24 / 0.072**2, rel=1e-12)


def test_double_split_quarters_uncolored_threshold() -> None:
    p = REFERENCE_PROFILE
    doubled = ConstantProfile(
        k=p.k, s=p.s, r=p.r, u=p.u + p.u2, s1=p.s1, r1=p.r1, u1=p.u1
    )
    assert doubled.u2 == pytest.approx(2 * p.u2, rel=1e-12)
    assert monotonicity_thresholds(doubled)[2] == pytest.approx(
        monotonicity_thresholds(p)[2] / 4, rel=1e-12
    )


def test_tails_decrease_past_thresholds() -> None:
    thr = max(monotonicity_thresholds(REFERENCE_PROFILE))
    d0 = math.ceil(thr) + 1
    for d in (d0, 2 * d0, 54000):
        lo = bound_functions(REFERENCE_PROFILE, d)
        hi = bound_functions(REFERENCE_PROFILE, d + 1)
        assert all(b < a for a, b in zip(lo, hi))


def test_check_profile_reference_degree_passes() -> None:
    rep = check_profile(REFERENCE_PROFILE, 54000)
    assert rep.passed
    assert all(rec.passed for rec in rep.records)
    names = [rec.name for rec in rep.records]
    assert len(names) == len(set(names))


def test_check_profile_risky_mean_values() -> None:
    # Independent rational oracle for the risky-edge mean argument.
    q_exact = Fraction("0.0031") / Fraction("0.025") + Fraction(7) / (
        Fraction("0.025") * 54000
    )
    mean_exact = 2 * q_exact - q_exact * q_exact
    rep = check_profile(REFERENCE_PROFILE, 54000)
    by_name = {rec.name: rec for rec in rep.records}
    assert by_name["special_mean"].lhs == pytest.approx(80.0, rel=1e-9)
    assert by_name["risky_mean_arg"].lhs == pytest.approx(float(q_exact), rel=1e-9)
    assert by_name["risky_mean_arg"].lhs < 0.1292
    assert by_name["risky_mean"].lhs == pytest.approx(float(mean_exact), rel=1e-9)
    assert by_name["risky_mean"].lhs < 0.242


def test_check_profile_fails_below_thresholds() -> None:
    rep = check_profile(REFERENCE_PROFILE, 4000)
    assert not rep.passed
    failing = set(rep.failing())
    assert {
        "special_tail_monotone",
        "risky_tail_monotone",
        "uncolored_tail_monotone",
    } <= failing


def test_check_profile_reports_all_failures_at_13() -> None:
    rep = check_profile(REFERENCE_PROFILE, 13)
    assert not rep.passed
    assert len(rep.failing()) > 3
    assert {rec.name for rec in rep.records if rec.passed}  # some constraints still hold


def test_check_profile_rejects_bad_inputs() -> None:
    with pytest.raises(InputError):
        check_profile(REFERENCE_PROFILE, 12)
    with pytest.raises(InputError):  # s2 = 0
        ConstantProfile(k=0.025, s=0.0031, r=0.26, u=0.131, s1=0.0031, r1=0.242, u1=0.059)


def test_dependency_count_always_holds() -> None:
    for d in (13, 14, 100, 54000):
        rep = check_profile(REFERENCE_PROFILE, d)
        assert {rec.name: rec.passed for rec in rep.records}["dependency_count"]


@st.composite
def valid_profiles(draw) -> ConstantProfile:
    """Profiles that construct: each split a fraction of its total."""
    unit = st.floats(1e-6, 1 - 1e-6)
    k, s, r, u = (draw(unit) for _ in range(4))
    s1, r1, u1 = s * draw(unit), r * draw(unit), u * draw(unit)
    try:
        return ConstantProfile(k=k, s=s, r=r, u=u, s1=s1, r1=r1, u1=u1)
    except InputError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(valid_profiles(), st.integers(2, 2 * 10**6))
def test_separation_margin_and_dependency_count_cannot_fail(prof: ConstantProfile, d: int) -> None:
    # The rows reduce to -s*d/6 < 11/3 and d^2 - d - 1 > 0, so neither can
    # fail for a valid profile at d >= 2, on either backend. The tails do
    # not enter either row.
    exact = {
        name: _holds(lhs, rhs, strict)
        for name, lhs, rhs, strict in _constraint_table(prof, _dec, d, (0.0, 0.0, 0.0))
    }
    vector = {
        name: bool(np.all(_holds(lhs, rhs, strict)))
        for name, lhs, rhs, strict in _vector_rows(prof, np.array([d]))
    }
    for row in ("separation_margin", "dependency_count"):
        assert exact[row] and vector[row], (row, prof, d)


def test_min_feasible_d_reference() -> None:
    d = min_feasible_d(REFERENCE_PROFILE)
    assert d == REFERENCE_MIN_D
    assert d <= 54000
    assert check_profile(REFERENCE_PROFILE, d).passed
    assert not check_profile(REFERENCE_PROFILE, d - 1).passed


def test_check_profile_monotone_above_feasible_point() -> None:
    d = min_feasible_d(REFERENCE_PROFILE)
    for probe in (d + 1, d + 137, 2 * d, 10 * d):
        assert check_profile(REFERENCE_PROFILE, probe).passed


def test_min_feasible_d_infeasible_profile() -> None:
    # k = 0.5 keeps the special mean trivial but wrecks the core degree bound.
    prof = ConstantProfile(k=0.5, s=0.0031, r=0.26, u=0.131, s1=0.0015, r1=0.242, u1=0.059)
    with pytest.raises(BudgetError):
        min_feasible_d(prof, hi=200_000)


def test_profile_json_round_trip() -> None:
    data = REFERENCE_PROFILE.to_json()
    assert set(data) == {"k", "s", "r", "u", "s1", "r1", "u1"}
    assert ConstantProfile.from_json(data) == REFERENCE_PROFILE
    with pytest.raises(InputError):
        ConstantProfile.from_json({"k": 0.1})


def test_report_json_shape() -> None:
    rep = check_profile(REFERENCE_PROFILE, 54000)
    data = rep.to_json()
    assert data["passed"] is True
    assert all(set(rec) == {"name", "lhs", "rhs", "pass"} for rec in data["constraints"])


def test_derived_quantities_reference() -> None:
    dq = DerivedQuantities.derive(REFERENCE_PROFILE, 54000)
    assert dq.palette == 1350  # ceil of exactly 0.025 * 54000
    assert dq.modulus == 2700
    assert dq.separation == Fraction(54000, 6) - Fraction("0.0031") * 18000 - Fraction(
        "0.131"
    ) * 9000 - Fraction(13, 3)
    assert dq.size_count == math.ceil(dq.separation)
    tiny = DerivedQuantities.derive(REFERENCE_PROFILE, 4)
    assert tiny.palette == 1  # never below 1
    assert tiny.size_count == 0  # separation negative at tiny degrees


def test_optimize_budget_one_matches_reference_scan() -> None:
    prof, d = optimize_profile(seed=0, budget=1)
    assert prof == REFERENCE_PROFILE
    assert d == REFERENCE_MIN_D


def test_optimize_deterministic_and_never_worse() -> None:
    a = optimize_profile(seed=5, budget=60)
    b = optimize_profile(seed=5, budget=60)
    assert a == b
    assert a[1] <= REFERENCE_MIN_D
    assert check_profile(a[0], a[1]).passed


def _feasible_perturbations() -> list[ConstantProfile]:
    """The reference with one field scaled by 0.98 or 1.02, where still feasible."""
    out = []
    reference = REFERENCE_PROFILE.to_json()
    for name, val in reference.items():
        for factor in (0.98, 1.02):
            try:
                prof = ConstantProfile.from_json({**reference, name: val * factor})
                min_feasible_d(prof, hi=4 * REFERENCE_MIN_D)
            except (InputError, BudgetError):
                continue
            out.append(prof)
    return out


def test_vector_backend_agrees_with_exact_rows() -> None:
    # Row by row, at every degree within 40 of the minimal feasible degree and
    # within 4 of every degree where a row's float verdict flips (below 4x the
    # minimal degree), the float table must give the exact table's verdict.
    profiles = [REFERENCE_PROFILE, optimize_profile(seed=0, budget=60)[0]]
    profiles += _feasible_perturbations()
    assert len(profiles) >= 10
    for prof in profiles:
        m = min_feasible_d(prof)
        ds = np.arange(SCAN_LO, 4 * m)
        verdicts = [
            (name, np.asarray(_holds(lhs, rhs, strict)))
            for name, lhs, rhs, strict in _vector_rows(prof, ds)
        ]
        probes = set(range(m - 40, m + 41))
        for _, v in verdicts:
            for j in np.flatnonzero(v[1:] != v[:-1]):
                probes.update(range(max(SCAN_LO, int(ds[j]) - 3), int(ds[j]) + 5))
        for d in sorted(probes):
            exact = [(rec.name, rec.passed) for rec in check_profile(prof, d).records]
            vector = [(name, bool(v[d - SCAN_LO])) for name, v in verdicts]
            assert vector == exact, (prof, d)
