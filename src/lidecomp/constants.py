"""Executable constraint system for the constant profile governing the pipeline.

A profile fixes four fractions (k, s, r, u) of the common degree d plus the
split points (s1, r1, u1) used by the tail bounds. Every closed-form
inequality the construction needs is one named row of a single table
(``_constraint_table``): mean bounds, Chernoff/McDiarmid tail bounds with
their monotonicity thresholds, the selection-size window, the core
minimum-degree requirement and the separation margin. The degree windows
(inside cap, fringe floor, core host, second-part bound, coloured half
window) are written once, in ``degree_bounds``: the table's selection-window
and core rows read them, and so does the decompose report, through
``exact_degree_bounds``, when it counts the vertices outside them.

The table has two backends. The exact one (``check_profile``) evaluates it at
one degree with the constants as rationals (decimal by intent, so lifted via
their decimal string); only the log/exp-based tail values are floats. The
vector one (``_vector_feasible``) evaluates the same rows in floats over an
array of degrees, so the minimal-feasible-degree scan and the small
derivative-free optimizer over profiles can locate the feasible boundary
quickly; the exact backend confirms every degree they report.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from lidecomp.errors import BudgetError, InputError

#: Default hunting range for feasible degrees.
SCAN_LO = 13
SCAN_HI = 10_000_000

_PROFILE_FIELDS = ("k", "s", "r", "u", "s1", "r1", "u1")


def _dec(x: float) -> Fraction:
    """Exact rational value of a constant, honouring its decimal intent."""
    return Fraction(str(x))


@dataclass(frozen=True)
class ConstantProfile:
    """Dimensionless constants (fractions of d) plus tail split points, checked when built."""

    k: float
    s: float
    r: float
    u: float
    s1: float
    r1: float
    u1: float

    @property
    def s2(self) -> float:
        return self.s - self.s1

    @property
    def r2(self) -> float:
        return self.r - self.r1

    @property
    def u2(self) -> float:
        return self.u - self.u1

    def log_tail_bases(self) -> tuple[float, float, float]:
        """Natural logs of the three per-degree tail decay bases.

        The special/risky bases are the closed forms of the Chernoff bound,
        ``e^{s2} / (s/s1)^s`` and its risky analogue; the uncoloured base is
        the McDiarmid form ``e^{-u2^2/8}``.
        """
        ln_s3 = self.s2 - self.s * math.log(self.s / self.s1)
        ln_r3 = self.r2 - self.r * math.log(self.r / self.r1)
        ln_u3 = -(self.u2**2) / 8.0
        return ln_s3, ln_r3, ln_u3

    def tail_bases(self) -> tuple[float, float, float]:
        return tuple(math.exp(x) for x in self.log_tail_bases())  # type: ignore[return-value]

    def __post_init__(self) -> None:
        for name in ("k", "s", "r", "u"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise InputError(f"profile field {name}={val} outside (0, 1)")
        for name, val in (
            ("s1", self.s1),
            ("s2", self.s2),
            ("r1", self.r1),
            ("r2", self.r2),
            ("u1", self.u1),
            ("u2", self.u2),
        ):
            if val <= 0.0:
                raise InputError(f"profile split {name}={val} must be positive")
        for name, ln_base in zip(("s3", "r3", "u3"), self.log_tail_bases()):
            if not ln_base < 0.0:
                raise InputError(f"tail base {name} not in (0, 1): exp({ln_base})")

    def to_json(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _PROFILE_FIELDS}

    @classmethod
    def from_json(cls, data: object) -> "ConstantProfile":
        if not isinstance(data, dict):
            raise InputError(f"profile JSON must be an object, got {type(data).__name__}")
        missing = [name for name in _PROFILE_FIELDS if name not in data]
        if missing:
            raise InputError(f"profile JSON missing fields {missing}")
        values = {}
        for name in _PROFILE_FIELDS:
            x = data[name]
            if type(x) not in (int, float):  # exact types: bool is an int subclass
                raise InputError(f"profile field {name} must be a number, got {x!r}")
            try:
                values[name] = float(x)
            except OverflowError:
                raise InputError(f"profile field {name} is too large for a float") from None
        return cls(**values)


#: The optimized constants the 4-subgraph decomposition is proved with.
REFERENCE_PROFILE = ConstantProfile(
    k=0.025, s=0.0031, r=0.26, u=0.131, s1=0.0015, r1=0.242, u1=0.059
)


def _separation(d, s, u):
    """Selection-size cap ``d/6 - s*d/3 - u*d/6 - 13/3``.

    Exact for a ``Fraction`` ``s``/``u``, elementwise for a float array ``d``.
    """
    return (d - 2 * s * d - u * d - 26) / 6


class DegreeBounds(NamedTuple):
    """The construction's degree windows at a degree ``d``."""

    inside_cap: Fraction | np.ndarray  # uncoloured inside-half degrees stay below
    fringe_floor: Fraction | np.ndarray  # uncoloured fringe degrees stay above
    core_host: Fraction | np.ndarray  # residual-half degree a core host keeps
    second_part: Fraction | np.ndarray  # uncoloured second-part degrees above, coloured below
    colored_half: tuple  # open (low, high) window for coloured half degrees


def degree_bounds(d, s, r, u) -> DegreeBounds:
    """The degree windows at degree ``d`` for the profile fractions ``s``, ``r``, ``u``.

    The constraint table reads its selection-window and core rows from them,
    and the decompose report counts the vertices outside them. Exact for
    ``Fraction`` constants, elementwise for a float array ``d``.
    """
    return DegreeBounds(
        inside_cap=u * d / 2 + 1,
        fringe_floor=(d - u * d) / 2 - 1,
        core_host=(d - s * d - u * d - r * d) / 2 - 1,
        second_part=(2 * d + 2 * s * d + u * d + 14) / 6,
        colored_half=((d - s * d) / 2 - 3, (d + s * d) / 2 + 3),
    )


def exact_degree_bounds(profile: ConstantProfile, d: int) -> DegreeBounds:
    """:func:`degree_bounds` at an integer degree, in exact ``Fraction`` arithmetic."""
    return degree_bounds(d, _dec(profile.s), _dec(profile.r), _dec(profile.u))


@dataclass(frozen=True)
class DerivedQuantities:
    """Degree-dependent quantities shared by the colouring and pipeline stages."""

    degree: int
    palette: int  # colour palette size, ceil(k*d), at least 1
    modulus: int  # residue modulus for the degree-constrained core, 2*palette
    separation: Fraction  # strict cap for selection sizes: d/6 - s*d/3 - u*d/6 - 13/3
    size_count: int  # number of admissible selection sizes {0, ..., size_count-1}

    @classmethod
    def derive(cls, profile: ConstantProfile, d: int) -> "DerivedQuantities":
        if d < 0:
            raise InputError(f"degree must be nonnegative, got {d}")
        palette = max(1, math.ceil(_dec(profile.k) * d))
        sep = _separation(d, _dec(profile.s), _dec(profile.u))
        size_count = max(0, math.ceil(sep))
        return cls(
            degree=d,
            palette=palette,
            modulus=2 * palette,
            separation=sep,
            size_count=size_count,
        )


@dataclass(frozen=True)
class ConstraintRecord:
    name: str
    lhs: float
    rhs: float
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


@dataclass(frozen=True)
class FeasibilityReport:
    d: int
    records: tuple[ConstraintRecord, ...]
    passed: bool

    def failing(self) -> list[str]:
        return [rec.name for rec in self.records if not rec.passed]

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "passed": self.passed,
            "constraints": [rec.to_json() for rec in self.records],
        }


def bound_functions(profile: ConstantProfile, d: int) -> tuple[float, float, float]:
    """Tail bound values ``d^3 * base^d`` for the special/risky/uncoloured events.

    Evaluated in log space so huge d underflows gracefully. The special and
    risky values are cross-checked against the raw Chernoff form
    ``(e^delta / (1+delta)^(1+delta))^mu`` to 1e-9 relative, which the closed
    forms are algebraically equal to.
    """
    if d < 1:
        raise InputError(f"degree must be >= 1, got {d}")
    ln_s3, ln_r3, ln_u3 = profile.log_tail_bases()
    out = []
    for ln_base in (ln_s3, ln_r3, ln_u3):
        out.append(math.exp(min(3.0 * math.log(d) + d * ln_base, 700.0)))
    for ln_base, mu, delta in (
        (ln_s3, profile.s1 * d, profile.s2 / profile.s1),
        (ln_r3, profile.r1 * d, profile.r2 / profile.r1),
    ):
        raw = mu * (delta - (1.0 + delta) * math.log1p(delta))
        closed = d * ln_base
        if abs(raw - closed) > 1e-9 * max(1.0, abs(closed), abs(raw)):
            raise AssertionError(
                f"tail closed form disagrees with raw form: {closed} vs {raw}"
            )
    return out[0], out[1], out[2]


def monotonicity_thresholds(profile: ConstantProfile) -> tuple[float, float, float]:
    """Degrees beyond which the three tail bound functions strictly decrease."""
    ln_s3, ln_r3, _ = profile.log_tail_bases()
    return (-3.0 / ln_s3, -3.0 / ln_r3, 24.0 / profile.u2**2)


def _constraint_table(profile: ConstantProfile, lift, d, tails: tuple) -> Iterator[tuple]:
    """Every named constraint of the construction as a row ``(name, lhs, rhs, strict)``.

    A row holds when ``lhs < rhs`` (strict) or ``lhs <= rhs``. ``lift`` maps
    each profile constant to a number and ``tails`` holds the three tail bound
    values at ``d``. The same arithmetic runs on an integer degree with
    ``Fraction`` constants (exact backend) and on a float array of degrees with
    float constants (vector backend).
    """
    k, s, r, u, s1, r1, u1 = (lift(getattr(profile, name)) for name in _PROFILE_FIELDS)
    fs, fr, fu = tails
    thr_s, thr_r, thr_u = monotonicity_thresholds(profile)
    d1 = _separation(d, s, u)
    bounds = degree_bounds(d, s, r, u)
    tail_cap = 1.0 / (3.0 * math.e)
    # Risky edges: the per-edge probability argument q must stay below 1.
    q = s / k + 7 / (k * d)
    # Dependency count of the local lemma: 3(d^3-d^2+d)+2 < 3d^3-1. It
    # reduces to d^2 - d - 1 > 0, so it holds at every d >= 2 and never fails.
    yield "dependency_count", 3 * (d**3 - d**2 + d) + 2, 3 * d**3 - 1, True
    # Special edges: mean 2/k below s1*d, tail below 1/(3e) in the monotone range.
    yield "special_mean", 2 / k, s1 * d, True
    yield "special_tail", fs, tail_cap, True
    yield "special_tail_monotone", thr_s, d, False
    # Risky edges: mean bound 2q - q^2 below r1; tail as for special edges.
    yield "risky_mean_arg", q, 1, True
    yield "risky_mean", 2 * q - q * q, r1, True
    yield "risky_tail", fr, tail_cap, True
    yield "risky_tail_monotone", thr_r, d, False
    # Uncoloured vertices: mean 2/k^2 - 1/(k^4 d) below u1*d, McDiarmid tail.
    yield "uncolored_mean", 2 / k**2 - 1 / (k**4 * d), u1 * d, True
    yield "uncolored_tail", fu, tail_cap, True
    yield "uncolored_tail_monotone", thr_u, d, False
    # Selection-size window: u*d/2 + 1 <= d1 <= (d - u*d)/2 - 1.
    yield "selection_window_low", bounds.inside_cap, d1, False
    yield "selection_window_high", d1, bounds.fringe_floor, False
    # Core host degrees must clear 12*k*d + 12 (hence six times the modulus).
    yield "core_min_degree", 12 * k * d + 12, bounds.core_host, False
    # First-part degrees of coloured vertices must clear the selection cap.
    # With an integer d, d / 6 is a float, so the exact backend compares d1
    # with a rounded right-hand side; payloads pin that value. With
    # d1 = d/6 - s*d/3 - u*d/6 - 13/3 the row reduces to -s*d/6 < 11/3, so it
    # holds for every valid profile and d >= 0 and never fails. The row is
    # kept, in the table and in the report, until the paper's separation
    # condition is re-derived.
    yield "separation_margin", d1, d / 6 - s * d / 6 - u * d / 6 - 2 / 3, True


def _holds(lhs, rhs, strict: bool):
    return lhs < rhs if strict else lhs <= rhs


def check_profile(profile: ConstantProfile, d: int) -> FeasibilityReport:
    """Evaluate every named constraint of the construction at degree ``d``, exactly."""
    if d < SCAN_LO:
        raise InputError(f"degree must be >= {SCAN_LO}, got {d}")
    # The report holds floats, and no row exceeds dependency_count's 3d^3 - 1.
    if 3 * d**3 - 1 > sys.float_info.max:
        raise InputError(f"degree must keep 3d^3 - 1 within a float (d <= ~3.91e102), got {d}")
    records = tuple(
        ConstraintRecord(name, float(lhs), float(rhs), _holds(lhs, rhs, strict))
        for name, lhs, rhs, strict in _constraint_table(
            profile, _dec, d, bound_functions(profile, d)
        )
    )
    return FeasibilityReport(d=d, records=records, passed=all(rec.passed for rec in records))


def _vector_rows(profile: ConstantProfile, ds: np.ndarray) -> Iterator[tuple]:
    """The constraint table in floats over an array of degrees."""
    d = ds.astype(np.float64)
    logd3 = 3.0 * np.log(d)
    tails = tuple(
        np.exp(np.minimum(logd3 + d * ln_base, 700.0)) for ln_base in profile.log_tail_bases()
    )
    return _constraint_table(profile, float, d, tails)


def _vector_feasible(profile: ConstantProfile, ds: np.ndarray) -> np.ndarray:
    """Float evaluation of the constraint table over an array of degrees.

    Used only to locate the feasible boundary quickly; the exact scalar check
    confirms any candidate before it is reported.
    """
    rows = _vector_rows(profile, ds)
    return np.logical_and.reduce([_holds(lhs, rhs, strict) for _, lhs, rhs, strict in rows])


def min_feasible_d(profile: ConstantProfile, hi: int = SCAN_HI) -> int:
    """Smallest degree in [SCAN_LO, hi] passing every constraint.

    The range below the monotonicity thresholds gets checked exhaustively and
    the region above is a linear scan; both run through a vectorized float
    pass that narrows the boundary, after which the exact scalar check fixes
    the answer.
    """
    chunk = 1 << 16
    start = SCAN_LO
    while start <= hi:
        stop = min(hi, start + chunk - 1)
        ds = np.arange(start, stop + 1, dtype=np.int64)
        idx = np.flatnonzero(_vector_feasible(profile, ds))
        if idx.size:
            cand = int(ds[idx[0]])
            for d in range(max(SCAN_LO, cand - 4), hi + 1):
                if check_profile(profile, d).passed:
                    return d
            break
        start = stop + 1
    raise BudgetError(f"no feasible degree in [{SCAN_LO}, {hi}]")


def optimize_profile(seed: int, budget: int) -> tuple[ConstantProfile, int]:
    """Coordinate descent over (k, s, r, u, s1, r1, u1) minimizing the feasible degree.

    ``budget`` counts feasibility-scan evaluations. The reference profile is
    the first evaluation, so the result is never worse than its minimal degree.
    Steps shrink after stale sweeps; once they bottom out, seeded jitter
    around the incumbent restarts the descent. Deterministic per seed.
    """
    if budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    best_params = {name: getattr(REFERENCE_PROFILE, name) for name in _PROFILE_FIELDS}
    best_d = min_feasible_d(REFERENCE_PROFILE)
    evals = 1

    def evaluate(params: dict[str, float], cap: int) -> int | None:
        nonlocal evals
        evals += 1
        try:
            prof = ConstantProfile(**params)
            return min_feasible_d(prof, hi=cap)
        except (InputError, BudgetError):
            return None

    base_steps = {name: max(1e-5, 0.08 * best_params[name]) for name in _PROFILE_FIELDS}
    steps = dict(base_steps)

    while evals < budget:
        improved = False
        for name in _PROFILE_FIELDS:
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                cand = dict(best_params)
                cand[name] = cand[name] + sign * steps[name]
                d = evaluate(cand, best_d - 1)
                if d is not None and d < best_d:
                    best_params, best_d = cand, d
                    improved = True
                    break
        if evals >= budget:
            break
        if not improved:
            if max(steps.values()) < 1e-7:
                # Descent converged; jitter around the incumbent and retry.
                cand = {
                    name: float(
                        np.clip(
                            best_params[name] + rng.normal(0.0, base_steps[name]),
                            1e-6,
                            0.999,
                        )
                    )
                    for name in _PROFILE_FIELDS
                }
                d = evaluate(cand, best_d - 1)
                if d is not None and d < best_d:
                    best_params, best_d = cand, d
                steps = dict(base_steps)
            else:
                steps = {name: val * 0.5 for name, val in steps.items()}

    return ConstantProfile(**best_params), best_d
