"""Random vertex colour pairs, distinguished edge/vertex sets, and resampling.

Every vertex gets an independent uniform pair of palette values. The pair
partitions edges into the sets the pipeline consumes: vertices whose full
pair repeats on a neighbour become *uncoloured*; edges inside/touching that
set, edges agreeing in exactly one coordinate (*special*), and edges whose
coordinates are cyclically too close (*risky*) are split out, leaving a
residual. A per-vertex audit checks the three incidence counts against their
thresholds, and a resampling loop redraws two-hop neighbourhoods of failing
vertices until the audit passes or the budget runs out.

Set membership must be bit-stable, so the risky closeness threshold and all
audit thresholds are evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lidecomp.constants import ConstantProfile, DerivedQuantities
from lidecomp.errors import InputError, json_int
from lidecomp.graphs import Graph, degree_vector


def mod_distance(m: int, n: int, modulus: int) -> int:
    """Cyclic distance between integers modulo ``modulus``; in [0, modulus//2]."""
    if modulus < 1:
        raise InputError(f"modulus must be >= 1, got {modulus}")
    return min((m - n) % modulus, (n - m) % modulus)


@dataclass(frozen=True)
class VertexColoring:
    """Per-vertex pair of palette values in 1..palette.

    The first coordinate governs the half-0 subgraph (its equal-value classes
    are meant to be independent sets there); the second plays the same role
    for half 1.
    """

    palette: int
    first: tuple[int, ...]
    second: tuple[int, ...]

    def validate(self, g: Graph) -> None:
        if self.palette < 1:
            raise InputError(f"palette must be >= 1, got {self.palette}")
        if len(self.first) != g.n or len(self.second) != g.n:
            raise InputError("colouring does not cover the vertex set")
        for vals in (self.first, self.second):
            if vals and not (1 <= min(vals) and max(vals) <= self.palette):
                raise InputError("colour value outside 1..palette")

    def to_json(self) -> dict:
        return {"K": self.palette, "O": list(self.first), "I": list(self.second)}

    @classmethod
    def from_json(cls, data: dict) -> "VertexColoring":
        try:
            return cls(
                palette=json_int(data["K"]),
                first=tuple(json_int(x) for x in data["O"]),
                second=tuple(json_int(x) for x in data["I"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed colouring JSON: {exc}") from None


def assign_random(g: Graph, palette: int, seed: int) -> VertexColoring:
    """Draw both coordinates independently and uniformly from 1..palette."""
    if palette < 1:
        raise InputError(f"palette must be >= 1, got {palette}")
    rng = np.random.default_rng(seed)
    first = rng.integers(1, palette + 1, size=g.n)
    second = rng.integers(1, palette + 1, size=g.n)
    return VertexColoring(palette, tuple(first.tolist()), tuple(second.tolist()))


@dataclass(frozen=True)
class DistinguishedSets:
    """The vertex and edge sets a fixed colouring induces on a host graph.

    ``uncolored`` lists vertices in ascending order; every other field is a
    boolean mask over the canonical edge indices.
    """

    uncolored: np.ndarray  # vertices whose full pair repeats on a neighbour
    uncolored_edges: np.ndarray  # edges with both ends uncoloured
    touching: np.ndarray  # edges with at least one uncoloured end
    special: np.ndarray  # untouched edges agreeing in exactly one coordinate
    risky: np.ndarray  # untouched edges with a coordinate cyclically close
    residual: np.ndarray  # edges in neither touching nor risky


def closeness_bound(profile: ConstantProfile, d: int) -> int:
    """Largest integer cyclic distance counted as risky: floor((s*d + 7)/2)."""
    return math.floor((Fraction(str(profile.s)) * d + 7) / 2)


def _set_masks(
    g: Graph, first: np.ndarray, second: np.ndarray, palette: int, bound: int
) -> DistinguishedSets:
    """Evaluate the set definitions for colour arrays with values in 1..palette."""
    eu, ev = g.endpoint_arrays()
    fu, fv, su, sv = first[eu], first[ev], second[eu], second[ev]
    first_eq = fu == fv
    second_eq = su == sv
    pair_eq = first_eq & second_eq

    uflag = np.zeros(g.n, dtype=bool)
    uflag[eu[pair_eq]] = True
    uflag[ev[pair_eq]] = True

    inside = uflag[eu] & uflag[ev]
    touch = uflag[eu] | uflag[ev]
    special = ~touch & (first_eq | second_eq)

    def close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Both values lie in 1..palette, so |a - b| is one of the two cyclic gaps.
        gap = np.abs(a - b)
        return (gap >= 1) & (np.minimum(gap, palette - gap) <= bound)

    risky = ~touch & (close(fu, fv) | close(su, sv))
    return DistinguishedSets(
        uncolored=np.flatnonzero(uflag),
        uncolored_edges=inside,
        touching=touch,
        special=special,
        risky=risky,
        residual=~touch & ~risky,
    )


def distinguish(
    g: Graph, c: VertexColoring, profile: ConstantProfile, d: int
) -> DistinguishedSets:
    """Compute all distinguished sets by direct evaluation of their definitions.

    ``d`` is the degree parameter used in the closeness threshold; it need not
    match the actual degrees of ``g``.
    """
    c.validate(g)
    profile.validate()
    first = np.asarray(c.first, dtype=np.int64)
    second = np.asarray(c.second, dtype=np.int64)
    return _set_masks(g, first, second, c.palette, closeness_bound(profile, d))


@dataclass(frozen=True)
class ColoringAudit:
    """Per-vertex incidence counts checked strictly against their thresholds."""

    special_counts: tuple[int, ...]
    risky_counts: tuple[int, ...]
    uncolored_counts: tuple[int, ...]
    special_threshold: float  # s*d
    risky_threshold: float  # r*d
    uncolored_threshold: float  # u*d
    violations: tuple[int, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "special_counts": list(self.special_counts),
            "risky_counts": list(self.risky_counts),
            "uncolored_counts": list(self.uncolored_counts),
            "thresholds": {
                "special": self.special_threshold,
                "risky": self.risky_threshold,
                "uncolored": self.uncolored_threshold,
            },
            "violations": list(self.violations),
            "passed": self.passed,
        }


def _audit_caps(profile: ConstantProfile, d: int) -> np.ndarray:
    """Largest passing special, risky and uncoloured counts, in that order.

    A count must stay strictly below its threshold t*d, i.e. at most
    ceil(t*d) - 1. A zero count never violates; the floor only matters for the
    degenerate d = 0 thresholds, where the strict bound would otherwise flag
    everything.
    """
    return np.array(
        [max(0, math.ceil(Fraction(str(t)) * d) - 1) for t in (profile.s, profile.r, profile.u)],
        dtype=np.int64,
    )


def _audit_counts(g: Graph, sets: DistinguishedSets) -> np.ndarray:
    """Rows: special and risky incidence, then uncoloured neighbours, per vertex."""
    eu, ev = g.endpoint_arrays()
    uflag = np.zeros(g.n, dtype=bool)
    uflag[sets.uncolored] = True
    neighbours = np.bincount(eu[uflag[ev]], minlength=g.n) + np.bincount(
        ev[uflag[eu]], minlength=g.n
    )
    return np.stack((degree_vector(g, sets.special), degree_vector(g, sets.risky), neighbours))


def _violating(counts: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Indices of the vertices with some count above its cap, ascending."""
    return np.flatnonzero((counts > caps[:, None]).any(axis=0))


def audit(
    g: Graph,
    sets: DistinguishedSets,
    profile: ConstantProfile,
    d: int,
) -> ColoringAudit:
    """Evaluate the three per-vertex bounds for a computed set family.

    The uncoloured count is the number of uncoloured *neighbours* in the whole
    graph, not just endpoints of uncoloured edges.
    """
    profile.validate()
    counts = _audit_counts(g, sets)
    violations = tuple(_violating(counts, _audit_caps(profile, d)).tolist())
    sc, rc, uc = counts.tolist()

    return ColoringAudit(
        special_counts=tuple(sc),
        risky_counts=tuple(rc),
        uncolored_counts=tuple(uc),
        special_threshold=profile.s * d,
        risky_threshold=profile.r * d,
        uncolored_threshold=profile.u * d,
        violations=violations,
        passed=not violations,
    )


@dataclass(frozen=True)
class ResampleResult:
    coloring: VertexColoring
    sets: DistinguishedSets
    audit: ColoringAudit
    success: bool
    rounds: int


def resample_until_good(
    g: Graph,
    profile: ConstantProfile,
    d: int,
    seed: int,
    max_rounds: int,
    strict: bool = False,
) -> ResampleResult:
    """Redraw two-hop neighbourhoods of violating vertices until the audit passes.

    Per round, the lowest-indexed violating vertex has every vertex within
    distance 2 redrawn (the support that determines its events). Exhausting
    ``max_rounds`` is a flagged return, not an error; termination is budgeted,
    not guaranteed.
    """
    if max_rounds < 1:
        raise InputError(f"max_rounds must be >= 1, got {max_rounds}")
    if not g.is_regular():
        if strict:
            raise InputError("resampling requires a regular graph in strict mode")
        warnings.warn("resampling a non-regular graph; audit thresholds use d as given")
    profile.validate()
    palette = DerivedQuantities.derive(profile, d).palette
    bound = closeness_bound(profile, d)
    rng = np.random.default_rng(seed)
    first = rng.integers(1, palette + 1, size=g.n)
    second = rng.integers(1, palette + 1, size=g.n)
    caps = _audit_caps(profile, d)

    rounds = 0
    while True:
        sets = _set_masks(g, first, second, palette, bound)
        bad = _violating(_audit_counts(g, sets), caps)
        if not bad.size or rounds >= max_rounds:
            break
        centre = int(bad[0])
        ball = {centre}
        for w in g.neighbors(centre):
            ball.add(w)
            ball.update(g.neighbors(w))
        redraw = sorted(ball)
        first[redraw] = rng.integers(1, palette + 1, size=len(redraw))
        second[redraw] = rng.integers(1, palette + 1, size=len(redraw))
        rounds += 1

    coloring = VertexColoring(palette, tuple(first.tolist()), tuple(second.tolist()))
    result = audit(g, sets, profile, d)
    return ResampleResult(coloring, sets, result, result.passed, rounds)
