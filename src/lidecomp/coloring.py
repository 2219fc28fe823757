"""Random vertex colour pairs, distinguished edge/vertex sets, and resampling.

Every vertex gets an independent uniform pair of palette values. The pair
partitions edges into the sets the pipeline consumes: vertices whose full
pair repeats on a neighbour become *uncoloured*; edges inside/touching that
set, edges agreeing in exactly one coordinate (*special*), and edges whose
coordinates are cyclically too close (*risky*) are split out, leaving a
residual. A per-vertex audit checks the three incidence counts against their
thresholds. The resampling loop redraws the two-hop neighbourhood of the
lowest failing vertex until no vertex fails or the budget runs out. A round
only looks for that first violator, scanning ascending vertex blocks on the
CSR adjacency and reading a vertex's uncoloured flag from its row when a block
first needs it. A round thus costs the rows of the first violating block's
closed neighbourhood (and of the blocks before it), plus at most one pass
over the 2m slots for the flags. Rounds centred on vertex 0 run in chunks.
Vertex 0 has no lower vertex, so it is the centre exactly when it violates,
its counts read only its two-hop ball, and each such round redraws that ball
whole: the rounds are independent trials. Up to ``_CHUNK_ROUNDS`` of them
are drawn in one ``integers`` call and judged together on the ball's slot
layout, built once per resampling. The chunk is a constant, kept small so
that the per-slot arrays, and with them peak memory, stay near one round's.
The payload stays byte-identical because numpy's bounded draws consume the
bit generator value by value: one call of shape (R, 2, k) gives the values,
and leaves the state, of R rounds' two calls of size k (a test pins this).
The full sets and the audit are evaluated once, after the loop.

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
from lidecomp.graphs import Graph, _ranges, _read_only, degree_vector


def mod_distance(m: int, n: int, modulus: int) -> int:
    """Cyclic distance between integers modulo ``modulus``; in [0, modulus//2]."""
    if modulus < 1:
        raise InputError(f"modulus must be >= 1, got {modulus}")
    return min((m - n) % modulus, (n - m) % modulus)


@dataclass(frozen=True, eq=False)
class VertexColoring:
    """Per-vertex pair of palette values in 1..palette, as two read-only int64 arrays.

    The first coordinate governs the half-0 subgraph (its equal-value classes
    are meant to be independent sets there); the second plays the same role
    for half 1. Either coordinate may be given as any integer sequence. A
    palette outside 1..2**63 - 1 or a value outside 1..palette raises ``InputError``.
    """

    palette: int
    first: np.ndarray
    second: np.ndarray

    def __post_init__(self) -> None:
        for name in ("first", "second"):
            try:
                values = np.array(getattr(self, name), dtype=np.int64)
            except OverflowError:
                raise InputError("colour value outside int64") from None
            object.__setattr__(self, name, _read_only(values))
        if not 1 <= self.palette <= np.iinfo(np.int64).max:
            raise InputError(f"palette must be in 1..2**63 - 1, got {self.palette}")
        for vals in (self.first, self.second):
            if vals.size and not (1 <= vals.min() and vals.max() <= self.palette):
                raise InputError("colour value outside 1..palette")

    def to_json(self) -> dict:
        return {"K": self.palette, "O": self.first.tolist(), "I": self.second.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "VertexColoring":
        try:
            palette = json_int(data["K"])
            first = [json_int(x) for x in data["O"]]
            second = [json_int(x) for x in data["I"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed colouring JSON: {exc}") from None
        return cls(palette, first, second)


def assign_random(g: Graph, palette: int, seed: int) -> VertexColoring:
    """Draw both coordinates independently and uniformly from 1..palette."""
    if palette < 1:
        raise InputError(f"palette must be >= 1, got {palette}")
    rng = np.random.default_rng(seed)
    first = rng.integers(1, palette + 1, size=g.n)
    second = rng.integers(1, palette + 1, size=g.n)
    return VertexColoring(palette, first, second)


@dataclass(frozen=True, eq=False)
class DistinguishedSets:
    """The vertex and edge sets a fixed colouring induces on a host graph.

    ``uncolored`` lists vertices in ascending order; every other field is a
    boolean mask over the canonical edge indices. Every field is read-only.
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


def _close(a: np.ndarray, b: np.ndarray, palette: int, bound: int) -> np.ndarray:
    """Whether two colour values in 1..palette lie within ``bound`` cyclically, but differ."""
    # Both values lie in 1..palette, so |a - b| is one of the two cyclic gaps.
    gap = np.abs(a - b)
    return (gap >= 1) & (np.minimum(gap, palette - gap) <= bound)


def _set_masks(
    g: Graph, first: np.ndarray, second: np.ndarray, palette: int, bound: int
) -> DistinguishedSets:
    """Evaluate the set definitions for colour arrays with values in 1..palette."""
    eu, ev = g.endpoint_arrays()
    # As in _first_violator: the narrowest type holding [-palette, palette].
    small = np.min_scalar_type(-palette - 1)
    first, second = first.astype(small), second.astype(small)
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
    risky = ~touch & (_close(fu, fv, palette, bound) | _close(su, sv, palette, bound))
    return DistinguishedSets(
        uncolored=_read_only(np.flatnonzero(uflag)),
        uncolored_edges=_read_only(inside),
        touching=_read_only(touch),
        special=_read_only(special),
        risky=_read_only(risky),
        residual=_read_only(~touch & ~risky),
    )


def distinguish(
    g: Graph, c: VertexColoring, profile: ConstantProfile, d: int
) -> DistinguishedSets:
    """Compute all distinguished sets by direct evaluation of their definitions.

    ``d`` is the degree parameter used in the closeness threshold; it need not
    match the actual degrees of ``g``.
    """
    if len(c.first) != g.n or len(c.second) != g.n:
        raise InputError("colouring does not cover the vertex set")
    return _set_masks(g, c.first, c.second, c.palette, closeness_bound(profile, d))


@dataclass(frozen=True, eq=False)
class ColoringAudit:
    """Read-only per-vertex incidence counts, checked strictly against their thresholds."""

    special_counts: np.ndarray
    risky_counts: np.ndarray
    uncolored_counts: np.ndarray
    special_threshold: float  # s*d
    risky_threshold: float  # r*d
    uncolored_threshold: float  # u*d
    violations: np.ndarray
    passed: bool

    def to_json(self) -> dict:
        return {
            "special_counts": self.special_counts.tolist(),
            "risky_counts": self.risky_counts.tolist(),
            "uncolored_counts": self.uncolored_counts.tolist(),
            "thresholds": {
                "special": self.special_threshold,
                "risky": self.risky_threshold,
                "uncolored": self.uncolored_threshold,
            },
            "violations": self.violations.tolist(),
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


def _row_slots(indptr: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR slots of ``vertices``' rows, row after row, and each row's length."""
    starts = indptr[vertices]
    lens = indptr[vertices + 1] - starts
    return _ranges(starts, lens), lens


def _first_violator(
    g: Graph,
    first: np.ndarray,
    second: np.ndarray,
    palette: int,
    bound: int,
    caps: np.ndarray,
) -> int:
    """The lowest vertex :func:`_violating` reports for these colours, or -1 if none.

    The counts are taken on the CSR half-edges of ascending vertex blocks
    that start at one vertex and double, so the scan stops at the first block
    holding a violator. A vertex's uncoloured flag is read from its own row
    the first time a block needs it: a block's own rows give its vertices'
    flags, and each neighbour outside the scanned blocks costs its row once
    per call. A call thus reads the rows of the closed neighbourhood of the
    blocks up to the first violating one (only N[0]'s when vertex 0
    violates), and the flags add at most one pass over the 2m slots to a
    scan that finds nothing.
    """
    indptr, indices = g.indptr, g.indices
    # Colours, their differences and cyclic gaps lie in [-palette, palette];
    # the narrowest type that holds them keeps the per-slot arrays small.
    small = np.min_scalar_type(-palette - 1)
    first, second = first.astype(small), second.astype(small)
    uflag = np.zeros(g.n, dtype=bool)
    known = np.zeros(g.n, dtype=bool)
    a, size = 0, 1
    while a < g.n:
        b = min(a + size, g.n)
        offsets = indptr[a : b + 1] - indptr[a]
        deg = np.diff(offsets)
        dst = indices[indptr[a] : indptr[b]]
        fs, ft = np.repeat(first[a:b], deg), first[dst]
        ss, st = np.repeat(second[a:b], deg), second[dst]
        first_eq, second_eq = fs == ft, ss == st
        hits = np.flatnonzero(first_eq & second_eq)
        uflag[a + np.searchsorted(offsets[1:], hits, side="right")] = True
        known[a:b] = True
        fresh = np.zeros(g.n, dtype=bool)
        fresh[dst] = True
        new = np.flatnonzero(fresh & ~known)
        known[new] = True
        slots, lens = _row_slots(indptr, new)
        nbr = indices[slots]
        same_first = first[nbr] == np.repeat(first[new], lens)
        hits = np.flatnonzero(same_first & (second[nbr] == np.repeat(second[new], lens)))
        uflag[new[np.searchsorted(np.cumsum(lens), hits, side="right")]] = True
        touch = np.repeat(uflag[a:b], deg) | uflag[dst]
        # Per-row sums; the spare last column keeps every row start in range.
        masks = np.zeros((3, dst.size + 1), dtype=bool)
        masks[0, :-1] = ~touch & (first_eq | second_eq)  # special
        masks[1, :-1] = ~touch & (_close(fs, ft, palette, bound) | _close(ss, st, palette, bound))
        masks[2, :-1] = uflag[dst]
        counts = np.add.reduceat(masks, offsets[:-1], axis=1, dtype=np.int64)
        counts[:, deg == 0] = 0  # reduceat reads one slot for an empty row
        bad = _violating(counts, caps)
        if bad.size:
            return a + int(bad[0])
        a, size = b, 2 * size
    return -1


def _two_hop_ball(g: Graph, centre: int) -> np.ndarray:
    """The vertices within distance 2 of ``centre``, ascending."""
    indptr, indices = g.indptr, g.indices
    nb = indices[indptr[centre] : indptr[centre + 1]]
    mark = np.zeros(g.n, dtype=bool)
    mark[centre] = True
    mark[nb] = True
    mark[indices[_row_slots(indptr, nb)[0]]] = True
    return np.flatnonzero(mark)


#: Rounds drawn and judged per chunk while vertex 0 is the centre. The
#: chunk's per-slot arrays grow with it (16 rounds of a (1000, 64) ball hold
#: about 66k slots each). One 200-round chunk raised the recolor benchmark's
#: peak RSS from 45.1 to 49.6 MB, at its 10% bound; 16 rounds leave it
#: where one round per call did.
_CHUNK_ROUNDS = 16


@dataclass(frozen=True, eq=False)
class _ZeroBall:
    """Vertex 0's two-hop ball and the slots its audit counts read, as ball positions."""

    ball: np.ndarray  # the ball's vertices, ascending, so vertex 0 sits at position 0
    nbrs: np.ndarray  # N(0)
    rows: np.ndarray  # the rows of N(0), row after row
    owners: np.ndarray  # the neighbour owning each row slot
    starts: np.ndarray  # where each neighbour's row begins in ``rows``


def _zero_ball(g: Graph) -> _ZeroBall:
    indptr, indices = g.indptr, g.indices
    ball = _two_hop_ball(g, 0)
    nb = indices[indptr[0] : indptr[1]]
    slots, lens = _row_slots(indptr, nb)
    nbrs = np.searchsorted(ball, nb)
    return _ZeroBall(
        ball=ball,
        nbrs=nbrs,
        rows=np.searchsorted(ball, indices[slots]),
        owners=np.repeat(nbrs, lens),
        starts=np.cumsum(lens) - lens,
    )


def _zero_violates(
    zero: _ZeroBall, draws: np.ndarray, palette: int, bound: int, caps: np.ndarray
) -> np.ndarray:
    """Per drawn round, whether vertex 0 violates once its ball holds that round's colours.

    ``draws[i]`` holds round i's first and second colours on ``zero.ball``.
    Vertex 0's three counts read only its ball: an edge 0w is touched when 0
    or w repeats its pair on a neighbour, and w's neighbours lie in the ball.
    """
    first = draws[:, 0].astype(np.min_scalar_type(-palette - 1))
    second = draws[:, 1].astype(first.dtype)
    # Per round and neighbour w of 0: whether w's pair repeats in its row.
    same_first = np.take(first, zero.rows, axis=1) == np.take(first, zero.owners, axis=1)
    same_second = np.take(second, zero.rows, axis=1) == np.take(second, zero.owners, axis=1)
    uflag = np.logical_or.reduceat(same_first & same_second, zero.starts, axis=1)
    f0, s0 = first[:, :1], second[:, :1]
    fw, sw = first[:, zero.nbrs], second[:, zero.nbrs]
    first_eq, second_eq = f0 == fw, s0 == sw
    touch = uflag | (first_eq & second_eq).any(axis=1, keepdims=True)
    special = (~touch & (first_eq | second_eq)).sum(axis=1)
    risky = (~touch & (_close(f0, fw, palette, bound) | _close(s0, sw, palette, bound))).sum(axis=1)
    return (special > caps[0]) | (risky > caps[1]) | (uflag.sum(axis=1) > caps[2])


def _redraw_zero(
    zero: _ZeroBall,
    first: np.ndarray,
    second: np.ndarray,
    rng: np.random.Generator,
    palette: int,
    bound: int,
    caps: np.ndarray,
    budget: int,
) -> int:
    """Run the rounds centred on vertex 0, a chunk at a time; return how many ran.

    The first round is due (vertex 0 is the first violator); each later one
    runs while vertex 0 still violates and ``budget`` lasts. Every round
    redraws the whole ball, so only the last kept round's colours are
    written. When vertex 0 passes inside a chunk, the generator is rewound
    to the chunk's start and only the kept rounds are drawn again. The
    budget's last round is not judged: the loop ends after it either way.
    """
    rounds = 0
    while rounds < budget:
        size = min(_CHUNK_ROUNDS, budget - rounds)
        state = rng.bit_generator.state
        draws = rng.integers(1, palette + 1, size=(size, 2, zero.ball.size))
        judged = size if rounds + size < budget else size - 1
        passes = np.flatnonzero(~_zero_violates(zero, draws[:judged], palette, bound, caps))
        keep = int(passes[0]) + 1 if passes.size else size
        if keep < size:
            rng.bit_generator.state = state
            draws = rng.integers(1, palette + 1, size=(keep, 2, zero.ball.size))
        first[zero.ball], second[zero.ball] = draws[-1]
        rounds += keep
        if passes.size:
            break
    return rounds


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
    counts = _read_only(_audit_counts(g, sets))
    violations = _read_only(_violating(counts, _audit_caps(profile, d)))
    return ColoringAudit(
        special_counts=counts[0],
        risky_counts=counts[1],
        uncolored_counts=counts[2],
        special_threshold=profile.s * d,
        risky_threshold=profile.r * d,
        uncolored_threshold=profile.u * d,
        violations=violations,
        passed=not violations.size,
    )


@dataclass(frozen=True, eq=False)
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
    distance 2 redrawn (the support that determines its events); the sets and
    the audit are evaluated once, for the colouring the loop ends with. Exhausting
    ``max_rounds`` is a flagged return, not an error; termination is budgeted,
    not guaranteed.

    While vertex 0 is the centre, :func:`_redraw_zero` runs the rounds in
    chunks of ``_CHUNK_ROUNDS`` (a constant, small so that peak memory stays
    near one round's), judging vertex 0 on every drawn round at once and
    keeping the rounds up to the first it passes. A chunk is one ``integers``
    call, which numpy fills with the values, and leaves the generator state,
    of the per-round calls, so the result is that of the round-by-round loop.
    Every other centre takes one scan and one redraw per round.
    """
    if max_rounds < 1:
        raise InputError(f"max_rounds must be >= 1, got {max_rounds}")
    if not g.is_regular():
        if strict:
            raise InputError("resampling requires a regular graph in strict mode")
        warnings.warn("resampling a non-regular graph; audit thresholds use d as given")
    palette = DerivedQuantities.derive(profile, d).palette
    bound = closeness_bound(profile, d)
    rng = np.random.default_rng(seed)
    first = rng.integers(1, palette + 1, size=g.n)
    second = rng.integers(1, palette + 1, size=g.n)
    caps = _audit_caps(profile, d)

    rounds = 0
    zero = None  # vertex 0's ball layout, built when vertex 0 first violates
    while rounds < max_rounds:
        centre = _first_violator(g, first, second, palette, bound, caps)
        if centre < 0:
            break
        if centre == 0:
            if zero is None:
                zero = _zero_ball(g)
            rounds += _redraw_zero(
                zero, first, second, rng, palette, bound, caps, max_rounds - rounds
            )
            continue
        redraw = _two_hop_ball(g, centre)
        first[redraw] = rng.integers(1, palette + 1, size=redraw.size)
        second[redraw] = rng.integers(1, palette + 1, size=redraw.size)
        rounds += 1

    sets = _set_masks(g, first, second, palette, bound)
    coloring = VertexColoring(palette, first, second)
    result = audit(g, sets, profile, d)
    return ResampleResult(coloring, sets, result, result.passed, rounds)
