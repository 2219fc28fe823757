"""End-to-end decomposition of a regular graph into four locally irregular parts.

Stage one colours vertices, splits every edge 0/1 by five rules (special
edges deterministically by which coordinate they share; the three remaining
groups by balanced half-weight rounding), producing two near-half-regular
halves. Stage two decomposes each half: per-uncoloured-vertex edge
selections fix degree distinctness across uncoloured neighbours, residue
targets tie the remaining degrees to the vertex colour, and a
degree-constrained core subgraph realizes those residues; the first part is
selections + risky edges + core, the second part is the rest of the half.

Success is only ever claimed after an independent verification pass; in
best-effort mode (any profile, any degree) failed verdicts are expected and
reported with their conflicting edges, while strict mode demands a profile
that passes the full feasibility check.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass

import numpy as np

from lidecomp.coloring import (
    DistinguishedSets,
    VertexColoring,
    resample_until_good,
)
from lidecomp.constants import (
    ConstantProfile,
    DerivedQuantities,
    check_profile,
    exact_degree_bounds,
)
from lidecomp.dcs import DcsInstance, solve as dcs_solve
from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import (
    Graph, _ranges, _read_only, degree_vector, subgraph_conflicts, validate_edge_subset
)
from lidecomp.rounding import round_half_edges

#: Per-rule domains: 0/1 are the special-edge rules, 2..4 the rounded groups.
RULE_SPECIAL_TO_ZERO = 0
RULE_SPECIAL_TO_ONE = 1
RULE_RISKY_OR_INSIDE = 2
RULE_TOUCHING_FRINGE = 3
RULE_RESIDUAL_PLAIN = 4


@dataclass(frozen=True, eq=False)
class HalfSplit:
    """Read-only int8 0/1 edge labels and the rule that produced each; half h is ``labels == h``."""

    labels: np.ndarray
    rules: np.ndarray


def split_edges(g: Graph, coloring: VertexColoring, sets: DistinguishedSets) -> HalfSplit:
    """Label every edge 0 or 1 by the five-rule scheme.

    Special edges go to the half whose coordinate still separates their
    endpoints; the risky-or-inside, touching-fringe, and plain-residual
    groups are each balanced-rounded with weight one half. The rounding's
    exact window check (``BudgetError`` otherwise) puts every vertex within
    one of an even split in each group, and so in the risky and the inside
    edges alone, which share no vertex.
    """
    eu, ev = g.endpoint_arrays()
    labels = np.full(g.m, -1, dtype=np.int8)
    rules = np.full(g.m, -1, dtype=np.int8)
    special = np.flatnonzero(sets.special)
    first, second = coloring.first, coloring.second
    first_eq = first[eu[special]] == first[ev[special]]
    second_eq = second[eu[special]] == second[ev[special]]
    if (first_eq == second_eq).any():
        raise AssertionError("special edge must agree in exactly one coordinate")
    labels[special] = np.where(second_eq, 0, 1)
    rules[special] = np.where(second_eq, RULE_SPECIAL_TO_ZERO, RULE_SPECIAL_TO_ONE)

    del special, first_eq, second_eq
    inside = sets.uncolored_edges
    # Vertex and edge ids in the narrowest dtype that holds them. A group is
    # gathered through its edge ids, which numpy does far faster than through
    # a mask, and its mask is built only when its turn comes.
    vertex = np.min_scalar_type(max(g.n - 1, 0))
    edge = np.min_scalar_type(max(g.m - 1, 0))
    eu, ev = eu.astype(vertex), ev.astype(vertex)
    for rule, group in (
        (RULE_RISKY_OR_INSIDE, lambda: (sets.risky & ~sets.special) | inside),
        (RULE_TOUCHING_FRINGE, lambda: sets.touching & ~inside),
        (RULE_RESIDUAL_PLAIN, lambda: sets.residual & ~sets.special),
    ):
        members = np.flatnonzero(group()).astype(edge)
        labels[members] = round_half_edges(g.n, eu[members], ev[members])
        rules[members] = rule
    if (labels < 0).any():
        raise AssertionError("rules must cover every edge")
    return HalfSplit(_read_only(labels), _read_only(rules))


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Greedy per-uncoloured-vertex selections within one half.

    ``selected`` masks the selected fringe edges; the next two fields are
    ascending int64 arrays, and the last three are the per-vertex int64
    degrees the selection counted, which :func:`decompose_half`'s diagnostics
    reuse. Every field is read-only.
    """

    selected: np.ndarray
    precondition_failures: np.ndarray  # vertices failing the feasibility bounds
    conflicts: np.ndarray  # inside-half uncoloured edges with equal adjusted degrees
    half_degrees: np.ndarray  # degrees in the half
    inside_degrees: np.ndarray  # degrees among the inside edges
    fringe_degrees: np.ndarray  # fringe edges at each uncoloured vertex, 0 at coloured ones


def choose_selections(
    g: Graph,
    uncolored: np.ndarray,
    half_edges: np.ndarray,
    inside_half: np.ndarray,
    fringe_half: np.ndarray,
    size_count: int,
    strict: bool = False,
) -> SelectionResult:
    """Pick per-vertex fringe-edge subsets making adjusted degrees distinct.

    ``uncolored`` is the ascending vertex array, the three edge sets are
    masks, and every inside edge joins two uncoloured vertices. Processing
    uncoloured vertices in ascending order, each takes the smallest
    admissible size (of its lowest-indexed fringe edges) whose adjusted
    half-degree differs from every already-processed uncoloured neighbour
    inside the half. Feasibility needs enough fringe edges and few inside
    edges per vertex; violations raise in strict mode and are recorded
    otherwise, with the eventual conflicts re-checked exhaustively.
    """
    eu, ev = g.endpoint_arrays()
    is_uncolored = np.zeros(g.n, dtype=bool)
    is_uncolored[uncolored] = True
    # The fringe edges at uncoloured v, ascending: fringe[fptr[v]:fptr[v + 1]].
    # In canonical order the edges (u, v) with u < v come before the edges
    # (v, w), so listing the upper ends first, a stable sort on the end alone
    # keeps each vertex's edges ascending; the narrowest dtype lets numpy
    # use a radix sort.
    vertex = np.min_scalar_type(g.n)
    ids = np.flatnonzero(fringe_half)
    ends, ids = np.concatenate((ev[ids], eu[ids])), np.concatenate((ids, ids))
    keep = is_uncolored[ends]
    ends, ids = ends[keep], ids[keep]
    del keep
    fringe = ids[np.argsort(ends.astype(vertex), kind="stable")]
    fcount = np.bincount(ends, minlength=g.n)
    del ends, ids
    # Canonical edges have u < v, so an inside edge's lower end u is processed
    # before v; the lower inside neighbours of v are lower[lptr[v]:lptr[v + 1]].
    inside = np.flatnonzero(inside_half)
    lower = eu[inside][np.argsort(ev[inside].astype(vertex), kind="stable")].tolist()
    lptr = np.concatenate(([0], np.cumsum(np.bincount(ev[inside], minlength=g.n)))).tolist()

    deg_inside = degree_vector(g, inside_half)
    infeasible = (fcount[uncolored] < size_count - 1) | (deg_inside[uncolored] >= size_count)
    failures = uncolored[infeasible]
    if failures.size and strict:
        raise InputError(
            f"selection feasibility fails at vertices {failures[:10].tolist()} "
            f"(need {size_count - 1} fringe edges and < {size_count} inside edges)"
        )

    deg_half = degree_vector(g, half_edges)
    adjusted = deg_half.tolist()  # minus the selection size, once chosen
    avail = fcount.tolist()
    for v in uncolored.tolist():
        forbidden = {adjusted[v] - adjusted[w] for w in lower[lptr[v] : lptr[v + 1]]}
        size = next((c for c in range(min(size_count, avail[v] + 1)) if c not in forbidden), None)
        if size is None:
            if strict:
                raise InputError(f"no admissible selection size at vertex {v}")
            size = next((c for c in range(0, avail[v] + 1) if c not in forbidden), 0)
        adjusted[v] -= size

    adjusted = np.asarray(adjusted)
    conflicts = inside[adjusted[eu[inside]] == adjusted[ev[inside]]]
    # Vertex v selects the first sizes[v] edges of its fringe row.
    sizes = deg_half - adjusted
    selected = np.zeros(g.m, dtype=bool)
    selected[fringe[_ranges(np.cumsum(fcount) - fcount, sizes)]] = True
    return SelectionResult(
        *map(_read_only, (selected, failures, conflicts, deg_half, deg_inside, fcount))
    )


def _peel_core_host(
    g: Graph, vertices: np.ndarray, edges: np.ndarray, min_degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``min_degree``-core of the subgraph the edge mask ``edges`` induces on ``vertices``.

    Returns the core's vertex and edge masks. Each round drops every vertex
    below ``min_degree`` at once; the core is unique, so the order does not
    matter. Only the neighbours of dropped vertices lose degree, so each host
    edge is walked once from each end.
    """
    eu, ev = g.endpoint_arrays()
    host = edges & vertices[eu] & vertices[ev]
    # Host adjacency in CSR form: the neighbours of x are nbr[ptr[x]:ptr[x + 1]].
    src = np.concatenate((eu[host], ev[host]))
    nbr = np.concatenate((ev[host], eu[host]))[np.argsort(src, kind="stable")]
    deg = np.bincount(src, minlength=g.n)
    ptr = np.concatenate(([0], np.cumsum(deg)))
    alive = vertices.copy()
    drop = np.flatnonzero(alive & (deg < min_degree))
    while drop.size:
        alive[drop] = False
        # The rows' lengths come from ptr: deg counts only the live neighbours.
        hit = nbr[_ranges(ptr[drop], ptr[drop + 1] - ptr[drop])]
        hit = hit[alive[hit]]
        np.subtract.at(deg, hit, 1)
        hit = np.unique(hit)
        drop = hit[deg[hit] < min_degree]
    return alive, host & alive[eu] & alive[ev]


@dataclass(frozen=True, eq=False)
class HalfDecomposition:
    """One half split into its first (selection/risky/core) and second parts, as edge masks.

    ``core_excluded`` is the ascending int64 array of coloured vertices peeled
    from the core host. Every array is read-only.
    """

    first_part: np.ndarray
    second_part: np.ndarray
    core: np.ndarray
    core_excluded: np.ndarray
    diagnostics: dict


def decompose_half(
    g: Graph,
    coloring: VertexColoring,
    sets: DistinguishedSets,
    split: HalfSplit,
    half: int,
    profile: ConstantProfile,
    d: int,
    seed: int,
    restarts: int = 50,
    strict: bool = False,
) -> HalfDecomposition:
    """Decompose one half into two candidate locally irregular parts."""
    derived = DerivedQuantities.derive(profile, d)
    half_edges = split.labels == half
    inside = sets.uncolored_edges & half_edges
    fringe = sets.touching & half_edges & ~inside
    risky_half = sets.risky & half_edges
    coord = coloring.first if half == 0 else coloring.second

    selection = choose_selections(
        g,
        sets.uncolored,
        half_edges,
        inside,
        fringe,
        derived.size_count,
        strict=strict,
    )
    selected = selection.selected

    # Residue targets for coloured vertices: selection/risky incidence plus
    # the target must equal twice the colour coordinate modulo the modulus.
    lam = derived.modulus
    colored = np.ones(g.n, dtype=bool)
    colored[sets.uncolored] = False
    residue = (2 * coord - degree_vector(g, selected | risky_half)) % lam

    # Core host: coloured vertices with enough residual-half degree for the
    # degree-constrained solver; the rest are excluded and logged. The bound is
    # DCS's own strict precondition, degree >= 6 * lam (at least 12, as lam =
    # 2 * palette >= 2). The core_min_degree row's 12kd + 12 is the paper's
    # sufficient condition for it: 6 * lam = 12 * ceil(kd) <= 12kd + 12.
    need = 6 * lam
    alive, host_edges = _peel_core_host(g, colored, sets.residual & half_edges, need)
    excluded = np.flatnonzero(colored & ~alive)
    if strict and excluded.size:
        raise InputError(
            f"half {half}: core host degree below {need} at {excluded.size} vertices"
        )
    core = np.zeros(g.m, dtype=bool)
    core_ok = True
    if alive.any() and host_edges.any():
        eu, ev = g.endpoint_arrays()
        host_members = np.flatnonzero(host_edges)
        remap = np.cumsum(alive) - 1
        host = Graph(
            int(alive.sum()),
            np.column_stack((remap[eu[host_members]], remap[ev[host_members]])),
        )
        inst = DcsInstance(host, (lam,) * host.n, tuple(residue[alive].tolist()))
        try:
            cert = dcs_solve(inst, seed=seed, restarts=restarts, strict=strict)
        except BudgetError:
            # Best effort keeps going with an empty core and reports the failure.
            if strict:
                raise
            core_ok = False
        else:
            core_ok = cert.passed
            # remap is increasing, so host edge j is the j-th member in canonical order.
            core[host_members[cert.edges]] = True

    first = selected | risky_half | core
    if (first & ~half_edges).any():
        raise AssertionError("first part must lie inside its half")
    if np.count_nonzero(first) != sum(map(np.count_nonzero, (selected, risky_half, core))):
        raise AssertionError("parts overlap")
    second = half_edges & ~first

    # Violation counts for the degree-window chain; logged, never gating.
    # Degrees are integers, so x < t is x < ceil(t) and x > t is x > floor(t).
    bounds = exact_degree_bounds(profile, d)
    col_low, col_high = bounds.colored_half
    unc = sets.uncolored
    deg_half = selection.half_degrees
    deg_first = degree_vector(g, first)
    deg_second = deg_half - deg_first
    have = deg_first[alive] % lam
    want = 2 * coord[alive] % lam

    def count(violated: np.ndarray) -> int:
        return int(np.count_nonzero(violated))

    diagnostics = {
        "selection_precondition_failures": selection.precondition_failures.size,
        "selection_conflicts": selection.conflicts.tolist(),
        "core_excluded_count": excluded.size,
        "core_certificate_ok": core_ok,
        "first_part_residue_violations": count((have != want) & (have != (want + 1) % lam)),
        # Uncoloured half degrees belong in d/2 - 2 <= x <= d/2 + 2.
        "half_degree_window_uncolored": count(np.abs(2 * deg_half[unc] - d) > 4),
        "half_degree_window_colored": count(
            (deg_half[colored] <= math.floor(col_low))
            | (deg_half[colored] >= math.ceil(col_high))
        ),
        "uncolored_inside_cap": count(
            selection.inside_degrees[unc] >= math.ceil(bounds.inside_cap)
        ),
        "uncolored_fringe_floor": count(
            selection.fringe_degrees[unc] <= math.floor(bounds.fringe_floor)
        ),
        "first_part_separation": count(
            (deg_first[colored] > 0) & (deg_first[colored] <= math.floor(derived.separation))
        ),
        "first_part_uncolored_cap": count(deg_first[unc] >= derived.size_count),
        "second_part_uncolored_floor": count(
            deg_second[unc] <= math.floor(bounds.second_part)
        ),
        "second_part_colored_cap": count(deg_second[colored] >= math.ceil(bounds.second_part)),
    }
    return HalfDecomposition(
        first_part=_read_only(first),
        second_part=_read_only(second),
        core=_read_only(core),
        core_excluded=_read_only(excluded),
        diagnostics=diagnostics,
    )


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Ordered disjoint edge parts covering the host graph's edge set.

    Each part is a read-only ascending int64 array of edge indices.
    """

    parts: tuple[np.ndarray, ...]
    verdicts: tuple[bool, ...]

    def to_json(self) -> dict:
        """The payload fields; the parts stay arrays, which the CLI writes as JSON lists."""
        return {
            "parts": list(self.parts),
            "verdicts": list(self.verdicts),
        }


@dataclass(frozen=True)
class PipelineResult:
    decomposition: Decomposition
    success: bool
    report: dict

    def to_json(self) -> dict:
        data = self.decomposition.to_json()
        data["success"] = self.success
        data["report"] = self.report
        return data


def verify_decomposition(
    g: Graph, parts: Sequence[Collection[int] | np.ndarray]
) -> tuple[bool, tuple[bool, ...], tuple[np.ndarray, ...]]:
    """Independent check: exact cover plus per-part local irregularity.

    Parts are index collections (a list, a set or an int64 array), not
    masks: a mask cannot hold the overlaps this check must reject. Each part
    is validated and judged on its distinct edges. The parts cover every edge
    exactly once iff their sizes sum to m and their union is every edge.
    Each part's conflicts are the read-only ascending int64 array of its
    edges whose ends have equal degree within the part.
    """
    masks = [validate_edge_subset(g, part) for part in parts]
    union = np.zeros(g.m, dtype=bool)
    for mask in masks:
        union |= mask
    cover_ok = sum(map(len, parts)) == g.m and union.all()
    conflicts = tuple(_read_only(subgraph_conflicts(g, mask)) for mask in masks)
    verdicts = tuple(not c.size for c in conflicts)
    return bool(cover_ok), verdicts, conflicts


def decompose_to_four(
    g: Graph,
    profile: ConstantProfile,
    mode: str = "strict",
    seed: int = 0,
    max_rounds: int = 200,
    restarts: int = 50,
) -> PipelineResult:
    """Run the full pipeline and independently verify all four output parts.

    Strict mode requires the profile to pass its feasibility check at the
    graph's degree, and treats construction preconditions as errors; in
    best-effort mode any failed verdict is possible and the report carries
    per-part conflicting edges. The success flag is true only when all four
    parts verify locally irregular.
    """
    if mode not in ("strict", "best-effort"):
        raise InputError(f"mode must be 'strict' or 'best-effort', got {mode!r}")
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    if max_rounds < 1:
        raise InputError(f"max_rounds must be >= 1, got {max_rounds}")
    strict = mode == "strict"
    if not g.is_regular():
        raise InputError("input graph is not regular")
    d = int(g.degrees[0]) if g.n else 0

    if g.m == 0:
        decomp = Decomposition((_read_only(np.zeros(0, dtype=np.int64)),) * 4, (True,) * 4)
        report = {
            "mode": mode,
            "seed": seed,
            "degree": d,
            "vertices": g.n,
            "edges": 0,
            "success": True,
            "note": "edgeless input decomposes trivially",
        }
        return PipelineResult(decomp, True, report)

    if strict:
        feas = check_profile(profile, d)
        if not feas.passed:
            raise InputError(
                f"strict mode requires a feasible profile at d={d}; failing: {feas.failing()}"
            )

    derived = DerivedQuantities.derive(profile, d)
    streams = [int(x) for x in np.random.SeedSequence(seed).generate_state(3)]

    resample = resample_until_good(
        g, profile, d, seed=streams[0], max_rounds=max_rounds, strict=strict
    )
    if strict and not resample.success:
        raise BudgetError(
            f"no colouring passed the audit within {max_rounds} rounds in strict mode"
        )
    coloring, sets = resample.coloring, resample.sets

    split = split_edges(g, coloring, sets)
    halves = tuple(
        decompose_half(
            g,
            coloring,
            sets,
            split,
            half,
            profile,
            d,
            seed=streams[1 + half],
            restarts=restarts,
            strict=strict,
        )
        for half in (0, 1)
    )
    parts = tuple(
        _read_only(np.flatnonzero(part))
        for h in halves
        for part in (h.first_part, h.second_part)
    )
    cover_ok, verdicts, conflicts = verify_decomposition(g, parts)
    if not cover_ok:
        raise AssertionError("parts must cover the edge set exactly")
    rule_counts = np.bincount(split.rules, minlength=5).tolist()

    success = all(verdicts)
    report = {
        "mode": mode,
        "seed": seed,
        "degree": d,
        "vertices": g.n,
        "edges": g.m,
        "palette": derived.palette,
        "modulus": derived.modulus,
        "separation": float(derived.separation),
        "size_count": derived.size_count,
        "resample": {
            "success": resample.success,
            "rounds": resample.rounds,
            "violations": len(resample.audit.violations),
        },
        "split": {"rule_counts": rule_counts},
        "halves": [h.diagnostics for h in halves],
        "core_excluded": [len(h.core_excluded) for h in halves],
        "verdicts": list(verdicts),
        "conflicts": [c[:1000].tolist() for c in conflicts],
        "conflict_counts": [c.size for c in conflicts],
        "success": success,
    }
    if strict and not success:
        report["implementation_fault"] = (
            "feasible profile with failed verdicts: the construction has a defect"
        )
    return PipelineResult(Decomposition(parts, verdicts), success, report)
