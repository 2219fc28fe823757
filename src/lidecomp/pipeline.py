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

from dataclasses import dataclass

import numpy as np

from lidecomp.coloring import (
    DistinguishedSets,
    VertexColoring,
    resample_until_good,
)
from lidecomp.constants import ConstantProfile, DerivedQuantities, check_profile
from lidecomp.dcs import DcsInstance, solve as dcs_solve
from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import EdgeSubset, Graph, degree_vector, index_array, subgraph_conflicts
from lidecomp.rounding import round_half_edges

#: Per-rule domains: 0/1 are the special-edge rules, 2..4 the rounded groups.
RULE_SPECIAL_TO_ZERO = 0
RULE_SPECIAL_TO_ONE = 1
RULE_RISKY_OR_INSIDE = 2
RULE_TOUCHING_FRINGE = 3
RULE_RESIDUAL_PLAIN = 4


@dataclass(frozen=True)
class HalfSplit:
    """0/1 edge labels and the rule that produced each label; half h is ``labels == h``."""

    labels: np.ndarray
    rules: np.ndarray


def _half_balance(g: Graph, subset: np.ndarray, labels: np.ndarray) -> bool:
    """Check |deg_zero(v) - deg(v)/2| <= 1 within the edges ``subset`` masks, at every vertex."""
    total = degree_vector(g, subset)
    zeros = degree_vector(g, subset & (labels == 0))
    return bool((np.abs(2 * zeros - total) <= 2).all())


def split_edges(g: Graph, coloring: VertexColoring, sets: DistinguishedSets) -> HalfSplit:
    """Label every edge 0 or 1 by the five-rule scheme.

    Special edges go to the half whose coordinate still separates their
    endpoints; the risky-or-inside, touching-fringe, and plain-residual
    groups are each balanced-rounded with weight one half, so within each
    group every vertex ends within one of an even split.
    """
    eu, ev = g.endpoint_arrays()
    labels = np.full(g.m, -1, dtype=np.int64)
    rules = np.full(g.m, -1, dtype=np.int64)
    special = np.flatnonzero(sets.special)
    first, second = np.asarray(coloring.first), np.asarray(coloring.second)
    first_eq = first[eu[special]] == first[ev[special]]
    second_eq = second[eu[special]] == second[ev[special]]
    if (first_eq == second_eq).any():
        raise AssertionError("special edge must agree in exactly one coordinate")
    labels[special] = np.where(second_eq, 0, 1)
    rules[special] = np.where(second_eq, RULE_SPECIAL_TO_ZERO, RULE_SPECIAL_TO_ONE)

    inside = sets.uncolored_edges
    risky = sets.risky & ~sets.special
    fringe = sets.touching & ~inside
    plain = sets.residual & ~sets.special
    for rule, group in (
        (RULE_RISKY_OR_INSIDE, risky | inside),
        (RULE_TOUCHING_FRINGE, fringe),
        (RULE_RESIDUAL_PLAIN, plain),
    ):
        members = np.flatnonzero(group)
        labels[members] = round_half_edges(g.n, eu[members], ev[members])
        rules[members] = rule
    if (labels < 0).any():
        raise AssertionError("rules must cover every edge")

    balance = (
        _half_balance(g, risky, labels),
        _half_balance(g, inside, labels),
        _half_balance(g, fringe, labels),
        _half_balance(g, plain, labels),
    )
    if not all(balance):
        raise AssertionError("rounding contract violated inside a rule group")
    return HalfSplit(labels, rules)


@dataclass(frozen=True)
class SelectionResult:
    """Greedy per-uncoloured-vertex selections within one half."""

    selections: dict[int, tuple[int, ...]]
    sizes: dict[int, int]
    precondition_failures: tuple[int, ...]  # vertices failing the feasibility bounds
    conflicts: tuple[int, ...]  # inside-half uncoloured edges with equal adjusted degrees


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
    ids = np.flatnonzero(fringe_half)
    ends, ids = np.concatenate((eu[ids], ev[ids])), np.concatenate((ids, ids))
    keep = is_uncolored[ends]
    ends, ids = ends[keep], ids[keep]
    fringe = ids[np.lexsort((ids, ends))].tolist()
    fcount = np.bincount(ends, minlength=g.n)
    fptr = np.concatenate(([0], np.cumsum(fcount))).tolist()
    # Canonical edges have u < v, so an inside edge's lower end u is processed
    # before v; the lower inside neighbours of v are lower[lptr[v]:lptr[v + 1]].
    inside = np.flatnonzero(inside_half)
    lower = eu[inside][np.argsort(ev[inside], kind="stable")].tolist()
    lptr = np.concatenate(([0], np.cumsum(np.bincount(ev[inside], minlength=g.n)))).tolist()

    infeasible = (fcount[uncolored] < size_count - 1) | (
        degree_vector(g, inside_half)[uncolored] >= size_count
    )
    failures = uncolored[infeasible].tolist()
    if failures and strict:
        raise InputError(
            f"selection feasibility fails at vertices {failures[:10]} "
            f"(need {size_count - 1} fringe edges and < {size_count} inside edges)"
        )

    adjusted = degree_vector(g, half_edges).tolist()  # minus the selection size, once chosen
    selections: dict[int, tuple[int, ...]] = {}
    sizes: dict[int, int] = {}
    for v in uncolored.tolist():
        forbidden = {adjusted[v] - adjusted[w] for w in lower[lptr[v] : lptr[v + 1]]}
        avail = fptr[v + 1] - fptr[v]
        size = next((c for c in range(min(size_count, avail + 1)) if c not in forbidden), None)
        if size is None:
            if strict:
                raise InputError(f"no admissible selection size at vertex {v}")
            size = next((c for c in range(0, avail + 1) if c not in forbidden), 0)
        selections[v] = tuple(fringe[fptr[v] : fptr[v] + size])
        sizes[v] = size
        adjusted[v] -= size

    adjusted = np.asarray(adjusted)
    conflicts = inside[adjusted[eu[inside]] == adjusted[ev[inside]]]
    return SelectionResult(
        selections=selections,
        sizes=sizes,
        precondition_failures=tuple(failures),
        conflicts=tuple(conflicts.tolist()),
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
        hit = np.concatenate([nbr[ptr[v] : ptr[v + 1]] for v in drop.tolist()])
        hit = hit[alive[hit]]
        np.subtract.at(deg, hit, 1)
        hit = np.unique(hit)
        drop = hit[deg[hit] < min_degree]
    return alive, host & alive[eu] & alive[ev]


@dataclass(frozen=True)
class HalfDecomposition:
    """One half split into its first (selection/risky/core) and second parts, as edge masks."""

    half: int
    first_part: np.ndarray
    second_part: np.ndarray
    selections: dict[int, tuple[int, ...]]
    residue_targets: dict[int, int]
    core: np.ndarray
    core_excluded: tuple[int, ...]
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
    coord = np.asarray(coloring.first if half == 0 else coloring.second)

    selection = choose_selections(
        g,
        sets.uncolored,
        half_edges,
        inside,
        fringe,
        derived.size_count,
        strict=strict,
    )
    selected = np.zeros(g.m, dtype=bool)
    selected[[i for edges in selection.selections.values() for i in edges]] = True

    # Residue targets for coloured vertices: selection/risky incidence plus
    # the target must equal twice the colour coordinate modulo the modulus.
    lam = derived.modulus
    colored = np.ones(g.n, dtype=bool)
    colored[sets.uncolored] = False
    residue = (2 * coord - degree_vector(g, selected | risky_half)) % lam
    targets = dict(zip(np.flatnonzero(colored).tolist(), residue[colored].tolist()))

    # Core host: coloured vertices with enough residual-half degree for the
    # degree-constrained solver; the rest are excluded and logged.
    need = max(12, 6 * lam)
    alive, host_edges = _peel_core_host(g, colored, sets.residual & half_edges, need)
    excluded = tuple(np.flatnonzero(colored & ~alive).tolist())
    if strict and excluded:
        raise InputError(
            f"half {half}: core host degree below {need} at {len(excluded)} vertices"
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
            core[host_members[index_array(cert.edges)]] = True

    first = selected | risky_half | core
    if (first & ~half_edges).any():
        raise AssertionError("first part must lie inside its half")
    if np.count_nonzero(first) != sum(map(np.count_nonzero, (selected, risky_half, core))):
        raise AssertionError("parts overlap")
    second = half_edges & ~first

    diagnostics = _half_diagnostics(
        g,
        profile,
        d,
        derived,
        half_edges,
        inside,
        fringe,
        first,
        second,
        selection,
        coord,
        colored,
        alive,
        core_ok,
    )
    return HalfDecomposition(
        half=half,
        first_part=first,
        second_part=second,
        selections=selection.selections,
        residue_targets=targets,
        core=core,
        core_excluded=excluded,
        diagnostics=diagnostics,
    )


def _half_diagnostics(
    g: Graph,
    profile: ConstantProfile,
    d: int,
    derived: DerivedQuantities,
    half_edges: np.ndarray,
    inside: np.ndarray,
    fringe: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    selection: SelectionResult,
    coord: np.ndarray,
    colored: np.ndarray,
    core_alive: np.ndarray,
    core_ok: bool,
) -> dict:
    """Violation counts for the degree-window chain; logged, never gating."""
    s, u = profile.s, profile.u
    d1 = float(derived.separation)
    deg_half = degree_vector(g, half_edges)
    deg_inside = degree_vector(g, inside)
    deg_fringe = degree_vector(g, fringe)
    deg_first = degree_vector(g, first)
    deg_second = degree_vector(g, second)
    unc, col = ~colored, colored

    def count(violated: np.ndarray) -> int:
        return int(np.count_nonzero(violated))

    half_window_unc = count(~((d / 2 - 2 <= deg_half[unc]) & (deg_half[unc] <= d / 2 + 2)))
    half_window_col = count(
        ~(((d - s * d) / 2 - 3 < deg_half[col]) & (deg_half[col] < (d + s * d) / 2 + 3))
    )
    inside_cap = count(~(deg_inside[unc] < u * d / 2 + 1))
    fringe_floor = count(~(deg_fringe[unc] > (d - u * d) / 2 - 1))
    first_sep = count((deg_first[col] > 0) & ~(deg_first[col] > d1))
    first_unc_cap = count(~(deg_first[unc] < d1))
    bound29 = d / 3 + s * d / 3 + u * d / 6 + 7 / 3
    second_unc_floor = count(~(deg_second[unc] > bound29))
    second_col_cap = count(~(deg_second[col] < bound29))
    lam = derived.modulus
    have = deg_first[core_alive] % lam
    want = 2 * coord[core_alive] % lam
    residue_bad = count((have != want) & (have != (want + 1) % lam))
    return {
        "selection_precondition_failures": len(selection.precondition_failures),
        "selection_conflicts": list(selection.conflicts),
        "core_excluded_count": count(colored & ~core_alive),
        "core_certificate_ok": core_ok,
        "first_part_residue_violations": residue_bad,
        "half_degree_window_uncolored": half_window_unc,
        "half_degree_window_colored": half_window_col,
        "uncolored_inside_cap": inside_cap,
        "uncolored_fringe_floor": fringe_floor,
        "first_part_separation": first_sep,
        "first_part_uncolored_cap": first_unc_cap,
        "second_part_uncolored_floor": second_unc_floor,
        "second_part_colored_cap": second_col_cap,
    }


@dataclass(frozen=True)
class Decomposition:
    """Ordered disjoint edge parts covering the host graph's edge set.

    Each part is an ascending int64 array of edge indices.
    """

    parts: tuple[np.ndarray, ...]
    verdicts: tuple[bool, ...]

    def to_json(self) -> dict:
        return {
            "parts": [p.tolist() for p in self.parts],
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
    g: Graph, parts: tuple[EdgeSubset | np.ndarray, ...]
) -> tuple[bool, tuple[bool, ...], tuple[tuple[int, ...], ...]]:
    """Independent check: exact cover plus per-part local irregularity.

    Parts are index collections (a frozenset, a list or an int64 array), not
    masks: a mask cannot hold the overlaps this check must reject.
    """
    indices = [index_array(part) for part in parts]
    every = np.concatenate(indices or [np.zeros(0, dtype=np.int64)])
    # m indices, all in range and each hit: every edge exactly once.
    cover_ok = every.size == g.m and (
        not g.m
        or (every.min() >= 0 and every.max() < g.m and np.bincount(every, minlength=g.m).all())
    )
    conflicts = tuple(tuple(subgraph_conflicts(g, part)) for part in indices)
    verdicts = tuple(not c for c in conflicts)
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
    strict = mode == "strict"
    profile.validate()
    if not g.is_regular():
        raise InputError("input graph is not regular")
    d = g.degrees[0] if g.n else 0

    if g.m == 0:
        decomp = Decomposition((np.zeros(0, dtype=np.int64),) * 4, (True,) * 4)
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
    streams = [int(x) for x in np.random.SeedSequence(seed).generate_state(4)]

    resample = resample_until_good(
        g, profile, d, seed=streams[0], max_rounds=max_rounds, strict=strict
    )
    if strict and not resample.success:
        raise BudgetError(
            f"no colouring passed the audit within {max_rounds} rounds in strict mode"
        )
    coloring, sets = resample.coloring, resample.sets

    # streams[1] is unused: the edge split is deterministic.
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
            seed=streams[2 + half],
            restarts=restarts,
            strict=strict,
        )
        for half in (0, 1)
    )
    parts = tuple(
        np.flatnonzero(part)
        for h in halves
        for part in (h.first_part, h.second_part)
    )
    cover_ok, verdicts, conflicts = verify_decomposition(g, parts)
    if not cover_ok:
        raise AssertionError("parts must cover the edge set exactly")
    rule_counts = np.bincount(split.rules, minlength=5).tolist()
    if len(rule_counts) != 5 or sum(rule_counts) != g.m:
        raise AssertionError("every edge must carry exactly one rule")

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
        "split": {
            "rule_counts": rule_counts,
            # split_edges raises unless every rule group balances; the key
            # stays so the report keeps its format.
            "balance_ok": [True] * 4,
        },
        "halves": [h.diagnostics for h in halves],
        "core_excluded": [len(h.core_excluded) for h in halves],
        "verdicts": list(verdicts),
        "conflicts": [list(c[:1000]) for c in conflicts],
        "conflict_counts": [len(c) for c in conflicts],
        "success": success,
    }
    if strict and not success:
        report["implementation_fault"] = (
            "feasible profile with failed verdicts: the construction has a defect"
        )
    return PipelineResult(Decomposition(parts, verdicts), success, report)
