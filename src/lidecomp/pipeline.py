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
from lidecomp.graphs import (
    EdgeSubset,
    Graph,
    degree_vector,
    index_array,
    subgraph_conflicts,
    subgraph_degrees,
)
from lidecomp.rounding import round_half_edges

#: Per-rule domains: 0/1 are the special-edge rules, 2..4 the rounded groups.
RULE_SPECIAL_TO_ZERO = 0
RULE_SPECIAL_TO_ONE = 1
RULE_RISKY_OR_INSIDE = 2
RULE_TOUCHING_FRINGE = 3
RULE_RESIDUAL_PLAIN = 4


@dataclass(frozen=True)
class HalfSplit:
    """0/1 edge labels, the rule that produced each label, and the two halves."""

    labels: tuple[int, ...]
    rules: tuple[int, ...]
    halves: tuple[EdgeSubset, EdgeSubset]

    def restrict(self, sets: DistinguishedSets, half: int) -> dict[str, EdgeSubset]:
        """Intersections of the distinguished sets that ``decompose_half`` reads with one half."""
        subset = self.halves[half]
        return {
            "uncolored_edges": sets.uncolored_edges & subset,
            "touching": sets.touching & subset,
            "risky": sets.risky & subset,
            "residual": sets.residual & subset,
        }


def _mask(m: int, es: EdgeSubset) -> np.ndarray:
    mask = np.zeros(m, dtype=bool)
    mask[index_array(es)] = True
    return mask


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
    special = np.flatnonzero(_mask(g.m, sets.special))
    first, second = np.asarray(coloring.first), np.asarray(coloring.second)
    first_eq = first[eu[special]] == first[ev[special]]
    second_eq = second[eu[special]] == second[ev[special]]
    if (first_eq == second_eq).any():
        raise AssertionError("special edge must agree in exactly one coordinate")
    labels[special] = np.where(second_eq, 0, 1)
    rules[special] = np.where(second_eq, RULE_SPECIAL_TO_ZERO, RULE_SPECIAL_TO_ONE)

    inside = _mask(g.m, sets.uncolored_edges)
    risky = _mask(g.m, sets.risky_not_special)
    fringe = _mask(g.m, sets.touching) & ~inside
    plain = _mask(g.m, sets.residual_nonspecial)
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
    zero = frozenset(np.flatnonzero(labels == 0).tolist())
    one = frozenset(np.flatnonzero(labels == 1).tolist())
    return HalfSplit(tuple(labels.tolist()), tuple(rules.tolist()), (zero, one))


@dataclass(frozen=True)
class SelectionResult:
    """Greedy per-uncoloured-vertex selections within one half."""

    selections: dict[int, tuple[int, ...]]
    sizes: dict[int, int]
    precondition_failures: tuple[int, ...]  # vertices failing the feasibility bounds
    conflicts: tuple[int, ...]  # inside-half uncoloured edges with equal adjusted degrees


def choose_selections(
    g: Graph,
    uncolored: frozenset[int],
    half_edges: EdgeSubset,
    inside_half: EdgeSubset,
    fringe_half: EdgeSubset,
    size_count: int,
    strict: bool = False,
) -> SelectionResult:
    """Pick per-vertex fringe-edge subsets making adjusted degrees distinct.

    Processing uncoloured vertices in ascending order, each takes the
    smallest admissible size (of its lowest-indexed fringe edges) whose
    adjusted half-degree differs from every already-processed uncoloured
    neighbour inside the half. Feasibility needs enough fringe edges and few
    inside edges per vertex; violations raise in strict mode and are recorded
    otherwise, with the eventual conflicts re-checked exhaustively.
    """
    deg_half = subgraph_degrees(g, half_edges)
    fringe_at: dict[int, list[int]] = {v: [] for v in uncolored}
    inside_neighbors: dict[int, list[int]] = {v: [] for v in uncolored}
    for i in sorted(fringe_half):
        for v in g.edges[i]:
            if v in fringe_at:
                fringe_at[v].append(i)
    for i in inside_half:
        u, v = g.edges[i]
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
            size = next(
                (c for c in range(0, avail + 1) if c not in forbidden), 0
            )
        selections[v] = tuple(fringe_at[v][:size])
        sizes[v] = size

    conflicts = tuple(
        sorted(
            i
            for i in inside_half
            if (
                deg_half[g.edges[i][0]] - sizes[g.edges[i][0]]
                == deg_half[g.edges[i][1]] - sizes[g.edges[i][1]]
            )
        )
    )
    return SelectionResult(
        selections=selections,
        sizes=sizes,
        precondition_failures=tuple(failures),
        conflicts=conflicts,
    )


def _peel_core_host(
    g: Graph, vertices: set[int], edges: EdgeSubset, min_degree: int
) -> tuple[set[int], EdgeSubset]:
    """The ``min_degree``-core of the subgraph ``edges`` induce on ``vertices``.

    A worklist drops each vertex once its degree falls below ``min_degree``;
    the core is unique, so the removal order does not matter.
    """
    incident: dict[int, list[int]] = {v: [] for v in vertices}
    for i in edges:
        u, v = g.edges[i]
        if u in incident and v in incident:
            incident[u].append(i)
            incident[v].append(i)
    deg = {v: len(es) for v, es in incident.items()}
    alive = set(vertices)
    # Each vertex enters the worklist once: at the start, or when its degree
    # drops from min_degree to min_degree - 1.
    worklist = [v for v in vertices if deg[v] < min_degree]
    while worklist:
        v = worklist.pop()
        alive.discard(v)
        for i in incident[v]:
            a, b = g.edges[i]
            other = b if a == v else a
            if other in alive:
                deg[other] -= 1
                if deg[other] == min_degree - 1:
                    worklist.append(other)
    return alive, frozenset(
        i for i in edges if g.edges[i][0] in alive and g.edges[i][1] in alive
    )


@dataclass(frozen=True)
class HalfDecomposition:
    """One half split into its first (selection/risky/core) and second parts."""

    half: int
    first_part: EdgeSubset
    second_part: EdgeSubset
    selections: dict[int, tuple[int, ...]]
    residue_targets: dict[int, int]
    core: EdgeSubset
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
    half_edges = split.halves[half]
    restricted = split.restrict(sets, half)
    inside = restricted["uncolored_edges"]
    fringe = restricted["touching"] - inside
    risky_half = restricted["risky"]
    host_pool = restricted["residual"]
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
    selected: set[int] = set()
    for edges in selection.selections.values():
        selected.update(edges)

    # Residue targets for coloured vertices: selection/risky incidence plus
    # the target must equal twice the colour coordinate modulo the modulus.
    lam = derived.modulus
    base_count = [0] * g.n
    for i in set(selected) | set(risky_half):
        for v in g.edges[i]:
            base_count[v] += 1
    targets = {
        v: (2 * coord[v] - base_count[v]) % lam
        for v in range(g.n)
        if v not in sets.uncolored
    }

    # Core host: coloured vertices with enough residual-half degree for the
    # degree-constrained solver; the rest are excluded and logged.
    colored = set(range(g.n)) - set(sets.uncolored)
    need = max(12, 6 * lam)
    alive, host_edges = _peel_core_host(g, colored, host_pool, need)
    excluded = tuple(sorted(colored - alive))
    if strict and excluded:
        raise InputError(
            f"half {half}: core host degree below {need} at {len(excluded)} vertices"
        )
    core: EdgeSubset = frozenset()
    core_ok = True
    if alive and host_edges:
        remap = {v: j for j, v in enumerate(sorted(alive))}
        host = Graph(len(alive), [
            (remap[g.edges[i][0]], remap[g.edges[i][1]]) for i in sorted(host_edges)
        ])
        host_members = sorted(host_edges)
        inst = DcsInstance(
            host,
            (lam,) * host.n,
            tuple(targets[v] for v in sorted(alive)),
        )
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
            core = frozenset(host_members[j] for j in cert.edges)

    first = frozenset(selected) | risky_half | core
    if not first <= half_edges:
        raise AssertionError("first part must lie inside its half")
    if len(first) != len(selected) + len(risky_half) + len(core):
        raise AssertionError("parts overlap")
    second = half_edges - first

    diagnostics = _half_diagnostics(
        g,
        sets,
        profile,
        d,
        derived,
        half_edges,
        inside,
        fringe,
        first,
        second,
        selection,
        targets,
        coord,
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
    sets: DistinguishedSets,
    profile: ConstantProfile,
    d: int,
    derived: DerivedQuantities,
    half_edges: EdgeSubset,
    inside: EdgeSubset,
    fringe: EdgeSubset,
    first: EdgeSubset,
    second: EdgeSubset,
    selection: SelectionResult,
    targets: dict[int, int],
    coord: tuple[int, ...],
    core_alive: set[int],
    core_ok: bool,
) -> dict:
    """Violation counts for the degree-window chain; logged, never gating."""
    s, u = profile.s, profile.u
    d1 = float(derived.separation)
    deg_half = subgraph_degrees(g, half_edges)
    deg_inside = subgraph_degrees(g, inside)
    deg_fringe = subgraph_degrees(g, fringe)
    deg_first = subgraph_degrees(g, first)
    deg_second = subgraph_degrees(g, second)
    unc = sets.uncolored
    col = [v for v in range(g.n) if v not in unc]

    half_window_unc = sum(
        1 for v in unc if not (d / 2 - 2 <= deg_half[v] <= d / 2 + 2)
    )
    half_window_col = sum(
        1
        for v in col
        if not ((d - s * d) / 2 - 3 < deg_half[v] < (d + s * d) / 2 + 3)
    )
    inside_cap = sum(1 for v in unc if not deg_inside[v] < u * d / 2 + 1)
    fringe_floor = sum(1 for v in unc if not deg_fringe[v] > (d - u * d) / 2 - 1)
    first_sep = sum(
        1 for v in col if deg_first[v] > 0 and not deg_first[v] > d1
    )
    first_unc_cap = sum(1 for v in unc if not deg_first[v] < d1)
    bound29 = d / 3 + s * d / 3 + u * d / 6 + 7 / 3
    second_unc_floor = sum(1 for v in unc if not deg_second[v] > bound29)
    second_col_cap = sum(1 for v in col if not deg_second[v] < bound29)
    lam = derived.modulus
    residue_bad = sum(
        1
        for v in core_alive
        if deg_first[v] % lam not in (2 * coord[v] % lam, (2 * coord[v] + 1) % lam)
    )
    return {
        "selection_precondition_failures": len(selection.precondition_failures),
        "selection_conflicts": list(selection.conflicts),
        "core_excluded_count": g.n - len(unc) - len(core_alive),
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
    """Ordered disjoint edge parts covering the host graph's edge set."""

    parts: tuple[EdgeSubset, ...]
    verdicts: tuple[bool, ...]

    def to_json(self) -> dict:
        return {
            "parts": [sorted(p) for p in self.parts],
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
    g: Graph, parts: tuple[EdgeSubset, ...]
) -> tuple[bool, tuple[bool, ...], tuple[tuple[int, ...], ...]]:
    """Independent check: exact cover plus per-part local irregularity."""
    every = np.concatenate([index_array(part) for part in parts] or [index_array(frozenset())])
    # m indices, all in range and each hit: every edge exactly once.
    cover_ok = every.size == g.m and (
        not g.m
        or (every.min() >= 0 and every.max() < g.m and np.bincount(every, minlength=g.m).all())
    )
    conflicts = tuple(tuple(subgraph_conflicts(g, part)) for part in parts)
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
        decomp = Decomposition((frozenset(),) * 4, (True,) * 4)
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
    parts = (
        halves[0].first_part,
        halves[0].second_part,
        halves[1].first_part,
        halves[1].second_part,
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
