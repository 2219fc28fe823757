"""Degree-constrained spanning subgraph solver and its certificate verifier.

An instance asks for an edge subset H of a host graph such that every vertex
degree in H lands in the middle third [d(v)/3, 2d(v)/3] and is congruent to
t(v) or t(v)+1 modulo lambda_v. Existence is guaranteed whenever the host has
minimum degree 12 and 6*lambda_v <= d(v), so the artifact pairs a randomized
greedy-repair search with an ironclad verifier: correctness rests on the
certificate, never on the search.

Window comparisons are exact integer cross-multiplications; the search
potential weights window violations above residue distance so repair never
trades feasibility of one for the other.

A vertex's potential depends only on its subgraph degree, so each vertex gets
a table of it over degrees 0..d(v). The search keeps every edge's flip gain
between steps, with the candidate edges (those with a violating endpoint) in
buckets keyed by gain. A flip changes only the degrees of its two endpoints,
so only the edges incident to them are re-scored and re-bucketed: a step
costs O(d) rather than a rescan of every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import EdgeSubset, Graph, validate_edge_subset


@dataclass(frozen=True)
class DcsInstance:
    """Host graph plus per-vertex modulus and residue target."""

    graph: Graph
    moduli: tuple[int, ...]
    targets: tuple[int, ...]

    def validate(self, strict: bool = True) -> None:
        g = self.graph
        if len(self.moduli) != g.n or len(self.targets) != g.n:
            raise InputError("moduli/targets must cover every vertex")
        for v, lam in enumerate(self.moduli):
            if lam < 2:
                raise InputError(f"modulus at vertex {v} must be >= 2, got {lam}")
        if strict:
            for v in range(g.n):
                if g.degree(v) < 12:
                    raise InputError(f"vertex {v} has degree {g.degree(v)} < 12")
                if 6 * self.moduli[v] > g.degree(v):
                    raise InputError(
                        f"vertex {v}: 6*lambda={6 * self.moduli[v]} exceeds degree {g.degree(v)}"
                    )

    def allowed_residues(self, v: int) -> tuple[int, int]:
        lam = self.moduli[v]
        return self.targets[v] % lam, (self.targets[v] + 1) % lam

    def to_json(self) -> dict:
        return {"lambda": list(self.moduli), "t": list(self.targets)}

    @classmethod
    def from_json(cls, g: Graph, data: dict) -> "DcsInstance":
        try:
            moduli = tuple(int(x) for x in data["lambda"])
            targets = tuple(int(x) for x in data["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed instance JSON: {exc}") from None
        return cls(g, moduli, targets)


@dataclass(frozen=True)
class DcsCertificate:
    """Edge subset plus the per-vertex window/residue verdicts that certify it."""

    edges: EdgeSubset
    degrees: tuple[int, ...]
    window_ok: tuple[bool, ...]
    residue_ok: tuple[bool, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "edges": sorted(self.edges),
            "degrees": list(self.degrees),
            "window_ok": list(self.window_ok),
            "residue_ok": list(self.residue_ok),
            "passed": self.passed,
        }


def _window_ok(deg_host: int, deg_sub: int) -> bool:
    # d/3 <= x <= 2d/3, compared as 3x against d and 2d to stay exact.
    return deg_host <= 3 * deg_sub <= 2 * deg_host


def verify(inst: DcsInstance, edges: EdgeSubset) -> DcsCertificate:
    """Exact certificate for an edge subset against the instance predicate."""
    g = inst.graph
    validate_edge_subset(g, edges)
    inst.validate(strict=False)
    deg = [0] * g.n
    for i in edges:
        u, v = g.edges[i]
        deg[u] += 1
        deg[v] += 1
    window = tuple(_window_ok(g.degree(v), deg[v]) for v in range(g.n))
    residue = tuple(
        deg[v] % inst.moduli[v] in inst.allowed_residues(v) for v in range(g.n)
    )
    return DcsCertificate(
        edges=frozenset(edges),
        degrees=tuple(deg),
        window_ok=window,
        residue_ok=residue,
        passed=all(window) and all(residue),
    )


def exhaustive_solve(inst: DcsInstance, max_edges: int = 25) -> EdgeSubset | None:
    """Exhaust all edge subsets (gray-code order); None when none is feasible.

    Oracle for property tests; only permitted on tiny hosts.
    """
    g = inst.graph
    inst.validate(strict=False)
    if g.m > max_edges:
        raise InputError(f"exhaustive search capped at {max_edges} edges, got {g.m}")
    lower = [-(-g.degree(v) // 3) for v in range(g.n)]
    upper = [(2 * g.degree(v)) // 3 for v in range(g.n)]
    allowed = [inst.allowed_residues(v) for v in range(g.n)]

    deg = [0] * g.n

    def vertex_ok(v: int) -> bool:
        return lower[v] <= deg[v] <= upper[v] and deg[v] % inst.moduli[v] in allowed[v]

    bad = sum(not vertex_ok(v) for v in range(g.n))
    inside = [False] * g.m
    if bad == 0:
        return frozenset()
    for step in range(1, 1 << g.m):
        flip = (step & -step).bit_length() - 1
        u, v = g.edges[flip]
        was = [vertex_ok(u), vertex_ok(v)]
        delta = -1 if inside[flip] else 1
        inside[flip] = not inside[flip]
        deg[u] += delta
        deg[v] += delta
        for w, ok_before in zip((u, v), was):
            ok_now = vertex_ok(w)
            bad += (not ok_now) - (not ok_before)
        if bad == 0:
            return frozenset(i for i in range(g.m) if inside[i])
    return None


def _penalty_table(
    deg_host: int, lam: int, allowed: tuple[int, int], big: int
) -> tuple[int, ...]:
    """Search potential of a vertex at each subgraph degree 0..deg_host."""
    lower, upper = -(-deg_host // 3), (2 * deg_host) // 3
    return tuple(
        big * max(0, lower - x, x - upper)
        + min(min((x - r) % lam, (r - x) % lam) for r in allowed)
        for x in range(deg_host + 1)
    )


def solve(
    inst: DcsInstance,
    seed: int,
    restarts: int = 50,
    strict: bool = True,
    max_steps: int | None = None,
    plateau_budget: int | None = None,
) -> DcsCertificate:
    """Randomized greedy-repair search for a certified subgraph.

    Each restart draws edges independently with probability 1/2, then toggles
    single edges to reduce a potential that weights window distance above the
    cyclic residue distance; zero-gain moves are allowed for a bounded plateau
    budget. A step takes the lowest-index edge of the most negative gain, or
    draws uniformly among the zero-gain edges in index order. The first
    restart reaching zero potential returns its certificate (checked to
    verify). Exhausting all restarts raises ``BudgetError``.
    """
    inst.validate(strict=strict)
    g = inst.graph
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    if max_steps is None:
        max_steps = 60 * g.n + 4 * g.m
    if plateau_budget is None:
        plateau_budget = 4 * g.n + g.m // 2

    big = max(inst.moduli) + 1
    tables: dict[tuple[int, int, tuple[int, int]], tuple[int, ...]] = {}
    table: list[tuple[int, ...]] = []
    for v in range(g.n):
        key = (g.degree(v), inst.moduli[v], inst.allowed_residues(v))
        if key not in tables:
            tables[key] = _penalty_table(*key, big)
        table.append(tables[key])
    # A flip moves each endpoint's potential by at most `span`, so every gain
    # lies in [-2*span, 2*span]; bucket `offset + gain` holds the candidates.
    span = max(
        (abs(b - a) for t in tables.values() for a, b in zip(t, t[1:])), default=0
    )
    offset = 2 * span
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)

    def rescore(e: int) -> None:
        # Candidates are the edges with a violating endpoint.
        u, v = g.edges[e]
        if pen[u] or pen[v]:
            d = -1 if inside[e] else 1
            key = offset + table[u][deg[u] + d] - pen[u] + table[v][deg[v] + d] - pen[v]
        else:
            key = -1
        old = slot[e]
        if key != old:
            if old >= 0:
                buckets[old].discard(e)
            if key >= 0:
                buckets[key].add(e)
            slot[e] = key

    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        inside = (rng.random(g.m) < 0.5).tolist()
        deg = [0] * g.n
        for i, flag in enumerate(inside):
            if flag:
                u, v = g.edges[i]
                deg[u] += 1
                deg[v] += 1
        pen = [table[v][deg[v]] for v in range(g.n)]
        violating = sum(1 for p in pen if p)
        buckets: list[set[int]] = [set() for _ in range(2 * offset + 1)]
        slot = [-1] * g.m
        for e in range(g.m):
            rescore(e)
        plateau_left = plateau_budget
        for _ in range(max_steps):
            if not violating:
                break
            low = next((k for k, bucket in enumerate(buckets) if bucket), None)
            if low is None:
                break
            if low > offset:
                break  # local minimum with no sideways escape
            if low == offset:
                if plateau_left <= 0:
                    break
                plateau_left -= 1
                ties = sorted(buckets[low])
                e = ties[int(rng.integers(0, len(ties)))]
            else:
                e = min(buckets[low])
            u, v = g.edges[e]
            d = -1 if inside[e] else 1
            inside[e] = not inside[e]
            for w in (u, v):
                deg[w] += d
                was = pen[w]
                pen[w] = table[w][deg[w]]
                violating += (pen[w] > 0) - (was > 0)
            for f in incident[u]:
                rescore(f)
            for f in incident[v]:
                rescore(f)
        if not violating:
            del buckets  # the sets keep their peak size; free them before verify
            cert = verify(inst, frozenset(i for i, f in enumerate(inside) if f))
            if not cert.passed:
                raise AssertionError("zero-potential state failed verification")
            return cert
    raise BudgetError(f"no certified subgraph within {restarts} restarts")
