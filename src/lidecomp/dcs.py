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

A vertex's potential depends only on its subgraph degree, so vertices with
the same host degree, modulus and allowed residues share a table of it over
degrees 0..d(v); the tables lie end to end in one flat array. The search keeps every
edge's flip gain between steps, with the candidate edges (those with a
violating endpoint) in buckets keyed by gain. A restart sets up on arrays:
degrees by ``bincount`` over the endpoint arrays, every edge's bucket key in
one expression, and the buckets from one stable ``argsort`` of the keys, so
each starts as an ascending list. A bucket is a heap with lazy deletion (an
entry is live while the edge's key still names that bucket) plus an exact
count, so the improving step's lowest-index edge is a heap top. A flip
changes only the degrees of its two endpoints, so only the edges on their CSR
rows are re-scored and re-bucketed: a step costs O(d log m) rather than a
rescan of every candidate. Neither the search nor the verifier builds the
``g.edges`` tuple view.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from lidecomp.errors import BudgetError, InputError, json_int
from lidecomp.graphs import Graph, degree_vector, validate_edge_subset


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
            deg = np.asarray(g.degrees, dtype=np.int64)
            # 6*lambda > d(v) iff lambda > d(v)//6; no product, so no dtype wraps.
            bad = np.flatnonzero((deg < 12) | (np.asarray(self.moduli) > deg // 6))
            if bad.size:
                v = int(bad[0])
                if g.degree(v) < 12:
                    raise InputError(f"vertex {v} has degree {g.degree(v)} < 12")
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
            moduli = tuple(json_int(x) for x in data["lambda"])
            targets = tuple(json_int(x) for x in data["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed instance JSON: {exc}") from None
        return cls(g, moduli, targets)


@dataclass(frozen=True, eq=False)
class DcsCertificate:
    """Edge subset plus the per-vertex window/residue verdicts that certify it.

    ``edges`` is the subset as an ascending int64 array of edge indices.
    """

    edges: np.ndarray
    degrees: tuple[int, ...]
    window_ok: tuple[bool, ...]
    residue_ok: tuple[bool, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "edges": self.edges.tolist(),
            "degrees": list(self.degrees),
            "window_ok": list(self.window_ok),
            "residue_ok": list(self.residue_ok),
            "passed": self.passed,
        }


def verify(inst: DcsInstance, edges: Collection[int] | np.ndarray) -> DcsCertificate:
    """Exact certificate for an index collection's edges against the instance predicate."""
    g = inst.graph
    mask = validate_edge_subset(g, edges)
    inst.validate(strict=False)
    deg_arr = degree_vector(g, mask)
    host = np.diff(g.indptr)
    # d/3 <= x <= 2d/3, compared as 3x against d and 2d to stay exact.
    window = tuple(((host <= 3 * deg_arr) & (3 * deg_arr <= 2 * host)).tolist())
    deg = deg_arr.tolist()
    residue = tuple(
        x % lam in allowed
        for x, lam, allowed in zip(deg, inst.moduli, map(inst.allowed_residues, range(g.n)))
    )
    return DcsCertificate(
        edges=np.flatnonzero(mask),
        degrees=tuple(deg),
        window_ok=window,
        residue_ok=residue,
        passed=all(window) and all(residue),
    )


def _penalty_tables(
    keys: list[tuple[int, int, tuple[int, int]]], big: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Search potential at degrees 0..d(v), one table per ``(d(v), lambda, allowed residues)``.

    The tables lie end to end in one flat array, table i from ``starts[i]``,
    so they take O(n + m) cells whatever the degree spread. Also returns the
    span: the largest change of a potential between two consecutive degrees.
    """
    deg_host, lam, r0, r1 = (
        np.array(col, dtype=np.int64) for col in zip(*((d, q, *res) for d, q, res in keys))
    )
    lengths = deg_host + 1
    starts = np.cumsum(lengths) - lengths
    x = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
    deg_host, lam, r0, r1 = (np.repeat(col, lengths) for col in (deg_host, lam, r0, r1))
    lower, upper = -(-deg_host // 3), (2 * deg_host) // 3
    window = np.maximum(0, np.maximum(lower - x, x - upper))
    residue = np.minimum(
        np.minimum((x - r0) % lam, (r0 - x) % lam),
        np.minimum((x - r1) % lam, (r1 - x) % lam),
    )
    flat = big * window + residue
    steps = np.abs(np.diff(flat))
    steps[x[1:] == 0] = 0  # from the last cell of one table to the first of the next
    return flat, starts, int(steps.max(initial=0))


def solve(
    inst: DcsInstance,
    seed: int,
    restarts: int = 50,
    strict: bool = True,
    max_steps: int | None = None,
) -> DcsCertificate:
    """Randomized greedy-repair search for a certified subgraph.

    Each restart draws edges independently with probability 1/2, then toggles
    single edges to reduce a potential that weights window distance above the
    cyclic residue distance; a restart allows at most 4n + m/2 zero-gain
    moves. A step takes the lowest-index edge of the most negative gain, or
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

    big = max(inst.moduli) + 1
    if big * (max(g.degrees, default=0) + 1) > 2**60:
        # Potentials stay below big * (max degree + 1), and the bucket keys
        # below four times that, so below this bound int64 never wraps.
        raise InputError(f"modulus {big - 1} is too large for the search potential")
    index: dict[tuple[int, int, tuple[int, int]], int] = {}
    profiles = zip(g.degrees, inst.moduli, map(inst.allowed_residues, range(g.n)))
    which = [index.setdefault(key, len(index)) for key in profiles]
    flat, starts, span = _penalty_tables(list(index), big)
    # A flip moves each endpoint's potential by at most `span`, so every gain
    # lies in [-2*span, 2*span]; bucket `offset + gain` holds the candidates.
    offset = 2 * span
    base = starts[which]  # vertex v's potential at subgraph degree x is flat[base[v] + x]
    cells = flat.tolist()
    rows = [cells[a : a + d + 1] for a, (d, _, _) in zip(starts.tolist(), index)]
    table = [rows[i] for i in which]
    eu, ev = g.endpoint_arrays()
    end_u, end_v = eu.tolist(), ev.tolist()
    ptr = g.indptr.tolist()
    nbr = g.indices.tolist()
    slot_edge = g.slot_edges.tolist()

    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        flags = rng.random(g.m) < 0.5
        deg_a = np.bincount(eu[flags], minlength=g.n) + np.bincount(ev[flags], minlength=g.n)
        at = base + deg_a
        pen_a = flat[at]
        # A flip moves both endpoint degrees by `step`, which stays inside 0..d(v).
        step = np.where(flags, -1, 1)
        pu, pv = pen_a[eu], pen_a[ev]
        gain = flat[at[eu] + step] - pu + flat[at[ev] + step] - pv
        keys = np.where((pu != 0) | (pv != 0), offset + gain, -1)
        counts = np.bincount(keys + 1, minlength=2 * offset + 2)
        # Stably sorted, each bucket's edges ascend, which makes each one a heap.
        order = np.argsort(keys, kind="stable")[counts[0] :].tolist()
        stops = np.cumsum(counts[1:]).tolist()
        heaps = [order[a:b] for a, b in zip([0] + stops, stops)]
        size = counts[1:].tolist()
        slot = keys.tolist()
        inside = flags.tolist()
        deg = deg_a.tolist()
        pen = pen_a.tolist()
        violating = int(np.count_nonzero(pen_a))
        plateau_left = 4 * g.n + g.m // 2
        for _ in range(max_steps):
            if not violating:
                break
            low = next((k for k, c in enumerate(size) if c), None)
            if low is None:
                break
            if low > offset:
                break  # local minimum with no sideways escape
            heap = heaps[low]
            if low == offset:
                if plateau_left <= 0:
                    break
                plateau_left -= 1
                ties = sorted({f for f in heap if slot[f] == low})
                heaps[low] = ties  # ascending, so still a heap, without stale entries
                e = ties[int(rng.integers(0, len(ties)))]
            else:
                while slot[heap[0]] != low:
                    heappop(heap)
                e = heap[0]
            d = -1 if inside[e] else 1
            inside[e] = not inside[e]
            ends = (end_u[e], end_v[e])
            for x in ends:
                deg[x] += d
                was = pen[x]
                pen[x] = table[x][deg[x]]
                violating += (pen[x] > 0) - (was > 0)
            # Re-score the edges f = xw on both rows: the gain at x is shared
            # by the row, the gain at w is looked up.
            for x in ends:
                px, dx, row = pen[x], deg[x], table[x]
                up = row[dx + 1] - px if dx + 1 < len(row) else 0
                down = row[dx - 1] - px if dx else 0
                a, b = ptr[x], ptr[x + 1]
                for f, w in zip(slot_edge[a:b], nbr[a:b]):
                    pw = pen[w]
                    if px or pw:
                        if inside[f]:
                            key = offset + down + table[w][deg[w] - 1] - pw
                        else:
                            key = offset + up + table[w][deg[w] + 1] - pw
                    else:
                        key = -1
                    old = slot[f]
                    if key != old:
                        if old >= 0:
                            size[old] -= 1
                        if key >= 0:
                            size[key] += 1
                            heappush(heaps[key], f)
                        slot[f] = key
        if not violating:
            del heaps  # stale entries pile up in the heaps; free them before verify
            cert = verify(inst, np.flatnonzero(inside))
            if not cert.passed:
                raise AssertionError("zero-potential state failed verification")
            return cert
    raise BudgetError(f"no certified subgraph within {restarts} restarts")
