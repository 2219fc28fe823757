"""Degree-constrained spanning subgraph solver and its certificate verifier.

An instance asks for an edge subset H of a host graph such that every vertex
degree in H lands in the middle third [d(v)/3, 2d(v)/3] and is congruent to
t(v) or t(v)+1 modulo lambda_v. Existence is guaranteed whenever the host has
minimum degree 12 and 6*lambda_v <= d(v), so the artifact pairs a randomized
greedy-repair search with an ironclad verifier: correctness rests on the
certificate, never on the search.

Window comparisons are exact integer cross-multiplications. A vertex's
search potential at subgraph degree x is the distance from x to its nearest
certifiable degree: an integer in [ceil(d(v)/3), floor(2d(v)/3)] with an
allowed residue. When 6*lambda_v <= d(v) the window holds at least 2*lambda_v
integers, so every residue occurs in it; a violating vertex then always has a
+-1 step that lowers its own potential by 1, and since a distance changes by
at most 1 per step, every flip gain lies in [-2, 2]. A vertex with no
certifiable degree (possible only on relaxed instances) has no certificate,
and ``solve`` says so before searching.

A vertex's potential depends only on its subgraph degree, so vertices with
the same host degree, modulus and allowed residues share a table of it over
degrees 0..d(v); the tables lie end to end in one flat array. The search keeps every
edge's flip gain between steps, as a key ``2 + gain`` if the edge has a
violating endpoint, else -1. A restart sets up on arrays: degrees by
:func:`~lidecomp.graphs.degree_vector`, every edge's key in one expression,
and one heap, sorted once, of codes ``key*m + e`` for the keys 0 and 1 (gain
-2 and -1). An entry is live while its edge's key is still the one it was
pushed with (lazy deletion), so the lowest live code names the lowest gain and
its lowest-index edge. With no live entry the step is a plateau move, a draw
among the zero-gain edges (key 2); no step takes a positive gain. Those edges
are listed in ascending order from the keys at the restart's first plateau
move, and from then on a key change into or out of 2 inserts or deletes its
edge by bisection, so a restart without plateau moves never lists them. A flip
changes only the degrees of its two endpoints, so only the edges on their CSR
rows are re-scored: a step costs O(d log m) rather than a rescan of every
candidate, plus a list insertion or deletion per zero-gain change.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Collection
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from lidecomp.errors import BudgetError, InputError, json_int
from lidecomp.graphs import Graph, _read_only, degree_vector, validate_edge_subset


@dataclass(frozen=True)
class DcsInstance:
    """Host graph plus per-vertex modulus and residue target, checked when built."""

    graph: Graph
    moduli: tuple[int, ...]
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.moduli) != self.graph.n or len(self.targets) != self.graph.n:
            raise InputError("moduli/targets must cover every vertex")
        for v, lam in enumerate(self.moduli):
            if lam < 2:
                raise InputError(f"modulus at vertex {v} must be >= 2, got {lam}")

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

    ``edges`` is the subset as an ascending int64 array of edge indices,
    ``degrees`` its int64 vertex degrees; all four arrays are read-only.
    """

    edges: np.ndarray
    degrees: np.ndarray
    window_ok: np.ndarray
    residue_ok: np.ndarray
    passed: bool

    def to_json(self) -> dict:
        return {
            "edges": self.edges.tolist(),
            "degrees": self.degrees.tolist(),
            "window_ok": self.window_ok.tolist(),
            "residue_ok": self.residue_ok.tolist(),
            "passed": self.passed,
        }


def verify(inst: DcsInstance, edges: Collection[int] | np.ndarray) -> DcsCertificate:
    """Exact certificate for an index collection's edges against the instance predicate."""
    g = inst.graph
    mask = validate_edge_subset(g, edges)
    deg = degree_vector(g, mask)
    # d/3 <= x <= 2d/3, compared as 3x against d and 2d to stay exact.
    window = (g.degrees <= 3 * deg) & (3 * deg <= 2 * g.degrees)
    # The moduli may pass int64, so the residues are taken on Python ints.
    rows = zip(deg.tolist(), inst.moduli, map(inst.allowed_residues, range(g.n)))
    residue = np.array([x % lam in allowed for x, lam, allowed in rows], dtype=bool)
    return DcsCertificate(
        edges=_read_only(np.flatnonzero(mask)),
        degrees=_read_only(deg),
        window_ok=_read_only(window),
        residue_ok=_read_only(residue),
        passed=bool(window.all() and residue.all()),
    )


def _penalty_tables(keys: list[tuple[int, int, tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray]:
    """Search potential at degrees 0..d(v), one table per ``(d(v), lambda, allowed residues)``.

    The potential at x is the distance from x to the nearest certifiable
    degree of the table. For 0 <= x <= d, x % lambda == r exactly when
    x % min(lambda, d + 2) == min(r, d + 1), so clamping lambda and the
    residues that way keeps every value in int64. The tables lie end to end
    in one flat array, table i from ``starts[i]``, so they take O(n + m)
    cells whatever the degree spread. Two ``accumulate`` scans over the flat
    array find each cell's distance to the nearest certifiable cell below and
    above it; one farther than the table's own end does not count. A table
    with no certifiable degree holds ``len(flat)`` in every cell.
    """
    clamped = [(d, min(q, d + 2), min(a, d + 1), min(b, d + 1)) for d, q, (a, b) in keys]
    deg_host, lam, r0, r1 = np.array(clamped, dtype=np.int64).reshape(-1, 4).T  # no keys: n = 0
    lengths = deg_host + 1
    starts = np.cumsum(lengths) - lengths
    cell = np.arange(int(lengths.sum()))
    x = cell - np.repeat(starts, lengths)
    deg_host, lam, r0, r1 = (np.repeat(col, lengths) for col in (deg_host, lam, r0, r1))
    res = x % lam
    # ceil(d/3) <= x <= floor(2d/3), compared as 3x against d and 2d.
    ok = (deg_host <= 3 * x) & (3 * x <= 2 * deg_host) & ((res == r0) | (res == r1))
    far = len(cell)  # more than any distance inside a table
    down = cell - np.maximum.accumulate(np.where(ok, cell, -1))
    up = np.minimum.accumulate(np.where(ok, cell, far)[::-1])[::-1] - cell
    flat = np.minimum(np.where(down <= x, down, far), np.where(up <= deg_host - x, up, far))
    return flat, starts


def solve(
    inst: DcsInstance,
    seed: int,
    restarts: int = 50,
    strict: bool = True,
    max_steps: int | None = None,
) -> DcsCertificate:
    """Randomized greedy-repair search for a certified subgraph.

    Each restart draws edges independently with probability 1/2, then toggles
    single edges to reduce the summed distance of each vertex's degree to its
    nearest certifiable degree; a restart allows at most 4n + m/2 zero-gain
    moves. A step takes the lowest-index edge of the most negative gain, or
    draws uniformly among the zero-gain edges in index order. The first
    restart reaching zero potential returns its certificate (checked to
    verify). When 6*lambda_v <= d(v), every residue occurs in v's window, so a
    violating vertex always has a step that lowers its own distance.
    Exhausting all restarts raises ``BudgetError``, and so does a vertex with
    no certifiable degree, before the first restart.
    """
    g = inst.graph
    if strict:
        # 6*lambda > d(v) iff lambda > d(v)//6; no product, so no dtype wraps.
        bad = np.flatnonzero((g.degrees < 12) | (np.asarray(inst.moduli) > g.degrees // 6))
        if bad.size:
            v = int(bad[0])
            if g.degrees[v] < 12:
                raise InputError(f"vertex {v} has degree {g.degrees[v]} < 12")
            raise InputError(
                f"vertex {v}: 6*lambda={6 * inst.moduli[v]} exceeds degree {g.degrees[v]}"
            )
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    if max_steps is None:
        max_steps = 60 * g.n + 4 * g.m

    index: dict[tuple[int, int, tuple[int, int]], int] = {}
    profiles = zip(g.degrees.tolist(), inst.moduli, map(inst.allowed_residues, range(g.n)))
    which = [index.setdefault(key, len(index)) for key in profiles]
    flat, starts = _penalty_tables(list(index))
    stuck = np.flatnonzero(np.minimum.reduceat(flat, starts)[which])
    if stuck.size:
        v = int(stuck[0])
        d, lam, (r0, r1) = int(g.degrees[v]), inst.moduli[v], inst.allowed_residues(v)
        lo, hi = -(-d // 3), 2 * d // 3
        raise BudgetError(f"vertex {v}: no degree from {lo} to {hi} is {r0} or {r1} mod {lam}")
    # A flip moves each endpoint's distance by at most 1, so every gain lies
    # in [-2, 2]; a candidate's key is `offset + gain`, any other edge's -1.
    offset = 2
    m = g.m
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
        deg_a = degree_vector(g, flags)
        at = base + deg_a
        pen_a = flat[at]
        # A flip moves both endpoint degrees by `step`, which stays inside 0..d(v).
        step = np.where(flags, -1, 1)
        pu, pv = pen_a[eu], pen_a[ev]
        gain = flat[at[eu] + step] - pu + flat[at[ev] + step] - pv
        keys = np.where((pu != 0) | (pv != 0), offset + gain, -1)
        # Candidates that lower the potential, as codes key*m + e; sorted, a heap.
        todo = np.flatnonzero((keys >= 0) & (keys < offset))
        heap = np.sort(keys[todo] * m + todo).tolist()
        slot = keys.tolist()
        inside = flags.tolist()
        deg = deg_a.tolist()
        pen = pen_a.tolist()
        violating = int(np.count_nonzero(pen_a))
        plateau_left = 4 * g.n + g.m // 2
        ties = None  # the zero-gain edges, ascending, once a plateau move needs them
        for _ in range(max_steps):
            if not violating:
                break
            # An entry is live while its edge's key is still the one it was pushed with.
            while heap and slot[heap[0] % m] != heap[0] // m:
                heappop(heap)
            if heap:
                e = heap[0] % m
            else:
                if ties is None:
                    ties = [f for f, key in enumerate(slot) if key == offset]
                if not ties or plateau_left <= 0:
                    break  # a local minimum, with no sideways escape or no budget left
                plateau_left -= 1
                e = ties[int(rng.integers(0, len(ties)))]
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
                    if key != slot[f]:
                        if ties is not None:
                            if slot[f] == offset:
                                del ties[bisect_left(ties, f)]
                            elif key == offset:
                                insort(ties, f)
                        slot[f] = key
                        if 0 <= key < offset:
                            heappush(heap, key * m + f)
        if not violating:
            del heap  # stale entries pile up in the heap; free it before verify
            cert = verify(inst, np.flatnonzero(inside))
            if not cert.passed:
                raise AssertionError("zero-potential state failed verification")
            return cert
    raise BudgetError(f"no certified subgraph within {restarts} restarts")
