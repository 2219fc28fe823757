"""Balanced rounding of fractional edge weights to 0/1 labels.

Given per-edge weights z in [0, 1], produce x in {0, 1} so that at every
vertex the label sum stays within the window (z-sum - 1, z-sum + 1]; the left
bound is strict, the right is not. Weights are held as exact ``Fraction``s;
the general engine and the verifier compute on integers over a common
denominator, which keeps the half-integer boundary cases bit-stable.

Two engines sit behind :func:`balanced_round`:

* all fractional weights equal to 1/2: orient an Eulerian circuit (an
  auxiliary vertex absorbs odd degrees) and alternate labels along it. Even
  vertices come out perfectly balanced, odd ones drift by a half, and an
  odd-length circuit parks its +1 drift either on the auxiliary vertex or on
  the start vertex, where the closed right bound permits it. The walk takes
  the endpoint arrays of the half edges and runs Hierholzer's algorithm over
  a CSR adjacency (neighbours ascending, the auxiliary vertex last) with a
  list of per-vertex pointers and ``bytearray`` marks for used edges; the
  alternating bits of each circuit are set with numpy into a ``uint8``
  array. :func:`round_half_edges` is the same walk for callers that hold
  an edge-index array rather than weights (the pipeline's rule groups); it
  checks the window with ``np.bincount`` in integers.

* general weights: repeatedly shift mass along structures of the fractional
  subgraph until an edge hits 0 or 1 (a deterministic form of dependent
  rounding). Even closed walks (an even cycle, or two odd cycles joined
  through a tree path) preserve every vertex sum; leaf-to-leaf paths confine
  drift to the leaf's single fractional edge, which can never leave its own
  unit window. Components that admit no such move are an odd cycle with at
  most one pendant path; those are finished exactly by an alternating
  pattern whose doubled value sits on a vertex chosen to tolerate it.

  Values are integer numerators over one denominator (the lcm of the input
  denominators), refined only when a walk that passes an edge twice needs
  half a unit. Each step runs one search from the lowest fractional vertex
  that stops at the second non-tree edge instead of walking the whole
  component; only tree and unicyclic components are walked in full. On
  d = 10 with m = 4000 an early-stopped search visits about 90 vertices for
  a shifted walk of about 20 edges.

Every result is re-verified before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import Graph


def _as_fraction(value) -> Fraction:
    out = value if type(value) is Fraction else Fraction(value)
    if not 0 <= out <= 1:
        raise InputError(f"edge weight {value} outside [0, 1]")
    return out


@dataclass(frozen=True)
class FractionalEdgeWeights:
    """Per-edge weights in [0, 1] over a host graph, held exactly."""

    graph: Graph
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.graph.m:
            raise InputError(
                f"expected {self.graph.m} weights, got {len(self.values)}"
            )

    @classmethod
    def from_values(cls, g: Graph, values) -> "FractionalEdgeWeights":
        return cls(g, tuple(_as_fraction(v) for v in values))

    @classmethod
    def constant(cls, g: Graph, value) -> "FractionalEdgeWeights":
        return cls(g, (_as_fraction(value),) * g.m)

    def vertex_sums(self) -> list[Fraction]:
        sums = [Fraction(0)] * self.graph.n
        for i, (u, v) in enumerate(self.graph.edges):
            sums[u] += self.values[i]
            sums[v] += self.values[i]
        return sums


@dataclass(frozen=True)
class BinaryEdgeLabels:
    """Per-edge 0/1 labels over a host graph."""

    graph: Graph
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.graph.m:
            raise InputError(f"expected {self.graph.m} labels, got {len(self.values)}")
        if any(v not in (0, 1) for v in self.values):
            raise InputError("labels must be 0 or 1")

    def vertex_sums(self) -> list[int]:
        sums = [0] * self.graph.n
        for i, (u, v) in enumerate(self.graph.edges):
            sums[u] += self.values[i]
            sums[v] += self.values[i]
        return sums


@dataclass(frozen=True)
class RoundingReport:
    passed: bool
    drifts: tuple[float, ...]  # per-vertex x-sum minus z-sum
    violations: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "drifts": list(self.drifts),
            "violations": list(self.violations),
        }


def verify_rounding(weights: FractionalEdgeWeights, labels: BinaryEdgeLabels) -> RoundingReport:
    """Exact check of the per-vertex window (z-sum - 1, z-sum + 1].

    Sums are compared as integers over the common denominator ``L`` of the
    weights: ``gap[v]`` is ``L`` times the x-sum minus ``L`` times the z-sum,
    and the window reads ``-L < gap[v] <= L``. Each drift ``gap[v] / L`` is
    an int/int true division, correctly rounded like ``float`` of the exact
    rational.
    """
    g = weights.graph
    if labels.graph != g:
        raise InputError("labels and weights live on different graphs")
    den = math.lcm(*{z.denominator for z in weights.values})
    gap = [0] * g.n
    for (u, v), z, x in zip(g.edges, weights.values, labels.values):
        step = x * den - z.numerator * (den // z.denominator)
        gap[u] += step
        gap[v] += step
    violations = tuple(v for v, t in enumerate(gap) if not -den < t <= den)
    drifts = tuple(t / den for t in gap)
    return RoundingReport(passed=not violations, drifts=drifts, violations=violations)


def balanced_round(weights: FractionalEdgeWeights) -> BinaryEdgeLabels:
    """Round weights to labels satisfying the per-vertex window at every vertex.

    Deterministic: structures are discovered in canonical (lowest-index)
    order. Raises ``BudgetError`` if the result fails its own verifier,
    which would indicate a defect rather than bad luck.
    """
    g = weights.graph
    x: list[int | None] = [None] * g.m
    fractional: dict[int, Fraction] = {}
    for i, val in enumerate(weights.values):
        if val.denominator == 1:
            x[i] = val.numerator
        else:
            fractional[i] = val

    if fractional:
        # Weights lie in [0, 1] in lowest terms, so denominator 2 means 1/2.
        if all(val.denominator == 2 for val in fractional.values()):
            members = np.fromiter(fractional, dtype=np.int64, count=len(fractional))
            eu, ev = g.endpoint_arrays()
            bits = _round_half_euler(g.n, eu[members], ev[members]).tolist()
            for i, bit in zip(fractional, bits):
                x[i] = bit
        else:
            _round_general(g, fractional, x)

    labels = BinaryEdgeLabels(g, tuple(x))  # type: ignore[arg-type]
    report = verify_rounding(weights, labels)
    if not report.passed:
        raise BudgetError(f"rounding violated its window at vertices {report.violations}")
    return labels


# ---------------------------------------------------------------------------
# Eulerian fast path for weights identically 1/2
# ---------------------------------------------------------------------------


def _round_half_euler(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Labels (uint8) of the edges ``(eu[j], ev[j])`` of a simple graph on ``0..n-1``.

    The edges must be in canonical order: ``eu[j] < ev[j]``, and the pairs
    strictly ascending. A subsequence of a :class:`Graph`'s edges is; anything
    else raises ``ValueError``.

    Vertex ``n`` is auxiliary: the j-th odd-degree vertex joins it by the edge
    keyed ``k + j`` (k real edges). Adjacency is CSR with neighbours ascending,
    so the auxiliary vertex comes last; circuits start at the auxiliary vertex,
    then at every unvisited vertex in ascending order. A circuit uses every
    edge of the vertices it visits, so a start has been visited exactly when
    its pointer has reached the end of its row.
    """
    k = len(eu)
    if (eu >= ev).any() or (np.diff(eu * n + ev) <= 0).any():
        raise ValueError("edges must be canonical pairs in canonical order")
    deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    odd = np.flatnonzero(deg % 2)
    hub = np.full(len(odd), n)
    real, extra = np.arange(k), np.arange(k, k + len(odd))
    # In canonical order each block lists a vertex's neighbours ascending, and
    # the blocks follow one another in ascending order of neighbour (lower
    # ends, upper ends, then the hub), so a stable sort on the source alone
    # lays out the rows. The narrowest dtype lets numpy use a radix sort.
    src = np.concatenate((ev, eu, odd, hub))
    dst = np.concatenate((eu, ev, hub, odd))
    order = np.argsort(src.astype(np.min_scalar_type(n)), kind="stable")
    nbr = dst[order].tolist()
    key = np.concatenate((real, real, extra, extra))[order].tolist()
    counts = np.bincount(src, minlength=n + 1)
    end = np.cumsum(counts)
    ptr, end = (end - counts).tolist(), end.tolist()

    used = bytearray(k + len(odd))
    ones: list[int] = []
    starts = ([n] if len(odd) else []) + np.flatnonzero(deg).tolist()
    for start in starts:
        if ptr[start] == end[start]:
            continue
        # Hierholzer walk over the component of start; an edge joins the
        # circuit when the walk backs out of it, so the circuit is reversed.
        # The stacks hold the vertices below the current one v and the edges
        # they were entered by; e_in is the edge v was entered by.
        circuit: list[int] = []
        verts: list[int] = []
        via: list[int] = []
        v, e_in = start, -1
        while True:
            i, stop = ptr[v], end[v]
            while i < stop and used[key[i]]:
                i += 1
            if i < stop:
                e = key[i]
                used[e] = 1
                ptr[v] = i + 1
                verts.append(v)
                via.append(e_in)
                v, e_in = nbr[i], e
            else:
                ptr[v] = i
                if e_in < 0:
                    break
                circuit.append(e_in)
                v, e_in = verts.pop(), via.pop()
        # The first edge takes +1/2 and the bits alternate; odd circuits then
        # drift +1 at the start.
        ones += circuit[len(circuit) - 1 :: -2]
    x = np.zeros(k + len(odd), dtype=np.uint8)
    x[np.asarray(ones, dtype=np.int64)] = 1
    return x[:k]


def round_half_edges(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Balanced 0/1 labels (uint8) for weight-1/2 edges given by endpoint arrays.

    The same walk as :func:`balanced_round`'s all-1/2 path, checked by the
    integer form of :func:`verify_rounding` with denominator 2: at every
    vertex ``gap = 2 * ones - degree`` must satisfy ``-2 < gap <= 2``.
    """
    bits = _round_half_euler(n, eu, ev)
    one = bits == 1
    gap = 2 * (np.bincount(eu[one], minlength=n) + np.bincount(ev[one], minlength=n))
    gap -= np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    violations = np.flatnonzero((gap <= -2) | (gap > 2))
    if violations.size:
        raise BudgetError(f"rounding violated its window at vertices {tuple(violations.tolist())}")
    return bits


# ---------------------------------------------------------------------------
# General engine: exact shifts on walks plus odd-component finishers
# ---------------------------------------------------------------------------


class _State:
    """Mutable view of the fractional subgraph during rounding.

    ``y`` holds each still-fractional edge's value as an integer numerator
    over the common denominator ``den``: edge ``e`` carries ``y[e] / den``.
    """

    def __init__(self, g: Graph, fractional: dict[int, Fraction], x: list[int | None]):
        self.g = g
        self.den = math.lcm(*(val.denominator for val in fractional.values()))
        self.y = {e: val.numerator * (self.den // val.denominator) for e, val in fractional.items()}
        self.x = x
        self.adj: dict[int, set[int]] = {}
        for i in fractional:
            u, v = g.edges[i]
            self.adj.setdefault(u, set()).add(i)
            self.adj.setdefault(v, set()).add(i)

    def other(self, edge: int, v: int) -> int:
        a, b = self.g.edges[edge]
        return b if a == v else a

    def fdeg(self, v: int) -> int:
        return len(self.adj.get(v, ()))

    def neighbors_sorted(self, v: int) -> list[int]:
        return sorted(self.adj.get(v, ()))

    def assign(self, edge: int, val: int) -> None:
        del self.y[edge]
        self.x[edge] = val
        for v in self.g.edges[edge]:
            self.adj[v].discard(edge)
            if not self.adj[v]:
                del self.adj[v]

    def apply_shift(self, walk: list[int], closed: bool) -> None:
        """Shift alternating mass along a walk until some edge hits a bound.

        Closed walks must have even length so every vertex sum is preserved;
        open walks move only their two endpoint sums. An edge the walk passes
        twice moves by two units per step, so the step may need half a unit of
        ``den``; the denominator is then refined for every edge at once.
        """
        if not walk:
            raise AssertionError("walk must not be empty")
        if closed and len(walk) % 2:
            raise AssertionError("closed walk must have even length")
        delta: dict[int, int] = {}
        sign = 1
        for e in walk:
            delta[e] = delta.get(e, 0) + sign
            sign = -sign
        vertex_delta: dict[int, int] = {}
        for e, de in delta.items():
            for v in self.g.edges[e]:
                vertex_delta[v] = vertex_delta.get(v, 0) + de
        moved = [v for v, dv in vertex_delta.items() if dv]
        if closed and moved:
            raise AssertionError("closed walk must preserve every vertex sum")
        if not closed and (len(moved) != 2 or any(abs(vertex_delta[v]) != 1 for v in moved)):
            raise AssertionError("open walk must move exactly its two endpoint sums by one")
        # The step is num / div units of den: the first smallest room-to-bound
        # ratio, compared by cross-multiplying.
        num, div = 0, 0
        for e, de in delta.items():
            if de == 0:
                continue
            room = self.den - self.y[e] if de > 0 else self.y[e]
            if div == 0 or room * div < num * abs(de):
                num, div = room, abs(de)
        if num <= 0:
            raise AssertionError("walk admits no progress")
        common = math.gcd(num, div)
        num, div = num // common, div // common
        if div > 1:
            self.den *= div
            for e in self.y:
                self.y[e] *= div
        settled = 0
        for e, de in delta.items():
            if de == 0:
                continue
            val = self.y[e] + de * num
            if not 0 <= val <= self.den:
                raise AssertionError("shift pushed an edge outside [0, 1]")
            self.y[e] = val
            if val == 0 or val == self.den:
                settled += 1
                self.assign(e, val // self.den)
        if not settled:
            raise AssertionError("shift settled no edge")


def _search(
    state: _State, root: int
) -> tuple[dict[int, int | None], dict[int, int], list[int]]:
    """Stack search from root: parent edge map, depth map, non-tree edges.

    Neighbours are scanned in sorted order and vertices popped last-in
    first-out. The search stops at the second non-tree edge: the component
    then has two independent cycles, and the maps already hold every vertex
    of both fundamental cycles and of the tree path between them, exactly as
    the full search would. Only a search that runs to completion has
    visited the whole component.
    """
    parent_edge: dict[int, int | None] = {root: None}
    depth = {root: 0}
    back: list[int] = []
    edges = state.g.edges
    stack = [root]
    while stack:
        v = stack.pop()
        for e in sorted(state.adj[v]):
            a, b = edges[e]
            w = b if a == v else a
            if w not in parent_edge:
                parent_edge[w] = e
                depth[w] = depth[v] + 1
                stack.append(w)
            elif e != parent_edge[v] and e != parent_edge[w] and e not in back:
                back.append(e)
                if len(back) == 2:
                    return parent_edge, depth, back
    return parent_edge, depth, back


def _tree_walk(
    state: _State,
    parent_edge: dict[int, int | None],
    depth: dict[int, int],
    a: int,
    b: int,
) -> list[int]:
    """Edge sequence of the tree path from a to b."""
    up_a: list[int] = []
    up_b: list[int] = []
    while a != b:
        climb_a = depth[a] >= depth[b]
        e = parent_edge[a] if climb_a else parent_edge[b]
        if e is None:
            raise AssertionError("tree walk climbed past the root")
        if climb_a:
            up_a.append(e)
            a = state.other(e, a)
        else:
            up_b.append(e)
            b = state.other(e, b)
    return up_a + up_b[::-1]


def _fundamental_cycle(
    state: _State, parent_edge: dict[int, int | None], depth: dict[int, int], chord: int
) -> list[int]:
    u, v = state.g.edges[chord]
    return _tree_walk(state, parent_edge, depth, u, v) + [chord]


def _leaf_path(state: _State, comp_vertices: list[int]) -> list[int] | None:
    leaves = [v for v in comp_vertices if state.fdeg(v) == 1]
    if len(leaves) < 2:
        return None
    start = leaves[0]
    targets = set(leaves[1:])
    prev: dict[int, tuple[int, int]] = {}
    seen = {start}
    queue = [start]
    while queue:
        nxt: list[int] = []
        for v in queue:
            for e in state.neighbors_sorted(v):
                w = state.other(e, v)
                if w in seen:
                    continue
                seen.add(w)
                prev[w] = (v, e)
                if w in targets:
                    path: list[int] = []
                    cur = w
                    while cur != start:
                        pv, pe = prev[cur]
                        path.append(pe)
                        cur = pv
                    path.reverse()
                    return path
                nxt.append(w)
        queue = nxt
    raise AssertionError("second leaf unreachable within its own component")


def _ordered_cycle_from(state: _State, start: int, first_edge: int) -> list[int]:
    """Follow degree-2 vertices around a cycle; returns its edges in order."""
    edges = [first_edge]
    prev_edge = first_edge
    cur = state.other(first_edge, start)
    while cur != start:
        options = [e for e in state.neighbors_sorted(cur) if e != prev_edge]
        if len(options) != 1:
            raise AssertionError("cycle walk left the degree-2 set")
        prev_edge = options[0]
        edges.append(prev_edge)
        cur = state.other(prev_edge, cur)
    return edges


def _try_pattern(
    state: _State,
    cycle_edges: list[int],
    base_pos: int,
    base_bit: int,
    extra: dict[int, int],
) -> dict[int, int] | None:
    """Alternating assignment around the cycle with ``base_bit`` doubled at the base.

    ``extra`` carries already-decided labels on non-cycle edges of the same
    component (the pendant tail). Returns the full component assignment if
    every vertex lands inside its window, else None. The window is checked
    on integers scaled by ``den``.
    """
    L = len(cycle_edges)
    assign = dict(extra)
    for offset in range(L):
        assign[cycle_edges[(base_pos + offset) % L]] = base_bit if offset % 2 == 0 else 1 - base_bit
    sums: dict[int, int] = {}
    totals: dict[int, int] = {}
    for e, bit in assign.items():
        for v in state.g.edges[e]:
            sums[v] = sums.get(v, 0) + state.y[e]
            totals[v] = totals.get(v, 0) + bit
    den = state.den
    for v, target in sums.items():
        if not (target - den < totals[v] * den <= target + den):
            return None
    return assign


def _finish_odd_component(state: _State, comp_vertices: list[int]) -> None:
    """Exact assignment for an odd cycle with at most one pendant path.

    These are the only shapes with no sum-preserving move left. Tail edges
    alternate from a nearest-integer choice at the leaf, giving every inner
    tail vertex a pair sum of exactly 1, which any window allows; the cycle
    then takes an alternating pattern whose doubled bit is placed on a vertex
    that tolerates it. At least one placement always exists.
    """
    leaves = [v for v in comp_vertices if state.fdeg(v) == 1]
    tail_assign: dict[int, int] = {}
    if leaves:
        if len(leaves) != 1:
            raise AssertionError("odd component must have at most one pendant path")
        cur = leaves[0]
        edge = state.neighbors_sorted(cur)[0]
        bit = 1 if 2 * state.y[edge] >= state.den else 0
        while True:
            tail_assign[edge] = bit
            cur = state.other(edge, cur)
            if state.fdeg(cur) == 3:
                attach = cur
                break
            nxt = [e for e in state.neighbors_sorted(cur) if e not in tail_assign]
            if len(nxt) != 1:
                raise AssertionError("pendant path must continue through degree-2 vertices")
            edge = nxt[0]
            bit = 1 - bit
        first_cycle_edge = min(e for e in state.neighbors_sorted(attach) if e not in tail_assign)
        cyc_edges = _ordered_cycle_from(state, attach, first_cycle_edge)
    else:
        start = comp_vertices[0]
        cyc_edges = _ordered_cycle_from(state, start, state.neighbors_sorted(start)[0])
    if len(cyc_edges) % 2 == 0:
        raise AssertionError("finisher needs an odd cycle")
    # A unicyclic component has as many edges as vertices.
    if len(tail_assign) + len(cyc_edges) != len(comp_vertices):
        raise AssertionError("cycle and tail must cover the component")

    for base_pos in range(len(cyc_edges)):
        for base_bit in (1, 0):
            assign = _try_pattern(state, cyc_edges, base_pos, base_bit, tail_assign)
            if assign is not None:
                for e, bit in assign.items():
                    state.assign(e, bit)
                return
    raise AssertionError("odd component admits no valid pattern")


def _round_general(g: Graph, fractional: dict[int, Fraction], x: list[int | None]) -> None:
    state = _State(g, fractional, x)
    guard = 4 * (len(fractional) + 1)
    while state.y:
        guard -= 1
        if guard < 0:
            raise BudgetError("rounding failed to converge")
        parent_edge, depth, back = _search(state, min(state.adj))
        if len(back) == 2:
            # Two independent cycles: an even one shifts alone; two odd ones
            # combine through a connecting tree path into an even closed walk.
            c1 = _fundamental_cycle(state, parent_edge, depth, back[0])
            c2 = _fundamental_cycle(state, parent_edge, depth, back[1])
            if len(c1) % 2 == 0:
                state.apply_shift(c1, closed=True)
            elif len(c2) % 2 == 0:
                state.apply_shift(c2, closed=True)
            else:
                u1 = state.g.edges[back[0]][0]
                u2 = state.g.edges[back[1]][0]
                link = _tree_walk(state, parent_edge, depth, u1, u2)
                walk = c1 + link + c2 + link[::-1]
                state.apply_shift(walk, closed=True)
            continue
        # The search ran to completion, so it visited the whole component.
        comp_vertices = sorted(parent_edge)
        if back:
            cycle = _fundamental_cycle(state, parent_edge, depth, back[0])
            if len(cycle) % 2 == 0:
                state.apply_shift(cycle, closed=True)
                continue
        path = _leaf_path(state, comp_vertices)
        if path is not None:
            state.apply_shift(path, closed=False)
        elif back:
            _finish_odd_component(state, comp_vertices)
        else:
            raise AssertionError("tree component without two leaves")
