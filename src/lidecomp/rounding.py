"""Balanced rounding of fractional edge weights to 0/1 labels.

Given per-edge weights z in [0, 1], produce x in {0, 1} so that at every
vertex the label sum stays within the window (z-sum - 1, z-sum + 1]; the left
bound is strict, the right is not. All arithmetic is exact over rationals
(float inputs are dyadic, so nothing blows up), which keeps the half-integer
boundary cases bit-stable.

Two engines sit behind :func:`balanced_round`:

* all fractional weights equal to 1/2: orient an Eulerian circuit (an
  auxiliary vertex absorbs odd degrees) and alternate labels along it. Even
  vertices come out perfectly balanced, odd ones drift by a half, and an
  odd-length circuit parks its +1 drift either on the auxiliary vertex or on
  the start vertex, where the closed right bound permits it.

* general weights: repeatedly shift mass along structures of the fractional
  subgraph until an edge hits 0 or 1. Even closed walks (an even cycle, or
  two odd cycles joined through a tree path) preserve every vertex sum;
  leaf-to-leaf paths confine drift to the leaf's single fractional edge,
  which can never leave its own unit window. Components that admit no such
  move are an odd cycle with at most one pendant path; those are finished
  exactly by an alternating pattern whose doubled value sits on a vertex
  chosen to tolerate it.

Every result is re-verified before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import Graph

HALF = Fraction(1, 2)


def _as_fraction(value) -> Fraction:
    out = Fraction(value)
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


def balanced_round(weights: FractionalEdgeWeights, seed: int | None = None) -> BinaryEdgeLabels:
    """Round weights to labels satisfying the per-vertex window at every vertex.

    Deterministic: structures are discovered in canonical (lowest-index)
    order, so the seed is accepted only for interface stability and is never
    consulted. Raises ``BudgetError`` if the result fails its own verifier,
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
            _round_half_euler(g, fractional, x)
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


def _round_half_euler(g: Graph, fractional: dict[int, Fraction], x: list[int | None]) -> None:
    aux = g.n
    adj: dict[int, list[tuple[int, int]]] = {}
    deg: dict[int, int] = {}
    for i in sorted(fractional):
        u, v = g.edges[i]
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    odd = sorted(v for v, dv in deg.items() if dv % 2)
    for j, v in enumerate(odd):
        key = g.m + j  # auxiliary edge ids live past the real range
        adj.setdefault(aux, []).append((v, key))
        adj[v].append((aux, key))
    for lst in adj.values():
        lst.sort()

    seen: set[int] = set()
    for start in ([aux] if aux in adj else []) + sorted(v for v in adj if v != aux):
        if start in seen or not adj[start]:
            continue
        circuit = _euler_circuit(adj, start, seen)
        bit = 1  # first edge takes +1/2; odd circuits then drift +1 at the start
        for key in circuit:
            if key < g.m:
                x[key] = bit
            bit = 1 - bit


def _euler_circuit(adj: dict[int, list[tuple[int, int]]], start: int, seen: set[int]) -> list[int]:
    """Hierholzer walk over the component of ``start``; returns edge keys in order."""
    ptr: dict[int, int] = {}
    used: set[int] = set()
    stack: list[tuple[int, int | None]] = [(start, None)]
    out: list[int] = []
    while stack:
        v, incoming = stack[-1]
        seen.add(v)
        lst = adj.get(v, ())
        i = ptr.get(v, 0)
        advanced = False
        while i < len(lst):
            w, key = lst[i]
            i += 1
            if key not in used:
                used.add(key)
                ptr[v] = i
                stack.append((w, key))
                advanced = True
                break
        if not advanced:
            ptr[v] = i
            stack.pop()
            if incoming is not None:
                out.append(incoming)
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# General engine: exact shifts on walks plus odd-component finishers
# ---------------------------------------------------------------------------


class _State:
    """Mutable view of the fractional subgraph during rounding."""

    def __init__(self, g: Graph, fractional: dict[int, Fraction], x: list[int | None]):
        self.g = g
        self.y = fractional  # current values of still-fractional edges
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

    def settle(self, edge: int) -> None:
        val = self.y.pop(edge)
        assert val == 0 or val == 1
        self.x[edge] = int(val)
        for v in self.g.edges[edge]:
            self.adj[v].discard(edge)
            if not self.adj[v]:
                del self.adj[v]

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
        open walks move only their two endpoint sums.
        """
        assert walk
        if closed:
            assert len(walk) % 2 == 0
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
        if closed:
            assert not moved, "closed walk must preserve every vertex sum"
        else:
            assert len(moved) == 2 and all(abs(vertex_delta[v]) == 1 for v in moved)
        step = None
        for e, de in delta.items():
            if de > 0:
                cand = (1 - self.y[e]) / de
            elif de < 0:
                cand = self.y[e] / (-de)
            else:
                continue
            if step is None or cand < step:
                step = cand
        assert step is not None and step > 0, "walk admits no progress"
        settled = 0
        for e, de in delta.items():
            if de == 0:
                continue
            self.y[e] += de * step
            assert 0 <= self.y[e] <= 1
            if self.y[e] == 0 or self.y[e] == 1:
                settled += 1
                self.settle(e)
        assert settled > 0


def _component(state: _State, root: int) -> tuple[list[int], list[int]]:
    verts = [root]
    seen = {root}
    edges: set[int] = set()
    queue = [root]
    while queue:
        v = queue.pop()
        for e in state.neighbors_sorted(v):
            edges.add(e)
            w = state.other(e, v)
            if w not in seen:
                seen.add(w)
                verts.append(w)
                queue.append(w)
    return sorted(verts), sorted(edges)


def _spanning_structure(
    state: _State, root: int
) -> tuple[dict[int, int | None], dict[int, int], list[int]]:
    """Iterative DFS from root: parent edge map, depth map, non-tree edges."""
    parent_edge: dict[int, int | None] = {root: None}
    depth = {root: 0}
    back: list[int] = []
    tree_edges: set[int] = set()
    stack = [root]
    while stack:
        v = stack.pop()
        for e in state.neighbors_sorted(v):
            w = state.other(e, v)
            if w not in parent_edge:
                parent_edge[w] = e
                tree_edges.add(e)
                depth[w] = depth[v] + 1
                stack.append(w)
            elif e not in tree_edges and e != parent_edge.get(v):
                if e not in back:
                    back.append(e)
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
    while depth[a] > depth[b]:
        e = parent_edge[a]
        assert e is not None
        up_a.append(e)
        a = state.other(e, a)
    while depth[b] > depth[a]:
        e = parent_edge[b]
        assert e is not None
        up_b.append(e)
        b = state.other(e, b)
    while a != b:
        ea, eb = parent_edge[a], parent_edge[b]
        assert ea is not None and eb is not None
        up_a.append(ea)
        up_b.append(eb)
        a = state.other(ea, a)
        b = state.other(eb, b)
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


def _ordered_cycle_from(state: _State, start: int, first_edge: int) -> tuple[list[int], list[int]]:
    """Follow degree-2 vertices around a cycle; returns (vertices, edges)."""
    verts = [start]
    edges = [first_edge]
    prev_edge = first_edge
    cur = state.other(first_edge, start)
    while cur != start:
        verts.append(cur)
        options = [e for e in state.neighbors_sorted(cur) if e != prev_edge]
        assert len(options) == 1, "cycle walk left the degree-2 set"
        prev_edge = options[0]
        edges.append(prev_edge)
        cur = state.other(prev_edge, cur)
    return verts, edges


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
    every vertex lands inside its window, else None.
    """
    L = len(cycle_edges)
    assign = dict(extra)
    for offset in range(L):
        assign[cycle_edges[(base_pos + offset) % L]] = base_bit if offset % 2 == 0 else 1 - base_bit
    sums: dict[int, Fraction] = {}
    totals: dict[int, int] = {}
    for e, bit in assign.items():
        for v in state.g.edges[e]:
            sums[v] = sums.get(v, Fraction(0)) + state.y[e]
            totals[v] = totals.get(v, 0) + bit
    for v, target in sums.items():
        if not (target - 1 < totals[v] <= target + 1):
            return None
    return assign


def _finish_odd_component(
    state: _State, comp_vertices: list[int], comp_edges: list[int]
) -> None:
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
        assert len(leaves) == 1
        cur = leaves[0]
        edge = state.neighbors_sorted(cur)[0]
        bit = 1 if state.y[edge] >= HALF else 0
        while True:
            tail_assign[edge] = bit
            cur = state.other(edge, cur)
            if state.fdeg(cur) == 3:
                attach = cur
                break
            nxt = [e for e in state.neighbors_sorted(cur) if e not in tail_assign]
            assert len(nxt) == 1
            edge = nxt[0]
            bit = 1 - bit
        first_cycle_edge = min(e for e in state.neighbors_sorted(attach) if e not in tail_assign)
        _, cyc_edges = _ordered_cycle_from(state, attach, first_cycle_edge)
    else:
        start = comp_vertices[0]
        _, cyc_edges = _ordered_cycle_from(state, start, state.neighbors_sorted(start)[0])
    assert len(cyc_edges) % 2 == 1
    assert len(tail_assign) + len(cyc_edges) == len(comp_edges)

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
        root = min(state.adj)
        comp_vertices, comp_edges = _component(state, root)
        n_c, m_c = len(comp_vertices), len(comp_edges)
        parent_edge, depth, back = _spanning_structure(state, root)
        if m_c >= n_c + 1:
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
        elif m_c == n_c:
            cycle = _fundamental_cycle(state, parent_edge, depth, back[0])
            if len(cycle) % 2 == 0:
                state.apply_shift(cycle, closed=True)
            else:
                path = _leaf_path(state, comp_vertices)
                if path is not None:
                    state.apply_shift(path, closed=False)
                else:
                    _finish_odd_component(state, comp_vertices, comp_edges)
        else:
            path = _leaf_path(state, comp_vertices)
            assert path is not None, "tree component without two leaves"
            state.apply_shift(path, closed=False)
