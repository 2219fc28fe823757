"""Reference implementations and scalar graph views shared by the test modules.

The exhaustive search is only permitted on tiny inputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from lidecomp.coloring import VertexColoring
from lidecomp.dcs import DcsInstance
from lidecomp.errors import InputError
from lidecomp.graphs import Graph
from lidecomp.rounding import FractionalEdgeWeights


def edge_list(g: Graph) -> tuple[tuple[int, int], ...]:
    """The canonical edge list as ``(u, v)`` pairs with ``u < v``, in canonical order."""
    eu, ev = g.endpoint_arrays()
    return tuple(zip(eu.tolist(), ev.tolist()))


def edge_index(g: Graph) -> dict[tuple[int, int], int]:
    """The canonical index of each edge, keyed by its ``(u, v)`` pair with ``u < v``."""
    return {pair: i for i, pair in enumerate(edge_list(g))}


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    """The neighbours of ``v``, ascending, read from the CSR adjacency."""
    return tuple(g.indices[g.indptr[v] : g.indptr[v + 1]].tolist())


def double_cover(h: Graph) -> Graph:
    """The bipartite double cover of ``h``: vertex ``(v, s)`` is ``v + s*h.n``.

    Each edge uv of ``h`` gives the edges (u, 0)-(v, 1) and (v, 0)-(u, 1), so
    a d-regular ``h`` gives a d-regular bipartite graph on ``2*h.n`` vertices.
    """
    eu, ev = h.endpoint_arrays()
    return Graph(2 * h.n, np.concatenate((np.column_stack((eu, ev + h.n)),
                                          np.column_stack((ev, eu + h.n)))))


def planted_coloring(n_h: int, palette: int) -> VertexColoring:
    """Colour pairs for the double cover of an ``n_h``-vertex graph, P the palette.

    Side 0 gets the pair (1, 1) and side 1 the pair (1 + P/2, 1 + P/2), with
    P/2 rounded down. Adjacent vertices differ in both coordinates by P/2, as
    far apart as the cycle of colours allows, so no edge is special or
    uncoloured, and none is risky while the closeness bound stays below P/2.
    """
    side = np.repeat([1, 1 + palette // 2], n_h)
    return VertexColoring(palette, side, side)


def weight_fractions(w: FractionalEdgeWeights) -> list[Fraction]:
    """Each edge's weight as a ``Fraction``, in canonical edge order."""
    return [Fraction(k, w.denominator) for k in w.numerators.tolist()]


def vertex_sums(g: Graph, values) -> list:
    """Per vertex, the sum of ``values`` (one per edge) over its edges, by a plain loop."""
    sums = [0] * g.n
    for (u, v), z in zip(edge_list(g), values):
        sums[u] += z
        sums[v] += z
    return sums


def exhaustive_solve(inst: DcsInstance, max_edges: int = 25) -> frozenset[int] | None:
    """Exhaust all edge subsets (gray-code order); None when none is feasible."""
    g = inst.graph
    if g.m > max_edges:
        raise InputError(f"exhaustive search capped at {max_edges} edges, got {g.m}")
    lower = [-(-d // 3) for d in g.degrees.tolist()]
    upper = [(2 * d) // 3 for d in g.degrees.tolist()]
    allowed = [inst.allowed_residues(v) for v in range(g.n)]

    deg = [0] * g.n

    def vertex_ok(v: int) -> bool:
        return lower[v] <= deg[v] <= upper[v] and deg[v] % inst.moduli[v] in allowed[v]

    bad = sum(not vertex_ok(v) for v in range(g.n))
    edges = edge_list(g)
    inside = [False] * g.m
    if bad == 0:
        return frozenset()
    for step in range(1, 1 << g.m):
        flip = (step & -step).bit_length() - 1
        u, v = edges[flip]
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


def ref_round_half_euler(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """The walk as it was written over dicts and sets, kept as the reference.

    ``edges`` are canonical pairs in canonical order; edge j carries key j and
    the j-th odd vertex's auxiliary edge key ``len(edges) + j``.
    """
    m = len(edges)
    x = [None] * m
    aux = n
    adj: dict[int, list[tuple[int, int]]] = {}
    deg: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    odd = sorted(v for v, dv in deg.items() if dv % 2)
    for j, v in enumerate(odd):
        key = m + j
        adj.setdefault(aux, []).append((v, key))
        adj[v].append((aux, key))
    for lst in adj.values():
        lst.sort()

    seen: set[int] = set()
    for start in ([aux] if aux in adj else []) + sorted(v for v in adj if v != aux):
        if start in seen or not adj[start]:
            continue
        circuit = ref_euler_circuit(adj, start, seen)
        bit = 1
        for key in circuit:
            if key < m:
                x[key] = bit
            bit = 1 - bit
    return x


def ref_euler_circuit(
    adj: dict[int, list[tuple[int, int]]], start: int, seen: set[int]
) -> list[int]:
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
