"""Exact oracles shared by the test modules; only permitted on tiny inputs."""

from __future__ import annotations

from lidecomp.dcs import DcsInstance
from lidecomp.errors import InputError


def exhaustive_solve(inst: DcsInstance, max_edges: int = 25) -> frozenset[int] | None:
    """Exhaust all edge subsets (gray-code order); None when none is feasible."""
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
