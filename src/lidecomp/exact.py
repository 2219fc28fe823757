"""Exhaustive oracle for decomposability into locally irregular subgraphs.

Decides whether the edge set of a small graph can be partitioned into k
(possibly empty) classes, each inducing a locally irregular subgraph. Empty
classes are allowed, which makes the property monotone in k. The search is
plain backtracking over edges with two prunings: interchangeable labels are
canonicalized (a new label may only be opened in increasing order, which in
particular pins the first edge to label 1), and an edge's constraint is
checked as soon as both endpoints have all incident edges labeled.

The search refuses instances whose worst-case tree k^m exceeds the node
budget unless forced, and raises instead of guessing when the budget runs
out mid-search: a returned boolean is always exact.
"""

from __future__ import annotations

import numpy as np

from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import Graph

DEFAULT_NODE_BUDGET = 2_000_000


def is_decomposable(
    g: Graph,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    force: bool = False,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide k-decomposability; on success also return a witness labeling.

    The witness assigns a label in 1..k to every edge in canonical order and
    every label class induces a locally irregular subgraph.
    """
    if k < 1:
        raise InputError(f"part count must be >= 1, got {k}")
    if node_budget < 1:
        raise InputError("node budget must be positive")
    if g.m == 0:
        return True, ()
    if not force and k**g.m > node_budget:
        raise BudgetError(
            f"worst-case tree {k}^{g.m} exceeds node budget {node_budget}; pass force to try"
        )

    # Process edges with large endpoint degree sums first: conflicts surface
    # earlier and vertices close sooner.
    eu, ev = (a.tolist() for a in g.endpoint_arrays())
    deg = g.degrees.tolist()
    order = sorted(range(g.m), key=lambda i: (-(deg[eu[i]] + deg[ev[i]]), i))
    counts = [[0] * (k + 1) for _ in range(g.n)]
    remaining = deg
    labels = [0] * g.m
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(zip(eu, ev)):
        incident[u].append((v, i))
        incident[v].append((u, i))
    nodes = 0

    def closed_ok(v: int) -> bool:
        # v just closed: every incident edge whose other end is also closed
        # now has final degrees on both sides.
        for w, e in incident[v]:
            if remaining[w] == 0:
                c = labels[e]
                if counts[v][c] == counts[w][c]:
                    return False
        return True

    # Depth-first without recursion: labels[order[pos]] is the label tried at
    # pos (0 before the first), used[pos] the largest label before pos.
    used = [0] * (g.m + 1)
    pos = 0
    while pos < g.m:
        e = order[pos]
        u, v = eu[e], ev[e]
        c = labels[e]
        if c:  # undo the previous try at this position
            for w in (u, v):
                counts[w][c] -= 1
                remaining[w] += 1
        if c == min(k, used[pos] + 1):  # every label tried: backtrack
            labels[e] = 0
            if pos == 0:
                return False, None
            pos -= 1
            continue
        c += 1
        nodes += 1
        if nodes > node_budget:
            raise BudgetError(f"exact search exceeded {node_budget} nodes")
        labels[e] = c
        for w in (u, v):
            counts[w][c] += 1
            remaining[w] -= 1
        if (remaining[u] > 0 or closed_ok(u)) and (remaining[v] > 0 or closed_ok(v)):
            used[pos + 1] = max(used[pos], c)
            pos += 1
    return True, tuple(labels)


def min_parts(
    g: Graph,
    k_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    force: bool = False,
) -> int | None:
    """Smallest k <= k_max admitting a decomposition, or None when none does."""
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    for k in range(1, k_max + 1):
        decomposable, _ = is_decomposable(g, k, node_budget=node_budget, force=force)
        if decomposable:
            return k
    return None


def witness_parts(g: Graph, witness: tuple[int, ...], k: int) -> list[np.ndarray]:
    """Split a witness labeling into k classes, each an ascending int64 edge-index array."""
    if len(witness) != g.m:
        raise InputError("witness does not label every edge")
    labels = np.asarray(witness, dtype=np.int64)
    return [np.flatnonzero(labels == part) for part in range(1, k + 1)]
