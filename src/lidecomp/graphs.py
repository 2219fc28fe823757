"""Graph representation, generators, degree queries and edge-list file I/O.

Vertices are dense integers ``0..n-1``. Edges are unordered pairs stored as
``(u, v)`` with ``u < v`` in lexicographic order; the position of an edge in
that order is its canonical index, a contract relied on by the file format
and by every "first feasible" tie-break elsewhere in the package. Graphs are
immutable after construction and safe to share between threads: the endpoint
arrays are built once, on first use, and cached read-only.

Edge subsets are plain ``frozenset[int]`` values over canonical edge indices
(see :func:`validate_edge_subset`); array code selects edges with a boolean
mask or an index array instead, and counts degrees with :func:`degree_vector`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lidecomp.errors import BudgetError, InputError

EdgeSubset = frozenset[int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with canonical vertex/edge indexing.

    Parameters
    ----------
    n : int
        Vertex count; vertices are ``0..n-1``.
    edges : iterable of (int, int)
        Unordered pairs. Pairs may arrive in any order/orientation; they are
        canonicalized to ``u < v`` and sorted. Self-loops and duplicates are
        rejected rather than silently dropped.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _index: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)
    _endpoints: tuple[np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        canon: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            if not (0 <= a and b < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            canon.append((a, b))
        canon.sort()
        for i in range(1, len(canon)):
            if canon[i] == canon[i - 1]:
                raise InputError(f"duplicate edge {canon[i]}")
        adj: list[list[int]] = [[] for _ in range(n)]
        deg = [0] * n
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
            deg[u] += 1
            deg[v] += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "degrees", tuple(deg))
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(canon)})

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def edge_id(self, u: int, v: int) -> int:
        """Canonical index of the edge ``uv``; raises ``KeyError`` if absent."""
        return self._index[(u, v) if u < v else (v, u)]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._index

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only int64 arrays in canonical edge order."""
        if self._endpoints is None:
            arr = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
            eu, ev = np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])
            eu.flags.writeable = False
            ev.flags.writeable = False
            object.__setattr__(self, "_endpoints", (eu, ev))
        return self._endpoints

    def is_regular(self) -> bool:
        return self.n == 0 or len(set(self.degrees)) == 1


def validate_edge_subset(g: Graph, es: EdgeSubset) -> None:
    """Check that every member is a valid edge index of ``g``."""
    for i in es:
        if not 0 <= i < g.m:
            raise InputError(f"edge index {i} out of range for m={g.m}")


def degree_vector(g: Graph, edges: np.ndarray) -> np.ndarray:
    """Per-vertex degree array of the edges a boolean mask or index array selects."""
    eu, ev = g.endpoint_arrays()
    return np.bincount(eu[edges], minlength=g.n) + np.bincount(ev[edges], minlength=g.n)


def subgraph_degrees(g: Graph, es: EdgeSubset) -> list[int]:
    """Per-vertex degree vector of the spanning subgraph with edge set ``es``."""
    return degree_vector(g, np.fromiter(es, dtype=np.int64, count=len(es))).tolist()


def is_subgraph_locally_irregular(g: Graph, es: EdgeSubset) -> bool:
    """True iff within the subgraph ``es`` every edge joins vertices of distinct degree."""
    deg = subgraph_degrees(g, es)
    return all(deg[g.edges[i][0]] != deg[g.edges[i][1]] for i in es)


def subgraph_conflicts(g: Graph, es: EdgeSubset) -> list[int]:
    """Edge indices in ``es`` whose endpoints have equal degree within ``es``."""
    deg = subgraph_degrees(g, es)
    return sorted(i for i in es if deg[g.edges[i][0]] == deg[g.edges[i][1]])


def is_locally_irregular(g: Graph) -> bool:
    """True iff adjacent vertices always have distinct degrees (vacuously for no edges)."""
    return all(g.degrees[u] != g.degrees[v] for u, v in g.edges)


def generate_regular(n: int, d: int, seed: int, max_restarts: int = 200) -> Graph:
    """Sample a simple d-regular graph on n vertices, deterministic per seed.

    Uses the stub-pairing (configuration model) scheme: pair half-edges
    uniformly, keep the simple pairs, and iteratively re-pair the stubs left
    over from loops/duplicates; restart when the leftover stubs admit no
    suitable edge. Every output is certified regular before being returned.
    """
    if d < 1:
        raise InputError(f"degree must be >= 1, got {d}")
    if n <= d:
        raise InputError(f"need n > d, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise InputError(f"n*d must be even, got n={n}, d={d}")
    if 2 * d > n - 1:
        # Dense side: pairing stalls, so sample the sparse complement instead.
        co = n - 1 - d
        if co == 0:
            return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        sparse = generate_regular(n, co, seed, max_restarts)
        return Graph(
            n,
            [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if not sparse.has_edge(i, j)
            ],
        )
    rng = np.random.default_rng(seed)

    def suitable(edges: set[tuple[int, int]], counts: dict[int, int]) -> bool:
        # Some pair of leftover stubs must still form a fresh simple edge.
        verts = sorted(counts)
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                if (a, b) not in edges:
                    return True
        return not verts

    for _ in range(max_restarts):
        edges: set[tuple[int, int]] = set()
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        failed = False
        while stubs.size:
            rng.shuffle(stubs)
            leftover: dict[int, int] = {}
            it = iter(stubs.tolist())
            for a, b in zip(it, it):
                if a > b:
                    a, b = b, a
                if a != b and (a, b) not in edges:
                    edges.add((a, b))
                else:
                    leftover[a] = leftover.get(a, 0) + 1
                    leftover[b] = leftover.get(b, 0) + 1
            if not suitable(edges, leftover):
                failed = True
                break
            stubs = np.asarray(
                [v for v, c in leftover.items() for _ in range(c)], dtype=np.int64
            )
        if failed:
            continue
        g = Graph(n, edges)
        if all(x == d for x in g.degrees):
            return g
    raise BudgetError(f"regular graph generation failed after {max_restarts} restarts")


def generate_circulant(n: int, offsets: Sequence[int]) -> Graph:
    """Deterministic regular graph: vertex i is adjacent to i +- o (mod n) per offset.

    Offsets must be distinct values in 1..n/2. The diameter offset n/2 (n even)
    contributes degree 1, every other offset degree 2.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    offs = list(offsets)
    if len(set(offs)) != len(offs):
        raise InputError(f"offsets must be distinct, got {offs}")
    edges = set()
    for o in offs:
        if not (1 <= o and 2 * o <= n):
            raise InputError(f"offset {o} out of range 1..n/2 for n={n}")
        for i in range(n):
            j = (i + o) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph(n, edges)


def read_graph(path: str | Path) -> Graph:
    """Parse the edge-list text format: header ``n m`` then m lines ``u v``.

    Lines starting with ``#`` are comments. Malformed content raises
    ``InputError`` naming the offending line.
    """
    header: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read graph file: {exc}") from None
    with fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(f"{path}: line {ln}: expected two integers, got {line!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"{path}: line {ln}: non-integer token in {line!r}") from None
            if header is None:
                if a < 0 or b < 0:
                    raise InputError(f"{path}: line {ln}: invalid header {line!r}")
                header = (a, b)
            else:
                pairs.append((a, b))
    if header is None:
        raise InputError(f"{path}: missing 'n m' header line")
    n, m = header
    if len(pairs) != m:
        raise InputError(f"{path}: header declares m={m} but found {len(pairs)} edge lines")
    try:
        return Graph(n, pairs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_graph(g: Graph, path: str | Path) -> None:
    """Write the canonical form: ``n m`` header, then edges in canonical order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")
