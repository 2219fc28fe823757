"""Graph representation, generators, degree queries and edge-list file I/O.

Vertices are dense integers ``0..n-1``. Edges are unordered pairs stored as
``(u, v)`` with ``u < v`` in lexicographic order; the position of an edge in
that order is its canonical index, a contract relied on by the file format
and by every "first feasible" tie-break elsewhere in the package.

A :class:`Graph` is held as arrays. The canonical edge list is two int64
endpoint arrays (sorted once, on the key ``u*n + v``), and the adjacency is
in CSR form: the neighbours of ``v`` are ``indices[indptr[v]:indptr[v+1]]``,
ascending. Queries return plain Python ints and tuples; the tuple view
``g.edges`` and the pair-to-index dict behind scalar :meth:`Graph.edge_id`
lookups are built on first use and cached.
Graphs are immutable after construction and safe to share between threads.

Edge subsets are plain ``frozenset[int]`` values over canonical edge indices
(see :func:`validate_edge_subset`); array code selects edges with a boolean
mask or an index array instead (:func:`index_array` converts a subset), and
counts degrees with :func:`degree_vector`.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Sequence
from functools import cached_property
from pathlib import Path

import numpy as np

from lidecomp.errors import BudgetError, InputError

EdgeSubset = frozenset[int]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _first_bad_pair(n: int, pairs: Iterable[tuple[int, int]]) -> None:
    """Raise for the first self-loop or out-of-range pair in input order."""
    for u, v in pairs:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= min(u, v) and max(u, v) < n):
            raise InputError(f"edge ({u},{v}) out of range for n={n}")


class Graph:
    """Simple undirected graph with canonical vertex/edge indexing.

    Parameters
    ----------
    n : int
        Vertex count; vertices are ``0..n-1``.
    edges : (m, 2) integer array, or iterable of (int, int)
        Unordered pairs. Pairs may arrive in any order/orientation; they are
        canonicalized to ``u < v`` and sorted. Self-loops and duplicates are
        rejected rather than silently dropped: a self-loop or out-of-range
        pair is reported as the first one in input order, a duplicate as the
        lowest pair in canonical order.
    """

    def __init__(self, n: int, edges: np.ndarray | Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            pairs = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            _first_bad_pair(n, edges)  # some endpoint exceeds int64, so it is out of range
            raise
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InputError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        u, v = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = (u == v) | (lo < 0) | (hi >= n)
        if bad.any():
            _first_bad_pair(n, [pairs[int(np.argmax(bad))].tolist()])
        key = lo * n + hi
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key)
            key = key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                first = int(key[dup[0]])
                raise InputError(f"duplicate edge {(first // n, first % n)}")
            lo, hi = lo[order], hi[order]
        # Neighbours of x: the lower ends of its edges (ascending, since the
        # edges are sorted), then the upper ends; a stable sort on the source
        # keeps that order. The narrowest dtype lets numpy use a radix sort.
        src = np.concatenate((hi, lo)).astype(np.min_scalar_type(max(n - 1, 0)))
        deg = np.bincount(src, minlength=n)
        self.n = n
        self.m = len(key)
        self.degrees: tuple[int, ...] = tuple(deg.tolist())
        self.indptr = _read_only(np.concatenate(([0], np.cumsum(deg))))
        self.indices = _read_only(np.concatenate((lo, hi))[np.argsort(src, kind="stable")])
        self._eu = _read_only(np.ascontiguousarray(lo))
        self._ev = _read_only(np.ascontiguousarray(hi))
        self._ids: dict[tuple[int, int], int] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (
            self.n == other.n
            and np.array_equal(self._eu, other._eu)
            and np.array_equal(self._ev, other._ev)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._eu.tobytes(), self._ev.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical edge list as a tuple of ``(u, v)`` pairs, built on first use."""
        return tuple(zip(self._eu.tolist(), self._ev.tolist()))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.indices[self.indptr[v] : self.indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def _pair_ids(self) -> dict[tuple[int, int], int]:
        # Built on the first scalar lookup; a plain attribute keeps later reads fast.
        if self._ids is None:
            self._ids = dict(zip(self.edges, range(self.m)))
        return self._ids

    def edge_id(self, u: int, v: int) -> int:
        """Canonical index of the edge ``uv``; raises ``KeyError`` if absent."""
        return (self._ids or self._pair_ids())[(u, v) if u < v else (v, u)]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in (self._ids or self._pair_ids())

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only int64 arrays in canonical edge order."""
        return self._eu, self._ev

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


def index_array(es: EdgeSubset) -> np.ndarray:
    """The members of an edge subset as an int64 index array (in set order)."""
    return np.fromiter(es, dtype=np.int64, count=len(es))


def subgraph_degrees(g: Graph, es: EdgeSubset) -> list[int]:
    """Per-vertex degree vector of the spanning subgraph with edge set ``es``."""
    return degree_vector(g, index_array(es)).tolist()


def _edge_conflicts(g: Graph, edges: np.ndarray) -> np.ndarray:
    """Ascending indices of the selected edges whose ends have equal degree among them.

    ``edges`` is an index array of distinct edges; degrees are counted once.
    """
    eu, ev = g.endpoint_arrays()
    deg = degree_vector(g, edges)
    return np.sort(edges[deg[eu[edges]] == deg[ev[edges]]])


def is_subgraph_locally_irregular(g: Graph, es: EdgeSubset) -> bool:
    """True iff within the subgraph ``es`` every edge joins vertices of distinct degree."""
    return not _edge_conflicts(g, index_array(es)).size


def subgraph_conflicts(g: Graph, es: EdgeSubset) -> list[int]:
    """Edge indices in ``es`` whose endpoints have equal degree within ``es``."""
    return _edge_conflicts(g, index_array(es)).tolist()


def is_locally_irregular(g: Graph) -> bool:
    """True iff adjacent vertices always have distinct degrees (vacuously for no edges)."""
    deg = np.diff(g.indptr)
    eu, ev = g.endpoint_arrays()
    return not (deg[eu] == deg[ev]).any()


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
            return Graph(n, np.column_stack(np.triu_indices(n, 1)))
        sparse = generate_regular(n, co, seed, max_restarts)
        eu, ev = sparse.endpoint_arrays()
        iu, iv = np.triu_indices(n, 1)
        keep = ~np.isin(iu * n + iv, eu * n + ev, assume_unique=True)
        return Graph(n, np.column_stack((iu[keep], iv[keep])))
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


def _parse_canonical(data: bytes) -> np.ndarray | None:
    """Fast path: the numbers of a file that is exactly ``write_graph``'s layout.

    That layout is lines of two decimal tokens (at most 18 digits, so every
    value fits int64) separated by one space and ended by ``\\n``, with no
    comments or blank lines. Returns None for anything else, which the
    line-by-line parser then handles, error messages included.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((buf == 32) | (buf == 10))
    if not seps.size or seps[-1] != len(buf) - 1 or seps.size % 2:
        return None
    kinds = buf[seps]
    # Each token is 1..18 bytes between separators, and only digits are left.
    widths = np.diff(seps, prepend=-1) - 1
    digits = len(buf) - seps.size
    if (
        (kinds[0::2] != 32).any()
        or (kinds[1::2] != 10).any()
        or widths.min() < 1
        or widths.max() > 18
        or np.count_nonzero((buf >= 48) & (buf <= 57)) != digits
    ):
        return None
    return np.fromstring(data, dtype=np.int64, sep=" ")


def _parse_lines(path: str | Path, text: str) -> np.ndarray:
    """Line-by-line parser of the general format; raises on malformed lines."""
    values: list[int] = []
    for ln, raw in enumerate(io.StringIO(text, newline=None), start=1):
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
        if not values and (a < 0 or b < 0):
            raise InputError(f"{path}: line {ln}: invalid header {line!r}")
        values += (a, b)
    if not values:
        raise InputError(f"{path}: missing 'n m' header line")
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def read_graph(path: str | Path) -> Graph:
    """Parse the edge-list text format: header ``n m`` then m lines ``u v``.

    Lines starting with ``#`` are comments. Malformed content raises
    ``InputError`` naming the offending line.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read graph file: {exc}") from None
    values = _parse_canonical(data)
    if values is None:
        values = _parse_lines(path, data.decode("utf-8"))
    n, m = (int(x) for x in values[:2])
    pairs = values[2:].reshape(-1, 2)
    if len(pairs) != m:
        raise InputError(f"{path}: header declares m={m} but found {len(pairs)} edge lines")
    try:
        return Graph(n, pairs if pairs.dtype == np.int64 else pairs.tolist())
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_graph(g: Graph, path: str | Path) -> None:
    """Write the canonical form: ``n m`` header, then edges in canonical order."""
    eu, ev = g.endpoint_arrays()
    lines = "".join(f"{u} {v}\n" for u, v in zip(eu.tolist(), ev.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        fh.write(lines)
