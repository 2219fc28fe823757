"""Graph representation, generators, degree queries and edge-list file I/O.

Vertices are dense integers ``0..n-1``. Edges are unordered pairs stored as
``(u, v)`` with ``u < v`` in lexicographic order; the position of an edge in
that order is its canonical index, a contract relied on by the file format
and by every "first feasible" tie-break elsewhere in the package.

A :class:`Graph` is held as arrays. The canonical edge list is two int64
endpoint arrays (sorted once, on the key ``u*n + v``, unless they arrive in
that order; a canonical graph file's two columns become them), and the
adjacency is in CSR form: the neighbours of ``v`` are
``indices[indptr[v]:indptr[v+1]]``, ascending. ``slot_edges``, the edge id
of each of those slots, is built on each read and not kept: it costs 16
bytes per edge, and only DCS reads it, once per solve. Every other attribute
is set in the constructor and every array is read-only, so graphs are
immutable after construction and safe to share between threads.

Every input type checks itself once, when it is built, and raises
``InputError`` there: :class:`Graph`, ``FractionalEdgeWeights``,
``BinaryEdgeLabels``, ``ConstantProfile``, ``DcsInstance`` and
``VertexColoring``. So no stage re-checks one; a stage checks only how its
inputs fit together, such as a colouring's length against its graph.

A per-vertex or per-edge vector has one form too: a read-only numpy array
(``Graph.degrees``, colour pairs, audit counts, labels, weight numerators,
certificate verdicts), passed from stage to stage unconverted; a loop that
walks one calls ``tolist()`` once first. The exception is a DCS instance's
moduli and targets: tuples of Python ints, as relaxed instances take moduli
past 2**63, which no int64 array holds. Memory per edge sets how large a
graph fits, so a per-edge temporary takes the narrowest dtype that holds its
values (colours, vertex ids, slot numbers) and is dropped after its last use,
while a returned vector keeps its documented dtype: int64 degrees and
indices, bool masks, uint8 labels. ``HalfSplit``'s labels and rules, with
values -1..4, are int8.

An edge subset has one form inside the package: a boolean mask of length
``m`` over canonical edge indices, whose degrees :func:`degree_vector` counts
over the selected edges' endpoints. A subset enters as an index collection
(a list, a set or an int64 array, such as the parts the verifier reads) and
leaves as an ascending int64 index array (DCS certificates, exact-oracle
witnesses, decomposition parts). :func:`validate_edge_subset` is the one
place an index collection becomes a mask, so a repeated index selects its
edge once.
"""

from __future__ import annotations

import io
from collections.abc import Collection, Iterable, Sequence
from pathlib import Path

import numpy as np

from lidecomp.errors import BudgetError, InputError


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] : starts[i] + lens[i]`` end to end, as one array."""
    # Each position plus its range's shift.
    out = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    out += np.arange(out.size)
    return out


def _strictly_ascending(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the pairs ``(lo[j], hi[j])`` rise strictly, compared without a key ``lo*n + hi``."""
    rises = lo[1:] > lo[:-1]
    rises |= (lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1])
    return bool(rises.all())


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
        # Copies, so that the graph never shares memory with the caller's array.
        self._build(n, pairs[:, 0].copy(), pairs[:, 1].copy())

    @classmethod
    def _from_columns(cls, n: int, u: np.ndarray, v: np.ndarray) -> Graph:
        """``Graph(n, column_stack((u, v)))`` for contiguous int64 columns and ``n >= 0``.

        Columns already in canonical order become the read-only endpoint
        arrays themselves, without a copy, so the caller hands over arrays
        it no longer uses.
        """
        g = cls.__new__(cls)
        g._build(n, u, v)
        return g

    def _build(self, n: int, u: np.ndarray, v: np.ndarray) -> None:
        lo, hi = u, v
        if (u > v).any():
            lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = (u == v) | (lo < 0) | (hi >= n)
        if bad.any():
            at = int(np.argmax(bad))
            _first_bad_pair(n, [(int(u[at]), int(v[at]))])
        del bad
        if not _strictly_ascending(lo, hi):
            key = lo * n + hi
            order = np.argsort(key)
            key = key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                first = int(key[dup[0]])
                raise InputError(f"duplicate edge {(first // n, first % n)}")
            del key
            lo, hi = lo[order], hi[order]
        self.n = n
        self.m = len(lo)
        self._eu, self._ev = _read_only(lo), _read_only(hi)
        # Every end lies in 0..n-1, which the narrowest dtype holds.
        vertex = np.min_scalar_type(max(n - 1, 0))
        ends = np.concatenate((self._eu, self._ev), dtype=vertex, casting="unsafe")
        self.degrees = _read_only(np.bincount(ends, minlength=n))
        self.indptr = _read_only(np.concatenate(([0], np.cumsum(self.degrees))))
        # Gathered narrow; the int64 copy is made once the slot order is freed.
        ends = ends[self._slots()]
        self.indices = _read_only(ends.astype(np.int64))

    def _slots(self) -> np.ndarray:
        """Entry ``j`` is the position in ``concatenate((eu, ev))`` of slot ``j``'s neighbour.

        The neighbours of x are the lower ends of its edges (ascending, since
        the edges are sorted), then the upper ends; a stable sort on the other
        end keeps that order. The narrowest dtype lets numpy use a radix sort.
        """
        vertex = np.min_scalar_type(max(self.n - 1, 0))
        return np.argsort(
            np.concatenate((self._ev.astype(vertex), self._eu.astype(vertex))), kind="stable"
        )

    @property
    def slot_edges(self) -> np.ndarray:
        """The read-only int64 edge id of each CSR slot, built afresh on each read.

        Slot ``j`` of row ``v`` joins ``v`` to ``indices[j]`` by edge
        ``slot_edges[j]``. Only DCS reads it, so no graph keeps it.
        """
        # Entry p of concatenate((eu, ev)) is an end of edge p mod m.
        slots = self._slots()
        slots %= max(self.m, 1)
        return _read_only(slots)

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

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only int64 arrays in canonical edge order."""
        return self._eu, self._ev

    def is_regular(self) -> bool:
        return self.n == 0 or bool((self.degrees == self.degrees[0]).all())


def validate_edge_subset(g: Graph, es: Collection[int] | np.ndarray) -> np.ndarray:
    """The boolean mask of an index collection's edges; a repeated index counts once.

    Raises ``InputError`` for the first member, in iteration order, that is not
    an edge index of ``g``. An integer array is checked without a Python loop.
    """
    if not isinstance(es, np.ndarray):
        try:
            es = np.fromiter(es, dtype=np.int64, count=len(es))
        except OverflowError:
            # Some member exceeds int64, so it is out of range.
            es = np.array([next(i for i in es if not 0 <= i < g.m)], dtype=object)
    bad = (es < 0) | (es >= g.m)
    if bad.any():
        raise InputError(f"edge index {es[np.argmax(bad)]} out of range for m={g.m}")
    mask = np.zeros(g.m, dtype=bool)
    mask[es] = True
    return mask


def degree_vector(g: Graph, mask: np.ndarray) -> np.ndarray:
    """Per-vertex degree array of the edges a boolean mask selects.

    Two ``bincount``s over the selected edges' endpoints, so the cost follows
    the mask's density rather than the graph's size.
    """
    if mask.dtype != bool or len(mask) != g.m:
        raise IndexError(f"expected a boolean mask of length {g.m}, got {mask.dtype} {mask.shape}")
    eu, ev = g.endpoint_arrays()
    edges = np.flatnonzero(mask)
    return np.bincount(eu[edges], minlength=g.n) + np.bincount(ev[edges], minlength=g.n)


def subgraph_conflicts(g: Graph, mask: np.ndarray) -> np.ndarray:
    """Ascending indices of the masked edges whose ends have equal degree among them."""
    eu, ev = g.endpoint_arrays()
    deg = degree_vector(g, mask)
    edges = np.flatnonzero(mask)
    return edges[deg[eu[edges]] == deg[ev[edges]]]


def is_subgraph_locally_irregular(g: Graph, es: Collection[int] | np.ndarray) -> bool:
    """True iff within the subgraph of the index collection ``es`` no edge joins equal degrees."""
    return not subgraph_conflicts(g, validate_edge_subset(g, es)).size


def is_locally_irregular(g: Graph) -> bool:
    """True iff adjacent vertices always have distinct degrees (vacuously for no edges)."""
    eu, ev = g.endpoint_arrays()
    return not (g.degrees[eu] == g.degrees[ev]).any()


def generate_regular(n: int, d: int, seed: int, max_restarts: int = 200) -> Graph:
    """Sample a simple d-regular graph on n vertices, deterministic per seed.

    Uses the stub-pairing (configuration model) scheme: shuffle the half-edges,
    pair them in order, keep the simple pairs, and re-pair the stubs left over
    from loops and duplicates; restart when the leftover stubs admit no
    suitable edge. Each pairing round works on the whole stub array at once:
    a pair is kept when it is not a loop, its key ``lo*n + hi`` is not among the
    sorted keys already kept, and it is the first pair with that key in the
    round. The leftover stubs are laid out vertex by vertex, in the order their
    ends first appear among the rejected pairs.

    Determinism contract: one ``rng.shuffle`` per round on a stub array laid
    out as above, so every seed gives the same graph as the earlier pair-by-pair
    loop (kept in the tests as the reference). Every output is certified
    regular before being returned.
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

    def suitable(verts: np.ndarray, kept: np.ndarray) -> bool:
        # Some pair of the leftover vertices (ascending) must still form a
        # fresh simple edge; tried one row of candidate keys at a time.
        for i in range(len(verts) - 1):
            keys = verts[i + 1 :] + verts[i] * n
            if (kept[kept.searchsorted(keys)] != keys).any():
                return True
        return not len(verts)

    for _ in range(max_restarts):
        # The accepted keys, ascending. The array starts with the loop keys
        # v*(n+1), v < n, so a loop is never fresh, and with n*(n+1), above
        # every key, so a searchsorted position always indexes an entry.
        kept = np.arange(n + 1, dtype=np.int64) * (n + 1)
        stubs = np.arange(n, dtype=np.int64).repeat(d)
        while stubs.size:
            rng.shuffle(stubs)
            a, b = stubs[0::2], stubs[1::2]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            keys = lo * n + hi
            # One entry per distinct key: its first pair in this round, the
            # least position in that key's run in sorted order.
            order = keys.argsort()
            ordered = keys[order]
            starts = np.concatenate(([True], ordered[1:] != ordered[:-1])).nonzero()[0]
            distinct = ordered[starts]
            first = np.minimum.reduceat(order, starts)
            fresh = kept[kept.searchsorted(distinct)] != distinct
            kept = np.concatenate((kept, distinct[fresh]))
            kept.sort(kind="stable")  # merges the two ascending runs
            rejected = np.ones(len(keys), dtype=bool)
            rejected[first[fresh]] = False
            # The ends of the rejected pairs in pair order, lower end first;
            # their vertices in order of first appearance lay out the next
            # stub array, each repeated as often as it occurs.
            ends = np.column_stack((lo[rejected], hi[rejected])).ravel()
            counts = np.bincount(ends)
            if not suitable(counts.nonzero()[0], kept):
                break
            verts = np.fromiter(dict.fromkeys(ends.tolist()), dtype=np.int64)
            stubs = verts.repeat(counts[verts])
        else:  # every stub paired
            # A key lo*n + hi with lo <= hi is a multiple of n+1 only if lo == hi.
            kept = kept[kept % (n + 1) != 0]
            g = Graph(n, np.column_stack(np.divmod(kept, n)))
            if (g.degrees != d).any():
                raise AssertionError("stub pairing left a vertex with degree != d")
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
    for o in offs:
        if not (1 <= o and 2 * o <= n):
            raise InputError(f"offset {o} out of range 1..n/2 for n={n}")
    i = np.arange(n, dtype=np.int64)
    j = (i + np.asarray(offs, dtype=np.int64)[:, None]) % n
    # The diameter offset meets each of its edges from both ends; unique drops
    # the second copy and sorts the keys, so Graph skips its own sort.
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    return Graph(n, np.column_stack(np.divmod(keys, n)))


def _parse_canonical(data: bytes) -> np.ndarray | None:
    """Fast path: the numbers of a file that is exactly ``write_graph``'s layout.

    That layout is lines of two decimal tokens (at most 18 digits, so every
    value fits int64) separated by one space and ended by ``\\n``, with no
    comments or blank lines. Returns None for anything else, which the
    line-by-line parser then handles, error messages included.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    # The digit count first, while no per-token array is alive; below "0"
    # the uint8 difference wraps past 9.
    digits = np.count_nonzero(buf - np.uint8(48) < 10)
    sep = buf == 32
    sep |= buf == 10
    # Byte positions, in the narrowest dtype that numbers them.
    seps = np.flatnonzero(sep).astype(np.min_scalar_type(len(buf)))
    del sep
    if not seps.size or seps[-1] != len(buf) - 1 or seps.size % 2:
        return None
    # Each token is 1..18 bytes, so the first separator is at 1..18 and each
    # next one 2..19 bytes after the one before; only digits are left.
    steps = np.diff(seps)
    kinds = buf[seps]
    if (
        (kinds[0::2] != 32).any()
        or (kinds[1::2] != 10).any()
        or not 1 <= seps[0] <= 18
        or steps.min() < 2
        or steps.max() > 19
        or digits != len(buf) - seps.size
    ):
        return None
    # Free the per-token checks before the values are built.
    del seps, steps, kinds
    return np.fromstring(data, dtype=np.int64, sep=" ")


def _parse_lines(path: str | Path, data: bytes) -> np.ndarray:
    """Line-by-line parser of the general format; raises on malformed lines or non-UTF-8 bytes."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
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
        values = _parse_lines(path, data)
    del data
    n, m = (int(x) for x in values[:2])
    if len(values) - 2 != 2 * m:
        raise InputError(f"{path}: header declares m={m} but found {len(values) // 2 - 1} edge lines")
    try:
        if values.dtype != np.int64:
            return Graph(n, values[2:].reshape(-1, 2).tolist())
        # The columns become the endpoint arrays; the values go first.
        u, v = values[2::2].copy(), values[3::2].copy()
        del values
        return Graph._from_columns(n, u, v)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _decimal_rows(columns: Sequence[np.ndarray], seps: Sequence[bytes]) -> bytes:
    """Row ``i``: each column's entry ``i`` in decimal, followed by that column's separator.

    The columns are non-empty, non-negative integer arrays of one length. A
    uint8 grid holds output row ``i`` in its column ``i``: each input column's
    digits, right-aligned in the width of that column's largest entry, then
    its separator's bytes. The digits come from floor divisions by 10, on
    int32 copies while the entries fit. A leading position, whose remaining
    quotient is already 0, holds byte 0, so the grid read column by column
    without its zero bytes is the rows.
    """
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    grid = np.empty((sum(widths) + sum(map(len, seps)), len(columns[0])), dtype=np.uint8)
    row = 0
    for col, top, width, sep in zip(columns, tops, widths, seps):
        rest = col.astype(np.int32 if top < 2**31 else np.int64)
        units = row + width - 1
        for r in range(units, row - 1, -1):
            # Floor division by a constant is far cheaper than divmod.
            high = rest // 10
            digits = rest - 10 * high
            digits += ord("0")
            if r != units:
                digits[rest == 0] = 0
            grid[r] = digits
            rest = high
        row += width + len(sep)
        grid[row - len(sep) : row] = np.frombuffer(sep, dtype=np.uint8)[:, None]
    cells = grid.T.ravel()
    return cells[cells != 0].tobytes()


def write_graph(g: Graph, path: str | Path) -> None:
    """Write the canonical form: ``n m`` header, then edges in canonical order.

    The edge lines ``"u v\\n"`` are laid out by numpy (:func:`_decimal_rows`)
    and the file is written in one binary write. A path that cannot be
    written raises ``InputError``.
    """
    data = b"%d %d\n" % (g.n, g.m)
    if g.m:
        data += _decimal_rows(g.endpoint_arrays(), (b" ", b"\n"))
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise InputError(f"cannot write graph file: {exc}") from None
