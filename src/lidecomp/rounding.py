"""Balanced rounding of fractional edge weights to 0/1 labels.

Given per-edge weights z in [0, 1], produce x in {0, 1} so that at every
vertex the label sum stays within the window (z-sum - 1, z-sum + 1]; the left
bound is strict, the right is not. Weights are integer numerators over a
common denominator; the general engine and the window check compute on
them, which keeps the half-integer boundary cases bit-stable.

Two engines sit behind :func:`balanced_round`:

* all fractional weights equal to 1/2: label the edges alternately along
  one closed trail per component, after an auxiliary hub vertex has joined
  every odd-degree vertex. Each vertex's visits leave by the other bit than
  they arrived, so even vertices come out balanced and odd ones, which lose
  their hub edge, drift by a half; an odd-length circuit doubles one bit at
  its seam, which sits on the hub or on the lowest vertex of a hub-free
  component, where the closed right bound permits it. The circuits are
  built in numpy over a CSR layout of the edge ends: pairing each row's
  slots two by two gives closed trails, one lockstep walk from sampled heads
  ranks them, and trails that meet at a vertex are spliced by re-pairing
  one transition of each until every component has one. The ranking is
  not walked again after the splices: only the segments that hold the
  successor of a re-paired slot are cut there.
  :func:`round_half_edges` is the same rounding for callers that hold an
  edge-index array rather than weights (the pipeline's rule groups); it
  checks the window with the verifier's integer check.

* general weights: repeatedly shift mass along structures of the fractional
  subgraph until an edge hits 0 or 1 (a deterministic form of dependent
  rounding). Even closed walks (an even cycle, or two odd cycles joined
  through a tree path) preserve every vertex sum; leaf-to-leaf paths confine
  drift to the leaf's single fractional edge, which can never leave its own
  unit window. Components that admit no such move are an odd cycle with at
  most one pendant path. The finisher alternates the tail's bits from the
  leaf and the cycle's from its start (the tail's attach vertex, else the
  lowest vertex), where the odd length doubles one bit: 1 exactly when the
  start's fractional sum reaches ``t + 1`` for the tail's bit ``t`` there
  (0 without a tail). One comparison, and every window holds.

  Values are integer numerators over one denominator (the lcm of the input
  denominators), refined only when a walk that passes an edge twice needs
  half a unit. Each step runs one breadth-first search from an end of the
  last settled edge (else from the lowest fractional vertex, found by a
  pointer that only moves up). It stops at the first non-tree edge that
  closes an even cycle, else at the second odd one; two odd cycles are
  joined through the tree path between their apexes. A search that runs to
  completion has found a tree or unicyclic component, and the tree path
  between its two lowest leaves is the leaf-to-leaf path. Adjacency rows
  stay ascending as edges settle. On d = 10 a search that stops early
  reaches about 29 vertices at m = 500 and 91 at m = 4000, growing about
  like the square root of n, for shifted walks of 6 to 9 edges.

Every result is re-verified before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import Graph, _read_only, _strictly_ascending


def _as_fraction(value) -> Fraction:
    out = value if type(value) is Fraction else Fraction(value)
    # A Fraction's denominator is positive, so the range check needs no
    # rational comparison.
    if not 0 <= out.numerator <= out.denominator:
        raise InputError(f"edge weight {value} outside [0, 1]")
    return out


@dataclass(frozen=True, eq=False)
class FractionalEdgeWeights:
    """Per-edge weights in [0, 1] over a host graph, held exactly.

    Edge ``e`` weighs ``numerators[e] / denominator``, the lcm of the weights'
    own denominators. The read-only numerators are int64 while the
    denominator times the largest degree (at least 1) is below 2**63, so
    every vertex sum fits, and Python ints (dtype object) past that.
    """

    graph: Graph
    numerators: np.ndarray
    denominator: int

    def __post_init__(self) -> None:
        if len(self.numerators) != self.graph.m:
            raise InputError(f"expected {self.graph.m} weights, got {len(self.numerators)}")
        wide = self.denominator * int(self.graph.degrees.max(initial=1)) >= 2**63
        values = np.array(self.numerators, dtype=object if wide else np.int64)
        object.__setattr__(self, "numerators", _read_only(values))

    @classmethod
    def from_values(cls, g: Graph, values) -> "FractionalEdgeWeights":
        weights = [_as_fraction(v) for v in values]
        den = math.lcm(*{z.denominator for z in weights})
        return cls(g, [z.numerator * (den // z.denominator) for z in weights], den)

    @classmethod
    def constant(cls, g: Graph, value) -> "FractionalEdgeWeights":
        z = _as_fraction(value)
        return cls(g, np.full(g.m, z.numerator), z.denominator)


@dataclass(frozen=True, eq=False)
class BinaryEdgeLabels:
    """Per-edge 0/1 labels over a host graph, as a read-only uint8 array."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.graph.m:
            raise InputError(f"expected {self.graph.m} labels, got {len(self.values)}")
        values = np.asarray(self.values)
        if not ((values == 0) | (values == 1)).all():  # before the cast, which would wrap
            raise InputError("labels must be 0 or 1")
        object.__setattr__(self, "values", _read_only(values.astype(np.uint8)))


@dataclass(frozen=True, eq=False)
class RoundingReport:
    passed: bool
    drifts: np.ndarray  # float64: per-vertex x-sum minus z-sum
    violations: np.ndarray  # int64: the vertices outside their window, ascending

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "drifts": self.drifts.tolist(),
            "violations": self.violations.tolist(),
        }


def _window_gaps(
    n: int, eu: np.ndarray, ev: np.ndarray, steps: np.ndarray, den: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's sum ``gap`` of ``steps`` over its edges, and where ``-den < gap <= den`` fails.

    ``steps[e]`` is ``den`` times edge ``e``'s label minus its weight's
    numerator. ``np.add.at`` sums int64 and Python ints alike, exactly.
    """
    gap = np.zeros(n, dtype=steps.dtype)
    np.add.at(gap, eu, steps)
    np.add.at(gap, ev, steps)
    return gap, np.flatnonzero((gap <= -den) | (gap > den))


def verify_rounding(weights: FractionalEdgeWeights, labels: BinaryEdgeLabels) -> RoundingReport:
    """Exact check of the per-vertex window (z-sum - 1, z-sum + 1] by :func:`_window_gaps`.

    Each drift ``gap[v] / den`` is an int/int true division, correctly
    rounded like ``float`` of the exact rational.
    """
    g = weights.graph
    if labels.graph != g:
        raise InputError("labels and weights live on different graphs")
    den, num = weights.denominator, weights.numerators
    eu, ev = g.endpoint_arrays()
    gap, violations = _window_gaps(g.n, eu, ev, labels.values.astype(num.dtype) * den - num, den)
    drifts = _read_only(np.array([t / den for t in gap.tolist()], dtype=float))
    return RoundingReport(not violations.size, drifts, _read_only(violations))


def balanced_round(weights: FractionalEdgeWeights) -> BinaryEdgeLabels:
    """Round weights to labels satisfying the per-vertex window at every vertex.

    Deterministic: structures are discovered in canonical (lowest-index)
    order. Raises ``BudgetError`` if the result fails its own verifier,
    which would indicate a defect rather than bad luck.
    """
    g, den, num = weights.graph, weights.denominator, weights.numerators
    x = (num == den).astype(np.uint8)
    fractional = np.flatnonzero((num > 0) & (num < den))
    if fractional.size:
        # Weights lie in [0, 1], so denominator 2 means every fractional weight is 1/2.
        if den == 2:
            eu, ev = g.endpoint_arrays()
            x[fractional] = _round_half_euler(g.n, eu[fractional], ev[fractional])
        else:
            _round_general(g, den, dict(zip(fractional.tolist(), num[fractional].tolist())), x)

    labels = BinaryEdgeLabels(g, x)
    report = verify_rounding(weights, labels)
    if not report.passed:
        violations = tuple(report.violations.tolist())
        raise BudgetError(f"rounding violated its window at vertices {violations}")
    return labels


# ---------------------------------------------------------------------------
# Eulerian fast path for weights identically 1/2
# ---------------------------------------------------------------------------


#: Every ``_HEAD_SPACING``-th slot of the layout is a head for list ranking.
_HEAD_SPACING = 16


def _segments(nxt: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cut the cycles of the permutation ``nxt`` at the slots marked in ``head``.

    Every head walks forward in lockstep until it reaches the next head, so
    each slot is stepped on once. Heads are numbered in slot order, and the
    slots no walk reaches (they lie on cycles that hold no head) become heads
    of their own, numbered after them. Returns each slot's head number and
    its distance from that head, and for each head the number of the next
    one and the distance to it. A head's own number is its ``owner`` entry.
    """
    heads = np.flatnonzero(head)
    count = len(heads)
    owner = np.full(len(nxt), -1, dtype=np.int32)
    off = np.zeros(len(nxt), dtype=np.int32)
    ahead = np.empty(count, dtype=np.int32)
    gap = np.empty(count, dtype=np.int32)
    who = np.arange(count, dtype=np.int32)
    owner[heads] = who
    cur, step = nxt[heads], 1
    while cur.size:
        stop = head[cur]
        done = who[stop]
        ahead[done] = cur[stop]
        gap[done] = step
        go = ~stop
        who, cur = who[go], cur[go]
        owner[cur] = who
        off[cur] = step
        cur, step = nxt[cur], step + 1
    lost = np.flatnonzero(owner < 0)
    owner[lost] = np.arange(count, count + len(lost), dtype=np.int32)
    succ = owner[np.concatenate((ahead, nxt[lost]))]
    return owner, off, succ, np.concatenate((gap, np.ones(len(lost), dtype=np.int32)))


def _cut(
    nxt: np.ndarray, moved: np.ndarray,
    owner: np.ndarray, off: np.ndarray, succ: np.ndarray, gap: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """:func:`_segments` of ``nxt`` after the slots ``moved`` took new successors.

    ``owner, off, succ, gap`` are the segments of the permutation before the
    change; they are updated in place where they change. The splices re-pair
    slots among themselves, so the moved slots' successors are the same set
    before and after. Every one of them becomes a head: one that is a head
    already changes nothing, one inside a segment cuts it there. Only the
    slots of cut segments get new owners and offsets, and the new heads are
    numbered after the old ones. Each moved slot now ends its segment, so
    that segment's successor is the head the slot leads to.
    """
    count = len(succ)
    cut = np.unique(nxt[moved])
    cut = cut[off[cut] > 0]
    last = moved
    if cut.size:
        # Lay the slots of the cut segments out one segment after another,
        # each from its head; a slot's place is its segment's base plus its
        # offset.
        segs = np.unique(owner[cut])
        base = np.zeros(count, dtype=np.int64)
        base[segs] = np.cumsum(gap[segs]) - gap[segs]
        hit = np.zeros(count, dtype=bool)
        hit[segs] = True
        found = np.flatnonzero(hit[owner])
        slots = np.empty_like(found)
        slots[base[owner[found]] + off[found]] = found
        begins = np.zeros(len(slots), dtype=bool)
        begins[base[segs]] = begins[base[owner[cut]] + off[cut]] = True
        starts = np.flatnonzero(begins)
        piece = np.cumsum(begins) - 1
        number = owner[slots[starts]]
        number[off[slots[starts]] > 0] = np.arange(count, count + len(cut), dtype=np.int32)
        owner[slots] = number[piece]
        off[slots] = np.arange(len(slots)) - starts[piece]
        ends = np.append(starts[1:], len(slots)) - 1
        succ = np.append(succ, np.empty(len(cut), dtype=succ.dtype))
        gap = np.append(gap, np.empty(len(cut), dtype=gap.dtype))
        gap[number] = ends - starts + 1
        last = np.concatenate((slots[ends], moved))
    succ[owner[last]] = owner[nxt[last]]
    return owner, off, succ, gap


def _round_half_euler(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Labels (uint8) of the edges ``(eu[j], ev[j])`` of a simple graph on ``0..n-1``.

    The edges must be in canonical order: ``eu[j] < ev[j]``, and the pairs
    strictly ascending. A subsequence of a :class:`Graph`'s edges is; anything
    else raises ``ValueError``.

    Vertex ``n`` is the hub: the j-th odd-degree vertex joins it by the edge
    keyed ``k + j`` (k real edges), so every row of the CSR adjacency
    (neighbours ascending, the hub last) has even length. A slot stands for
    the walk arriving at its row's vertex by its edge, and ``twin`` maps it to
    the same edge's slot at the other end.

    * **Pair.** Slot ``2i`` leaves by the edge of slot ``2i + 1`` and back,
      so ``nxt = twin[slot ^ 1]`` is a permutation whose cycles are closed
      trails covering every edge once, each trail once in each direction.
    * **Rank.** Every ``_HEAD_SPACING``-th slot and both slots of the first
      edge of every row are heads; :func:`_segments` gives each slot its
      head and its distance from it, and one pass over the heads numbers the
      cycles.
    * **Splice.** Where adjacent transitions of a row lie on different
      trails, re-pairing one slot of each merges the two trails into one. A
      union-find over the trails takes the first such meeting of each pair
      of trails in slot order until every component holds a single closed
      trail. The successor of each re-paired slot becomes a head, and
      :func:`_cut` splits the first ranking's segments at those heads, so
      no slot is walked twice.
    * **Seam.** The circuit of the hub's component starts with the hub's
      first edge and every other component's with the first edge of its
      lowest vertex, as a Hierholzer walk from those vertices would; the
      bits alternate from 1 along the circuit.

    One closed trail per component keeps the window: every visit to a
    vertex arrives and leaves by different bits, except at the one seam of
    an odd circuit (+1 for the hub or a lowest vertex, inside the window),
    and an odd-degree vertex loses one balanced pair's hub edge, so it
    drifts by a half. The labels depend only on the layout, the splices and
    the seams, not on the head spacing.
    """
    k = len(eu)
    # The pairs themselves are compared: a narrow dtype could not hold eu*n + ev.
    if (eu >= ev).any() or not _strictly_ascending(eu, ev):
        raise ValueError("edges must be canonical pairs in canonical order")
    if not k:
        return np.zeros(0, dtype=np.uint8)
    deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    odd = np.flatnonzero(deg % 2)
    size = k + len(odd)
    # Entry p and entry p + size are the two ends of edge p % size. In
    # canonical order each block lists a vertex's neighbours ascending (lower
    # ends, then upper ends), so a stable sort on the source, with the hub
    # entries of the odd vertices moved after their real ones, lays out the
    # rows. The narrowest dtype lets numpy use a radix sort.
    rank = np.concatenate(
        (ev, odd, eu, np.full(len(odd), n)), dtype=np.min_scalar_type(2 * n), casting="unsafe"
    )  # every entry is at most n
    rank *= 2
    rank[k:size] += 1
    order = np.argsort(rank, kind="stable").astype(np.int32)
    del rank
    slots = np.arange(2 * size, dtype=np.int32)
    where = np.empty_like(order)
    where[order] = slots
    del order
    twin = np.empty_like(where)
    twin[where[:size]] = where[size:]
    twin[where[size:]] = where[:size]
    counts = np.append(deg + deg % 2, len(odd))
    first = (np.cumsum(counts) - counts)[counts > 0]
    head = np.zeros(2 * size, dtype=bool)
    head[::_HEAD_SPACING] = True
    head[first] = head[twin[first]] = True

    # Pair each row's slots two by two and number the trails.
    nxt = twin[slots ^ 1]
    del slots
    owner, off, succ, gap = _segments(nxt, head)
    del head
    ahead = succ.tolist()
    cycle = [-1] * len(ahead)
    count = 0
    for h in range(len(ahead)):
        if cycle[h] < 0:
            while cycle[h] < 0:
                cycle[h] = count
                h = ahead[h]
            count += 1
    on = np.asarray(cycle, dtype=np.int32)[owner]
    # Both lists hold a Python int per head; free them before the next ranking.
    del ahead, cycle
    # Slots 2i and 2i + 1 lie on the two directions of one trail, so the
    # lower of their cycle numbers names it.
    trail = np.minimum(on[0::2], on[1::2])
    del on

    # Splice trails that meet at adjacent transitions of a row.
    row_begins = np.zeros(size, dtype=bool)
    row_begins[first // 2] = True
    at = np.flatnonzero(~row_begins[1:] & (trail[:-1] != trail[1:]))
    a, b = trail[at], trail[at + 1]
    pair = np.minimum(a, b).astype(np.int64)
    pair *= count
    pair += np.maximum(a, b)
    del a, b
    at = at[np.sort(np.unique(pair, return_index=True)[1])]
    del pair
    parent = list(range(count))
    moved: dict[int, int] = {}
    for t, a, b in zip(at.tolist(), trail[at].tolist(), trail[at + 1].tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        parent[a] = b
        x, y = 2 * t, 2 * t + 2
        mx, my = moved.get(x, x ^ 1), moved.get(y, y ^ 1)
        moved[x], moved[my], moved[y], moved[mx] = my, x, mx, y
    if moved:
        keys = np.fromiter(moved, dtype=np.int32, count=len(moved))
        nxt[keys] = twin[list(moved.values())]
        owner, off, succ, gap = _cut(nxt, keys, owner, off, succ, gap)
    # Only the rankings and each edge's two slots are read from here on.
    del nxt, trail, row_begins, at, parent, moved
    # The hub's row comes last in the layout and its circuit first.
    starts = np.roll(first, 1) if len(odd) else first
    backs = twin[starts]
    del twin

    # Number the heads of each circuit from its seam; heads on the unused
    # direction keep -1.
    succ, gap = succ.tolist(), gap.tolist()
    pos = [-1] * len(succ)
    for f, h in zip(owner[starts].tolist(), owner[backs].tolist()):
        # One of the two is on a circuit numbered already if the component is.
        if pos[f] >= 0 or pos[h] >= 0:
            continue
        p = 0
        while pos[h] < 0:
            pos[h] = p
            p, h = p + gap[h], succ[h]
    pos = np.asarray(pos, dtype=np.int32)
    # Of each edge's two slots, the one on a numbered circuit gives its bit.
    end, other = where[:k], where[size : size + k]
    slot = np.where(pos[owner[end]] >= 0, end, other)
    return ((pos[owner[slot]] + off[slot] + 1) & 1).astype(np.uint8)


def round_half_edges(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Balanced 0/1 labels (uint8) for weight-1/2 edges given by endpoint arrays.

    The same walk as :func:`balanced_round`'s all-1/2 path, checked by the
    verifier's :func:`_window_gaps` with denominator 2 and numerators 1.
    """
    bits = _round_half_euler(n, eu, ev)
    violations = _window_gaps(n, eu, ev, 2 * bits.astype(np.int64) - 1, 2)[1]
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
    ``adj[v]`` lists the fractional edges at ``v`` in ascending order, and
    settling an edge removes it in place, so the order holds throughout.
    ``last`` is the edge settled most recently and ``low`` never exceeds the
    lowest vertex that still has a fractional edge. Edge ``e`` joins
    ``eu[e]`` and ``ev[e]``, and its other end at ``v`` is ``tot[e] - v``.
    """

    def __init__(self, g: Graph, den: int, y: dict[int, int], x: np.ndarray):
        eu, ev = g.endpoint_arrays()
        self.eu, self.ev, self.tot = eu.tolist(), ev.tolist(), (eu + ev).tolist()
        self.den, self.y, self.x = den, y, x
        self.adj: list[list[int]] = [[] for _ in range(g.n)]
        for i in sorted(y):
            self.adj[self.eu[i]].append(i)
            self.adj[self.ev[i]].append(i)
        self.last: int | None = None
        self.low = 0
        # The last search's tree is held on the vertices it marked with the
        # current stamp.
        self.mark = [0] * g.n
        self.parent = [-1] * g.n
        self.depth = [0] * g.n
        self.stamp = 0

    def fdeg(self, v: int) -> int:
        return len(self.adj[v])

    def root(self) -> int:
        """An end of the last settled edge that is still fractional, else the lowest such vertex."""
        if self.last is not None:
            for v in (self.eu[self.last], self.ev[self.last]):
                if self.adj[v]:
                    return v
        while not self.adj[self.low]:
            self.low += 1
        return self.low

    def assign(self, edge: int, val: int) -> None:
        del self.y[edge]
        self.x[edge] = val
        self.last = edge
        self.adj[self.eu[edge]].remove(edge)
        self.adj[self.ev[edge]].remove(edge)

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
        # One pass sums each vertex's change and finds the step: num / div
        # units of den, the first smallest room-to-bound ratio, compared by
        # cross-multiplying.
        eu, ev, y, den = self.eu, self.ev, self.y, self.den
        vertex_delta: dict[int, int] = {}
        num, div = 0, 0
        for e, de in delta.items():
            if de:
                a, b = eu[e], ev[e]
                vertex_delta[a] = vertex_delta.get(a, 0) + de
                vertex_delta[b] = vertex_delta.get(b, 0) + de
                room = den - y[e] if de > 0 else y[e]
                if div == 0 or room * div < num * abs(de):
                    num, div = room, abs(de)
        moved = [dv for dv in vertex_delta.values() if dv]
        if closed and moved:
            raise AssertionError("closed walk must preserve every vertex sum")
        if not closed and (len(moved) != 2 or any(abs(dv) != 1 for dv in moved)):
            raise AssertionError("open walk must move exactly its two endpoint sums by one")
        if num <= 0:
            raise AssertionError("walk admits no progress")
        common = math.gcd(num, div)
        num, div = num // common, div // common
        if div > 1:
            den = self.den = den * div
            for e in y:
                y[e] *= div
        settled = 0
        for e, de in delta.items():
            if de == 0:
                continue
            val = y[e] + de * num
            if not 0 <= val <= den:
                raise AssertionError("shift pushed an edge outside [0, 1]")
            y[e] = val
            if val == 0 or val == den:
                settled += 1
                self.assign(e, val // den)
        if not settled:
            raise AssertionError("shift settled no edge")


def _search(state: _State, root: int) -> tuple[list[int], int | None, list[int]]:
    """Breadth-first search from root for a cycle to shift.

    Returns the vertices reached, a non-tree edge whose fundamental cycle is
    even (or None) and the non-tree edges with odd cycles; parent edges and
    depths of the vertices reached land in ``state.parent`` and
    ``state.depth``. A non-tree edge ``(v, w)`` closes an even cycle exactly
    when ``depth[v] + depth[w]`` is odd. The search stops at the first such
    edge, else at the second odd one; either way it has reached every vertex
    of the cycles found and of the tree path between them. Otherwise it has
    reached the whole component: a tree, or a unicyclic component whose
    cycle is odd.

    A graph edge sits once in each end's list, so an edge to a vertex
    reached earlier is a tree edge only when it is the parent edge of the
    vertex being scanned.
    """
    state.stamp += 1
    stamp, mark, parent, depth = state.stamp, state.mark, state.parent, state.depth
    tot, adj = state.tot, state.adj
    mark[root], parent[root], depth[root] = stamp, -1, 0
    odd: list[int] = []
    queue = [root]
    for v in queue:
        dv, up = depth[v], parent[v]
        for e in adj[v]:
            w = tot[e] - v
            if mark[w] != stamp:
                mark[w], parent[w], depth[w] = stamp, e, dv + 1
                queue.append(w)
            elif e != up and e not in odd:
                if (dv + depth[w]) % 2:
                    return queue, e, odd
                odd.append(e)
                if len(odd) == 2:
                    return queue, None, odd
    return queue, None, odd


def _climb(state: _State, a: int, b: int) -> tuple[int, list[int], list[int]]:
    """Where a and b meet in the last search tree, and the edges climbed from each."""
    parent, depth, tot = state.parent, state.depth, state.tot
    up_a: list[int] = []
    up_b: list[int] = []
    while a != b:
        climb_a = depth[a] >= depth[b]
        e = parent[a] if climb_a else parent[b]
        if e < 0:
            raise AssertionError("tree walk climbed past the root")
        if climb_a:
            up_a.append(e)
            a = tot[e] - a
        else:
            up_b.append(e)
            b = tot[e] - b
    return a, up_a, up_b


def _tree_walk(state: _State, a: int, b: int) -> list[int]:
    """Edge sequence of the last search tree's path from a to b."""
    _, up_a, up_b = _climb(state, a, b)
    return up_a + up_b[::-1]


def _fundamental_cycle(state: _State, chord: int) -> tuple[int, list[int]]:
    """The apex of the cycle that chord closes in the last search tree, and
    the cycle's edges from the apex down to one end of chord and back up."""
    u, w = state.eu[chord], state.ev[chord]
    apex, up_u, up_w = _climb(state, u, w)
    return apex, up_w[::-1] + [chord] + up_u


def _ordered_cycle_from(state: _State, start: int, first_edge: int) -> list[int]:
    """Follow degree-2 vertices around a cycle; returns its edges in order."""
    edges = [first_edge]
    prev_edge = first_edge
    cur = state.tot[first_edge] - start
    while cur != start:
        options = [e for e in state.adj[cur] if e != prev_edge]
        if len(options) != 1:
            raise AssertionError("cycle walk left the degree-2 set")
        prev_edge = options[0]
        edges.append(prev_edge)
        cur = state.tot[prev_edge] - cur
    return edges


def _finish_odd_component(state: _State, comp_vertices: list[int]) -> None:
    """Exact assignment for an odd cycle with at most one pendant path.

    These are the only shapes with no sum-preserving move left. Tail edges
    alternate from a nearest-integer choice at the leaf, and the cycle then
    alternates from its start (the tail's attach vertex, else the lowest
    vertex), so its odd length doubles one bit there: 1 exactly when the
    start's fractional sum s is at least ``t + 1``, where ``t`` is the tail's
    bit at the start (0 without a tail). Every vertex lands in its window
    (s - 1, s + 1]:

    * every other vertex has two fractional edges, so 0 < s < 2, and gets
      one unit;
    * the leaf has one fractional edge, so 0 < s < 1 and either bit fits;
    * at the start 0 < s < t + 3, so ``t + 2`` units fit iff s >= t + 1 and
      ``t`` units fit iff s < t + 1.

    So this is also the first pattern that a search over every start and
    bit accepts; the tests pin its labels.
    """
    leaves = [v for v in comp_vertices if state.fdeg(v) == 1]
    tail_assign: dict[int, int] = {}
    t = 0
    if leaves:
        if len(leaves) != 1:
            raise AssertionError("odd component must have at most one pendant path")
        cur = leaves[0]
        edge = state.adj[cur][0]
        t = 1 if 2 * state.y[edge] >= state.den else 0
        while True:
            tail_assign[edge] = t
            cur = state.tot[edge] - cur
            if state.fdeg(cur) == 3:
                break
            nxt = [e for e in state.adj[cur] if e not in tail_assign]
            if len(nxt) != 1:
                raise AssertionError("pendant path must continue through degree-2 vertices")
            edge = nxt[0]
            t = 1 - t
        start = cur
        first_cycle_edge = min(e for e in state.adj[start] if e not in tail_assign)
        cyc_edges = _ordered_cycle_from(state, start, first_cycle_edge)
    else:
        start = comp_vertices[0]
        cyc_edges = _ordered_cycle_from(state, start, state.adj[start][0])
    if len(cyc_edges) % 2 == 0:
        raise AssertionError("finisher needs an odd cycle")
    # A unicyclic component has as many edges as vertices.
    if len(tail_assign) + len(cyc_edges) != len(comp_vertices):
        raise AssertionError("cycle and tail must cover the component")

    bit = 1 if sum(state.y[e] for e in state.adj[start]) >= (t + 1) * state.den else 0
    for e, tail_bit in tail_assign.items():
        state.assign(e, tail_bit)
    for i, e in enumerate(cyc_edges):
        state.assign(e, bit ^ (i & 1))


def _round_general(g: Graph, den: int, y: dict[int, int], x: np.ndarray) -> None:
    """Settle the fractional edges ``e`` (weight ``y[e] / den``) into the labels ``x``."""
    state = _State(g, den, y, x)
    # Each pass settles an edge or raises, so the loop ends within len(y) passes.
    while state.y:
        reached, even, odd = _search(state, state.root())
        if even is not None:
            state.apply_shift(_fundamental_cycle(state, even)[1], closed=True)
        elif len(odd) == 2:
            # Two odd cycles combine through the tree path between their
            # apexes into an even closed walk.
            (a1, c1), (a2, c2) = (_fundamental_cycle(state, e) for e in odd)
            link = _tree_walk(state, a1, a2)
            state.apply_shift(c1 + link + c2 + link[::-1], closed=True)
        else:
            # The search reached the whole component, a tree or one odd cycle
            # with pendant trees; its two lowest leaves give the path.
            leaves = sorted(v for v in reached if state.fdeg(v) == 1)[:2]
            if len(leaves) == 2:
                state.apply_shift(_tree_walk(state, *leaves), closed=False)
            elif odd:
                _finish_odd_component(state, sorted(reached))
            else:
                raise AssertionError("tree component without two leaves")
