from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidecomp.dcs import DcsCertificate, DcsInstance, _penalty_tables, solve, verify
from lidecomp.errors import BudgetError, InputError
from lidecomp.graphs import Graph, generate_circulant, generate_regular
from oracles import edge_index, edge_list, exhaustive_solve


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def uniform_instance(g: Graph, lam: int, t) -> DcsInstance:
    ts = tuple(t) if not isinstance(t, int) else (t,) * g.n
    return DcsInstance(g, (lam,) * g.n, ts)


def ref_predicate(inst: DcsInstance, edges: frozenset[int]) -> bool:
    """Independent restatement of the certificate predicate."""
    g = inst.graph
    deg = [0] * g.n
    pairs = edge_list(g)
    for i in edges:
        u, v = pairs[i]
        deg[u] += 1
        deg[v] += 1
    for v in range(g.n):
        if not (g.degrees[v] / 3 <= deg[v] <= 2 * g.degrees[v] / 3):
            return False
        lam = inst.moduli[v]
        if deg[v] % lam not in (inst.targets[v] % lam, (inst.targets[v] + 1) % lam):
            return False
    return True


def test_verify_empty_and_full_fail_on_k13() -> None:
    g = complete_graph(13)
    inst = uniform_instance(g, 2, 0)
    empty = verify(inst, frozenset())
    assert not empty.passed
    assert not any(empty.window_ok)
    full = verify(inst, frozenset(range(g.m)))
    assert not full.passed
    assert not any(full.window_ok)


def test_solve_k13_modulus_two() -> None:
    # Residues mod 2 with targets {t, t+1} are vacuous; only the window binds.
    g = complete_graph(13)
    inst = uniform_instance(g, 2, 0)
    cert = solve(inst, seed=0)
    assert cert.passed
    assert all(4 <= x <= 8 for x in cert.degrees)


def test_precondition_min_degree() -> None:
    g = complete_graph(12)  # degree 11
    inst = uniform_instance(g, 2, 0)
    with pytest.raises(InputError):
        solve(inst, seed=0)
    # Relaxed validation lets small hosts through.
    cert = solve(inst, seed=0, strict=False)
    assert cert.passed


def test_precondition_modulus_budget() -> None:
    g = complete_graph(13)
    inst = uniform_instance(g, 3, 0)  # 6*3 = 18 > 12
    with pytest.raises(InputError):
        solve(inst, seed=0)
    with pytest.raises(InputError):
        DcsInstance(g, (1,) * g.n, (0,) * g.n)


def test_strict_validation_names_the_first_offending_vertex() -> None:
    # K13 plus isolated vertex 13: every K13 vertex has degree 12, vertex 13 has 0.
    g = Graph(14, [(i, j) for i in range(13) for j in range(i + 1, 13)])
    cases = [
        ((2,) * 14, "vertex 13 has degree 0 < 12"),
        ((2,) * 5 + (3,) + (2,) * 8, "vertex 5: 6*lambda=18 exceeds degree 12"),
        ((2,) * 13 + (3,), "vertex 13 has degree 0 < 12"),
        ((2,) * 7 + (2**70,) + (2,) * 6, f"vertex 7: 6*lambda={6 * 2**70} exceeds degree 12"),
        # 6*lambda would wrap in int64 (2**62) or uint64 (2**63, 2**64 - 1).
        ((2,) * 7 + (2**62,) + (2,) * 6, f"vertex 7: 6*lambda={6 * 2**62} exceeds degree 12"),
        ((2,) * 7 + (2**63,) + (2,) * 6, f"vertex 7: 6*lambda={6 * 2**63} exceeds degree 12"),
        ((2**64 - 1,) * 14, f"vertex 0: 6*lambda={6 * (2**64 - 1)} exceeds degree 12"),
    ]
    for moduli, message in cases:
        with pytest.raises(InputError) as info:
            solve(DcsInstance(g, moduli, (0,) * 14), seed=0)
        assert str(info.value) == message
    DcsInstance(g, (2,) * 14, (0,) * 14)


@pytest.mark.parametrize("lam", [2**58, 2**62, 2**63, 2**70])
def test_relaxed_solve_rejects_a_modulus_past_int64_potentials(lam: int) -> None:
    # K13's window is [4, 8]. With lambda past int64, targets 5 allow degrees
    # 5 and 6, and targets 0 allow none, which raises before any restart.
    g = complete_graph(13)
    cert = solve(uniform_instance(g, lam, 5), seed=0, strict=False)
    assert cert.passed and set(cert.degrees) <= {5, 6}
    message = f"vertex 0: no degree from 4 to 8 is 0 or 1 mod {lam}"
    with pytest.raises(BudgetError, match=message):
        solve(uniform_instance(g, lam, 0), seed=0, strict=False)


def test_relaxed_solve_memory_does_not_grow_with_the_modulus() -> None:
    # The gain buckets have a fixed count, so a huge modulus costs nothing.
    # The first call also imports what numpy's generator loads lazily.
    inst = uniform_instance(complete_graph(13), 10**5, 5)
    solve(inst, seed=0, strict=False, restarts=2)
    tracemalloc.start()
    try:
        cert = solve(inst, seed=0, strict=False, restarts=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert peak < 2**20


def test_solve_raises_before_searching_when_a_vertex_has_no_certifiable_degree() -> None:
    # K13 plus a pendant vertex 13 of degree 1: its window [1, 0] is empty.
    g = Graph(14, [(i, j) for i in range(13) for j in range(i + 1, 13)] + [(0, 13)])
    inst = DcsInstance(g, (2,) * 14, (0,) * 14)
    with pytest.raises(BudgetError, match="^vertex 13: no degree from 1 to 0 is 0 or 1 mod 2$"):
        solve(inst, seed=0, strict=False, restarts=1, max_steps=0)


def test_solve_exhausts_its_restarts_when_only_parity_forbids_a_certificate() -> None:
    # On K16 (window [5, 10]) with lambda 100, targets 4 allow only degree 5
    # and targets 10 only degree 10: every vertex has a certifiable degree,
    # but fifteen odd degrees and one even one cannot sum to an even number.
    g = complete_graph(16)
    inst = DcsInstance(g, (100,) * 16, (4,) * 15 + (10,))
    with pytest.raises(BudgetError, match="^no certified subgraph within 3 restarts$"):
        solve(inst, seed=0, strict=False, restarts=3)


def brute_force_distances(d: int, lam: int, residues: tuple[int, int]) -> list[int] | None:
    """Distance from each degree 0..d to the nearest certifiable one, or None if none is."""
    good = [x for x in range(d + 1) if d <= 3 * x <= 2 * d and x % lam in residues]
    return [min(abs(x - y) for y in good) for x in range(d + 1)] if good else None


def test_penalty_tables_match_brute_force_distance() -> None:
    rng = np.random.default_rng(18)
    raw = [
        (12, 2, (0, 1)), (12, 7, (2, 3)), (13, 20, (5, 6)), (24, 4, (3, 0)),
        (1, 2, (0, 1)), (0, 2, (0, 1)), (0, 3, (1, 2)), (2, 5, (4, 0)),  # empty windows
        (12, 2**70, (5, 6)), (12, 2**70, (2**70 - 1, 0)), (12, 2**70, (8, 9)),
        (9, 11, (10, 0)), (9, 10, (9, 0)), (9, 3 * 2**62, (1, 2)),  # lambda > d
    ]
    for _ in range(40):
        d, lam = int(rng.integers(0, 40)), int(rng.integers(2, 50))
        t = int(rng.integers(0, lam))
        raw.append((d, lam, (t, (t + 1) % lam)))
    flat, starts = _penalty_tables(raw)
    assert flat.dtype == np.int64
    lengths = [d + 1 for d, _, _ in raw]
    assert starts.tolist() == np.cumsum([0] + lengths[:-1]).tolist()
    assert len(flat) == sum(lengths)
    for (d, lam, residues), a in zip(raw, starts.tolist()):
        row = flat[a : a + d + 1].tolist()
        expected = brute_force_distances(d, lam, residues)
        if expected is None:
            assert row == [len(flat)] * (d + 1), (d, lam, residues)
        else:
            assert row == expected, (d, lam, residues)
            assert all(abs(b - c) <= 1 for b, c in zip(row, row[1:]))


def _strict_edge_instance(n: int, lam: int, seed: int) -> DcsInstance:
    g = generate_regular(n, 6 * lam, seed=seed)
    targets = np.random.default_rng(seed).integers(0, 2 * lam, size=n)
    return DcsInstance(g, (lam,) * n, tuple(int(t) for t in targets))


def test_one_restart_certifies_at_the_strict_edge() -> None:
    # 6*lambda = d, every n <= 60 and 4 seeds: 768 instances, each certified
    # by its first restart.
    for lam in (2, 3, 4, 5, 6, 8):
        for n in range(6 * lam + 1, 61):
            for seed in range(4):
                inst = _strict_edge_instance(n, lam, seed)
                cert = solve(inst, seed=seed, restarts=1)
                assert verify(inst, cert.edges).passed, (lam, n, seed)


@pytest.mark.parametrize("lam, d", [(8, 48), (8, 64), (10, 60)])
def test_strict_instances_at_n300_certify(lam: int, d: int) -> None:
    # Inside the guarantee (6*lambda <= d), so no restart should stall.
    for seed in range(5):
        g = generate_regular(300, d, seed=seed)
        targets = np.random.default_rng(seed).integers(0, lam, size=g.n)
        inst = DcsInstance(g, (lam,) * g.n, tuple(int(t) for t in targets))
        cert = solve(inst, seed=seed, restarts=10)
        assert verify(inst, cert.edges).passed, seed


def test_penalty_tables_scale_with_edges_not_max_degree() -> None:
    # A hub on a cycle: one vertex of degree n - 1, the rest of degree 3.
    # Tables padded to the maximum degree would take about 8 * n**2 bytes.
    n = 3000
    edges = [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)]
    inst = uniform_instance(Graph(n, edges), 2, 0)
    tracemalloc.start()
    try:
        with contextlib.suppress(BudgetError):
            solve(inst, seed=0, strict=False, restarts=1, max_steps=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n**2 // 4


def test_solve_and_verify_never_build_the_edge_tuple_view() -> None:
    g = generate_regular(60, 24, seed=3)
    inst = uniform_instance(g, 4, tuple(v % 8 for v in range(g.n)))
    cert = solve(inst, seed=2)
    assert verify(inst, cert.edges).to_json() == cert.to_json()
    assert cert.edges.dtype == np.int64 and (np.diff(cert.edges) > 0).all()


def test_half_circulant_certificate() -> None:
    # Keeping only the offset-1 edges of a 4-regular circulant leaves every
    # degree at exactly 2, the only value passing (window and residue) here.
    g = generate_circulant(10, [1, 2])
    inst = uniform_instance(g, 2, 0)
    ids = edge_index(g)
    ring = frozenset(ids[i, i + 1] for i in range(9)) | {ids[0, 9]}
    cert = verify(inst, ring)
    assert cert.passed
    assert set(cert.degrees) == {2}
    chord = min(set(range(g.m)) - ring)
    assert not verify(inst, ring | {chord}).passed
    assert not verify(inst, ring - {min(ring)}).passed


def test_window_boundaries_exact() -> None:
    # Degrees 12, 13, 14 have windows {4..8}, {5..8}, {5..9}: exact integer
    # boundaries, no float drift allowed.
    for host_deg, lo, hi in ((12, 4, 8), (13, 5, 8), (14, 5, 9)):
        star_like = Graph(
            host_deg + 1, [(0, i) for i in range(1, host_deg + 1)]
        )
        inst = uniform_instance(star_like, 2, 0)
        for deg0 in range(host_deg + 1):
            edges = frozenset(range(deg0))
            cert = verify(inst, edges)
            assert cert.window_ok[0] == (lo <= deg0 <= hi), (host_deg, deg0)


def test_verify_matches_reference_predicate_fuzz() -> None:
    rng = np.random.default_rng(8)
    for trial in range(150):
        n = int(rng.integers(4, 9))
        pairs = list(itertools.combinations(range(n), 2))
        take = rng.random(len(pairs)) < 0.6
        g = Graph(n, [p for p, keep in zip(pairs, take) if keep])
        if g.m == 0:
            continue
        lams = tuple(int(x) for x in rng.integers(2, 5, size=n))
        ts = tuple(int(x) for x in rng.integers(0, 10, size=n))
        inst = DcsInstance(g, lams, ts)
        edges = frozenset(
            int(i) for i in np.flatnonzero(rng.random(g.m) < 0.5)
        )
        assert verify(inst, edges).passed == ref_predicate(inst, edges)


def test_exhaustive_matches_verify_and_solver() -> None:
    rng = np.random.default_rng(3)
    found_feasible = 0
    for trial in range(12):
        g = generate_regular(8, 4, seed=trial)  # 16 edges
        lam = int(rng.integers(2, 4))
        ts = tuple(int(x) for x in rng.integers(0, lam, size=g.n))
        inst = DcsInstance(g, (lam,) * g.n, ts)
        best = exhaustive_solve(inst, max_edges=20)
        if best is None:
            with pytest.raises(BudgetError):
                solve(inst, seed=trial, restarts=8, strict=False)
        else:
            assert verify(inst, best).passed
            cert = solve(inst, seed=trial, restarts=50, strict=False)
            assert cert.passed
            found_feasible += 1
    assert found_feasible >= 1


def test_exhaustive_refuses_large_hosts() -> None:
    g = complete_graph(13)
    inst = uniform_instance(g, 2, 0)
    with pytest.raises(InputError):
        exhaustive_solve(inst)


def test_solver_fuzz_certificates_always_verify() -> None:
    rng = np.random.default_rng(21)
    for trial in range(10):
        n, d = 30, 24
        g = generate_regular(n, d, seed=trial + 100)
        lam = int(rng.integers(2, 5))
        ts = tuple(int(x) for x in rng.integers(0, 2 * lam, size=n))
        inst = DcsInstance(g, (lam,) * n, ts)
        cert = solve(inst, seed=trial)
        assert cert.passed
        assert verify(inst, cert.edges).passed
        assert all(cert.degrees[v] % lam in inst.allowed_residues(v) for v in range(n))


def test_solver_deterministic() -> None:
    g = generate_regular(26, 24, seed=5)
    inst = uniform_instance(g, 4, 1)
    a = solve(inst, seed=9)
    b = solve(inst, seed=9)
    assert a.to_json() == b.to_json()
    assert isinstance(a, DcsCertificate)


def test_instance_json_round_trip() -> None:
    g = complete_graph(13)
    inst = uniform_instance(g, 2, 3)
    again = DcsInstance.from_json(g, inst.to_json())
    assert again == inst
    with pytest.raises(InputError):
        DcsInstance.from_json(g, {"lambda": [2] * g.n})


def _seeded_instance(n: int, d: int, lam: int, seed: int) -> DcsInstance:
    g = generate_regular(n, d, seed=seed)
    targets = np.random.default_rng(seed).integers(0, 8, size=n)
    return DcsInstance(g, (lam,) * n, tuple(int(t) for t in targets))


# sha256 of the certificate JSON, or None where the solver must raise
# BudgetError. Re-pinned when the potential became the distance to the
# nearest certifiable degree (relaxed-small kept its hash); the plateau-heavy
# case takes 8 random plateau draws, so it pins the RNG stream, and the
# budget-error case runs out of steps in each of its three restarts.
PINNED_SOLVES = [
    ("benchmark-shape", (150, 24, 4, 0), {"seed": 0},
     "ede059ca477a9aab2b4d1689eeccfb68b8f31dd95eb1c8b22df617ce33936c94"),
    ("plateau-heavy", (16, 8, 4, 2), {"seed": 2, "strict": False},
     "0fa2a4fb3745b725d36e302611de91a32799416046381e8fd5ec20be3f5cd7b0"),
    ("relaxed-small", (10, 6, 3, 0), {"seed": 0, "strict": False},
     "018740fdf753805ebd39897cf839b33ba67947d7c2583885960946900a729b6c"),
    ("budget-error", (40, 20, 6, 2), {"seed": 2, "strict": False, "restarts": 3, "max_steps": 20},
     None),
    ("large-early-buckets", (1200, 24, 4, 0), {"seed": 0},
     "8b8f235d1879805e50e408eac303331590c60dd4800dea844734480ab62e1884"),
]


@pytest.mark.parametrize("shape, kwargs, expected", [c[1:] for c in PINNED_SOLVES],
                         ids=[c[0] for c in PINNED_SOLVES])
def test_solver_outputs_pinned(shape, kwargs, expected) -> None:
    inst = _seeded_instance(*shape)
    if expected is None:
        with pytest.raises(BudgetError, match=f"within {kwargs['restarts']} restarts"):
            solve(inst, **kwargs)
        return
    payload = json.dumps(solve(inst, **kwargs).to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == expected


def test_default_plateau_budget_binds() -> None:
    # K6 minus six edges: the default budget of 4n + m/2 = 28 zero-gain moves
    # runs out and decides the certificate (found by a search over 20000
    # random small instances); a budget of 34, or none, gives edges
    # [0, 5, 7, 8] instead.
    missing = {(0, 2), (0, 3), (1, 4), (1, 5), (2, 5), (3, 5)}
    g = Graph(6, [p for p in itertools.combinations(range(6), 2) if p not in missing])
    inst = DcsInstance(g, (3, 4, 3, 3, 4, 3), (1, 4, 9, 2, 5, 9))
    cert = solve(inst, 281, restarts=3, strict=False)
    assert cert.edges.tolist() == [2, 4, 6, 7]
    assert cert.to_json() == reference_solve(inst, 281, restarts=3).to_json()


def reference_solve(
    inst: DcsInstance,
    seed: int,
    restarts: int,
    max_steps: int | None = None,
) -> DcsCertificate:
    """The full-rescan search: every step re-scores every edge at a violating vertex.

    A vertex's penalty is the distance from its degree to the nearest
    certifiable degree, found by listing them.
    """
    g = inst.graph
    edges = edge_list(g)
    if max_steps is None:
        max_steps = 60 * g.n + 4 * g.m
    certifiable = []
    for v in range(g.n):
        lo, hi = -(-g.degrees[v] // 3), (2 * g.degrees[v]) // 3
        good = [x for x in range(lo, hi + 1) if x % inst.moduli[v] in inst.allowed_residues(v)]
        if not good:
            (r0, r1), lam = inst.allowed_residues(v), inst.moduli[v]
            raise BudgetError(f"vertex {v}: no degree from {lo} to {hi} is {r0} or {r1} mod {lam}")
        certifiable.append(good)

    def penalty(v: int, x: int) -> int:
        return min(abs(x - y) for y in certifiable[v])

    def degrees(inside: list[bool]) -> list[int]:
        deg = [0] * g.n
        for e, flag in enumerate(inside):
            if flag:
                for w in edges[e]:
                    deg[w] += 1
        return deg

    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        inside = (rng.random(g.m) < 0.5).tolist()
        plateau_left = 4 * g.n + g.m // 2
        for _ in range(max_steps):
            deg = degrees(inside)
            bad = {v for v in range(g.n) if penalty(v, deg[v])}
            if not bad:
                break
            gains = {}
            for e, (u, v) in enumerate(edges):
                if u in bad or v in bad:
                    d = -1 if inside[e] else 1
                    gains[e] = (
                        penalty(u, deg[u] + d) - penalty(u, deg[u])
                        + penalty(v, deg[v] + d) - penalty(v, deg[v])
                    )
            if not gains:
                break
            best = min(gains.values())
            ties = [e for e in sorted(gains) if gains[e] == best]
            if best > 0:
                break
            if best == 0:
                if plateau_left <= 0:
                    break
                plateau_left -= 1
                e = ties[int(rng.integers(0, len(ties)))]
            else:
                e = ties[0]
            inside[e] = not inside[e]
        deg = degrees(inside)
        if not any(penalty(v, deg[v]) for v in range(g.n)):
            return verify(inst, frozenset(e for e, f in enumerate(inside) if f))
    raise BudgetError(f"no certified subgraph within {restarts} restarts")


@st.composite
def small_instances(draw) -> DcsInstance:
    n = draw(st.integers(1, 12))
    density = draw(st.floats(0.2, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rnd.random() < density])
    moduli = draw(st.lists(st.sampled_from((2, 3, 4)), min_size=n, max_size=n))
    targets = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return DcsInstance(g, tuple(moduli), tuple(targets))


@st.composite
def relaxed_regular_instances(draw) -> DcsInstance:
    """Regular hosts with 6*lambda > d, where about half the solves take plateau moves."""
    d = draw(st.integers(6, 10))
    n = draw(st.integers(d + 1, 40))
    n -= n * d % 2  # d odd and n odd means n >= d + 2
    g = generate_regular(n, d, seed=draw(st.integers(0, 10_000)))
    lam = draw(st.integers(3, 4))
    targets = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return DcsInstance(g, (lam,) * n, tuple(targets))


@settings(max_examples=400, deadline=None)
@given(
    small_instances() | relaxed_regular_instances(),
    st.integers(0, 10_000),
    st.integers(1, 4),
    st.none() | st.integers(0, 40),
)
def test_solver_matches_full_rescan_reference(inst, seed, restarts, max_steps) -> None:
    budgets = {"restarts": restarts, "max_steps": max_steps}
    try:
        expected = reference_solve(inst, seed, **budgets)
    except BudgetError as exc:
        with pytest.raises(BudgetError, match=str(exc)):
            solve(inst, seed, strict=False, **budgets)
    else:
        assert solve(inst, seed, strict=False, **budgets).to_json() == expected.to_json()


def test_solver_scale_n2400() -> None:
    # The full-rescan search needed about a minute here; incremental gains
    # make one step cost O(degree).
    g = generate_regular(2400, 24, seed=1)
    inst = DcsInstance(g, (4,) * g.n, tuple(v % 8 for v in range(g.n)))
    start = time.perf_counter()
    cert = solve(inst, seed=1)
    assert time.perf_counter() - start < 20.0
    assert cert.passed
