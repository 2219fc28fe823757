"""Benchmark workloads: instance set-up from a seed, CLI commands, output checks.

Every workload is a closed loop with one client: the next command starts only
after the previous one has finished. A *pass* is a fixed group of consecutive
commands (one per instance size) and runs are whole passes, so the mix of
sizes, and with it throughput and the median, does not depend on where the
clock stopped.

Why these workloads:

* ``decompose`` -- the (4000, 128) baseline case of the best-effort pipeline,
  capped at 5 resample rounds. Balanced rounding, ``split_edges``, graph I/O
  and the verifier dominate; colouring is about a third.
* ``recolor`` -- (1000, 64) with the CLI's default 200 rounds. The audit never
  passes at this scale, so colouring (redraw, ``distinguish``, ``audit``) is
  about 90% of the work: an incremental audit shows here and not elsewhere.
* ``round-general`` -- the general rounding engine on dyadic weights k/64, at
  m = 250 and m = 500 (d = 10). The pipeline only ever rounds all-half groups,
  so this is the one workload that runs the general engine.
* ``dcs`` -- the degree-constrained subgraph solver at n = 150 and n = 300
  (d = 24, lambda = 4). At desk scale the pipeline's core host is peeled
  empty, so this is the one workload that runs DCS search.

The two-size workloads use many small instances rather than a few large
ones: one instance's solve time differs from another's by up to a third, and
a run has to average over enough of them for its figures to hold steady from
seed to seed.

Instance files live under fixed names in the work directory: the CLI embeds
the ``--in``/``--profile`` paths in its manifest, so a varying path would
change every payload and defeat the byte-identity check.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from lidecomp import dcs, graphs, pipeline, rounding
from lidecomp.errors import InputError

#: The test suite's scaled-down profile; the reference profile needs d > 53000.
DEMO_PROFILE = {"k": 0.1, "s": 0.05, "r": 0.3, "u": 0.2, "s1": 0.024, "r1": 0.279, "u1": 0.09}

DCS_LAMBDA = 4


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    edges: int  # input edges the command processes
    size: int  # instance size used by scaling fits (m for round, n otherwise)
    graph: str
    out: str
    aux: str | None = None  # weight or target file


@dataclass(frozen=True)
class Workload:
    name: str
    pass_size: int  # consecutive commands forming one pass
    setup: Callable[[int, Path], list[Command]]
    check: Callable[[Command, int], str | None]


def _seeds(seed: int, count: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


def _decompose_setup(seed: int, work: Path, n: int, d: int, extra: list[str]) -> list[Command]:
    graph_seed, run_seed = _seeds(seed, 2)
    graph, profile, out = work / "graph.txt", work / "profile.json", work / "out.json"
    g = graphs.generate_regular(n, d, seed=graph_seed)
    graphs.write_graph(g, graph)
    profile.write_text(json.dumps(DEMO_PROFILE, sort_keys=True) + "\n", encoding="utf-8")
    argv = [
        "decompose", "--in", str(graph), "--profile", str(profile),
        "--mode", "best-effort", *extra, "--seed", str(run_seed), "--out", str(out),
    ]
    return [Command(f"n{n}-d{d}", argv, g.m, g.n, str(graph), str(out))]


def setup_decompose(seed: int, work: Path) -> list[Command]:
    return _decompose_setup(seed, work, 4000, 128, ["--max-rounds", "5"])


def setup_recolor(seed: int, work: Path) -> list[Command]:
    return _decompose_setup(seed, work, 1000, 64, [])


def _instances(
    seed: int, work: Path, sizes: tuple[int, int], degree: int, count: int
) -> Iterator[tuple[str, graphs.Graph, Path, np.random.Generator, int]]:
    """Write ``count`` graphs of each size; yield ``(label, graph, path, rng, seed)``.

    Sizes alternate, so every pass (two consecutive commands) holds one
    instance of each size. ``rng`` is a stream of its own for the instance's
    weights or targets.
    """
    seeds = _seeds(seed, count * len(sizes))
    for k, s in enumerate(seeds):
        n = sizes[k % len(sizes)]
        g = graphs.generate_regular(n, degree, seed=s)
        label = f"n{n}-{k // len(sizes)}"
        path = work / f"graph_{label}.txt"
        graphs.write_graph(g, path)
        yield label, g, path, np.random.default_rng([s, 1]), s


def setup_round(seed: int, work: Path) -> list[Command]:
    commands = []
    for label, g, graph, rng, _ in _instances(seed, work, (50, 100), 10, 24):
        weights, out = work / f"weights_{label}.txt", work / f"out_{label}.json"
        numerators = rng.integers(1, 64, size=g.m).tolist()
        weights.write_text("".join(f"{k}/64\n" for k in numerators), encoding="utf-8")
        argv = ["round", "--in", str(graph), "--z-file", str(weights), "--out", str(out)]
        commands.append(Command(label, argv, g.m, g.m, str(graph), str(out), str(weights)))
    return commands


def setup_dcs(seed: int, work: Path) -> list[Command]:
    commands = []
    for label, g, graph, rng, s in _instances(seed, work, (150, 300), 24, 20):
        targets, out = work / f"targets_{label}.json", work / f"out_{label}.json"
        targets.write_text(json.dumps(rng.integers(0, 8, size=g.n).tolist()) + "\n", encoding="utf-8")
        argv = [
            "dcs", "--in", str(graph), "--lambda", str(DCS_LAMBDA), "--t-file", str(targets),
            "--seed", str(s), "--out", str(out),
        ]
        commands.append(Command(label, argv, g.m, g.n, str(graph), str(out), str(targets)))
    return commands


def _load(cmd: Command) -> tuple[graphs.Graph, dict]:
    return graphs.read_graph(cmd.graph), json.loads(Path(cmd.out).read_text(encoding="utf-8"))


def check_decompose(cmd: Command, rc: int) -> str | None:
    """Exact cover and verdicts re-derived by the package's own verifier."""
    g, payload = _load(cmd)
    parts = tuple(frozenset(int(i) for i in part) for part in payload["parts"])
    if len(parts) != 4:
        return f"expected 4 parts, got {len(parts)}"
    for part in parts:
        graphs.validate_edge_subset(g, part)
    cover_ok, verdicts, _ = pipeline.verify_decomposition(g, parts)
    if not cover_ok:
        return "parts are not an exact cover of the edge set"
    if list(verdicts) != payload["verdicts"]:
        return f"verdicts {payload['verdicts']} differ from the verifier's {list(verdicts)}"
    if payload["success"] and not all(verdicts):
        return "success claimed with a failed verdict"
    if rc != (0 if payload["success"] else 1):
        return f"exit code {rc} disagrees with success={payload['success']}"
    return None


def check_round(cmd: Command, rc: int) -> str | None:
    g, payload = _load(cmd)
    lines = Path(cmd.aux).read_text(encoding="utf-8").split()
    weights = rounding.FractionalEdgeWeights.from_values(g, [Fraction(x) for x in lines])
    labels = rounding.BinaryEdgeLabels(g, tuple(int(x) for x in payload["x"]))
    report = rounding.verify_rounding(weights, labels)
    if not report.passed:
        return f"rounding window violated at vertices {list(report.violations)[:10]}"
    if rc != 0 or payload["passed"] is not True:
        return f"exit code {rc}, passed={payload['passed']} for a valid rounding"
    return None


def check_dcs(cmd: Command, rc: int) -> str | None:
    g, payload = _load(cmd)
    targets = json.loads(Path(cmd.aux).read_text(encoding="utf-8"))
    inst = dcs.DcsInstance(g, (DCS_LAMBDA,) * g.n, tuple(int(t) for t in targets))
    cert = dcs.verify(inst, frozenset(int(i) for i in payload["edges"]))
    if not cert.passed:
        return "subgraph fails the window or residue certificate"
    if rc != 0 or payload["passed"] is not True:
        return f"exit code {rc}, passed={payload['passed']} for a valid subgraph"
    return None


def check(workload: Workload, cmd: Command, rc: int) -> str | None:
    """Run the workload's check; a malformed payload is a failure, not a crash."""
    try:
        return workload.check(cmd, rc)
    except (InputError, KeyError, TypeError, ValueError, OSError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decompose", 1, setup_decompose, check_decompose),
        Workload("recolor", 1, setup_recolor, check_decompose),
        Workload("round-general", 2, setup_round, check_round),
        Workload("dcs", 2, setup_dcs, check_dcs),
    )
}
