"""lidecomp benchmark: four CLI workloads, end to end and layer by layer.

Run from anywhere; it works in the repository root that holds this file:

    python3 bench/run.py --workload decompose --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

Workloads (see ``workloads.py`` for why each exists): ``decompose``,
``recolor``, ``round-general`` and ``dcs``; ``all`` runs the four one after
another. Instances are generated from ``--seed`` during set-up, which is
repeated several times and timed. A single-threaded worker process then runs
the workload's commands in a closed loop for ``--seconds`` (see
``worker.py``). Every output is checked afterwards, outside the timed region,
with the package's own verifiers, and its sha256 is compared across repeats
and with earlier runs of the same code and seed in this checkout
(``.bench_work/digests.json``): the CLI promises byte-identical output for a
fixed manifest.

With ``--trace 0`` the report gives the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run (``spans.py``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end metrics, all from untraced executions:

* ``throughput_edges_per_s`` -- input edges processed per second of timed wall time;
* ``latency_p50_s`` -- median wall time of one pass: one command for
  ``decompose``/``recolor``, one command per instance size for the two-size
  workloads (the median of a two-size mix would sit in the gap between the
  sizes and follow their extremes);
* ``setup_s`` -- median time to generate and write the workload's instances;
* ``peak_rss_mb`` -- peak resident memory of the worker process;
* ``failed_ratio`` -- failed over attempted commands (printed, and carried by
  ``failed``/``attempted`` in the JSON line). A command fails when it raises,
  exits 2 or 3, or its output fails its check or differs from an earlier
  output of the same command; ``decompose`` exiting 1 is a verified-false
  answer, not a failure.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = Path("src")
WORK = Path(".bench_work")

#: Set-up is timed in two batches, before the worker and after the output
#: checks, so that its median spans the whole run and not one moment of the
#: machine's drifting speed. A batch repeats until it has run for SETUP_MIN_S,
#: so that tiny set-ups still give a steady median.
SETUP_MAX_REPS, SETUP_MIN_S = 25, 1.0

#: A run must end within 180 s; the worker is stopped after this many seconds.
RUN_LIMIT_S = 165

UNITS = {
    "throughput_edges_per_s": "edges/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "cli.payload_bytes": "bytes",
    "trace.overhead_pct": "%",
    "rounding.general_exponent": "1",
    "dcs.exponent": "1",
    "rounding.fit_m_small": "edges",
    "rounding.fit_m_large": "edges",
    "dcs.fit_n_small": "vertices",
    "dcs.fit_n_large": "vertices",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def unit(name: str) -> str:
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy.__version__} os={platform.system()}-{platform.release()}"
    )


def code_hash() -> str:
    """Identity of the code under test: every source and benchmark file."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path("bench").glob("*.py")]):
        h.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class DigestStore:
    """Payload digests of earlier runs of the same code in this checkout."""

    def __init__(self, path: Path, code: str) -> None:
        self.path, self.code = path, code
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = {}
        self.digests = data.get("digests", {}) if data.get("code") == code else {}

    def check(self, key: str, digest: str) -> str | None:
        """Earlier digest if it differs; records ``digest`` otherwise."""
        seen = self.digests.setdefault(key, digest)
        return seen if seen != digest else None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"code": self.code, "digests": self.digests}, indent=1), encoding="utf-8")
        os.replace(tmp, self.path)


def set_up(workload, seed: int, work: Path, min_reps: int, tracer) -> tuple[list, list[float]]:
    """One batch of timed set-ups; each writes the same files from the same seed."""
    if tracer:
        tracer.enabled = True
    times: list[float] = []
    while len(times) < min_reps or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        commands = workload.setup(seed, work)
        times.append(time.perf_counter() - t0)
    if tracer:
        tracer.enabled = False
    return commands, times


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path("bench") / "worker.py"), str(spec_path), str(result_path)],
            stdout=sys.stderr,
            timeout=max(10.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run time limit and was stopped") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_outputs(workload, commands, executions, seed: int, store: DigestStore) -> tuple[list[bool], list[str]]:
    """Per-execution failure flags plus one message per failing command."""
    import workloads

    failed = [e["error"] is not None or e["rc"] in (None, 2, 3) for e in executions]
    messages = []
    for index, cmd in enumerate(commands):
        mine = [i for i, e in enumerate(executions) if e["command"] == index]
        if not mine:
            continue
        digests = {executions[i]["digest"] for i in mine}
        codes = {executions[i]["rc"] for i in mine}
        problem = None
        if None in digests:
            problem = "no output written"
        elif len(digests) > 1 or len(codes) > 1:
            problem = f"{len(digests)} distinct outputs and exit codes {sorted(codes, key=str)} over {len(mine)} repeats"
        else:
            earlier = store.check(f"{workload.name}:{seed}:{cmd.label}", digests.pop())
            if earlier is not None:
                problem = f"output differs from an earlier run of this code and seed ({earlier[:16]})"
            else:
                problem = workloads.check(workload, cmd, codes.pop())
        if problem:
            messages.append(f"{cmd.label}: {problem}")
            for i in mine:
                failed[i] = True
    return failed, messages


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int, int, list[str]]:
    import spans
    import workloads

    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[name]
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)

    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install(spans.SETUP_TARGETS)
    commands, setup_times = set_up(workload, seed, work, 2, tracer)

    spec = {
        "src": str(SRC),
        "commands": [asdict(c) for c in commands],
        "pass_size": workload.pass_size,
        "seconds": seconds,
        "trace": trace,
    }
    result = run_worker(spec, work, deadline)
    executions = result["executions"]

    store = DigestStore(WORK / "digests.json", code_hash())
    failed, messages = check_outputs(workload, commands, executions, seed, store)
    store.save()
    setup_times += set_up(workload, seed, work, 1, tracer)[1]

    plain = [e for e in executions if e["timed"] and not e["traced"]]
    size = workload.pass_size
    walls = [sum(e["wall_s"] for e in plain[i : i + size]) for i in range(0, len(plain), size)]
    e2e = {
        "throughput_edges_per_s": sum(commands[e["command"]].edges for e in plain) / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    attempted, n_failed = len(executions), sum(failed)

    lines = [
        f"{name}: closed loop, 1 client; {result['passes']} passes, {len(executions)} commands"
        f"{' (each untraced and traced)' if trace else ''}"
        f"{' (the last an untimed repeat)' if not executions[-1]['timed'] else ''}; seed {seed}",
        "  instances: " + ", ".join(
            f"{sum(c.edges == m for c in commands)} x m={m}" for m in sorted({c.edges for c in commands})
        ),
    ]
    notes = {
        "latency_p50_s": f"median of {len(walls)} passes; " + _tail(walls),
        "setup_s": f"median of {len(setup_times)} set-ups",
    }
    for key, value in e2e.items():
        lines.append(_metric_line(key, value, notes.get(key, "")))
    lines.append(_metric_line("failed_ratio", n_failed / attempted, f"{n_failed} of {attempted}"))
    lines += [f"  FAILED {m}" for m in messages]
    for index, cmd in enumerate(commands):
        mine = [e for e in executions if e["command"] == index]
        if mine and mine[0]["digest"]:
            lines.append(f"  sha256 {cmd.label}: {mine[0]['digest']} ({mine[0]['bytes']} bytes, {len(mine)} runs)")

    if not trace:
        return e2e, attempted, n_failed, lines

    tracer.uninstall()
    setup_spans = spans.SpanIndex(tracer.spans)
    layer = {
        "graphs.generate_s": setup_spans.total("graphs.generate_regular") / len(setup_times),
        "graphs.write_s": setup_spans.total("graphs.write_graph") / len(setup_times),
        **result["per_layer"],
    }
    lines.append(
        f"  per layer, per pass of {workload.pass_size} command(s), traced; tracing overhead "
        f"{layer['trace.overhead_s']:.4f} s per pass ({layer['trace.overhead_pct']:.2f}%)"
    )
    for key, value in layer.items():
        lines.append(_metric_line(key, value, ""))
    for prefix, small, large, var in (
        ("rounding.general_exponent", "rounding.fit_m_small", "rounding.fit_m_large", "m"),
        ("dcs.exponent", "dcs.fit_n_small", "dcs.fit_n_large", "n"),
    ):
        fit = (f"fitted on {var}={layer[small]:g} and {var}={layer[large]:g}"
               if layer[large] else "not fitted: one instance size or layer not run")
        lines.append(f"  {prefix}: {fit}")
    lines += [f"  regime: {r}" for r in result["regimes"]]
    lines += [f"  missing span target: {m}" for m in result["missing"]]
    return layer, attempted, n_failed, lines


def _tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if any."""
    if len(walls) < 11:
        return "no tail percentile: fewer than 11 samples"
    p = int(100 * (1 - 10 / len(walls)))
    return f"p{p} {statistics.quantiles(walls, n=100)[p - 1]:.6g} s"


def _metric_line(key: str, value: float, note: str) -> str:
    return f"  {key:32s} {value:>16.6g} {unit(key):8s} {note}".rstrip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["decompose", "recolor", "round-general", "dcs", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    if not (SRC / "lidecomp" / "__init__.py").is_file():
        print(f"error: no lidecomp sources under {ROOT / SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = ["decompose", "recolor", "round-general", "dcs"] if args.workload == "all" else [args.workload]
    print(f"# lidecomp benchmark: seconds={args.seconds} trace={args.trace}; {machine()}")
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        try:
            values, tried, bad, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": unit(k)} for k, v in values.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
