"""Closed-loop command runner; ``run.py`` starts it as a single-threaded process.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``. The spec names the
source directory, the commands (argv lists), the pass size, the measuring
time and whether to trace. Commands run in order, whole passes at a time,
until the measuring time has passed; each calls ``lidecomp.cli.main`` in
process, so interpreter start-up is not timed. Hashing the payload file and
collecting garbage happen outside the timed region.

In a traced run every command runs twice in a row, untraced and traced, so
the tracing overhead is the paired difference. If no command repeated, the
first runs once more after the measuring time, so that every run compares
two outputs of one command byte for byte. The result file holds one
record per execution, the process's peak RSS and, when traced, the per-layer
metrics; the spans themselves go to ``spans.jsonl`` next to it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import spans


def _digest(path: Path) -> tuple[str | None, int]:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None, 0
    return hashlib.sha256(data).hexdigest(), len(data)


def _peak_rss_kb() -> int:
    """High-water resident size of this process's own address space.

    ``ru_maxrss`` is no substitute: on Linux it keeps the parent's resident
    size at fork across ``exec``, so a large parent would mask the worker.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(spec: dict, result_path: Path) -> None:
    sys.path.insert(0, spec["src"])
    from lidecomp import cli

    commands = spec["commands"]
    pass_size = spec["pass_size"]
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install(spans.COMMAND_TARGETS)
    modes = (False, True) if tracer else (False,)

    executions = []

    def execute(index: int, traced: bool, timed: bool = True) -> None:
        out = Path(commands[index]["out"])
        out.unlink(missing_ok=True)
        gc.collect()
        if tracer:
            tracer.command = len(executions)
            tracer.enabled = traced
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(commands[index]["argv"]))
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        if error:
            print(error, file=sys.stderr)
        digest, size = _digest(out)
        executions.append({
            "command": index, "wall_s": wall, "rc": rc, "error": error,
            "digest": digest, "bytes": size, "traced": traced, "timed": timed,
        })

    start = time.perf_counter()
    first = 0
    while True:
        for k in range(first, first + pass_size):
            # A repeat of a command tends to run slower than the first run, so
            # the traced copy goes first on every other pass.
            for traced in modes if (first // pass_size) % 2 == 0 else modes[::-1]:
                execute(k % len(commands), traced)
        first += pass_size
        if time.perf_counter() - start >= spec["seconds"]:
            break
    # Byte-identity is checked on every run: when no command repeated within
    # the measuring time, the first one runs once more, outside the metrics.
    if len({e["command"] for e in executions}) == len(executions):
        execute(0, traced=False, timed=False)

    result = {
        "executions": executions,
        "passes": first // pass_size,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer:
        tracer.uninstall()
        traced_runs = [e for e in executions if e["traced"]]
        sizes = {i: commands[e["command"]]["size"]
                 for i, e in enumerate(executions) if e["traced"]}
        layer = spans.command_metrics(tracer.spans, sizes, result["passes"])
        layer["cli.payload_bytes"] = sum(e["bytes"] for e in traced_runs) / result["passes"]
        untraced = sum(e["wall_s"] for e in executions if not e["traced"])
        layer["trace.overhead_s"] = (sum(e["wall_s"] for e in traced_runs) - untraced) / result["passes"]
        layer["trace.overhead_pct"] = 100.0 * layer["trace.overhead_s"] * result["passes"] / untraced
        result["per_layer"] = layer
        result["regimes"] = spans.regimes(tracer.spans)
        result["missing"] = tracer.missing
        with open(result_path.with_name("spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    tmp = result_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, result_path)


if __name__ == "__main__":
    run(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")), Path(sys.argv[2]))
