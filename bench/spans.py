"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

Each target below is a public function of one ``lidecomp`` layer. Installing
the tracer replaces that function object in every ``lidecomp.*`` module
namespace that binds it (``pipeline`` and ``cli`` import names directly, some
under an alias), or on its class for a method. A wrapper records a span:
name, start, end, parent span and the id of the command it ran under. Spans
stay in memory until the run ends. A target that no longer exists is listed
as missing and its metrics read 0; the run goes on.

Self time is a span's duration minus the time its child spans cover. Calls
are single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass, field


def _resample_counts(args: dict, result) -> dict:
    return {
        "rounds": result.rounds,
        "violations": len(result.audit.violations),
        "uncolored": len(result.sets.uncolored),
        "vertices": args["g"].n,
    }


def _round_counts(args: dict, result) -> dict:
    return {"edges": args["weights"].graph.m}


def _half_counts(args: dict, result) -> dict:
    colored = args["g"].n - len(args["sets"].uncolored)
    return {"core_host_vertices": colored - len(result.core_excluded)}


def _pipeline_counts(args: dict, result) -> dict:
    return {"conflict_edges": sum(result.report["conflict_counts"])}


def _solve_counts(args: dict, result) -> dict:
    return {"solved": int(result.passed)}


#: (span name, module, attribute path, counter hook) for the timed commands.
COMMAND_TARGETS = (
    ("cli.main", "lidecomp.cli", "main", None),
    ("graphs.read_graph", "lidecomp.graphs", "read_graph", None),
    ("graphs.subgraph_degrees", "lidecomp.graphs", "subgraph_degrees", None),
    ("graphs.endpoint_arrays", "lidecomp.graphs", "Graph.endpoint_arrays", None),
    ("coloring.resample_until_good", "lidecomp.coloring", "resample_until_good", _resample_counts),
    ("coloring.audit", "lidecomp.coloring", "audit", None),
    ("rounding.balanced_round", "lidecomp.rounding", "balanced_round", _round_counts),
    ("rounding.verify_rounding", "lidecomp.rounding", "verify_rounding", None),
    ("pipeline.decompose_to_four", "lidecomp.pipeline", "decompose_to_four", _pipeline_counts),
    ("pipeline.split_edges", "lidecomp.pipeline", "split_edges", None),
    ("pipeline.choose_selections", "lidecomp.pipeline", "choose_selections", None),
    ("pipeline.decompose_half", "lidecomp.pipeline", "decompose_half", _half_counts),
    ("pipeline.verify_decomposition", "lidecomp.pipeline", "verify_decomposition", None),
    ("dcs.solve", "lidecomp.dcs", "solve", _solve_counts),
    ("dcs.verify", "lidecomp.dcs", "verify", None),
)

#: Targets for the benchmark's own set-up, which builds the input files.
SETUP_TARGETS = (
    ("graphs.generate_regular", "lidecomp.graphs", "generate_regular", None),
    ("graphs.write_graph", "lidecomp.graphs", "write_graph", None),
)


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span, None at top level
    command: int  # id of the command execution the span belongs to
    start: float = 0.0
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions while ``enabled`` is true."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.command = -1
        self.missing: list[str] = []  # targets or counter hooks that no longer resolve
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        for name, module_name, path, hook in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            if outer:
                self._replace(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "lidecomp" and not mod_name.startswith("lidecomp."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.command)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if hook is not None:
                try:
                    span.counters = hook(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    if f"{name} counters" not in self.missing:
                        self.missing.append(f"{name} counters")
            return result

        return wrapper


class SpanIndex:
    """Totals, self times, call counts and counters over a list of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        self.self_time = [s.duration - c for s, c in zip(spans, child_time)]

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.spans[i].duration for i in self.named(name))

    def self_s(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def counter(self, name: str, key: str) -> int:
        return sum(self.spans[i].counters.get(key, 0) for i in self.named(name))

    def errors(self, name: str, error: str) -> int:
        return sum(1 for i in self.named(name) if self.spans[i].error == error)

    def under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        count = 0
        for i in self.named(name):
            parent = self.spans[i].parent
            while parent is not None and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            count += parent is not None
        return count

    def self_by_command(self, name: str) -> dict[int, float]:
        out: dict[int, float] = {}
        for i in self.named(name):
            cmd = self.spans[i].command
            out[cmd] = out.get(cmd, 0.0) + self.self_time[i]
        return out


def scaling_fit(times: dict[int, float], sizes: dict[int, int]) -> tuple[float, int, int]:
    """Exponent of time against size between the smallest and largest size.

    ``times`` maps a command execution to its time, ``sizes`` an execution to
    its instance size. Each size contributes the median of its times. Returns
    ``(exponent, small, large)``, or zeros when fewer than two sizes ran.
    """
    by_size: dict[int, list[float]] = {}
    for cmd, t in times.items():
        by_size.setdefault(sizes[cmd], []).append(t)
    if len(by_size) < 2:
        return 0.0, 0, 0
    small, large = min(by_size), max(by_size)
    t_small = statistics.median(by_size[small])
    t_large = statistics.median(by_size[large])
    if t_small <= 0 or t_large <= 0:
        return 0.0, small, large
    return math.log(t_large / t_small) / math.log(large / small), small, large


def command_metrics(spans: list[Span], sizes: dict[int, int], passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced commands, per pass of the workload."""
    ix = SpanIndex(spans)
    per_pass = {
        "graphs.read_s": ix.total("graphs.read_graph"),
        "graphs.subgraph_degrees_calls": ix.calls("graphs.subgraph_degrees"),
        "graphs.subgraph_degrees_s": ix.total("graphs.subgraph_degrees"),
        "graphs.endpoint_arrays_calls": ix.calls("graphs.endpoint_arrays"),
        "graphs.endpoint_arrays_s": ix.total("graphs.endpoint_arrays"),
        "coloring.resample_s": ix.self_s("coloring.resample_until_good"),
        "coloring.audit_s": ix.total("coloring.audit"),
        "coloring.audit_calls": ix.calls("coloring.audit"),
        "coloring.rounds": ix.counter("coloring.resample_until_good", "rounds"),
        "coloring.violations": ix.counter("coloring.resample_until_good", "violations"),
        "coloring.uncolored": ix.counter("coloring.resample_until_good", "uncolored"),
        "rounding.round_s": ix.self_s("rounding.balanced_round"),
        "rounding.verify_s": ix.total("rounding.verify_rounding"),
        "rounding.calls": ix.calls("rounding.balanced_round"),
        "rounding.edges": ix.counter("rounding.balanced_round", "edges"),
        "pipeline.split_edges_s": ix.self_s("pipeline.split_edges"),
        "pipeline.choose_selections_s": ix.total("pipeline.choose_selections"),
        "pipeline.decompose_half_s": ix.self_s("pipeline.decompose_half"),
        "pipeline.verify_s": ix.total("pipeline.verify_decomposition"),
        "pipeline.core_solves": ix.under("dcs.solve", "pipeline.decompose_half"),
        "pipeline.core_host_vertices": ix.counter("pipeline.decompose_half", "core_host_vertices"),
        "pipeline.conflict_edges": ix.counter("pipeline.decompose_to_four", "conflict_edges"),
        "dcs.solve_s": ix.self_s("dcs.solve"),
        "dcs.verify_s": ix.total("dcs.verify"),
        "dcs.solved": ix.counter("dcs.solve", "solved"),
        "dcs.budget_failures": ix.errors("dcs.solve", "BudgetError"),
        "cli.self_s": ix.self_s("cli.main"),
    }
    metrics = {name: value / passes for name, value in per_pass.items()}

    exponent, small, large = scaling_fit(ix.self_by_command("rounding.balanced_round"), sizes)
    metrics["rounding.general_exponent"] = exponent
    metrics["rounding.fit_m_small"] = small
    metrics["rounding.fit_m_large"] = large
    exponent, small, large = scaling_fit(ix.self_by_command("dcs.solve"), sizes)
    metrics["dcs.exponent"] = exponent
    metrics["dcs.fit_n_small"] = small
    metrics["dcs.fit_n_large"] = large
    return metrics


def regimes(spans: list[Span]) -> list[str]:
    """Degenerate regimes visible in the traced commands, named for the report."""
    ix = SpanIndex(spans)
    found = []
    resamples = [spans[i].counters for i in ix.named("coloring.resample_until_good")]
    if resamples and all(c.get("violations") == c.get("vertices") for c in resamples):
        found.append("every vertex fails the audit")
    if ix.calls("pipeline.decompose_half") and not ix.under("dcs.solve", "pipeline.decompose_half"):
        found.append("core empty: DCS not exercised")
    return found
