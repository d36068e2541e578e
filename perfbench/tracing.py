"""Spans around the calls into each sgalab module, plus the statistics rules.

The benchmark does not instrument the package itself.  ``instrument``
replaces public functions with timing wrappers on the module objects through
which ``sgalab.cli`` and ``sgalab.config`` reach them (``cli.resolve_setup``,
``config.fit_mle``, ``engine.run``, ``theory.stationary_cov`` ...), so every
call the command layer makes, and every call one traced function makes to
another through its module, opens a span.  Spans stay in memory and are
written once, when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children.  Children run strictly inside their parent on one thread, so the
self times of all spans of an iteration add up to the time covered by its
top-level spans, and the rest of the iteration's wall time is the
benchmark's own untraced remainder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import re
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles a timing may be reported at; see ``high_percentile``.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: (module, attribute, span name).  The module is the one the caller looks
#: the function up in, so patching it is seen by every call site.
TARGETS = (
    ("sgalab.cli", "cmd_predict", "cli.cmd_predict"),
    ("sgalab.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("sgalab.cli", "cmd_compare", "cli.cmd_compare"),
    ("sgalab.cli", "cmd_tune", "cli.cmd_tune"),
    ("sgalab.cli", "cmd_experiment", "cli.cmd_experiment"),
    ("sgalab.cli", "resolve_setup", "config.resolve_setup"),
    ("sgalab.config", "generate", "models.generate"),
    ("sgalab.config", "fit_mle", "inference.fit_mle"),
    ("sgalab.config", "empirical_info", "inference.empirical_info"),
    ("sgalab.engine", "run", "engine.run"),
    ("sgalab.artifacts", "save_run", "artifacts.save_run"),
    ("sgalab.artifacts", "load_run", "artifacts.load_run"),
    ("sgalab.artifacts", "save_acf", "artifacts.save_acf"),
    ("sgalab.artifacts", "write_json", "artifacts.write_json"),
    ("sgalab.artifacts", "read_json", "artifacts.read_json"),
    ("sgalab.theory", "predict", "theory.predict"),
    ("sgalab.theory", "ou_params", "theory.ou_params"),
    ("sgalab.theory", "stationary_cov", "theory.stationary_cov"),
    ("sgalab.theory", "marginal_cov", "theory.marginal_cov"),
    ("sgalab.theory", "avg_cov_rescaled", "theory.avg_cov_rescaled"),
    ("sgalab.theory", "mixing_time", "theory.mixing_time"),
    ("sgalab.theory", "recommend_tuning", "theory.recommend_tuning"),
    ("sgalab.linalg", "solve_lyapunov", "linalg.solve_lyapunov"),
    ("sgalab.linalg", "expm", "linalg.expm"),
    ("sgalab.diagnostics", "empirical_cov", "diagnostics.empirical_cov"),
    ("sgalab.diagnostics", "mixing_summary", "diagnostics.mixing_summary"),
    ("sgalab.diagnostics", "replicate_avg_cov", "diagnostics.replicate_avg_cov"),
    ("sgalab.diagnostics", "compare", "diagnostics.compare"),
    ("sgalab.diagnostics", "autocorrelation", "diagnostics.autocorrelation"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def top_level_time(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent is None)


class Tracer:
    """Collects spans and counts for one workload, iteration by iteration."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: Seconds on which spans start and end; the benchmark sets a clock
        #: that stands still while its calibration kernel runs.
        self.clock = time.perf_counter
        self.iteration = 0
        self._stack: list[int] = []
        self.start_iteration(0)

    #: Counts recorded in ``_count``; zero when the layer does no work.
    COUNTS = ("inference.newton_iterations", "linalg.lyapunov_system_bytes")

    def start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.spans = []
        self.counts = Counter(dict.fromkeys(self.COUNTS, 0))

    def _count(self, name: str, args, result) -> None:
        """Work counts recorded where the work happens."""
        if name == "inference.fit_mle":
            self.counts["inference.newton_iterations"] += result.iterations
        elif name == "linalg.solve_lyapunov":
            k = len(args[0])
            system = 8 * k**4  # the dense k^2 x k^2 Kronecker coefficient matrix
            key = "linalg.lyapunov_system_bytes"
            self.counts[key] = max(self.counts[key], system)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), math.nan,
                        self._stack[-1] if self._stack else None,
                        f"{self.workload}#{self.iteration}")
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def layer_totals(self) -> dict[str, float]:
        """Self seconds and call counts per span name for the iteration."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[f"{span.name}_s"] += own
            totals[f"{span.name}_calls"] += 1
        return {k: int(v) if k.endswith("_calls") else v for k, v in totals.items()}

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "workload": s.workload}
            for s in self.spans
        ]


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(module, attribute) -> value``; always restores."""
    saved = []
    try:
        for (module_name, attr), value in replacements:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def instrument(tracer: Tracer):
    """Wrap every function in ``TARGETS`` with spans for ``tracer``."""
    replacements = []
    for module_name, attr, name in TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        replacements.append(((module_name, attr), tracer.wrap(name, fn)))
    return patched(replacements)


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile in ``PERCENTILES`` with at least ten samples beyond it.

    Returns ``(percentile, value)`` with the value taken by the nearest-rank
    rule, or None when not even the median has ten samples above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))  # 1-based nearest rank
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def percentile_name(base: str, p: float) -> str:
    return f"{base}.p{p:g}"
