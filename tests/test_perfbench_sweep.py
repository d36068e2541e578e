"""The benchmark's per-layer metrics come from the current package.

``perfbench/run.py --trace 1`` gets its per-layer metrics two ways.  The
traced iterations wrap the functions that ``perfbench/tracing.py`` names in
``TARGETS`` on the modules the command layer reaches them through, and turn
the spans into ``<span>_s`` and ``<span>_calls``.  The layer micro-sweep
(``perfbench/sweep.py``) then calls the package by name: ``engine.run`` with
a ``RecordingPlan``, ``engine.sample_batch``, ``linalg.solve_lyapunov`` and
``expm``, ``diagnostics.iact``, the ``artifacts`` trace readers and writers,
and ``config.resolve_setup``'s fields.  A traced run fails when a metric that
``BENCHMARK.json`` declares goes unmeasured, and only a traced run sees it,
so these run both halves here, shrunk.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from sgalab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PER_LAYER = [m["name"] for m in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


def _load(name: str, monkeypatch):
    """``perfbench/<name>.py`` as a module, registered while the test runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_micro_sweep_reports_every_metric_the_benchmark_names(tmp_path, monkeypatch):
    sweep = _load("sweep", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    monkeypatch.setattr(sweep, "ENGINE_STEPS", {v: 200 for v in sweep.ENGINE_STEPS})
    monkeypatch.setattr(sweep, "REPEATS", 1)
    # _median_time's default was bound to REPEATS when the module loaded
    monkeypatch.setattr(sweep._median_time, "__defaults__", (1,))

    trees = workloads.WORKLOADS["long-chain"].trees(1)
    metrics = sweep.run_sweep(trees, 1, str(tmp_path / "sweep"))

    named = set(PER_LAYER)
    assert set(metrics) <= named, sorted(set(metrics) - named)
    assert {f"engine.steps_per_s.{v}" for v in sweep.ENGINE_STEPS} <= set(metrics)
    for name, value in metrics.items():
        assert math.isfinite(value) and value > 0.0, (name, value)


def _shrunk(trees):
    """The workload's trees with few steps and replicates: spans need no long runs."""
    small = []
    for variant, tree in trees:
        execution = dict(tree["execution"])
        if "replicates" in execution:
            execution["replicates"] = 4
        if "steps" in execution:
            execution["steps"] = 200
        else:
            execution["epochs"] = min(execution["epochs"], 10.0)
        small.append((variant, dict(tree, execution=execution)))
    return small


@pytest.mark.parametrize("name", ["long-chain", "replicate-average", "predict-highdim",
                                  "poisson-io"])
def test_traced_commands_produce_every_span_metric_the_benchmark_names(
    name, tmp_path, monkeypatch
):
    tracing = _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    declared = set(PER_LAYER) & {f"{span}{suffix}" for _, _, span in tracing.TARGETS
                                 for suffix in ("_s", "_calls")}
    assert declared  # the benchmark declares span metrics, and this finds them

    # poisson-io runs exp3-synthetic at its own scale; its epochs shrink here
    trees_of = cli.experiment_trees
    monkeypatch.setattr(cli, "experiment_trees",
                        lambda *args, **kwargs: trees_of(*args, **dict(kwargs, epochs_override=2.0)))
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(name)
    with tracing.instrument(tracer):
        workload.iterate(_shrunk(workload.trees(1)), str(tmp_path))

    missing = declared - set(tracer.layer_totals())
    assert not missing, f"{name}: no spans for {sorted(missing)}"
