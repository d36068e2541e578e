"""The benchmark's layer micro-sweep runs against the current package.

``perfbench/run.py --trace 1`` runs ``perfbench/sweep.py`` after the traced
iterations, and the sweep calls the package by name: ``engine.run`` with a
``RecordingPlan``, ``engine.sample_batch``, ``linalg.solve_lyapunov`` and
``expm``, ``diagnostics.iact``, the ``artifacts`` trace readers and writers,
and ``config.resolve_setup``'s fields.  A change that breaks one of them
fails only a traced benchmark run, so this runs the sweep itself, shrunk,
on long-chain's trees.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = {m["name"] for m in spec["per_layer"]}
    assert set(metrics) <= named, sorted(set(metrics) - named)
    assert {f"engine.steps_per_s.{v}" for v in sweep.ENGINE_STEPS} <= set(metrics)
    for name, value in metrics.items():
        assert math.isfinite(value) and value > 0.0, (name, value)
