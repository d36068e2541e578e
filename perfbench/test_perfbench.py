"""Self-tests of the benchmark.  From the repository root: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNIT = r"[A-Za-z0-9_/%.-]{1,16}"


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, "w#1")


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span("a", 0.0, 10.0, None),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("d", 5.0, 9.0, 0),
        _span("e", 11.0, 12.0, None),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(tracing.self_times(spans)) == tracing.top_level_time(spans) == 11.0


def test_traced_self_times_add_up_to_the_traced_wall():
    tracer = tracing.Tracer("w")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = tracer.wrap("m.inner", inner)
    traced_outer = tracer.wrap("m.outer", outer)
    t0 = time.perf_counter()
    traced_outer()
    wall = time.perf_counter() - t0
    totals = tracer.layer_totals()
    assert totals["m.inner_calls"] == 2 and totals["m.outer_calls"] == 1
    covered = totals["m.inner_s"] + totals["m.outer_s"]
    assert covered == pytest.approx(tracing.top_level_time(tracer.spans), abs=1e-9)
    assert 0.0 <= wall - covered < 0.005
    assert totals["m.outer_s"] == pytest.approx(0.01, abs=0.005)


def test_calibration_kernel_time_stays_out_of_spans_and_wall():
    clock = run.PhaseClock()
    tracer = tracing.Tracer("w")
    tracer.clock = clock.now

    def command():  # a command between two kernels, inside a traced caller
        clock._kernel()
        time.sleep(0.01)
        clock._kernel()

    t0 = clock.now()
    tracer.wrap("m.outer", command)()
    wall = clock.now() - t0
    assert clock.kernel_s > 0.04
    assert tracer.spans[0].duration == pytest.approx(0.01, abs=0.005)
    assert wall == pytest.approx(0.01, abs=0.005)


@pytest.mark.parametrize("count, percentile", [(15, None), (20, 50.0), (99, 50.0),
                                               (100, 90.0), (400, 95.0), (1000, 99.0),
                                               (10010, 99.9)])
def test_highest_percentile_keeps_ten_samples_beyond_it(count, percentile):
    samples = [float(v) for v in range(count, 0, -1)]
    high = tracing.high_percentile(samples)
    if percentile is None:
        assert high is None
        return
    p, value = high
    assert p == percentile
    assert sum(1 for v in samples if v > value) >= 10


def test_metric_and_workload_names_follow_the_rules():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert tracing.METRIC_NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(UNIT, m["unit"]), m
    derived = [f"{name}{suffix}" for _, _, name in tracing.TARGETS for suffix in ("_s", "_calls")]
    derived += [f"engine.steps_per_s.{v}" for v in sweep.ENGINE_STEPS]
    derived += [tracing.percentile_name("replicate_s", p) for p in tracing.PERCENTILES]
    for name in derived + list(run.DETERMINISTIC_COUNTS):
        assert tracing.METRIC_NAME.fullmatch(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def _leaves(tree, prefix=""):
    if isinstance(tree, dict):
        out = {}
        for key, value in tree.items():
            out.update(_leaves(value, f"{prefix}{key}."))
        return out
    if isinstance(tree, list) and tree and isinstance(tree[0], tuple):
        return _leaves(dict(tree), prefix)
    return {prefix: tree}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_seed_reaches_only_generated_inputs(name):
    workload = WORKLOADS[name]
    one, again, two = (_leaves(workload.trees(s)) for s in (1, 1, 2))
    assert one == again
    assert one.keys() == two.keys()
    changed = {key.split(".", 1)[1] for key in one if one[key] != two[key]}
    assert changed, "the seed must reach the inputs"
    assert changed <= {"model.data_seed.", "execution.seed."}


def test_artifact_digest_ignores_only_wall_clock_fields(tmp_path):
    (tmp_path / "v").mkdir()
    manifest = tmp_path / "v" / "manifest_000.json"
    manifest.write_text('{\n  "a": 1,\n  "wall_time": 0.5\n}\n')
    (tmp_path / "v" / "timings.json").write_text('{"simulate_seconds": 1.0}\n')
    first = run.artifact_digest(str(tmp_path))
    manifest.write_text('{\n  "a": 1,\n  "wall_time": 0.123456789\n}\n')
    (tmp_path / "v" / "timings.json").write_text('{"simulate_seconds": 2.5}\n')
    assert run.artifact_digest(str(tmp_path)) == first
    manifest.write_text('{\n  "a": 2,\n  "wall_time": 0.5\n}\n')
    assert run.artifact_digest(str(tmp_path))[0] != first[0]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_a_second_seed_runs_cleanly():
    proc = _bench(ROOT, "--workload", "predict-highdim", "--seed", "7", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "poisson-io", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
