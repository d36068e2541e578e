"""The names and artifact keys the benchmark in ``perfbench/`` relies on still exist.

``perfbench/run.py`` wraps the commands in ``PHASES`` on every run, and
``--trace 1`` wraps every entry of ``perfbench/tracing.py``'s ``TARGETS``.
A rename that misses them fails only when the benchmark runs, so these
tests read both tables (as literals: importing ``run.py`` would pin the
BLAS environment of this process) and resolve each name.  Likewise the
workloads' correctness gates read keys of the JSON artifacts, so a format
change that drops one is caught here rather than by a benchmark run.
"""

import ast
import importlib
import inspect
import json
import os
from pathlib import Path

import pytest

from sgalab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(filename: str, name: str):
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} no longer assigns {name}")


def test_traced_targets_resolve():
    targets = _literal("tracing.py", "TARGETS")
    assert targets
    for module, attr, _span in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_phase_clock_commands_resolve():
    phases = _literal("run.py", "PHASES")
    assert phases
    for name in phases:
        assert callable(getattr(cli, name, None)), name


@pytest.mark.parametrize(
    "command, args, kwargs",
    [
        ("cmd_simulate", ({}, "out"), {"threads": 1, "quiet": True}),
        ("cmd_experiment", ("exp3-synthetic", "out"),
         {"scale": 0.1, "seed": 1, "threads": 1, "quiet": True}),
    ],
)
def test_commands_accept_the_benchmark_keywords(command, args, kwargs):
    inspect.signature(getattr(cli, command)).bind(*args, **kwargs)


#: Every artifact key ``perfbench/workloads.py`` reads, as a dotted path in
#: its file; ``*`` stands for each key of a mapping that must not be empty.
ARTIFACT_READS = {
    "predictions.json": ("report.b_mat", "report.a_mat", "report.q_inf", "report.marginals",
                         "report.averages.*.matrix", "report.averages.*.simple",
                         "report.mixing.epochs_iact"),
    "manifest_000.json": ("run.dim", "run.n", "run.local_exponent", "run.theta_hat",
                          "run.n_steps", "run.batch_size", "run.diverged_at", "run.thin",
                          "avg_state", "diverged", "wall_time"),
    "comparison.json": ("stationary.rel_frobenius_error",
                        "mixing.empirical_epochs_per_coordinate", "mixing.predicted_epochs_iact",
                        "empirical_cov", "predicted_cov",
                        "averages.*.comparison.rel_frobenius_error"),
    "recommendation.json": ("target", "recommended_config"),
}

#: Keys workloads.py reads from configuration trees and from summary.json,
#: whose entries its gates read with ``.get``.
OTHER_READS = {"execution", "epochs", "seed", "variants"}


def _paths_present(payload, path: str) -> bool:
    head, _, rest = path.partition(".")
    if not isinstance(payload, dict):
        return False
    if head == "*":
        values = list(payload.values())
    elif head in payload:
        values = [payload[head]]
    else:
        return False
    return bool(values) and all(not rest or _paths_present(v, rest) for v in values)


def test_artifact_reads_cover_every_constant_key_in_workloads():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    read = {
        node.slice.value for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }
    listed = {key for paths in ARTIFACT_READS.values() for p in paths for key in p.split(".")}
    assert read <= listed | OTHER_READS, sorted(read - listed - OTHER_READS)


def test_artifacts_carry_every_key_the_benchmark_reads(tmp_path):
    tree = {
        "model": {"family": "gaussian_location", "n": 50, "d": 2, "data_seed": 3},
        "tuning": {"frak_h": 1.0, "frak_b": 0.0, "c_h": 4.0, "c_b": 1.0,
                   "gamma": "jhat_inv", "lambda": "jhat_inv"},
        "execution": {"epochs": 4.0, "seed": 1, "replicates": 30, "thin": 5, "init": "mle"},
        "prediction": {"m_values": [4.0], "t_grid": [0.5]},
        "recommend": {"target": "bagged"},
    }
    out = str(tmp_path)
    assert cli.cmd_predict(tree, out, quiet=True) == cli.EXIT_OK
    assert cli.cmd_simulate(tree, out, threads=1, quiet=True) == cli.EXIT_OK
    assert cli.cmd_compare(tree, out, quiet=True) == cli.EXIT_OK
    assert cli.cmd_tune(tree, out, quiet=True) == cli.EXIT_OK
    for name, paths in ARTIFACT_READS.items():
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            payload = json.load(fh)
        missing = [p for p in paths if not _paths_present(payload, p)]
        assert not missing, f"{name} lacks {missing}"
