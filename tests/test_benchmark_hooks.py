"""The names the benchmark in ``perfbench/`` patches and calls still exist.

``perfbench/run.py`` wraps the commands in ``PHASES`` on every run, and
``--trace 1`` wraps every entry of ``perfbench/tracing.py``'s ``TARGETS``.
A rename that misses them fails only when the benchmark runs, so these
tests read both tables (as literals: importing ``run.py`` would pin the
BLAS environment of this process) and resolve each name.
"""

import ast
import importlib
import inspect
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
