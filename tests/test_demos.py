"""Smoke test of the demos: all byte-compile, and the quick ones run to exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_byte_compiles():
    assert len(DEMOS) >= 6
    for path in DEMOS:
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


# 04 drives engine.run_replicates; the others are under a second each too
@pytest.mark.parametrize(
    "name", ["01_scaling_regimes", "02_tuning_targets", "04_iterate_averaging"]
)
def test_quick_demo_exits_zero(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), name
