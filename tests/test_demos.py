"""Every narrative demo runs to completion against the package in src and
prints its golden output, kept in tests/golden/demos/<name>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()
