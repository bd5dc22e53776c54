"""Smoke test: every study script in ``scripts/`` runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, takes_out", [
    ("balancing_revenue_day.py", False),
    ("demo4grid_eligibility.py", True),
    ("national_fleet_study.py", False),
])
def test_script_runs(script, takes_out, tmp_path):
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    if takes_out:
        argv += ["--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    if takes_out:
        assert any(tmp_path.glob("*.csv"))
