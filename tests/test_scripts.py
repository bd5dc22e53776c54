"""Smoke test: the study script in ``scripts/`` runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demo4grid_eligibility_runs(tmp_path):
    argv = [sys.executable, str(ROOT / "scripts" / "demo4grid_eligibility.py"),
            "--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert any(tmp_path.glob("*.csv"))
