"""Smoke test of `scripts/equivalence_sweep.py`, run as a script."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_equivalence_sweep_agrees():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for args in (["--count", "20"], ["--count", "20", "--seed-base", "7"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "equivalence_sweep.py"), *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all characterizations agree" in proc.stdout
