"""Smoke test of `scripts/kernel_census.py`, run as a script on seed 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_kernel_census_lists_never_entered_functions():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_census.py"), "--seeds", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # one "  <module>.<qualname>  <lines>" line per never-entered function
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  ")}
    assert "weil.check_square_zero" in listed  # only the benchmark's tracer names it
    assert "twoterm.verify_cm" not in listed
    # the census reads malformed documents too, so refusing one counts
    assert "documents.DocumentError.__init__" not in listed
    assert "documents._long_int_path" not in listed
