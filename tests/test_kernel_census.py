"""`scripts/kernel_census.py` as a gate: run as a script on seed 0, it lists
exactly the kernel functions that no CLI run enters and that have a reason
to stay.  A new kernel function that only tests or nothing reach fails here;
it goes, or gets a CLI path, or joins `ALLOWED` with its reason."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# never-entered function -> why it stays
ALLOWED = {
    "weil.check_square_zero": "the benchmark's tracer times it as weil.square_zero",
    "weil.WeilElement.__post_init__": "the benchmark's tracer counts it as weil.element_count",
    "weil._monomial": "WeilElement.__post_init__ validates its keys with it",
    "catalog.transform_lie": "the benchmark's tracer times it as catalog.transform",
    "catalog.seeded_doc": "the one population the tests and scripts/equivalence_sweep.py draw from",
    "catalog.seeded_member": "the one population the tests and scripts/equivalence_sweep.py draw from",
    "documents.check_duality_identity.<locals>.render": (
        "renders a witness of the dvb identity, which cannot fail; goes with the dvb kind"
    ),
}


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
    assert listed == set(ALLOWED), proc.stdout
