"""The harness: its result line, BENCHMARK.json, the reference clock, span
arithmetic, a bare checkout.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_one_pass_of_the_ladder_is_correct():
    proc = _run("--workload", "dim_ladder", "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "l2b_population", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_reference_clock_subtracts_samples_inside_and_scales_by_those_around():
    clock = run.ReferenceClock()
    slow = 2 * run.REF_NOMINAL_S  # a machine at half the reference speed
    clock.samples = [(0.0, slow), (1.0, slow), (1.5, slow), (10.0, 100.0)]
    # [0.9, 1.9] holds the samples at 1.0 and 1.5; its halo adds none
    assert abs(clock.scale(0.9, 1.9) - (1.0 - 2 * slow) / 2) < 1e-12
    assert clock.factor(0.1, 0.2) == 0.5


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    t.spans = [
        ["op", 0.0, 10.0, -1],
        ["documents.run_verifier", 1.0, 9.0, 0],
        ["liecore.verify_lie", 2.0, 5.0, 1],
        ["liecore.verify_lie", 5.0, 6.0, 1],
    ]
    total, calls = t.self_times(0, len(t.spans))
    assert total == {"op": 2.0, "documents.run_verifier": 4.0, "liecore.verify_lie": 4.0}
    assert calls["liecore.verify_lie"] == 2


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    run.import_l2b()
    from l2b import bicross, liecore, twoterm

    original = liecore.verify_lie
    t = tracing.Tracer()
    t.install()
    try:
        assert twoterm.verify_lie is not original and bicross.verify_lie is twoterm.verify_lie
        twoterm.verify_cm(__import__("l2b.catalog").catalog.abelian_cm(2, 1))
    finally:
        t.uninstall()
    assert twoterm.verify_lie is original and liecore.verify_lie is original
    names = [s[0] for s in t.spans]
    assert names[0] == "twoterm.verify_cm" and "liecore.verify_lie" in names
    assert t.counts["exact.tensor_count"] > 0
