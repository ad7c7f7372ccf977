#!/usr/bin/env python3
"""Compare the working tree with a parent revision on paired benchmark runs.

    python3 scripts/bench_pairs.py --rev <parent> --workload W --pairs N --seed S

The parent revision is extracted with ``git archive`` into a temporary
directory, and the working tree's ``bench/`` is copied over its own, so both
sides run the same benchmark code on their own ``src/``.  Pair ``k`` (from
0) runs ``bench/run.py --workload W --seed S+k`` on both sides for the
``run_seconds`` of ``BENCHMARK.json``, the parent first when ``k`` is even
and the working tree first when it is odd, so that a drift of the machine's
speed favours neither side.

For each end-to-end metric of ``BENCHMARK.json``, and for the share of
failed operations, it prints the quartiles of both sides and the number of
pairs the change wins.  A row is marked ``WORSE`` where the change's median
is worse than the parent's by more than the metric's bound (a fraction of
the parent's median), and ``unresolved`` where the parent's interquartile
range is wider than the bound, so that such a shift could be noise, unless
every change run beats every parent run.  A row that is neither is marked
``gain`` where the change wins at least 9 of every 10 pairs and its median
is better than the parent's by more than the parent's interquartile range.
The exit code is 1 if any row is marked ``WORSE`` or ``unresolved``, or any
run reports ``correct: false``, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# not an end-to-end metric of BENCHMARK.json: any rise counts as worse
FAILED_SHARE = {"name": "failed_share", "better": "lower", "bound": 0.0}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def metric_value(run: dict, name: str) -> float:
    if name == FAILED_SHARE["name"]:
        return run["failed"] / run["attempted"] if run["attempted"] else 0.0
    return run["metrics"][name]["value"]


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per metric from the paired results of ``bench/run.py``.

    ``parent[k]`` and ``change[k]`` are the JSON objects of pair ``k``;
    ``end_to_end`` is the list of the same name in ``BENCHMARK.json``.
    A row's ``verdict`` is ``"WORSE"``, ``"unresolved"``, ``"gain"`` or ``"ok"``.
    """
    rows = []
    for metric in [*end_to_end, FAILED_SHARE]:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        p = [metric_value(r, name) for r in parent]
        c = [metric_value(r, name) for r in change]
        wins = sum(cv < pv if lower else cv > pv for pv, cv in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        limit = pq[1] * (1 + bound if lower else 1 - bound)
        all_win = max(c) < min(p) if lower else min(c) > max(p)
        better_by = pq[1] - cq[1] if lower else cq[1] - pq[1]
        if cq[1] > limit if lower else cq[1] < limit:
            verdict = "WORSE"
        elif pq[2] - pq[0] > bound * abs(pq[1]) and not all_win:
            verdict = "unresolved"
        elif 10 * wins >= 9 * len(p) and better_by > pq[2] - pq[0]:
            verdict = "gain"
        else:
            verdict = "ok"
        rows.append({"name": name, "parent": pq, "change": cq, "wins": wins,
                     "pairs": len(p), "bound": bound, "verdict": verdict})
    return rows


def exit_code(rows: list[dict], runs: list[dict]) -> int:
    """1 if a row is ``WORSE`` or ``unresolved`` or a run reports ``correct: false``, else 0."""
    return int(any(r["verdict"] in ("WORSE", "unresolved") for r in rows)
               or not all(r["correct"] for r in runs))


def _quartile_text(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def format_rows(rows: list[dict]) -> str:
    q = _quartile_text
    lines = [f"{'metric':<18} {'parent p25/p50/p75':>30} {'change p25/p50/p75':>30}"
             f" {'wins':>6} {'bound':>6}"]
    for r in rows:
        lines.append(f"{r['name']:<18} {q(r['parent']):>30} {q(r['change']):>30}"
                     f" {r['wins']:>3}/{r['pairs']:<2} {r['bound']:>6.0%}"
                     + ("" if r["verdict"] == "ok" else f"  {r['verdict']}"))
    return "\n".join(lines)


def extract(rev: str, dest: Path):
    """``rev`` of this repository in ``dest``, with the working tree's ``bench/``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.rmtree(dest / "bench", ignore_errors=True)
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, env=env,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench/run.py failed in {tree} (exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    parent, change = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        extract(args.rev, Path(tmp))
        for k in range(args.pairs):
            seed = args.seed + k
            sides = [("parent", Path(tmp), parent), ("change", ROOT, change)]
            for side, tree, out in reversed(sides) if k % 2 else sides:
                out.append(run_bench(tree, args.workload, seed, benchmark["run_seconds"]))
                print(f"pair {k + 1}/{args.pairs} seed {seed}: {side} done", file=sys.stderr)
    rows = summarize(parent, change, benchmark["end_to_end"])
    print(format_rows(rows))
    incorrect = sum(not r["correct"] for r in parent + change)
    if incorrect:
        print(f"{incorrect} of {2 * args.pairs} runs report correct: false")
    return exit_code(rows, parent + change)


if __name__ == "__main__":
    sys.exit(main())
