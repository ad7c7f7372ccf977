"""`scripts/bench_pairs.py`: its summary of canned `bench/run.py` results,
its exit code, and its extraction of a revision."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

END_TO_END = [
    {"name": "docs_per_s", "better": "higher", "bound": 0.1},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(docs_per_s, peak_rss_mb, failed=0, attempted=100, correct=True):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "docs_per_s": {"value": docs_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def test_summary_of_canned_pairs(bench_pairs):
    parent = [run(100, 20.0), run(110, 20.0), run(90, 20.0), run(100, 20.0), run(105, 20.0)]
    change = [run(120, 21.5), run(115, 21.0), run(95, 22.0), run(99, 21.2), run(112, 21.0, 1)]
    rows = {r["name"]: r for r in bench_pairs.summarize(parent, change, END_TO_END)}
    assert list(rows) == ["docs_per_s", "peak_rss_mb", "failed_share"]

    docs = rows["docs_per_s"]
    assert docs["parent"] == (100, 100, 105) and docs["change"] == (99, 112, 115)
    # the parent's interquartile range, 5, is within the 10% bound
    assert (docs["wins"], docs["pairs"], docs["verdict"]) == (4, 5, "ok")

    # median 21.2 > 20 * 1.05: worse by more than the bound, and never a win
    rss = rows["peak_rss_mb"]
    assert rss["change"][1] == 21.2
    assert (rss["wins"], rss["verdict"]) == (0, "WORSE")

    # any rise in the share of failed operations is worse; here the median stays 0
    assert rows["failed_share"]["change"] == (0, 0, 0)
    assert rows["failed_share"]["verdict"] == "ok"
    assert bench_pairs.exit_code(list(rows.values()), parent + change) == 1

    text = bench_pairs.format_rows(list(rows.values())).splitlines()
    assert text[0].split() == ["metric", "parent", "p25/p50/p75", "change", "p25/p50/p75",
                               "wins", "bound"]
    assert text[1].split() == ["docs_per_s", "100/100/105", "99/112/115", "4/5", "10%"]
    assert text[2].split() == ["peak_rss_mb", "20/20/20", "21/21.2/21.5", "0/5", "5%", "WORSE"]


def test_summary_of_one_pair_and_a_higher_failed_share(bench_pairs):
    rows = bench_pairs.summarize([run(100, 20.0)], [run(80, 19.0, 3)], END_TO_END)
    docs, rss, failed = rows
    assert docs["parent"] == (100, 100, 100) and docs["verdict"] == "WORSE"
    assert rss["wins"] == 1 and rss["verdict"] == "ok"
    assert failed["change"] == (0.03, 0.03, 0.03) and failed["verdict"] == "WORSE"


def test_wide_parent_spread_is_unresolved_unless_every_pair_wins(bench_pairs):
    # parent docs_per_s quartiles 90/100/110: a spread of 20% against a 10% bound
    parent = [run(v, 20.0) for v in (80, 90, 100, 110, 120)]
    change = [run(v, 20.0) for v in (85, 95, 101, 105, 125)]
    docs, rss, failed = bench_pairs.summarize(parent, change, END_TO_END)
    assert (docs["change"][1], docs["verdict"]) == (101, "unresolved")
    assert rss["verdict"] == failed["verdict"] == "ok"
    assert "unresolved" in bench_pairs.format_rows([docs]).splitlines()[1].split()
    assert bench_pairs.exit_code([docs, rss, failed], parent + change) == 1

    change = [run(v, 20.0) for v in (121, 122, 123, 124, 125)]
    rows = bench_pairs.summarize(parent, change, END_TO_END)
    assert [r["verdict"] for r in rows] == ["ok", "ok", "ok"]
    assert bench_pairs.exit_code(rows, parent + change) == 0


def test_a_run_that_is_not_correct_fails_the_comparison(bench_pairs):
    parent, change = [run(100, 20.0)], [run(100, 20.0, correct=False)]
    rows = bench_pairs.summarize(parent, change, END_TO_END)
    assert all(r["verdict"] == "ok" for r in rows)
    assert bench_pairs.exit_code(rows, parent) == 0
    assert bench_pairs.exit_code(rows, parent + change) == 1


@pytest.mark.skipif(subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                   capture_output=True).returncode != 0,
                    reason="needs a git checkout with a commit")
def test_extract_head_with_the_working_tree_bench(bench_pairs, tmp_path):
    bench_pairs.extract("HEAD", tmp_path)
    assert (tmp_path / "src" / "l2b" / "__init__.py").is_file()
    assert (tmp_path / "BENCHMARK.json").is_file()
    for path in (ROOT / "bench").rglob("*.py"):
        if "__pycache__" not in path.parts:
            copy = tmp_path / path.relative_to(ROOT)
            assert copy.read_bytes() == path.read_bytes()
    assert not list((tmp_path / "bench").rglob("__pycache__"))
