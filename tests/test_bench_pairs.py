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
    # one won pair, against a parent spread of zero
    assert rss["wins"] == 1 and rss["verdict"] == "gain"
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

    # every pair won, and the median 123 beats 100 by more than the spread 20
    change = [run(v, 20.0) for v in (121, 122, 123, 124, 125)]
    rows = bench_pairs.summarize(parent, change, END_TO_END)
    assert [r["verdict"] for r in rows] == ["gain", "ok", "ok"]
    assert bench_pairs.exit_code(rows, parent + change) == 0


def test_gain_needs_nine_of_ten_wins_and_a_median_shift_beyond_the_spread(bench_pairs):
    # parent docs_per_s quartiles 98/100/102 (spread 4) and peak_rss_mb 19.9/20/20.1
    parent_docs = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]
    parent_rss = [20.2, 20.1, 20.0, 19.9, 20.0, 20.0, 20.1, 19.9, 19.8, 20.2]
    parent = [run(d, m) for d, m in zip(parent_docs, parent_rss)]

    def rows_for(docs, rss):
        rows = bench_pairs.summarize(parent, [run(d, m) for d, m in zip(docs, rss)], END_TO_END)
        return {r["name"]: r for r in rows}

    # docs: 9 of 10 pairs won (the fifth lost), median 105.5 is 5.5 above 100
    # rss: every pair won, median 19.5 is 0.5 below 20, the spread being 0.2
    rows = rows_for([101, 102, 103, 104, 99, 106, 107, 108, 109, 110], [v - 0.5 for v in parent_rss])
    assert (rows["docs_per_s"]["wins"], rows["docs_per_s"]["verdict"]) == (9, "gain")
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["verdict"]) == (10, "gain")
    assert rows["failed_share"]["verdict"] == "ok"
    text = bench_pairs.format_rows(list(rows.values())).splitlines()
    assert text[1].split()[-1] == text[2].split()[-1] == "gain"
    assert bench_pairs.exit_code(list(rows.values()), parent) == 0

    # 8 of 10 pairs won: not a gain, however far the median moves
    rows = rows_for([101, 102, 103, 104, 99, 106, 107, 108, 109, 90], parent_rss)
    assert (rows["docs_per_s"]["wins"], rows["docs_per_s"]["verdict"]) == (8, "ok")
    # every pair won, but the median moves by 2, within the parent's spread of 4
    rows = rows_for([v + 2 for v in parent_docs], [v - 0.1 for v in parent_rss])
    assert (rows["docs_per_s"]["wins"], rows["docs_per_s"]["verdict"]) == (10, "ok")
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["verdict"]) == (10, "ok")


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
