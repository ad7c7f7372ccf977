"""Pin the report bytes of every group of `scripts/report_digest.py`.

`scripts/report_digest.py` hashes groups of kernel outputs; a change that
moves any verdict, witness or report byte of these groups fails here.  A
change that means to alter report bytes updates the pinned digests and
says which reports changed.  The `edits` group holds most of the failing
`gerst.*` and `derivation.*` witnesses; `bench` (the 312 operations of both
workloads, seeds 1-3) and `gen` (400 documents with their reports) are the
slowest groups, at about six and three seconds.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"

PINNED = {
    "catalog": (34, "fa5123ca9fba1d147bf5607a23bdcb7be772581fd64b407905fb6f2bded1c945"),
    "gen": (400, "357422d1a697761836573b506bad24e80f02aab7ee547a638905ea41a451869d"),
    "edits": (200, "09138123fa5f0c88c61c1f5c7989f3e4cf4780ce4fd425d3b6f5fe47aa72072d"),
    "dualize": (72, "7ebfd1633d6502c122ccd49b29ccdfd7568170b0a8a06a350abf1f027d6473a2"),
    "bench": (312, "e93a5971924fc53f085ef84594a6cc8163a27c98fe0c76d4c6987bf769afff6c"),
}


@pytest.fixture(scope="module")
def report_digest():
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("group", sorted(PINNED))
def test_report_digest_pinned(report_digest, group):
    assert report_digest.group_digest(group) == PINNED[group]
