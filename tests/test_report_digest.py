"""Pin the report bytes of every group of `scripts/report_digest.py`.

`scripts/report_digest.py` hashes groups of kernel outputs; a change that
moves any verdict, witness or report byte of these groups fails here.  A
change that means to alter report bytes updates the pinned digests and
says which reports changed.  The `edits` group holds most of the failing
`gerst.jacobi` and `derivation.generator_pairs` witnesses; `bench` (the 312
operations of both workloads, seeds 1-3) and `gen` (360 documents with
their reports) are the slowest groups, at about six and three seconds.

The `catalog`, `gen`, `edits` and `bench` pins last moved when the
verifiers stopped reporting the seven checks that cannot decide a verdict
(`weil.gerst.skew`, `weil.gerst.leibniz`, `weil.delta_v.square_zero.side`
and `.core`, `weil.derivation.monomial_pairs`,
`def.bialgebra.lie.primal.jacobi` and `def.bialgebra.lie.dual.jacobi`) and
the duplicate `gen` family `random_basis_change` went: with those entries
and that family's outputs left out, every output was the same as before.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"

PINNED = {
    "catalog": (34, "37a72c16c01423e70016874edb469627ee61441bb8b456a7eddc5d05d4199151"),
    "gen": (360, "46e189d6edd744179228c5c03a0c39b65a6bd8876395b3c53e8b7471c600fd68"),
    "edits": (180, "90c2cc6cfd5b22980967219eba785cc83866442dcc4451e01ce0690a4c73db16"),
    "dualize": (72, "7ebfd1633d6502c122ccd49b29ccdfd7568170b0a8a06a350abf1f027d6473a2"),
    "bench": (312, "8bf2b8b82dd283a474cea7625c31530a9d3f050c674e139255bcf1cb8c0008a7"),
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
