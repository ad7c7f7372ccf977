"""Pin the report bytes of every group of `scripts/report_digest.py`.

`scripts/report_digest.py` hashes groups of kernel outputs; a change that
moves any verdict, witness or report byte of these groups fails here.  A
change that means to alter report bytes updates the pinned digests and
says which reports changed.  The `edits` group holds most of the failing
`gerst.jacobi` and `derivation.generator_pairs` witnesses; `bench` (the 312
operations of both workloads, seeds 1-3) and `gen` (360 documents with
their reports) are the slowest groups, at about six and three seconds.

The `catalog`, `gen`, `edits` and `bench` pins last moved when the
verifiers stopped reporting checks that cannot decide a verdict: the
matched-pair factor and action checks (`h.jacobi`, `k.jacobi`,
`h_on_k.representation` and `k_on_h.representation`, under `mp.` and
`matched.mp.` in `lie2_bialgebra` reports), which are blocks of the
bicrossed sum's Jacobi identity, and the weak squares `square(0,2)` and
`square(4,-2)`, which vanish for any data.  With those entries left out,
every output was the same as before.  The pins before that moved the same
way for `weil.gerst.skew`, `weil.gerst.leibniz`,
`weil.delta_v.square_zero.side` and `.core`,
`weil.derivation.monomial_pairs`, `def.bialgebra.lie.primal.jacobi` and
`def.bialgebra.lie.dual.jacobi`, and the duplicate `gen` family
`random_basis_change`.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"

PINNED = {
    "catalog": (34, "77439faf850982e12b596ccf35ccaaac88b932a1be638c8a3c3e9673d150c787"),
    "gen": (360, "8d2a77ced48117464c98b1ca5b98fbe9ffcb677e3e65784bb2cdf4125554ab4a"),
    "edits": (180, "853d710795225bca07ffafa78553a21971a4149d1a0829a878d2fc0ef4d4a58a"),
    "dualize": (72, "7ebfd1633d6502c122ccd49b29ccdfd7568170b0a8a06a350abf1f027d6473a2"),
    "bench": (312, "061a679c8701f28a2dc5f41ba527e1e72c2968326c8446953465583113141593"),
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
