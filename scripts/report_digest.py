#!/usr/bin/env python3
"""Print one sha256 per group of kernel outputs, to compare two source trees.

Groups:

* ``catalog``: the report of every catalog entry under every method that
  applies to its kind;
* ``gen``: ``gen_document`` for every family, seeds 0-19, plain and
  perturbed, with the ``auto`` report of each document;
* ``edits``: seeded ``perturb_document`` edits of the plain generated
  documents, with their ``auto`` reports;
* ``dualize``: every dualization of every catalog entry;
* ``bench``: every operation of both benchmark workloads (`bench/workloads.py`),
  seeds 1-3, as its document bytes and its report under the operation's
  method.

An error is hashed as its type and message, so a change in which inputs
are refused also changes the digest.  Only long-standing API is used, so
the same file runs against an older tree, where ``gen`` and ``edits``
cover the families its ``catalog.FAMILIES`` lists (7, without the
``random_basis_change:<base>`` names, before that became the one table;
10, with a bare ``random_basis_change`` that duplicates
``random_basis_change:adjoint``, until that was dropped).  To compare two
trees whose tables differ, set ``FAMILIES`` to the same tuple on both
sides, since ``edits`` seeds each family by its position:

    PYTHONPATH=<tree>/src python3 scripts/report_digest.py
"""

import hashlib
import random
import sys
from pathlib import Path

from l2b import catalog
from l2b.documents import (
    dualize_document,
    parse_document,
    run_verifier,
    serialize_document,
    serialize_report,
)

# spelled out rather than read from `l2b.documents` (METHODS, DUALIZATIONS),
# so that the script runs against older source trees too
L2B_METHODS = ("auto", "def", "matched", "weil", "all")
FAMILIES = catalog.FAMILIES
SEEDS = range(20)
EDITS = 2
DUALIZATIONS = ("two_vs", "dvb_vertical", "dvb_horizontal", "flip")
BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_SEEDS = (1, 2, 3)


def _output(fn, *args) -> bytes:
    try:
        return fn(*args)
    except Exception as e:  # the refusal is part of the behaviour compared
        return f"{type(e).__name__}: {e}\n".encode("utf-8")


def _report(doc, method: str) -> bytes:
    return serialize_report(doc, method, run_verifier(doc, method))


def _document_and_report(doc) -> bytes:
    return serialize_document(doc) + _output(_report, doc, "auto")


def catalog_group():
    for entry in catalog.entries():
        methods = L2B_METHODS if entry.kind == "lie2_bialgebra" else ("auto",)
        for method in methods:
            yield _output(_report, entry.document, method)


def gen_group():
    for family in FAMILIES:
        for seed in SEEDS:
            for perturbed in (False, True):
                yield _output(
                    lambda: _document_and_report(catalog.gen_document(family, seed, perturbed))
                )


def _edits(family: str, seed: int):
    doc = catalog.gen_document(family, seed)
    rng = random.Random(seed * 7919 + FAMILIES.index(family))
    out = []
    for _ in range(EDITS):
        doc = catalog.perturb_document(doc, rng)
        out.append(_document_and_report(doc))
    return b"".join(out)


def edits_group():
    for family in FAMILIES:
        for seed in SEEDS:
            yield _output(_edits, family, seed)


def dualize_group():
    for entry in catalog.entries():
        for which in DUALIZATIONS:
            yield _output(
                lambda: serialize_document(dualize_document(entry.document, which))
            )


def bench_group():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))  # workloads imports its sibling, the oracle
    import workloads

    for name in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            for op in workloads.BUILDERS[name](workloads.PLANNERS[name](seed)):
                yield op.data + _output(
                    lambda: _report(parse_document(op.data), op.method)
                )


GROUPS = {
    "catalog": catalog_group,
    "gen": gen_group,
    "edits": edits_group,
    "dualize": dualize_group,
    "bench": bench_group,
}


def group_digest(name: str) -> tuple[int, str]:
    """The number of outputs in a group and the sha256 of all of them."""
    digest = hashlib.sha256()
    count = 0
    for data in GROUPS[name]():
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
        count += 1
    return count, digest.hexdigest()


def main():
    for name in GROUPS:
        count, hexdigest = group_digest(name)
        print(f"{name:8s} {count:4d} {hexdigest}")


if __name__ == "__main__":
    main()
