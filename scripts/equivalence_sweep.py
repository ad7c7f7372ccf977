#!/usr/bin/env python3
"""Seeded sweep over the two equivalence experiments.

Experiment 1 compares the four crossed-module candidate checks against
their differential-calculus counterparts (squares and graded commutator of
the two Weil differentials) on a mixed valid/edited population.

Experiment 2 runs the three Lie 2-bialgebra verifiers (bialgebra cocycle,
matched pair, differential-is-a-derivation-of-the-bracket) on seeded pairs
and reports the verdict agreement rate, which must be 100%.

Both draw member ``seed`` of a catalog population (`catalog.seeded_member`)
for each seed from B to B + N - 1, so the seed picks the family: from
``--seed-base 0`` the populations are those of `tests/test_acceptance.py`.

Usage: PYTHONPATH=src python3 scripts/equivalence_sweep.py [--count N] [--seed-base B] [--verbose]
"""

import argparse
import sys
import time
from collections import Counter

from l2b.bicross import cross_check
from l2b.catalog import CM_FAMILIES, L2B_FAMILIES, seeded_member
from l2b.documents import build_crossed_module, build_lie2_bialgebra
from l2b.twoterm import verify_cm
from l2b.weil import CM_SQUARE_CHECKS, check_cm_square, cm_differentials

VERIFIERS = ("def", "matched", "weil")


def sweep_e1(count, seed_base, verbose):
    mismatches = 0
    verdicts = Counter()
    component_fails = Counter()
    t0 = time.perf_counter()
    for seed in range(seed_base, seed_base + count):
        cm = build_crossed_module(seeded_member(CM_FAMILIES, seed))
        direct = verify_cm(cm)
        weil = check_cm_square(*cm_differentials(cm))
        agree = direct.passed == weil.passed and all(
            direct.check(c).passed == weil.check(w).passed for c, w in CM_SQUARE_CHECKS.items()
        )
        mismatches += not agree
        verdicts["valid" if direct.passed else "invalid"] += 1
        for cond in CM_SQUARE_CHECKS:
            if not direct.check(cond).passed:
                component_fails[cond] += 1
        if verbose and not agree:
            print(f"  MISMATCH seed={seed}")
    dt = time.perf_counter() - t0
    print(f"experiment 1: {count} instances in {dt:.1f}s")
    print(f"  verdicts: {dict(verdicts)}")
    print(f"  failing conditions seen: {dict(component_fails)}")
    print(f"  component-level mismatches: {mismatches}")
    return mismatches


def sweep_e2(count, seed_base, verbose):
    mismatches = 0
    verdicts = Counter()
    t0 = time.perf_counter()
    for seed in range(seed_base, seed_base + count):
        d = build_lie2_bialgebra(seeded_member(L2B_FAMILIES, seed))
        report = cross_check(d)
        trio = tuple(
            all(c.passed for c in report.checks if c.cond.startswith(f"{name}."))
            for name in VERIFIERS
        )
        agree = report.check("agreement").passed
        mismatches += not agree
        verdicts["valid" if trio[0] else "invalid"] += 1
        if verbose and not agree:
            print(f"  DISAGREEMENT seed={seed}: def/matched/weil = {trio}")
    dt = time.perf_counter() - t0
    print(f"experiment 2: {count} instances in {dt:.1f}s")
    print(f"  verdicts: {dict(verdicts)}")
    print(f"  verifier disagreements: {mismatches}")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    bad = sweep_e1(args.count, args.seed_base, args.verbose)
    bad += sweep_e2(max(args.count // 2, 1), args.seed_base, args.verbose)
    if bad:
        print(f"TOTAL DISAGREEMENTS: {bad} (kernel defect)")
        return 1
    print("all characterizations agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
