"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (rational arithmetic, zero tolerance).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from l2b import catalog
from l2b.bicross import (
    abelian_dual_pair,
    cross_check,
    verify_l2b_def,
    verify_l2b_matched,
    verify_l2b_weil,
)
from l2b.catalog import CM_FAMILIES, L2B_FAMILIES, seeded_member, weak_l3_example
from l2b.cli import main
from l2b.documents import (
    SpaceDecl,
    build_crossed_module,
    build_lie2_bialgebra,
    check_duality_identity,
    doc_from_crossed_module,
    dvb_dual,
    run_verifier,
    serialize_document,
    serialize_report,
)
from l2b.exact import SparseTensor
from l2b.liecore import verify_lie
from l2b.twoterm import (
    TwoVectorSpace,
    WeakLie2Data,
    derived_bracket,
    dual_two_vs,
    gamma_total,
    verify_cm,
)
from l2b.weil import CM_SQUARE_CHECKS, check_cm_square, cm_differentials, verify_weak_lie2

from crossed_module_oracle import verify_full_crossed_module_by_loops


@contextmanager
def criterion(num, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    print(f"PASS criterion {num}: {title} ({time.perf_counter() - start:.1f}s)")


# --- shared populations ---------------------------------------------------------


@pytest.fixture(scope="module")
def cm_population():
    """Criterion-2 population: >= 200 seeded crossed-module candidates, dims <= 3."""
    out = []
    for seed in range(208):
        cm = build_crossed_module(seeded_member(CM_FAMILIES, seed))
        assert cm.dim0 <= 3 and cm.dim1 <= 3
        out.append(cm)
    return out


@pytest.fixture(scope="module")
def l2b_population():
    """Criterion-3 population: >= 100 seeded pairs with nonzero core."""
    out = []
    for seed in range(120):
        d = build_lie2_bialgebra(seeded_member(L2B_FAMILIES, seed))
        assert d.dim1 > 0
        out.append(d)
    for entry in catalog.entries():
        if entry.kind == "lie2_bialgebra":
            out.append(build_lie2_bialgebra(entry.document))
    return out


# --- criteria ---------------------------------------------------------------------


def test_criterion_1_catalog_soundness():
    with criterion(1, "catalog soundness"):
        start = time.perf_counter()
        names = set()
        for entry in catalog.entries():
            report = run_verifier(entry.document, "auto")
            assert report.passed == entry.valid, entry.name
            if not entry.valid:
                bad = [c for c in report.checks if not c.passed]
                assert bad and any(c.witness is not None for c in bad), entry.name
            names.add(entry.name)
        # the advertised coverage: each verifier is hit by a valid and an
        # invalid shipped instance
        for needed in (
            "sl2",
            "sl2_bad_jacobi",
            "axb_bialgebra",
            "heisenberg_bad_cocycle",
            "adjoint_sl2_cm",
            "adjoint_sl2_cm_bad_action",
            "scaling_l2b",
            "trace_l2b_bad",
            "abelian_dual_adjoint_l2b",
            "weak_l3",
            "weak_l3_bad_partial",
        ):
            assert needed in names
        # the full crossed-module checks on the adjoint instance
        cm = build_crossed_module(catalog.get("adjoint_sl2_cm").document)
        assert verify_full_crossed_module_by_loops(cm, derived_bracket(cm)).passed
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"catalog suite took {elapsed:.2f}s"


def test_criterion_2_e1_equivalence(cm_population):
    with criterion(2, "E1 equivalence of crossed-module and differential checks"):
        start = time.perf_counter()
        valid = 0
        for cm in cm_population:
            direct = verify_cm(cm)
            weil = check_cm_square(*cm_differentials(cm))
            assert direct.passed == weil.passed
            for cond, wcond in CM_SQUARE_CHECKS.items():
                assert direct.check(cond).passed == weil.check(wcond).passed
            valid += direct.passed
        elapsed = time.perf_counter() - start
        assert len(cm_population) >= 200
        assert 0 < valid < len(cm_population)  # genuinely mixed population
        assert elapsed < 30.0, f"E1 sweep took {elapsed:.2f}s"


def test_criterion_3_e2_three_way_agreement(l2b_population):
    with criterion(3, "E2 three-way verifier agreement"):
        start = time.perf_counter()
        valid = 0
        for d in l2b_population:
            verdicts = (
                verify_l2b_def(d).passed,
                verify_l2b_matched(d).passed,
                verify_l2b_weil(d).passed,
            )
            assert len(set(verdicts)) == 1, verdicts
            valid += verdicts[0]
        elapsed = time.perf_counter() - start
        assert len(l2b_population) >= 100
        assert 0 < valid < len(l2b_population)
        assert elapsed < 60.0, f"E2 sweep took {elapsed:.2f}s"


def test_criterion_4_derived_bracket_theorems(cm_population):
    with criterion(4, "derived-bracket structure theorems"):
        count = 0
        for cm in cm_population:
            if not verify_cm(cm).passed:
                continue
            db = derived_bracket(cm)
            assert verify_lie(db).passed
            full = verify_full_crossed_module_by_loops(cm, db)
            assert full.check("partial_morphism").passed
            assert full.check("action_derivation").passed
            assert full.passed
            assert verify_lie(gamma_total(cm)).passed
            count += 1
        assert count > 0


def test_criterion_5_abelian_dual_closure(cm_population, l2b_population):
    with criterion(5, "abelian-dual closure"):
        seen = set()
        candidates = [cm for cm in cm_population if verify_cm(cm).passed]
        candidates += [
            d.cm1
            for d in l2b_population
            if verify_cm(d.cm1).passed and verify_cm(d.cm2).passed
        ]
        checked = 0
        for cm in candidates:
            key = serialize_document(doc_from_crossed_module(cm))
            if key in seen:
                continue
            seen.add(key)
            report = cross_check(abelian_dual_pair(cm))
            assert report.passed, key
            assert dict(report.metadata)["agreement"] == "true"
            checked += 1
        assert checked >= 20


def test_criterion_6_duality_bookkeeping():
    with criterion(6, "split double vector space duality bookkeeping"):
        rng = random.Random(606)
        for _ in range(50):
            d = {
                "side_h": SpaceDecl(rng.randrange(7), name="A"),
                "side_v": SpaceDecl(rng.randrange(7), name="B"),
                "core": SpaceDecl(rng.randrange(7), name="C"),
            }
            report = check_duality_identity(d)
            assert report.passed
            assert ("core_identification_sign", "-1") in report.metadata
            for which in ("dvb_vertical", "dvb_horizontal", "flip"):
                assert dvb_dual(dvb_dual(d, which), which) == d
        for _ in range(25):
            n0, n1 = 1 + rng.randrange(3), 1 + rng.randrange(3)
            partial = SparseTensor(
                (n0, n1),
                {(a, b): rng.randrange(-2, 3) for a in range(n0) for b in range(n1)},
            )
            t = TwoVectorSpace(n0, n1, partial)
            assert dual_two_vs(dual_two_vs(t)) == t


def test_criterion_7_weak_strict_consistency(cm_population):
    with criterion(7, "weak/strict consistency"):
        for cm in cm_population:
            w = WeakLie2Data(cm, SparseTensor.zero((cm.dim0,) * 3 + (cm.dim1,)))
            assert verify_weak_lie2(w).passed == verify_cm(cm).passed
        assert verify_weak_lie2(weak_l3_example()).passed
        for seed in range(6):
            doc = catalog.gen_document("weak_abelian_l3", seed, perturbed=True)
            assert not run_verifier(doc, "auto").passed


def test_criterion_8_determinism_and_cli_contract(tmp_path, capsys):
    with criterion(8, "determinism and CLI exit-code contract"):
        # byte-identical reports and documents across repeated runs
        doc = catalog.get("trace_l2b").document
        path = tmp_path / "trace.json"
        path.write_bytes(serialize_document(doc))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert main(["verify", str(path), "--method", "all", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        r1 = serialize_report(doc, "all", run_verifier(doc, "all"))
        r2 = serialize_report(doc, "all", run_verifier(doc, "all"))
        assert r1 == r2
        g1 = serialize_document(catalog.gen_document("abelian_dual", 11))
        g2 = serialize_document(catalog.gen_document("abelian_dual", 11))
        assert g1 == g2

        # command matrix: exit codes are exactly {0, 1, 2}
        valid = tmp_path / "valid.json"
        valid.write_bytes(serialize_document(catalog.get("sl2").document))
        invalid = tmp_path / "invalid.json"
        invalid.write_bytes(serialize_document(catalog.get("sl2_bad_jacobi").document))
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{")
        dvb = tmp_path / "dvb.json"
        dvb.write_bytes(serialize_document(catalog.get("dvb_231").document))

        matrix = [
            (["verify", str(valid)], 0),
            (["verify", str(invalid)], 1),
            (["verify", str(tmp_path / "missing.json")], 2),
            (["verify", str(malformed)], 2),
            (["verify", str(dvb), "--method", "weil"], 2),
            (["verify", str(valid), "--method", "all"], 2),
            (["dualize", str(dvb), "--which", "flip"], 0),
            (["dualize", str(valid), "--which", "two_vs"], 2),
            (["gen", "--family", "scaling", "--seed", "3"], 0),
            (["gen", "--family", "unknown", "--seed", "3"], 2),
            (["catalog", "list"], 0),
            (["catalog", "show", "sl2"], 0),
            (["catalog", "show", "missing"], 2),
            ([], 2),
            (["verify"], 2),
        ]
        observed = set()
        for argv, expected in matrix:
            code = main(argv)
            capsys.readouterr()
            assert code == expected, (argv, code, expected)
            observed.add(code)
        assert observed == {0, 1, 2}
