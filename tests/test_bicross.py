import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from l2b import catalog
from l2b.bicross import (
    DegenerateCoreError,
    Lie2BialgebraData,
    MatchedPairData,
    abelian_dual_pair,
    bicrossed_sum,
    cross_check,
    dual_action_core,
    dual_action_side,
    induced_cobracket,
    matched_pair_of,
    verify_l2b_def,
    verify_l2b_matched,
    verify_l2b_weil,
    verify_matched_pair,
)
from l2b.catalog import (
    adjoint_cm,
    axb,
    axb_action_cm,
    scaling_pair,
    semidirect_mp,
    sl2,
    trace_pair,
)
from l2b.documents import build_lie2_bialgebra
from l2b.exact import SparseTensor, permute_axes
from l2b.liecore import LieAlgebra, semidirect, verify_lie, verify_rep
from l2b.twoterm import CrossedModuleData, TwoVectorSpace, dual_two_vs, verify_cm


def seeded_l2b(seed, modifications=0):
    doc = catalog.gen_document(catalog.L2B_FAMILIES[seed % 4], seed)
    rng = random.Random(550007 + seed)
    for _ in range(modifications):
        doc = catalog.perturb_document(doc, rng)
    return build_lie2_bialgebra(doc)


def trace_instance(seed):
    rng = random.Random(331 + seed)
    a = Q(rng.randrange(-2, 3))
    b = Q(rng.randrange(-2, 3))
    c = Q(rng.randrange(-2, 3))
    d = -a if seed % 2 == 0 else Q(rng.randrange(-2, 3))
    return trace_pair(a, b, c, d), a + d == 0


# --- dual actions -----------------------------------------------------------------

def test_dual_action_side_zero():
    cm = catalog.abelian_cm(2, 2)
    assert dual_action_side(cm).is_zero()


def test_dual_action_side_scaling_sign():
    d = scaling_pair(1, 1)
    assert dual_action_side(d.cm1).get((0, 0, 0)) == -1


def test_dual_action_core_scaling_sign():
    d = scaling_pair(1, 1)
    assert dual_action_core(d.cm2).get((0, 0, 0)) == -1


def test_dual_action_side_adjoint_is_rep(sl2):
    cm = adjoint_cm(sl2)
    tensor = dual_action_side(cm)
    assert verify_rep(sl2, tensor).passed
    # contragredient of the adjoint: minus transpose of each ad matrix
    assert tensor == permute_axes(sl2.bracket, (0, 2, 1)).scale(-1)


def test_dual_action_round_trip():
    d = scaling_pair(Q(3, 2), Q(-2))
    # dualizing the contragredient again recovers the original action
    side = dual_action_side(d.cm1)
    tvs2 = dual_two_vs(d.cm1.tvs)
    as_cm = CrossedModuleData(LieAlgebra.abelian(tvs2.labels0), dual_two_vs(tvs2), side)
    # (i,k,j) double flip with two sign flips is the identity
    assert dual_action_side(as_cm) == d.cm1.action


# --- bicrossed sums ----------------------------------------------------------------

def test_bicrossed_trivial_actions_direct_product(sl2, axb):
    mp = MatchedPairData(
        sl2, axb, SparseTensor.zero((3, 2, 2)), SparseTensor.zero((2, 3, 3))
    )
    total = bicrossed_sum(mp)
    assert verify_lie(total).passed
    assert total.bracket.get((0, 1, 2)) == 1  # sl2 block
    assert total.bracket.get((3, 4, 4)) == 1  # axb block shifted


def test_bicrossed_semidirect_degeneration_matches_liecore(axb):
    act = SparseTensor((2, 1, 1), {(0, 0, 0): Q(5, 3)})
    mp = semidirect_mp(axb, act, 1)
    total = bicrossed_sum(mp)
    direct = semidirect(axb, act, module_labels=("k0",))
    assert total.bracket == direct.bracket
    assert verify_lie(total).passed


def test_bicrossed_scaling_is_two_dim_lie():
    d = scaling_pair(1, 1)
    total = bicrossed_sum(matched_pair_of(d))
    assert total.dim == 2
    assert verify_lie(total).passed
    # [e, f*] = e - f* with unit weights
    assert total.bracket.get((0, 1, 0)) == 1
    assert total.bracket.get((0, 1, 1)) == -1


def test_verify_matched_pair_trivial(sl2, axb):
    mp = MatchedPairData(
        sl2, axb, SparseTensor.zero((3, 2, 2)), SparseTensor.zero((2, 3, 3))
    )
    assert verify_matched_pair(mp).passed


def test_verify_matched_pair_scaling():
    assert verify_matched_pair(matched_pair_of(scaling_pair(1, 1))).passed


def test_verify_matched_pair_broken_rep(axb):
    act = SparseTensor((2, 1, 1), {(1, 0, 0): 1})
    mp = semidirect_mp(axb, act, 1)
    report = verify_matched_pair(mp)
    assert not report.passed
    assert not report.check("h_on_k.representation").passed
    assert report.check("h_on_k.representation").witness is not None


def test_sign_flip_calibration_probe():
    # flipping the sign of one dual action breaks the matched pair on the
    # trace-zero instance (2-dim side), pinning the contragredient convention
    d = trace_pair(1, 2, 3, -1)
    mp = matched_pair_of(d)
    assert verify_matched_pair(mp).passed
    flipped = MatchedPairData(
        mp.h, mp.k, mp.act_h_on_k.scale(-1), mp.act_k_on_h
    )
    assert not verify_matched_pair(flipped).passed


# --- the three verifiers -------------------------------------------------------------

def test_induced_cobracket_scaling():
    d = scaling_pair(1, 1)
    cobr = induced_cobracket(d)
    # delta(e) = f^e, delta(f) = 0 in the total basis (e, f)
    assert cobr.tensor.get((0, 1, 0)) == 1
    assert cobr.tensor.get((0, 0, 1)) == -1
    assert cobr.image_of(1) == {}


def test_verify_def_scaling_and_abelian_dual(sl2):
    assert verify_l2b_def(scaling_pair(1, 1)).passed
    assert verify_l2b_def(abelian_dual_pair(adjoint_cm(sl2))).passed
    assert verify_l2b_def(abelian_dual_pair(axb_action_cm())).passed


def test_verify_def_skips_cocycle_on_bad_cm():
    d = seeded_l2b(1)
    # break cm1's bracket so the crossed-module stage fails
    bad_base = LieAlgebra.from_table(
        ("e", "f", "h"), {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    )
    cm1 = adjoint_cm(sl2())
    bad_cm1 = CrossedModuleData(bad_base, cm1.tvs, cm1.action)
    bad = Lie2BialgebraData(bad_cm1, abelian_dual_pair(cm1).cm2)
    report = verify_l2b_def(bad)
    assert not report.passed
    assert ("bialgebra", "skipped: crossed-module prerequisites failed") in report.metadata


def test_verify_matched_scaling():
    assert verify_l2b_matched(scaling_pair(1, 1)).passed


def test_verify_weil_scaling():
    assert verify_l2b_weil(scaling_pair(1, 1)).passed


def test_verify_weil_rejects_degenerate_core():
    cm1 = CrossedModuleData(
        axb(),
        TwoVectorSpace(2, 0, SparseTensor.zero((2, 0))),
        SparseTensor.zero((2, 0, 0)),
    )
    d = abelian_dual_pair(cm1)
    with pytest.raises(DegenerateCoreError):
        verify_l2b_weil(d)


def test_cross_check_degenerate_core_runs_two_verifiers():
    cm1 = CrossedModuleData(
        axb(), TwoVectorSpace(2, 0, SparseTensor.zero((2, 0))), SparseTensor.zero((2, 0, 0))
    )
    report = cross_check(abelian_dual_pair(cm1))
    meta = dict(report.metadata)
    assert report.passed
    assert meta["agreement"] == "true"
    assert "weil" in meta and "skipped" in meta["weil"]


def test_cross_check_agreement_on_valid_and_invalid():
    good = cross_check(scaling_pair(1, 1))
    assert good.passed and dict(good.metadata)["agreement"] == "true"
    bad = cross_check(trace_pair(1, 0, 0, 1))
    assert not bad.passed
    assert dict(bad.metadata)["agreement"] == "true"
    assert bad.check("agreement").passed


def test_cross_check_verifies_each_crossed_module_once(monkeypatch):
    from l2b import bicross

    calls = []

    def counted(cm):
        calls.append(cm)
        return verify_cm(cm)

    d = trace_pair(1, 0, 0, 1)
    rd, rm = verify_l2b_def(d), verify_l2b_matched(d)
    monkeypatch.setattr(bicross, "verify_cm", counted)
    report = cross_check(d)
    assert calls == [d.cm1, d.cm2]
    n = len(rd.checks) + len(rm.checks)
    assert report.checks[:n] == rd.prefixed("def.").checks + rm.prefixed("matched.").checks


# --- equivalence and closure properties ------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 600))
def test_e2_three_way_equivalence_seeded(seed):
    d = seeded_l2b(seed, modifications=seed % 3)
    if d.dim1 == 0:
        return
    verdicts = [
        verify_l2b_def(d).passed,
        verify_l2b_matched(d).passed,
        verify_l2b_weil(d).passed,
    ]
    assert len(set(verdicts)) == 1, (seed, verdicts)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300))
def test_e2_trace_family(seed):
    d, expected_valid = trace_instance(seed)
    verdicts = [
        verify_l2b_def(d).passed,
        verify_l2b_matched(d).passed,
        verify_l2b_weil(d).passed,
    ]
    assert len(set(verdicts)) == 1
    assert verdicts[0] == expected_valid


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 400))
def test_abelian_dual_closure(seed):
    fam = ("abelian", "adjoint", "random_basis_change:adjoint")[seed % 3]
    from l2b.documents import build_crossed_module

    cm = build_crossed_module(catalog.gen_document(fam, seed))
    if not cm.dim1:
        return
    report = cross_check(abelian_dual_pair(cm))
    assert report.passed
    assert dict(report.metadata)["agreement"] == "true"


def test_dual_swap_preserves_verdict():
    for seed in range(8):
        d = seeded_l2b(seed, modifications=seed % 2)
        swapped = Lie2BialgebraData(d.cm2, d.cm1)
        assert cross_check(d).passed == cross_check(swapped).passed
