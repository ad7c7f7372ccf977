import random
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from l2b import catalog
from l2b.bicross import (
    Lie2BialgebraData,
    MatchedPairData,
    abelian_dual_pair,
    contragredient,
    cross_check,
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
from l2b.documents import (
    _SCHEMAS,
    SpaceDecl,
    StructureDocument,
    build_crossed_module,
    build_lie2_bialgebra,
    parse_document,
)
from l2b.exact import SparseTensor
from l2b.liecore import (
    LieAlgebra,
    bicrossed_sum,
    cobracket_to_dual_lie,
    combine,
    verify_lie,
    verify_rep,
)
from l2b.twoterm import (
    CrossedModuleData,
    DerivedBracketError,
    TwoVectorSpace,
    dual_two_vs,
    gamma_total,
    verify_cm,
)

from conftest import bench_workloads, crossed_module, small_tensor
from crossed_module_oracle import random_candidate
from manin_double_oracle import manin_double


def seeded_l2b(seed, modifications=0):
    doc = catalog.seeded_doc(catalog.L2B_FAMILIES[seed % 4], seed, modifications)
    return build_lie2_bialgebra(doc)


def trace_instance(seed):
    rng = random.Random(331 + seed)
    a = Q(rng.randrange(-2, 3))
    b = Q(rng.randrange(-2, 3))
    c = Q(rng.randrange(-2, 3))
    d = -a if seed % 2 == 0 else Q(rng.randrange(-2, 3))
    return trace_pair(a, b, c, d), a + d == 0


# --- dual (contragredient) actions ---------------------------------------------------

def test_dual_action_side_zero():
    assert not contragredient(catalog.abelian_cm(2, 2).action).entries


def test_dual_action_side_scaling_sign():
    d = scaling_pair(1, 1)
    assert contragredient(d.cm1.action).get((0, 0, 0)) == -1


def test_dual_action_core_scaling_sign():
    d = scaling_pair(1, 1)
    assert contragredient(d.cm2.action).get((0, 0, 0)) == -1


def test_dual_action_side_adjoint_is_rep(sl2):
    tensor = contragredient(adjoint_cm(sl2).action)
    assert verify_rep(sl2, tensor).passed
    # minus the transpose of each ad matrix: [h, e] = 2e, [e, f] = h
    assert tensor.get((2, 0, 0)) == -2
    assert tensor.get((0, 2, 1)) == -1 and tensor.get((0, 1, 2)) == 0


def test_dual_action_round_trip():
    d = scaling_pair(Q(3, 2), Q(-2))
    # (i,k,j) double flip with two sign flips is the identity
    assert contragredient(contragredient(d.cm1.action)) == d.cm1.action


@settings(max_examples=40)
@given(small_tensor((2, 3, 3), max_entries=6))
def test_contragredient_entries(action):
    dual = contragredient(action)
    assert dual.dims == action.dims
    assert dual.entries == {(i, k, j): -v for (i, j, k), v in action.entries.items()}
    assert contragredient(dual) == action


# --- bicrossed sums ----------------------------------------------------------------

def test_bicrossed_trivial_actions_direct_product(sl2, axb):
    mp = MatchedPairData(
        sl2, axb, SparseTensor.zero((3, 2, 2)), SparseTensor.zero((2, 3, 3))
    )
    total = bicrossed_sum(mp.h, mp.k, mp.act_h_on_k, mp.act_k_on_h)
    assert verify_lie(total).passed
    assert total.bracket.get((0, 1, 2)) == 1  # sl2 block
    assert total.bracket.get((3, 4, 4)) == 1  # axb block shifted


def test_bicrossed_semidirect_degeneration_matches_liecore(axb):
    act = SparseTensor((2, 1, 1), {(0, 0, 0): Q(5, 3)})
    mp = semidirect_mp(axb, act, 1)
    total = bicrossed_sum(mp.h, mp.k, mp.act_h_on_k, mp.act_k_on_h)
    # the semidirect formula [(x,u),(y,w)] = ([x,y], x.w - y.u), block by block
    expected = dict(axb.bracket.entries)
    for (i, a, b), v in act.entries.items():
        expected[(i, 2 + a, 2 + b)] = v
        expected[(2 + a, i, 2 + b)] = -v
    assert total.bracket.entries == expected
    assert total.labels == axb.labels + ("k0",)
    assert verify_lie(total).passed


def test_bicrossed_scaling_is_two_dim_lie():
    d = scaling_pair(1, 1)
    mp = matched_pair_of(d)
    total = bicrossed_sum(mp.h, mp.k, mp.act_h_on_k, mp.act_k_on_h)
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
    assert not verify_rep(mp.h, mp.act_h_on_k).passed
    # the representation defect is the (h,h,k) block of the bicrossed Jacobi
    assert [c.cond for c in report.checks] == ["bicrossed.jacobi"]
    assert report.check("bicrossed.jacobi").witness.indices == (0, 1, 2, 2)


def random_matched_pair(rng):
    """A matched-pair candidate with factors of dims 0-3.

    Half are the matched pairs of seeded Lie 2-bialgebras (`seeded_l2b`,
    whose edits break some of them); the rest take the base, core bracket
    and action of a crossed-module candidate (`random_candidate`) with a
    zero or random reverse action, and half of those swap the factors.
    """
    if rng.random() < 0.5:
        return matched_pair_of(seeded_l2b(rng.randrange(600), rng.randrange(3)))
    cm, core = random_candidate(rng)
    n0, n1 = cm.dim0, cm.dim1
    back = {}
    for _ in range(rng.choice((0, 0, 1, 2)) if n0 * n1 else 0):
        idx = (rng.randrange(n1), rng.randrange(n0), rng.randrange(n0))
        back[idx] = back.get(idx, 0) + rng.choice((-1, 1, 2))
    back = SparseTensor((n1, n0, n0), back)
    if rng.random() < 0.5:
        return MatchedPairData(core, cm.base, back, cm.action)
    return MatchedPairData(cm.base, core, cm.action, back)


def test_failing_factor_or_action_fails_bicrossed_jacobi():
    # [h, h] lies in h, so the (h,h,h) block of the bicrossed Jacobi identity
    # is Jacobi of h, and the k-part of its (h,h,k) block is
    # rho([x,y]) - [rho(x), rho(y)]; likewise for k.  So `verify_matched_pair`
    # reports the bicrossed Jacobi check alone.
    rng = random.Random(7)
    failures = Counter()
    for _ in range(600):
        mp = random_matched_pair(rng)
        parts = {
            "h.jacobi": verify_lie(mp.h),
            "k.jacobi": verify_lie(mp.k),
            "h_on_k.representation": verify_rep(mp.h, mp.act_h_on_k),
            "k_on_h.representation": verify_rep(mp.k, mp.act_k_on_h),
        }
        failing = [name for name, report in parts.items() if not report.passed]
        failures.update(failing)
        if failing:
            assert not verify_matched_pair(mp).check("bicrossed.jacobi").passed, failing
    assert set(failures) == set(parts), failures


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
    assert all(i != 1 for i, _, _ in cobr.tensor.entries)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_induced_cobracket_dual_is_relabeled_gamma_total(seed):
    # why `def` checks no Jacobi of its dual total: the bracket that the
    # induced cobracket puts on the dual is gamma_total(cm2) with cm2's
    # total basis (f*_0.., e*_0..) moved to the dual of (e_0.., f_0..)
    cm2, _ = random_candidate(random.Random(seed))
    tvs1 = dual_two_vs(cm2.tvs)
    n0, n1 = tvs1.dim0, tvs1.dim1
    cm1 = CrossedModuleData(
        LieAlgebra.abelian(tvs1.labels0), tvs1, SparseTensor.zero((n0, n1, n1))
    )
    d = Lie2BialgebraData(cm1, cm2)
    try:
        gamma2 = gamma_total(cm2)
    except DerivedBracketError:
        with pytest.raises(DerivedBracketError):
            induced_cobracket(d)
        return
    position = list(range(n0, n0 + n1)) + list(range(n0))
    relabeled = {
        (position[a], position[b], position[c]): v
        for (a, b, c), v in gamma2.bracket.entries.items()
    }
    dual = cobracket_to_dual_lie(induced_cobracket(d))
    assert dual.bracket.entries == relabeled
    if verify_cm(cm2).passed:
        assert verify_lie(dual).passed


def test_verify_def_scaling_and_abelian_dual(sl2):
    assert verify_l2b_def(scaling_pair(1, 1)).passed
    assert verify_l2b_def(abelian_dual_pair(adjoint_cm(sl2))).passed
    assert verify_l2b_def(abelian_dual_pair(axb_action_cm())).passed


def test_pair_refuses_a_cm2_not_on_the_dual_space():
    # cm2 must live on dual_two_vs(cm1.tvs): mirrored dims, transposed
    # structure map and starred labels
    def on(tvs):
        zero = SparseTensor.zero((tvs.dim0, tvs.dim1, tvs.dim1))
        return CrossedModuleData(LieAlgebra.abelian(tvs.labels0), tvs, zero)

    cm1 = crossed_module((2, 2), partial=SparseTensor((2, 2), {(0, 1): 1}))
    dual = dual_two_vs(cm1.tvs)
    assert Lie2BialgebraData(cm1, on(dual)).cm2.tvs.labels0 == ("f0*", "f1*")
    untransposed = TwoVectorSpace(2, 2, cm1.tvs.partial, dual.labels0, dual.labels1)
    axb_cm = axb_action_cm()
    relabelled = TwoVectorSpace(1, 2, SparseTensor.zero((1, 2)), ("p",), ("q", "r"))
    for first, second in ((axb_cm, axb_cm), (cm1, on(untransposed)), (axb_cm, on(relabelled))):
        with pytest.raises(ValueError, match="not the dual"):
            Lie2BialgebraData(first, second)


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


def zero_core_pair(g0):
    n = g0.dim
    cm1 = CrossedModuleData(
        g0, TwoVectorSpace(n, 0, SparseTensor.zero((n, 0)), g0.labels), SparseTensor.zero((n, 0, 0))
    )
    return abelian_dual_pair(cm1)


def test_verify_weil_decides_zero_core():
    assert verify_l2b_weil(zero_core_pair(axb())).passed
    bad = LieAlgebra.from_table(
        ("e", "f", "h"), {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    )
    report = verify_l2b_weil(zero_core_pair(bad))
    assert [c.cond for c in report.checks if not c.passed] == ["delta_h.square_zero.side"]


def test_cross_check_agrees_on_zero_cores():
    # random 2-3-dimensional side algebras, most 3-dimensional ones not Lie
    rng = random.Random(7)
    verdicts = set()
    for _ in range(40):
        n = rng.choice((2, 3))
        table = {}
        for i, j in ((0, 1), (0, 2), (1, 2))[: 1 if n == 2 else 3]:
            table[(i, j)] = {k: rng.randrange(-1, 2) for k in range(n)}
        g0 = LieAlgebra.from_table(tuple(f"e{i}" for i in range(n)), table)
        report = cross_check(zero_core_pair(g0))
        meta = dict(report.metadata)
        assert meta["agreement"] == "true" and "weil" not in meta
        assert report.check("agreement").passed
        assert report.passed == verify_lie(g0).passed
        verdicts.add(report.passed)
    assert verdicts == {True, False}


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
    assert report.checks[:n] == combine(("def.", rd), ("matched.", rm)).checks


def test_every_weil_and_def_bialgebra_check_can_fail():
    # a check that passes on every member of the populations decides
    # nothing there; checks that hold by construction are tests instead.
    # `matched` adds to the `cm1.`/`cm2.` checks only its bicrossed Jacobi.
    docs = [e.document for e in catalog.entries() if e.kind == "lie2_bialgebra"]
    docs += [catalog.seeded_member(catalog.L2B_FAMILIES, seed) for seed in range(600)]
    failures = Counter()
    for doc in docs:
        for c in cross_check(build_lie2_bialgebra(doc)).checks:
            if c.cond.startswith(("weil.", "def.bialgebra.", "matched.mp.")):
                failures[c.cond] += not c.passed
    assert "def.bialgebra.cocycle" in failures
    assert [c for c in failures if c.startswith("matched.mp.")] == ["matched.mp.bicrossed.jacobi"]
    assert [cond for cond, count in failures.items() if not count] == []


# --- equivalence and closure properties ------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 600))
def test_e2_three_way_equivalence_seeded(seed):
    d = seeded_l2b(seed, modifications=seed % 3)
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
    cm = build_crossed_module(catalog.gen_document(catalog.CM_FAMILIES[seed % 3], seed))
    report = cross_check(abelian_dual_pair(cm))
    assert report.passed
    assert dict(report.metadata)["agreement"] == "true"


def test_dual_swap_preserves_verdict():
    for seed in range(8):
        d = seeded_l2b(seed, modifications=seed % 2)
        swapped = Lie2BialgebraData(d.cm2, d.cm1)
        assert cross_check(d).passed == cross_check(swapped).passed


def bench_bialgebra_pair_docs():
    """`bench/workloads.py`'s two bialgebra pairs, where both brackets are nonzero."""
    return [bench_workloads().bialgebra_pair_doc(name) for name in ("axb", "sl2")]


def test_manin_double_agrees_with_matched_and_weil():
    # `def` is left out: on the bench pairs it disagrees with the other two
    # (the pairing sign of `induced_cobracket`), which `bench/tests` pins
    docs = [e.document for e in catalog.entries() if e.kind == "lie2_bialgebra"]
    docs += [catalog.seeded_member(catalog.L2B_FAMILIES, s) for s in range(300)]
    docs += bench_bialgebra_pair_docs()
    verdicts, minus_disagreements = Counter(), 0
    for doc in docs:
        d = build_lie2_bialgebra(doc)
        matched = verify_l2b_matched(d).passed
        assert verify_l2b_weil(d).passed == matched, doc.name
        assert verify_cm(manin_double(d)).passed == matched, doc.name
        minus_disagreements += verify_cm(manin_double(d, core_sign=-1)).passed != matched
        verdicts[matched] += 1
    assert verdicts[True] and verdicts[False]
    # the sign of the cm2 part of the structure map matters
    assert minus_disagreements > 0


def test_manin_double_on_bench_pair_twins_and_edits():
    # both brackets nonzero: per bench pair, 20 basis-changed twins (valid)
    # and 100 seeded single-entry edits (each invalid); the double with
    # -∂2 gets every twin wrong
    workloads = bench_workloads()
    verdicts = Counter()
    for pair in bench_bialgebra_pair_docs():
        twins = [workloads.basis_changed(pair, random.Random(s), f"{pair.name}-twin{s}", 1)
                 for s in range(20)]
        edits = [catalog.perturb_document(pair, random.Random(s)) for s in range(100)]
        for doc, is_twin in [(t, True) for t in twins] + [(e, False) for e in edits]:
            d = build_lie2_bialgebra(doc)
            matched = verify_l2b_matched(d).passed
            assert verify_l2b_weil(d).passed == matched, doc.name
            assert verify_cm(manin_double(d)).passed == matched, doc.name
            if is_twin:
                assert verify_cm(manin_double(d, core_sign=-1)).passed != matched, doc.name
            verdicts[is_twin, matched] += 1
    assert verdicts == {(True, True): 40, (False, False): 200}


def l2b_direct_sum(docs) -> StructureDocument:
    """The direct sum of `lie2_bialgebra` documents: the space dims add, each
    label gets its summand's position, and each block's indices shift by the
    summand's offset on each axis."""
    offsets, labels, blocks = {"g0": 0, "g1": 0}, {"g0": [], "g1": []}, {}
    schema = _SCHEMAS["lie2_bialgebra"]["blocks"]
    for pos, doc in enumerate(docs):
        for key, axes in schema.items():
            for idx, v in doc.block_tensor(key).entries.items():
                shifted = tuple(i + offsets[s] for i, s in zip(idx, axes))
                blocks.setdefault(key, {})[shifted] = v
        for s in offsets:
            offsets[s] += doc.spaces[s].dim
            labels[s] += [f"{label}{pos}" for label in doc.spaces[s].labels]
    spaces = {s: SpaceDecl(offsets[s], tuple(labels[s])) for s in offsets}
    tensors = {
        key: SparseTensor(tuple(offsets[s] for s in axes), blocks.get(key, {}))
        for key, axes in schema.items()
    }
    return StructureDocument("lie2_bialgebra", "+".join(d.name for d in docs), spaces, tensors)


def test_manin_double_on_direct_sums_of_bench_pairs():
    # both brackets nonzero on every summand; `def` is left out, as in
    # `test_manin_double_agrees_with_matched_and_weil`: it fails every sum
    axb_pair, sl2_pair = bench_bialgebra_pair_docs()
    sums = [l2b_direct_sum(s) for s in ([sl2_pair], [axb_pair, sl2_pair], [sl2_pair, sl2_pair])]
    assert [(d.spaces["g0"].dim, d.spaces["g1"].dim) for d in sums] == [(3, 3), (5, 5), (6, 6)]
    for doc in sums:
        edits = [catalog.perturb_document(doc, random.Random(s)) for s in range(2)]
        for candidate in [doc] + edits:
            d = build_lie2_bialgebra(candidate)
            matched = verify_l2b_matched(d).passed
            assert verify_l2b_weil(d).passed == matched, candidate.name
            assert verify_cm(manin_double(d)).passed == matched, candidate.name
            # the sum is valid and each of its two edits breaks it
            assert matched == (candidate is doc), candidate.name


def test_manin_double_on_bench_populations():
    # every `l2b_population` document of bench seeds 1-3, as the benchmark
    # serializes it: its members, their edits and twins, and the bench pairs
    workloads = bench_workloads()
    verdicts = Counter()
    for seed in (1, 2, 3):
        for op in workloads.build_population(workloads.plan_population(seed)):
            doc = parse_document(op.data)
            d = build_lie2_bialgebra(doc)
            matched = verify_l2b_matched(d).passed
            assert verify_l2b_weil(d).passed == matched, (seed, doc.name)
            assert verify_cm(manin_double(d)).passed == matched, (seed, doc.name)
            verdicts[matched] += 1
    assert verdicts == {True: 90, False: 66}
