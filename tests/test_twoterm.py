import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from l2b.catalog import (
    abelian_cm,
    adjoint_cm,
    axb,
    axb_action_cm,
    sl2,
)
from l2b.documents import SpaceDecl, build_crossed_module, check_duality_identity, dvb_dual
from l2b import catalog
from l2b.exact import DimensionMismatch, SparseTensor
from l2b.liecore import LieAlgebra, verify_lie
from l2b.twoterm import (
    CrossedModuleData,
    DerivedBracketError,
    TwoVectorSpace,
    WeakLie2Data,
    derived_bracket,
    derived_bracket_tensor,
    dual_two_vs,
    gamma_total,
    verify_cm,
)

from crossed_module_oracle import (
    g_action_algebroid,
    random_candidate,
    verify_cm_by_loops,
    verify_full_crossed_module_by_loops,
)


def seeded_cm(seed):
    """A crossed-module family member with ``seed % 2`` seeded edits."""
    return build_crossed_module(catalog.seeded_doc(catalog.CM_FAMILIES[seed % 3], seed, seed % 2))


# --- two-vector spaces ---------------------------------------------------------

def test_dual_two_vs_zero():
    t = TwoVectorSpace(2, 1, SparseTensor.zero((2, 1)))
    d = dual_two_vs(t)
    assert (d.dim0, d.dim1) == (1, 2)
    assert d.partial == SparseTensor.zero((1, 2))


def test_dual_two_vs_identity():
    ident = SparseTensor((2, 2), {(0, 0): 1, (1, 1): 1})
    t = TwoVectorSpace(2, 2, ident)
    assert dual_two_vs(t).partial == ident


def test_dual_two_vs_transpose():
    t = TwoVectorSpace(2, 2, SparseTensor((2, 2), {(0, 0): 1, (0, 1): 2, (1, 1): 3}))
    assert dual_two_vs(t).partial == SparseTensor((2, 2), {(0, 0): 1, (1, 0): 2, (1, 1): 3})


def test_dual_two_vs_involution():
    partial = SparseTensor((2, 3), {(0, 0): 1, (0, 1): 2, (1, 1): 1, (1, 2): 5})
    t = TwoVectorSpace(2, 3, partial, ("x", "y"), ("u", "v", "w"))
    assert dual_two_vs(dual_two_vs(t)) == t
    # a zero side or core keeps the other dimension through both duals
    for n0, n1 in ((0, 2), (2, 0), (0, 0)):
        t = TwoVectorSpace(n0, n1, SparseTensor.zero((n0, n1)))
        assert dual_two_vs(t).partial.dims == (n1, n0)
        assert dual_two_vs(dual_two_vs(t)) == t


def test_partial_shape_validated():
    with pytest.raises(DimensionMismatch):
        TwoVectorSpace(2, 1, SparseTensor.zero((1, 1)))
    with pytest.raises(DimensionMismatch):
        TwoVectorSpace(0, 2, SparseTensor.zero((0, 0)))


# --- crossed-module checks -------------------------------------------------------

def test_verify_cm_abelian():
    r = verify_cm(abelian_cm(2, 1))
    assert r.passed


def test_verify_cm_adjoint_sl2():
    assert verify_cm(adjoint_cm(sl2())).passed


def test_verify_cm_axb_action():
    assert verify_cm(axb_action_cm()).passed


def test_verify_cm_isolated_failures():
    # each candidate fails exactly one of the four conditions
    bad_base = LieAlgebra.from_table(
        ("e", "f", "h"), {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    )
    j = CrossedModuleData(
        bad_base,
        TwoVectorSpace(3, 1, SparseTensor.zero((3, 1)), bad_base.labels),
        SparseTensor((3, 1, 1)),
    )
    r_act = SparseTensor((2, 2, 2), {(0, 0, 1): 1, (1, 1, 0): 1})
    r = CrossedModuleData(
        LieAlgebra.abelian(("a", "b")),
        TwoVectorSpace(2, 2, SparseTensor.zero((2, 2)), ("a", "b")),
        r_act,
    )
    a = CrossedModuleData(
        axb(), TwoVectorSpace(2, 1, SparseTensor((2, 1), {(1, 0): 1})), SparseTensor((2, 1, 1))
    )
    b = CrossedModuleData(
        LieAlgebra.abelian(("e",)),
        TwoVectorSpace(1, 2, SparseTensor((1, 2), {(0, 0): 1}), ("e",)),
        SparseTensor((1, 2, 2), {(0, 1, 1): 1}),
    )
    for cm, failing in ((j, "jacobi"), (r, "representation"), (a, "equivariance"), (b, "skew_action")):
        report = verify_cm(cm)
        assert not report.passed
        for check in report.checks:
            assert check.passed == (check.cond != failing), (failing, check)
        assert report.check(failing).witness is not None


def test_derived_bracket_zero_partial():
    cm = axb_action_cm()
    assert derived_bracket(cm).bracket.is_zero()


def test_derived_bracket_adjoint_recovers_bracket(sl2):
    cm = adjoint_cm(sl2)
    assert derived_bracket(cm).bracket == sl2.bracket


def test_derived_bracket_refuses_skew_failure():
    cm = CrossedModuleData(
        LieAlgebra.abelian(("e",)),
        TwoVectorSpace(1, 1, SparseTensor((1, 1), {(0, 0): 1}), ("e",)),
        SparseTensor((1, 1, 1), {(0, 0, 0): 1}),
    )
    with pytest.raises(DerivedBracketError) as err:
        derived_bracket(cm)
    assert "skew_action" in str(err.value)


def test_verify_full_crossed_module(sl2):
    # the full crossed-module checks live in the loop oracle only
    cm = adjoint_cm(sl2)
    core = LieAlgebra(cm.tvs.labels1, sl2.bracket)
    assert verify_full_crossed_module_by_loops(cm, core).passed
    report = verify_full_crossed_module_by_loops(cm, LieAlgebra.abelian(cm.tvs.labels1))
    assert not report.passed
    assert not report.check("core_bracket").passed


def test_verify_full_abelian():
    cm = abelian_cm(2, 2)
    assert verify_full_crossed_module_by_loops(cm, LieAlgebra.abelian(cm.tvs.labels1)).passed


def test_gamma_total_scaling():
    g = LieAlgebra.abelian(("e",))
    cm = CrossedModuleData(
        g, TwoVectorSpace(1, 1, SparseTensor.zero((1, 1)), ("e",), ("f",)),
        SparseTensor((1, 1, 1), {(0, 0, 0): 1}),
    )
    total = gamma_total(cm)
    assert total.dim == 2 and total.bracket.get((0, 1, 1)) == 1
    assert verify_lie(total).passed


def test_gamma_total_adjoint(sl2):
    total = gamma_total(adjoint_cm(sl2))
    assert total.dim == 6
    assert verify_lie(total).passed


def test_g_action_same_as_gamma_when_partial_zero():
    cm = axb_action_cm()
    assert g_action_algebroid(cm).bracket == gamma_total(cm).bracket


def test_g_action_differs_on_core_core(sl2):
    cm = adjoint_cm(sl2)
    gt = gamma_total(cm)
    ga = g_action_algebroid(cm)
    assert verify_lie(ga).passed
    n0 = cm.dim0
    diff = gt.bracket.add(ga.bracket.scale(-1))
    # the difference is exactly the derived bracket on core-core slots
    expected = {}
    for (i, j, k), v in derived_bracket_tensor(cm).entries.items():
        expected[(n0 + i, n0 + j, n0 + k)] = v
    assert diff.entries == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 400))
def test_derived_structure_theorems(seed):
    # whenever the four candidate checks pass: the derived bracket is Lie,
    # the structure map is a bracket morphism, the action acts by
    # derivations, and both totals are Lie algebras
    cm = seeded_cm(seed)
    if not verify_cm(cm).passed:
        return
    db = derived_bracket(cm)
    assert verify_lie(db).passed
    assert verify_full_crossed_module_by_loops(cm, db).passed
    assert verify_lie(gamma_total(cm)).passed
    assert verify_lie(g_action_algebroid(cm)).passed


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_checks_equal_loop_oracle(seed):
    cm, _ = random_candidate(random.Random(seed))
    assert verify_cm(cm).checks == verify_cm_by_loops(cm).checks


def test_loop_oracle_candidates_pass_and_fail_every_check():
    outcomes = defaultdict(set)
    for seed in range(300):
        cm, core = random_candidate(random.Random(seed))
        report = verify_full_crossed_module_by_loops(cm, core)
        assert report.checks[:4] == verify_cm(cm).checks
        for check in report.checks:
            outcomes[check.cond].add(check.passed)
    assert len(outcomes) == 7
    assert all(seen == {True, False} for seen in outcomes.values()), dict(outcomes)


def test_two_vector_space_label_count_validated():
    # an empty label tuple is a label count like any other, not a request
    # for the default labels
    for labels in ({"labels0": ("x",)}, {"labels1": ("y", "z")}, {"labels0": ()}, {"labels1": ()}):
        with pytest.raises(DimensionMismatch, match="label count"):
            TwoVectorSpace(3, 1, SparseTensor.zero((3, 1)), **labels)


def test_crossed_module_refuses_mismatched_side_labels():
    # the side labels are stored twice, on the base algebra and on the
    # 2-vector space; a pair that disagrees is refused
    tvs = TwoVectorSpace(2, 1, SparseTensor.zero((2, 1)), ("x", "y"), ("f",))
    action = SparseTensor((2, 1, 1), {(0, 0, 0): 1})
    with pytest.raises(ValueError, match="base labels"):
        CrossedModuleData(axb(), tvs, action)
    cm = CrossedModuleData(LieAlgebra(("x", "y"), axb().bracket), tvs, action)
    assert cm.base.labels == cm.tvs.labels0 == ("x", "y")


def test_weak_data_antisymmetry_validated():
    with pytest.raises(ValueError, match="jacobiator not antisymmetric"):
        WeakLie2Data(
            abelian_cm(3, 1),
            SparseTensor((3, 3, 3, 1), {(0, 1, 2, 0): 1}),  # missing signed orbit
        )


def test_weak_data_jacobiator_dims_validated():
    for dims in ((3, 3, 3, 2), (2, 3, 3, 1), (3, 3, 3)):
        with pytest.raises(DimensionMismatch, match="jacobiator dims"):
            WeakLie2Data(abelian_cm(3, 1), SparseTensor.zero(dims))


# --- split double vector spaces ---------------------------------------------------
# (the dvb kind's bookkeeping, which `documents` holds on its space declarations)

def _dvb(da=2, db=3, dc=1):
    return {
        "side_h": SpaceDecl(da, name="A"),
        "side_v": SpaceDecl(db, name="B"),
        "core": SpaceDecl(dc, name="C"),
    }


def _render(spaces):
    return tuple(d.name + ("*" if d.dual else "") for d in spaces.values())


def test_dvb_vertical_dual_triple():
    d = dvb_dual(_dvb(), "dvb_vertical")
    assert _render(d) == ("C*", "B", "A*")
    assert tuple(s.dim for s in d.values()) == (1, 3, 2)


def test_dvb_horizontal_dual_triple():
    d = dvb_dual(_dvb(), "dvb_horizontal")
    assert _render(d) == ("A", "C*", "B*")


def test_dvb_flip_involution():
    d = _dvb()
    for which in ("flip", "dvb_vertical", "dvb_horizontal"):
        assert dvb_dual(dvb_dual(d, which), which) == d


def test_duality_identity_dims_231():
    report = check_duality_identity(_dvb(2, 3, 1))
    assert report.passed
    assert ("core_identification_sign", "-1") in report.metadata
    left = dvb_dual(dvb_dual(_dvb(2, 3, 1), "dvb_vertical"), "flip")
    assert tuple(s.dim for s in left.values()) == (3, 1, 2)


def test_duality_identity_zero_core():
    assert check_duality_identity(_dvb(2, 3, 0)).passed


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_duality_identity_random_dims(a, b, c):
    assert check_duality_identity(_dvb(a, b, c)).passed
