import itertools
import random
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from l2b.catalog import adjoint_cm, axb, axb_action_cm, sl2, weak_l3_example
from l2b.documents import build_crossed_module, build_lie2_bialgebra, build_weak_lie2
from l2b import catalog
from l2b.exact import DimensionMismatch, SparseTensor, perm_parity
from l2b.liecore import Check, LieAlgebra, Witness, verify_lie
from l2b.twoterm import CrossedModuleData, TwoVectorSpace, WeakLie2Data, verify_cm
from l2b.weil import (
    _bracket_table,
    _square,
    CM_SQUARE_CHECKS,
    GradedDerivation,
    WeilElement,
    _monomial,
    _sort_key,
    _total_degree,
    apply_derivation,
    build_delta_j,
    check_derivation_of_bracket,
    check_gerst_axioms,
    check_square_zero,
    check_cm_square,
    check_zero_on_generators,
    cm_differentials,
    derivation_sum,
    gerst_bracket,
    graded_commutator,
    verify_weak_lie2,
)

from conftest import (
    assert_canonical,
    assert_exact,
    crossed_module,
    nonzero_rationals,
    small_tensor,
)
from crossed_module_oracle import g_action_algebroid, random_candidate
from monomial_oracle import (
    apply_derivation_by_products,
    check_derivation_of_bracket_bounded,
    check_derivation_of_bracket_on_generators,
    check_gerst_axioms_bounded,
    check_gerst_axioms_on_generators,
    enumerate_monomials,
    gerst_bracket_by_sums,
    random_table_and_derivation,
    weil_add,
    weil_alpha,
    weil_gamma,
    weil_mul,
    weil_one,
    weil_scale,
    weil_sub,
)


# the components of the square of delta_v + delta_h + delta_J that can be nonzero
WEAK_SQUARES = ("square(1,1)", "square(2,0)", "square(3,-1)")


def seeded_cm(seed):
    return build_crossed_module(catalog.seeded_member(catalog.CM_FAMILIES, seed))


def zero_jacobiator(cm):
    return SparseTensor.zero((cm.dim0, cm.dim0, cm.dim0, cm.dim1))


def delta_h_and_v(cm):
    return cm_differentials(cm)[::-1]


def mono_strategy(dims, max_deg=4):
    monos = enumerate_monomials(dims, max_deg)
    return st.sampled_from(monos)


def elt(dims, *term_pairs):
    return WeilElement(dims, {m: Q(c) for m, c in term_pairs})


def bidegree(mono) -> tuple[int, int]:
    """``(r + s, s)`` for a monomial of ``r`` exterior and ``s`` symmetric factors."""
    ext, sym = mono
    return (len(ext) + len(sym), len(sym))


def is_plain_monomial(mono) -> bool:
    """Whether ``mono`` is a plain ``(ext, sym)`` tuple of two int tuples."""
    return (
        type(mono) is tuple
        and len(mono) == 2
        and all(type(part) is tuple and all(type(i) is int for i in part) for part in mono)
    )


# --- multiplication (the oracle's element product) ---------------------------------

def test_mul_odd_generators_anticommute():
    dims = (2, 1)
    a1, a2 = weil_alpha(dims, 0), weil_alpha(dims, 1)
    assert weil_mul(a1, a2) == weil_scale(-1, weil_mul(a2, a1))


def test_mul_even_generators_commute():
    dims = (1, 2)
    g1, g2 = weil_gamma(dims, 0), weil_gamma(dims, 1)
    assert weil_mul(g1, g2) == weil_mul(g2, g1)


def test_mul_exterior_square_zero():
    dims = (2, 1)
    a1 = weil_alpha(dims, 0)
    assert weil_mul(a1, a1).is_zero()


def test_monomial_bidegrees():
    m = ((0, 2), (1, 1))
    assert bidegree(m) == (4, 2)
    assert _total_degree(m) == 6


@settings(max_examples=60)
@given(mono_strategy((3, 2)), mono_strategy((3, 2)), mono_strategy((3, 2)))
def test_mul_associative_graded_commutative(m1, m2, m3):
    dims = (3, 2)
    e1, e2, e3 = (WeilElement(dims, {m: Q(1)}) for m in (m1, m2, m3))
    assert weil_mul(weil_mul(e1, e2), e3) == weil_mul(e1, weil_mul(e2, e3))
    sign = -1 if (_total_degree(m1) * _total_degree(m2)) % 2 else 1
    assert weil_mul(e1, e2) == weil_scale(sign, weil_mul(e2, e1))


# --- the differentials -----------------------------------------------------------

def test_delta_v_zero_map():
    dv = cm_differentials(crossed_module((2, 1)))[0]
    assert not any(dv.ext_images + dv.sym_images)


def test_delta_v_identity_map():
    dv = cm_differentials(crossed_module((1, 1), partial=SparseTensor((1, 1), {(0, 0): 1})))[0]
    assert dv.ext_images[0] == weil_gamma((1, 1), 0).terms
    assert not dv.sym_images[0]


def test_delta_v_leibniz_on_wedge():
    # with the identity structure map on dims (2,2):
    # delta_v(a0 a1) = g0 a1 - a0 g1
    identity = SparseTensor((2, 2), {(0, 0): 1, (1, 1): 1})
    dv = cm_differentials(crossed_module((2, 2), partial=identity))[0]
    dims = (2, 2)
    a0a1 = elt(dims, (((0, 1), ()), 1))
    expected = weil_sub(
        weil_mul(weil_gamma(dims, 0), weil_alpha(dims, 1)),
        weil_mul(weil_alpha(dims, 0), weil_gamma(dims, 1)),
    )
    assert apply_derivation(dv, a0a1) == expected


def test_delta_h_axb():
    # [e0,e1] = e1 gives delta_h(a1) = -a0 a1 and delta_h(a0) = 0
    dh = cm_differentials(crossed_module((2, 0), axb().bracket))[1]
    dims = (2, 0)
    assert not dh.ext_images[0]
    assert dh.ext_images[1] == elt(dims, (((0, 1), ()), -1)).terms


def test_delta_h_scaling_action():
    # abelian side, action e.f = f gives delta_h(g0) = -a0 g0
    dh = cm_differentials(crossed_module((1, 1), action=SparseTensor((1, 1, 1), {(0, 0, 0): 1})))[1]
    assert dh.sym_images[0] == elt((1, 1), (((0,), (0,)), -1)).terms


def test_delta_j_single_entry():
    dj = build_delta_j(weak_l3_example())
    assert dj.sym_images[0] == elt((3, 1), (((0, 1, 2), ()), -1)).terms
    assert not any(dj.ext_images)


def test_delta_j_rejects_symmetry_violation():
    # the differential is read off weak two-term data, which refuses a
    # Jacobiator that is not antisymmetric
    jacobiator = SparseTensor((3, 3, 3, 1), {(0, 1, 2, 0): 1})
    with pytest.raises(ValueError, match="jacobiator not antisymmetric at"):
        build_delta_j(WeakLie2Data(crossed_module((3, 1)), jacobiator))


def test_delta_j_leibniz_on_gamma_square():
    dj = build_delta_j(weak_l3_example())
    gg = elt((3, 1), (((), (0, 0)), 1))
    expected = elt((3, 1), (((0, 1, 2), (0,)), -2))
    assert apply_derivation(dj, gg) == expected


def test_apply_derivation_on_constant_and_generator():
    dh = cm_differentials(adjoint_cm(sl2()))[1]
    assert apply_derivation(dh, weil_one((3, 3))).is_zero()
    assert apply_derivation(dh, weil_alpha((3, 3), 1)).terms == dh.ext_images[1]


def test_apply_derivation_delta_v_gamma_alpha():
    # identity structure map, dims (1,1): delta_v(g0 a0) = g0 g0
    dv = cm_differentials(crossed_module((1, 1), partial=SparseTensor((1, 1), {(0, 0): 1})))[0]
    ga = elt((1, 1), (((0,), (0,)), 1))
    assert apply_derivation(dv, ga) == elt((1, 1), (((), (0, 0)), 1))


@settings(max_examples=60)
@given(mono_strategy((2, 2), 3), mono_strategy((2, 2), 3))
def test_apply_derivation_leibniz_product_rule(m1, m2):
    # d(ab) = d(a) b + (-1)^{|d||a|} a d(b) for the axb-action differential
    cm = axb_action_cm()
    dims = (2, 1)
    monos2 = enumerate_monomials(dims, 3)
    m1 = monos2[_total_degree(m1) % len(monos2)] if m1 not in monos2 else m1
    m2 = monos2[_total_degree(m2) % len(monos2)] if m2 not in monos2 else m2
    dh = cm_differentials(cm)[1]
    e1 = WeilElement(dims, {m1: Q(1)})
    e2 = WeilElement(dims, {m2: Q(1)})
    lhs = apply_derivation(dh, weil_mul(e1, e2))
    sign = -1 if _total_degree(m1) % 2 else 1
    rhs = weil_add(
        weil_mul(apply_derivation(dh, e1), e2),
        weil_scale(sign, weil_mul(e1, apply_derivation(dh, e2))),
    )
    assert lhs == rhs


# int and Fraction coefficients; WeilElement stores an integral Fraction as an int
mixed_coeffs = st.one_of(st.integers(-3, 3).filter(bool), nonzero_rationals)


def monomials_of(dims, max_ext, max_sym):
    n0, n1 = dims
    return [
        (ext, sym)
        for r in range(min(n0, max_ext) + 1)
        for ext in itertools.combinations(range(n0), r)
        for s in range(max_sym + 1)
        for sym in itertools.combinations_with_replacement(range(n1), s)
    ]


@st.composite
def derivations_and_elements(draw):
    """A derivation of total degree -1, 0, 1 or 2 with up to three image
    terms per generator, and an element with up to three exterior and three
    symmetric factors per monomial.  Few exterior generators, so that image
    terms often repeat an exterior index of the monomial they land in."""
    dims = (draw(st.integers(2, 3)), draw(st.integers(1, 2)))
    degree = draw(st.sampled_from((-1, 0, 1, 2)))
    # images of total degree up to 4: a0 a1 a2, a0 g0, a0 a1 g0, g0 g1, ...
    candidates = monomials_of(dims, 3, 2)

    def images(gen_degree, count):
        of_degree = [m for m in candidates if _total_degree(m) == gen_degree + degree]
        terms = st.dictionaries(st.sampled_from(of_degree), mixed_coeffs, max_size=3)
        return tuple(draw(terms) for _ in range(count))

    d = GradedDerivation(dims, degree, images(1, dims[0]), images(2, dims[1]))
    element = draw(
        st.dictionaries(st.sampled_from(monomials_of(dims, 3, 3)), mixed_coeffs, max_size=4)
    )
    return d, WeilElement(dims, element)


@settings(max_examples=150, deadline=None)
@given(derivations_and_elements())
def test_apply_derivation_equals_products_oracle(case):
    d, x = case
    assert apply_derivation(d, x) == apply_derivation_by_products(d, x)


def test_apply_derivation_repeated_exterior_index_vanishes():
    # d(a0) = a1 g0 (degree 2): in d(a0 a1) = d(a0) a1 + a0 d(a1) the first
    # term a1 g0 a1 vanishes, leaving a0 d(a1) = a0 a2 g0
    dims = (3, 1)
    d = GradedDerivation(
        dims, 2, ({((1,), (0,)): 1}, {((2,), (0,)): 1}, {}), ({},)
    )
    a0a1 = elt(dims, (((0, 1), ()), 1))
    expected = elt(dims, (((0, 2), (0,)), 1))
    assert apply_derivation(d, a0a1) == expected
    assert apply_derivation_by_products(d, a0a1) == expected


def test_commutator_of_odd_with_itself_is_twice_square():
    dv = cm_differentials(adjoint_cm(sl2()))[0]
    comm = graded_commutator(dv, dv)
    for i in range(3):
        sq = apply_derivation(dv, WeilElement(dv.dims, dv.ext_images[i]))
        assert comm.ext_images[i] == weil_scale(2, sq).terms


def test_commutator_delta_h_delta_v_adjoint_vanishes():
    cm = adjoint_cm(sl2())
    comm = graded_commutator(*delta_h_and_v(cm))
    assert check_zero_on_generators(comm, "commute").passed


def test_square_zero_delta_v_any_partial():
    partial = SparseTensor((2, 2), {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
    assert check_square_zero(cm_differentials(crossed_module((2, 2), partial=partial))[0]).passed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_delta_v_squares_to_zero_for_any_partial(n0, n1, data):
    # delta_v sends each a to a combination of gs and each g to 0, so
    # `check_cm_square` has no delta_v.square_zero checks
    partial = data.draw(small_tensor((n0, n1), max_entries=6)) if n0 and n1 else None
    dv = cm_differentials(crossed_module((n0, n1), partial=partial))[0]
    assert check_square_zero(dv).passed


@st.composite
def alternating_jacobiators(draw, n0, n1):
    """An ``l3`` of dims ``(n0, n0, n0, n1)``, alternating in its first three slots."""
    idx = st.tuples(
        st.sampled_from(list(itertools.combinations(range(n0), 3))), st.integers(0, n1 - 1)
    )
    entries = {}
    if n0 >= 3 and n1:
        for (ijk, b), v in draw(st.dictionaries(idx, nonzero_rationals, max_size=6)).items():
            for perm in itertools.permutations(range(3)):
                entries[(*(ijk[p] for p in perm), b)] = perm_parity(perm) * v
    return SparseTensor((n0, n0, n0, n1), entries)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 3), st.data())
def test_delta_j_squares_to_zero_for_any_jacobiator(n0, n1, data):
    # delta_J kills the as and sends each g to a pure exterior 3-form, so
    # `verify_weak_lie2` has no square(4,-2) check
    l3 = data.draw(alternating_jacobiators(n0, n1))
    assert check_square_zero(build_delta_j(WeakLie2Data(crossed_module((n0, n1)), l3))).passed


def test_square_zero_delta_h_sl2_and_broken():
    assert check_square_zero(cm_differentials(crossed_module((3, 0), sl2().bracket))[1]).passed
    bad = LieAlgebra.from_table(
        ("e", "f", "h"), {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    )
    report = check_square_zero(cm_differentials(crossed_module((3, 0), bad.bracket))[1])
    assert not report.passed
    assert not report.check("square_zero.side").passed
    assert report.check("square_zero.core").passed


def test_square_zero_non_representation_fails_on_core():
    act = SparseTensor((2, 2, 2), {(0, 0, 1): 1, (1, 1, 0): 1})
    dh = cm_differentials(crossed_module((2, 2), action=act))[1]
    report = check_square_zero(dh)
    assert report.check("square_zero.side").passed
    assert not report.check("square_zero.core").passed


def test_square_zero_rejects_even():
    dv = cm_differentials(adjoint_cm(sl2()))[0]
    with pytest.raises(ValueError):
        check_square_zero(graded_commutator(dv, dv))


# --- equivalence of the crossed-module checks with the differential checks --------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 500))
def test_e1_equivalence_seeded(seed):
    cm = seeded_cm(seed)
    direct = verify_cm(cm)
    weil = check_cm_square(*cm_differentials(cm))
    assert direct.passed == weil.passed
    for cond, wcond in CM_SQUARE_CHECKS.items():
        assert direct.check(cond).passed == weil.check(wcond).passed, (cond, seed)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_weak_square_components_are_the_cm_checks(seed):
    # the strict path reads two components of the same square, with a
    # zero Jacobiator, that the weak path merges into one check each; the
    # third, [delta_h, delta_J], vanishes with the Jacobiator
    cm, _ = random_candidate(random.Random(seed))
    weak = verify_weak_lie2(WeakLie2Data(cm, zero_jacobiator(cm)))
    strict = check_cm_square(*cm_differentials(cm))
    assert tuple(c.cond for c in weak.checks) == WEAK_SQUARES
    for tag, prefix in (("(1,1)", "commute"), ("(2,0)", "delta_h.square_zero")):
        side, core = strict.check(prefix + ".side"), strict.check(prefix + ".core")
        merged = weak.check(f"square{tag}")
        assert merged.passed == (side.passed and core.passed), (tag, seed)
        assert merged.witness == (core.witness if side.passed else side.witness)
    assert weak.check("square(3,-1)").passed


def test_e1_commutator_component_shapes():
    # failing equivariance shows up on side generators with one exterior and
    # one symmetric factor; failing skew pairing shows up on core generators
    # with two symmetric factors
    a = CrossedModuleData(
        axb(), TwoVectorSpace(2, 1, SparseTensor((2, 1), {(1, 0): 1})), SparseTensor((2, 1, 1))
    )
    comm = graded_commutator(*delta_h_and_v(a))
    bad_side = [img for img in comm.ext_images if img]
    assert bad_side and all(tuple(map(len, m)) == (1, 1) for img in bad_side for m in img)
    b = CrossedModuleData(
        LieAlgebra.abelian(("e",)),
        TwoVectorSpace(1, 2, SparseTensor((1, 2), {(0, 0): 1}), ("e",)),
        SparseTensor((1, 2, 2), {(0, 1, 1): 1}),
    )
    comm = graded_commutator(*delta_h_and_v(b))
    assert not any(comm.ext_images)
    bad_core = [img for img in comm.sym_images if img]
    assert bad_core and all(tuple(map(len, m)) == (0, 2) for img in bad_core for m in img)


# --- the bidegree (-1,-1) bracket ---------------------------------------------------

def _scaling_gerst(mu=1):
    return crossed_module((1, 1), action=SparseTensor((1, 1, 1), {(0, 0, 0): mu}))


def test_gerst_trivial_table():
    G = crossed_module((1, 2))
    a = weil_alpha((2, 1), 0)
    g = weil_gamma((2, 1), 0)
    assert gerst_bracket(G, g, a).is_zero()
    assert check_gerst_axioms(G).passed


def test_gerst_table_entry():
    G = _scaling_gerst()
    dims = (1, 1)
    assert gerst_bracket(G, weil_gamma(dims, 0), weil_alpha(dims, 0)) == weil_alpha(dims, 0)
    assert gerst_bracket(G, weil_gamma(dims, 0), weil_gamma(dims, 0)).is_zero()
    assert gerst_bracket(G, weil_one(dims), weil_alpha(dims, 0)).is_zero()


def test_gerst_leibniz_expansion():
    # [g0, a0 a1] = [g0,a0] a1 + a0 [g0,a1] (even bracket argument)
    act = SparseTensor((1, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})
    G = crossed_module((1, 2), action=act)
    dims = (2, 1)
    a0a1 = elt(dims, (((0, 1), ()), 1))
    lhs = gerst_bracket(G, weil_gamma(dims, 0), a0a1)
    rhs = weil_add(
        weil_mul(gerst_bracket(G, weil_gamma(dims, 0), weil_alpha(dims, 0)), weil_alpha(dims, 1)),
        weil_mul(weil_alpha(dims, 0), gerst_bracket(G, weil_gamma(dims, 0), weil_alpha(dims, 1))),
    )
    assert lhs == rhs and not lhs.is_zero()


def test_gerst_square_peels_with_factor_two():
    G = _scaling_gerst()
    dims = (1, 1)
    gg = elt(dims, (((), (0, 0)), 1))
    lhs = gerst_bracket(G, gg, weil_alpha(dims, 0))
    rhs = weil_scale(
        2, weil_mul(weil_gamma(dims, 0), gerst_bracket(G, weil_gamma(dims, 0), weil_alpha(dims, 0)))
    )
    assert lhs == rhs


def test_gerst_axioms_scaling_and_broken():
    assert check_gerst_axioms(_scaling_gerst()).passed
    bad_core = SparseTensor(
        (3, 3, 3), {(0, 1, 2): 1, (1, 0, 2): -1, (0, 2, 0): 1, (2, 0, 0): -1}
    )
    report = check_gerst_axioms(crossed_module((3, 0), bad_core))
    assert not report.passed
    assert not report.check("jacobi").passed
    assert "g" in report.check("jacobi").witness.at
    # the generator-level decision needs a skew table, so a table that is
    # not antisymmetric is refused at construction, by `LieAlgebra`
    for entries in ({(1, 0, 0): -1}, {(0, 0, 1): 2}):
        with pytest.raises(ValueError, match="bracket tensor not antisymmetric at"):
            crossed_module((2, 0), SparseTensor((2, 2, 2), entries))


@settings(max_examples=40, deadline=None)
@given(mono_strategy((2, 2), 3), mono_strategy((2, 2), 3))
def test_gerst_bracket_bidegree(m1, m2):
    # output bidegree is (-1,-1)-additive on homogeneous inputs
    act = SparseTensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): -2})
    core = SparseTensor((2, 2, 2), {(0, 1, 0): 1, (1, 0, 0): -1})
    G = crossed_module((2, 2), core, act)
    out = gerst_bracket(G, WeilElement((2, 2), {m1: Q(1)}), WeilElement((2, 2), {m2: Q(1)}))
    if out.is_zero():
        return
    (p, q), (r, s) = bidegree(m1), bidegree(m2)
    assert {bidegree(m) for m in out.terms} == {(p + r - 1, q + s - 1)}


def test_derivation_of_bracket_trivial_cases():
    cm = axb_action_cm()
    d = derivation_sum(*delta_h_and_v(cm))
    assert check_derivation_of_bracket(d, crossed_module((1, 2))).passed
    # the zero derivation is compatible with any bracket table
    zero_d = cm_differentials(crossed_module((1, 1)))[0]
    assert check_derivation_of_bracket(zero_d, _scaling_gerst(3)).passed


def test_derivation_of_bracket_inconsistent_table_fails():
    # trace-zero dual action is compatible with the axb-action differential;
    # a trace-one table is not
    from l2b.catalog import trace_pair

    good = trace_pair(1, 0, 0, -1)
    bad = trace_pair(1, 0, 0, 1)
    d = derivation_sum(*delta_h_and_v(good.cm1))
    assert check_derivation_of_bracket(d, good.cm2).passed
    report = check_derivation_of_bracket(d, bad.cm2)
    assert not report.passed
    assert not report.check("generator_pairs").passed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300))
def test_derivation_generator_pairs_imply_monomial_pairs(seed):
    fam = ("scaling", "abelian_dual")[seed % 2]
    doc = catalog.gen_document(fam, seed)
    d2b = build_lie2_bialgebra(doc)
    d = derivation_sum(*delta_h_and_v(d2b.cm1))
    oracle = check_derivation_of_bracket_on_generators(d, d2b.cm2)
    assert check_derivation_of_bracket(d, d2b.cm2).checks == (oracle.check("generator_pairs"),)
    assert oracle.check("monomial_pairs").passed == oracle.check("generator_pairs").passed


@st.composite
def tables_and_derivations(draw, degrees=(-1, 1)):
    """A random skew bracket table (often failing Jacobi) and a random
    derivation of a total degree drawn from ``degrees`` on the same small
    Weil algebra."""
    n1 = draw(st.integers(1, 3))
    n0 = draw(st.integers(0, 4 - n1))
    dims = (n0, n1)
    core = {}
    for (i, j, k), v in draw(
        st.dictionaries(st.tuples(*[st.integers(0, n1 - 1)] * 3), nonzero_rationals, max_size=4)
    ).items():
        if i != j:
            core[(i, j, k)], core[(j, i, k)] = v, -v
    side = {}
    if n0:
        side = draw(
            st.dictionaries(
                st.tuples(st.integers(0, n1 - 1), st.integers(0, n0 - 1), st.integers(0, n0 - 1)),
                nonzero_rationals,
                max_size=4,
            )
        )
    G = crossed_module((n1, n0), SparseTensor((n1, n1, n1), core), SparseTensor((n1, n0, n0), side))

    degree = draw(st.sampled_from(degrees))
    monos = enumerate_monomials(dims, 2 + degree)

    def images(gen_degree, count):
        of_degree = [m for m in monos if _total_degree(m) == gen_degree + degree]
        if not of_degree:
            return ({},) * count
        terms = st.dictionaries(st.sampled_from(of_degree), nonzero_rationals, max_size=2)
        return tuple(draw(terms) for _ in range(count))

    d = GradedDerivation(dims, degree, images(1, n0), images(2, n1))
    return G, d


def assert_equal_oracle(G, d, axioms, derivation):
    """The kernel's checks of ``G`` and ``d`` are the oracle reports'
    ``jacobi`` and ``generator_pairs``, witnesses included.  The oracle's
    other checks are the facts that make them the only ones: ``skew`` and
    ``leibniz`` pass, and ``monomial_pairs`` has the verdict of
    ``generator_pairs``."""
    assert axioms.check("skew").passed and axioms.check("leibniz").passed
    assert check_gerst_axioms(G).checks == (axioms.check("jacobi"),)
    pairs = derivation.check("generator_pairs")
    assert derivation.check("monomial_pairs").passed == pairs.passed
    assert check_derivation_of_bracket(d, G).checks == (pairs,)


@settings(max_examples=80, deadline=None)
@given(tables_and_derivations())
def test_generator_checks_equal_bounded_oracle(case):
    G, d = case
    assert_equal_oracle(
        G, d, check_gerst_axioms_bounded(G, 4), check_derivation_of_bracket_bounded(d, G, 4)
    )


def weil_elements(dims, coeffs=nonzero_rationals):
    """Elements with a few terms of total degree at most 4."""
    terms = st.dictionaries(st.sampled_from(enumerate_monomials(dims, 4)), coeffs, max_size=4)
    return terms.map(lambda t: WeilElement(dims, t))


@settings(max_examples=60, deadline=None)
@given(tables_and_derivations(degrees=(-1, 0, 1, 2)), st.data())
def test_derivation_and_bracket_equal_element_oracle(case, data):
    G, d = case
    x = data.draw(weil_elements(d.dims))
    y = data.draw(weil_elements(d.dims))
    assert apply_derivation(d, x) == apply_derivation_by_products(d, x)
    assert gerst_bracket(G, x, y) == gerst_bracket_by_sums(G, x, y)
    assert gerst_bracket(G, apply_derivation(d, x), y) == gerst_bracket_by_sums(
        G, apply_derivation_by_products(d, x), y
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_checks_and_bracket_equal_recursive_oracle(seed, data):
    G, d = random_table_and_derivation(random.Random(seed))
    assert_equal_oracle(
        G, d, check_gerst_axioms_on_generators(G), check_derivation_of_bracket_on_generators(d, G)
    )
    x = data.draw(weil_elements(d.dims))
    y = data.draw(weil_elements(d.dims))
    assert gerst_bracket(G, x, y) == gerst_bracket_by_sums(G, x, y)


def test_recursive_oracle_cases_reach_both_verdicts():
    verdicts = set()
    for seed in range(200):
        G, d = random_table_and_derivation(random.Random(seed))
        axioms = check_gerst_axioms_on_generators(G)
        derivation = check_derivation_of_bracket_on_generators(d, G)
        assert_equal_oracle(G, d, axioms, derivation)
        verdicts.add(("jacobi", axioms.check("jacobi").passed))
        verdicts.update((c.cond, c.passed) for c in derivation.checks)
    conds = ("jacobi", "generator_pairs", "monomial_pairs")
    assert verdicts == {(cond, passed) for cond in conds for passed in (True, False)}


def test_gerst_jacobi_is_jacobi_of_the_action_algebroid():
    # on generators the bracket is a Lie superalgebra: the gs even, with the
    # base bracket, the as odd, with [g, a] the action and [a, a] = 0; its
    # Jacobi identity on (g,g,g) is Jacobi of the base, on (g,g,a) the
    # representation identity, and on (g,a,a) and (a,a,a) it holds
    failing = 0
    for seed in range(300):
        G, _ = random_candidate(random.Random(seed))
        passed = check_gerst_axioms(G).passed
        assert passed == verify_lie(g_action_algebroid(G)).passed, seed
        failing += not passed
    assert 0 < failing < 300


def test_gerst_jacobi_witness_at_representation_defect():
    # the axb core [g0, g1] = g1 with [g1, a0] = a0, [g0, a0] = 0 is not a
    # representation, so Jacobi first fails at a triple (a, g, g)
    G = crossed_module(
        (2, 1),
        SparseTensor((2, 2, 2), {(0, 1, 1): 1, (1, 0, 1): -1}),
        SparseTensor((2, 1, 1), {(1, 0, 0): 1}),
    )
    report = check_gerst_axioms(G)
    witness = Witness((), "(-1)*a0", "0", at="(a0, g0, g1)")
    assert report.checks == (Check("jacobi", False, witness),)


def test_gerst_jacobi_witness_at_core_triple():
    # a core bracket failing Jacobi, acting by zero: every (a, g, g) triple
    # passes and the first failure is a core triple
    G = crossed_module(
        (3, 1),
        SparseTensor((3, 3, 3), {(0, 1, 2): 1, (1, 0, 2): -1, (0, 2, 0): 1, (2, 0, 0): -1}),
    )
    report = check_gerst_axioms(G)
    witness = Witness((), "0", "(-1)*g2", at="(g0, g1, g2)")
    assert report.checks == (Check("jacobi", False, witness),)


def test_derivation_witness_trace_one_table():
    from l2b.catalog import trace_pair

    d = derivation_sum(*delta_h_and_v(trace_pair(1, 0, 0, -1).cm1))
    report = check_derivation_of_bracket(d, trace_pair(1, 0, 0, 1).cm2)
    witness = Witness((), "(-2)*a0*a1", "0", at="(a1, g0)")
    assert report.checks == (Check("generator_pairs", False, witness),)


def test_derivation_witness_after_all_zero_pairs():
    # [g0, a1] = a1 and d(a1) = g0: a0 is inert, so every pair with a0 has
    # three zero defect parts, and the first failing pair is (a1, a1)
    dims = (2, 1)
    G = crossed_module((1, 2), action=SparseTensor((1, 2, 2), {(0, 1, 1): 1}))
    d = GradedDerivation(dims, 1, ({}, weil_gamma(dims, 0).terms), ({},))
    witness = Witness((), "(-2)*a1", "0", at="(a1, a1)")
    assert check_derivation_of_bracket(d, G).checks == (Check("generator_pairs", False, witness),)


def test_apply_derivation_sign_past_odd_exterior_prefix():
    # d(g0) = a1 with deg d = -1: d(a0 g0) = d(a0) g0 - a0 d(g0) = -a0 a1
    dims = (2, 1)
    d = GradedDerivation(dims, -1, ({},) * 2, (weil_alpha(dims, 1).terms,))
    a0g0 = elt(dims, (((0,), (0,)), 1))
    expected = elt(dims, (((0, 1), ()), -1))
    assert apply_derivation(d, a0g0) == expected
    assert apply_derivation_by_products(d, a0g0) == expected


def assert_revalidates(dims, terms: dict):
    """Kernel results are exact and equal their re-validated copies, which
    store every coefficient canonically."""
    copy = WeilElement(dims, dict(terms))
    assert terms == copy.terms
    for mono, coeff in terms.items():
        assert_exact(coeff)
        assert_canonical(copy.terms[mono])
        assert is_plain_monomial(mono)
        assert mono == _monomial(*mono)


def assert_derivation_revalidates(d: GradedDerivation):
    """A trusted derivation equals its copy through the public constructor,
    which validates its images and checks their total degrees."""
    assert d == GradedDerivation(d.dims, d.total_degree, d.ext_images, d.sym_images)
    for img in d.ext_images + d.sym_images:
        assert_revalidates(d.dims, img)


def image_bidegrees(d: GradedDerivation) -> set[tuple[int, int]]:
    """The bidegrees that ``d``'s image monomials give it: each monomial's
    bidegree minus its generator's, (1,0) for an ``a`` and (1,1) for a ``g``."""
    return {
        (p - gp, q - gq)
        for (gp, gq), images in (((1, 0), d.ext_images), ((1, 1), d.sym_images))
        for img in images
        for p, q in map(bidegree, img)
    }


@settings(max_examples=100, deadline=None)
@given(tables_and_derivations(), st.data())
def test_kernel_results_revalidate(table, data):
    G, d = table
    # small coefficients, so that results cancel often; halves make
    # integral sums of Fractions
    small = st.sampled_from((-1, 1, 2, Q(1, 2), Q(-3, 2)))
    a, b = (data.draw(weil_elements(d.dims, small)) for _ in range(2))
    results = (apply_derivation(d, a), gerst_bracket(G, a, b), gerst_bracket(G, b, a))
    for e in results:
        assert_revalidates(e.dims, e.terms)
    # trusted monomials sort like their validated copies
    monos = [m for e in results for m in e.terms]
    checked = [_monomial(*m) for m in monos]
    assert sorted(monos, key=_sort_key) == sorted(checked, key=_sort_key)
    # d's twin scales each coefficient by -1, -1/2 or 1, so that d + twin
    # drops, halves or doubles it
    factors = st.sampled_from((-1, Q(-1, 2), 1))

    def twin(images):
        return tuple({m: c * data.draw(factors) for m, c in img.items()} for img in images)

    e = GradedDerivation(d.dims, d.total_degree, twin(d.ext_images), twin(d.sym_images))
    ads = adjoints_by_public_constructors(G)
    for result in (
        _square(d),
        graded_commutator(d, ads[0]),
        graded_commutator(ads[0], ads[-1]),
        derivation_sum(d, e),
        derivation_sum(ads[0], ads[0]),
        derivation_sum(ads[-1], ads[-1]),
    ):
        assert_derivation_revalidates(result)


def adjoints_by_public_constructors(G: CrossedModuleData) -> list[GradedDerivation]:
    """``ad_x`` for each generator, built through the validating constructor
    from the kernel's bracket table, whose rows must come through unchanged:
    zero-free, in range and of the degrees of ``ad_{a_i}`` (total degree -1,
    bidegree (0,-1)) and ``ad_{g_i}`` (total degree 0, bidegree (0,0)).
    They are the kernel's own ``ad_x``."""
    dims, _, _, br, kernel_ads = _bracket_table(G)
    n0 = dims[0]
    ads = []
    for p, row in enumerate(br):
        odd = p < n0
        ad = GradedDerivation(dims, -1 if odd else 0, row[:n0], row[n0:])
        assert ad == kernel_ads[p]
        assert list(ad.ext_images + ad.sym_images) == row
        assert image_bidegrees(ad) <= {(0, -1) if odd else (0, 0)}
        for coeff in (c for terms in row for c in terms.values()):
            assert_exact(coeff)
        ads.append(ad)
    return ads


def differentials_by_public_constructors(w: WeakLie2Data):
    """``(delta_v, delta_h, delta_J)`` of weak two-term data, each of total
    degree 1, built through the validating constructor from the formulas of
    the `l2b.weil` docstring, one structure constant at a time."""
    cm, l3 = w.cm, w.jacobiator
    dims = (cm.dim0, cm.dim1)
    side, core = range(cm.dim0), range(cm.dim1)
    partial, bracket, action = cm.tvs.partial, cm.base.bracket, cm.action
    pairs = list(itertools.combinations(side, 2))
    triples = list(itertools.combinations(side, 3))
    dv = GradedDerivation(
        dims,
        1,
        [{((), (b,)): partial.get((i, b)) for b in core} for i in side],
        [{} for _ in core],
    )
    dh = GradedDerivation(
        dims,
        1,
        [{(pq, ()): -bracket.get((*pq, k)) for pq in pairs} for k in side],
        [
            {((i,), (j,)): -action.get((i, j, b)) for i in side for j in core}
            for b in core
        ],
    )
    dj = GradedDerivation(
        dims,
        1,
        [{} for _ in side],
        [{(ijk, ()): -l3.get((*ijk, b)) for ijk in triples} for b in core],
    )
    return dv, dh, dj


def test_kernel_differentials_revalidate():
    # the differentials are read off crossed-module and weak data by the
    # trusted constructors; they equal their copies through the public ones
    # and have bidegrees (0,1), (1,0) and (2,-1)
    cms = []
    for entry in catalog.entries():
        doc = entry.document
        if doc.kind == "crossed_module":
            cms.append(build_crossed_module(doc))
        elif doc.kind == "lie2_bialgebra":
            d = build_lie2_bialgebra(doc)
            cms += [d.cm1, d.cm2]
    for family in catalog.CM_FAMILIES:
        for seed in range(20):
            cms.append(build_crossed_module(catalog.seeded_doc(family, seed, seed % 3)))
    weak = [WeakLie2Data(cm, zero_jacobiator(cm)) for cm in cms]
    weak += [build_weak_lie2(e.document) for e in catalog.entries() if e.kind == "weak_lie2"]
    weak += [build_weak_lie2(catalog.gen_document("weak_abelian_l3", s)) for s in range(20)]
    bidegrees = [set(), set(), set()]
    for w in weak:
        got = (*cm_differentials(w.cm), build_delta_j(w))
        assert [d.total_degree for d in got] == [1, 1, 1]
        for seen, d in zip(bidegrees, got):
            seen |= image_bidegrees(d)
        assert got == differentials_by_public_constructors(w)
        for d in got:
            assert_derivation_revalidates(d)
    assert bidegrees == [{(0, 1)}, {(1, 0)}, {(2, -1)}]


def test_constructors_validate():
    # a monomial key is refused by `WeilElement` and, through it, by the
    # images of `GradedDerivation`: unsorted indices with a ValueError
    for mono, message in (
        (((1, 0), ()), "exterior indices not strictly increasing"),
        (((0, 0), ()), "exterior indices not strictly increasing"),
        (((), (1, 0)), "symmetric indices not sorted"),
    ):
        with pytest.raises(ValueError, match=message):
            WeilElement((2, 2), {mono: 1})
        with pytest.raises(ValueError, match=message):
            GradedDerivation((2, 2), 1, ({mono: 1}, {}), ({}, {}))
    # indices go through operator.index, so floats and strings are refused,
    # and a key that is not an (ext, sym) pair is refused with a TypeError
    for mono in (((0.5,), ()), ((1.0,), ()), ((), ("0",)), ((0,), (), ()), 5):
        with pytest.raises(TypeError):
            WeilElement((2, 2), {mono: 1})
        with pytest.raises(TypeError):
            GradedDerivation((2, 2), 1, ({mono: 1}, {}), ({}, {}))
    for mono in (((2,), ()), ((), (1,)), ((-1,), ())):
        with pytest.raises(ValueError, match="out of range"):
            WeilElement((2, 1), {mono: 1})
    a0, a1, g0 = ((0,), ()), ((1,), ()), ((), (0,))
    e = WeilElement((2, 1), {a0: Q(4, 2), a1: Q(0), g0: Q(-3, 2)})
    assert e.terms == {a0: 2, g0: Q(-3, 2)}
    assert type(e.terms[a0]) is int
    for given_value, stored in ((True, 1), (2.0, 2), (0.5, Q(1, 2)), (False, None)):
        terms = WeilElement((2, 1), {a0: given_value}).terms
        assert terms == ({a0: stored} if stored is not None else {})
        for coeff in terms.values():
            assert_canonical(coeff)
    # GradedDerivation validates each image as WeilElement does, then checks
    # its total degree: 1 + 1 for the image of an a, 2 + 1 for that of a g
    d = GradedDerivation((2, 1), 1, ({g0: Q(4, 2)}, {g0: Q(0)}), ({a0: 0},))
    assert (d.ext_images, d.sym_images) == (({g0: 2}, {}), ({},))
    assert type(d.ext_images[0][g0]) is int
    for ext, sym in (
        (({a0: 1}, {}), ({},)),  # a0 is of total degree 1, not 2
        (({((), (1,)): 1}, {}), ({},)),  # g1 is out of range
    ):
        with pytest.raises(ValueError):
            GradedDerivation((2, 1), 1, ext, sym)
    with pytest.raises(DimensionMismatch):
        GradedDerivation((2, 1), 1, ({},), ({},))


def test_constructors_validate_plain_tuple_keys():
    # a key is validated whatever its index sequences, and stored as a
    # plain tuple of int tuples
    for mono in (((1, 0), ()), ((0, 0), ()), ((), (1, 0)), ((5,), ()), ((), (3,))):
        with pytest.raises(ValueError):
            WeilElement((2, 2), {mono: 1})
        with pytest.raises(ValueError):
            GradedDerivation((2, 2), -1, ({mono: 1}, {}), ({}, {}))
    e = WeilElement((2, 1), {((0, 1), ()): Q(2, 2), ((), (0,)): 0})
    assert e.terms == {((0, 1), ()): 1}
    assert all(is_plain_monomial(m) for m in e.terms)
    assert e.render() == "(1)*a0*a1"
    e = WeilElement((2, 1), {(range(2), ()): 1, ((True,), (False,)): 1})
    assert e.terms == {((0, 1), ()): 1, ((1,), (0,)): 1}
    assert all(is_plain_monomial(m) for m in e.terms)
    a1, a0g0 = ((1,), ()), ((0,), (0,))
    d = GradedDerivation((2, 1), 1, ({((0, 1), ()): 1}, {}), ({a0g0: 3},))
    assert d.ext_images == ({((0, 1), ()): 1}, {})
    assert d.sym_images == ({a0g0: 3},)
    assert all(is_plain_monomial(m) for img in d.ext_images + d.sym_images for m in img)
    with pytest.raises(ValueError):  # a1 is of total degree 1, not 2
        GradedDerivation((2, 1), 1, ({a1: 1}, {}), ({},))


# --- weak two-term data -------------------------------------------------------------

def test_weak_valid_l3_passes():
    assert verify_weak_lie2(weak_l3_example()).passed


def test_weak_strict_reduction_matches_cm():
    for seed in range(30):
        cm = seeded_cm(seed)
        w = WeakLie2Data(cm, zero_jacobiator(cm))
        assert verify_weak_lie2(w).passed == verify_cm(cm).passed


def test_weak_perturbed_partial_fails_at_2_0():
    w = weak_l3_example()
    bad_partial = TwoVectorSpace(3, 1, SparseTensor((3, 1), {(0, 0): 1}))
    bad = WeakLie2Data(CrossedModuleData(w.cm.base, bad_partial, w.cm.action), w.jacobiator)
    report = verify_weak_lie2(bad)
    assert not report.passed
    assert tuple(c.cond for c in report.checks) == WEAK_SQUARES
    assert not report.check("square(2,0)").passed
    for cond in ("square(1,1)", "square(3,-1)"):
        assert report.check(cond).passed


def test_weak_strict_cm_with_l3_fails():
    cm = adjoint_cm(sl2())
    w = WeakLie2Data(cm, weak_l3_example(3).jacobiator)
    report = verify_weak_lie2(w)
    assert not report.passed
    assert not report.check("square(2,0)").passed


def weak_action_l3():
    """A 4-dim abelian side acting on a line by e3.f0 = f0, zero structure
    map, and l3(e0, e1, e2) = f0: only [delta_h, delta_J] is nonzero."""
    cm = crossed_module((4, 1), action=SparseTensor((4, 1, 1), {(3, 0, 0): 1}))
    entries = {(*perm, 0): perm_parity(perm) for perm in itertools.permutations(range(3))}
    return WeakLie2Data(cm, SparseTensor((4, 4, 4, 1), entries))


def test_weak_action_against_l3_fails_at_3_minus_1():
    report = verify_weak_lie2(weak_action_l3())
    assert [c.cond for c in report.checks if not c.passed] == ["square(3,-1)"]
    witness = report.check("square(3,-1)").witness
    assert (witness.indices, witness.lhs, witness.at) == ((0,), "(1)*a0*a1*a2*a3", "g0")


def test_every_weak_square_can_fail():
    # a check that passes on every member of the populations decides
    # nothing there; the components that vanish for any data are tests
    weak = [build_weak_lie2(e.document) for e in catalog.entries() if e.kind == "weak_lie2"]
    weak += [build_weak_lie2(catalog.seeded_member(("weak_abelian_l3",), s)) for s in range(60)]
    for seed in range(200):
        cm = build_crossed_module(catalog.seeded_member(catalog.CM_FAMILIES, seed))
        weak.append(WeakLie2Data(cm, zero_jacobiator(cm)))
    weak.append(weak_action_l3())
    failures = Counter()
    for w in weak:
        for c in verify_weak_lie2(w).checks:
            failures[c.cond] += not c.passed
    assert tuple(failures) == WEAK_SQUARES
    assert [cond for cond, count in failures.items() if not count] == []
