"""Exact scalars: integral values as `int`, the others as `Fraction`.

The kernel operations must give the same values whatever mix of `int` and
`Fraction` their operands hold, and never a `float`: a ``/`` or ``**``
applied to two ints would leave the exact rationals here.  Operands are
built with the trusted constructors, so that they also hold the integral
`Fraction`s that kernel results may carry.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from l2b import catalog
from l2b.documents import parse_document, serialize_document
from l2b.exact import SparseTensor, contract, format_rational, parse_rational, permute_axes
from l2b.liecore import LieAlgebra, LieCobracket
from l2b.weil import (
    GradedDerivation,
    WeilElement,
    _total_degree,
    apply_derivation,
    derivation_sum,
    gerst_bracket,
    graded_commutator,
)
from conftest import assert_canonical, assert_exact, crossed_module, rationals
from monomial_oracle import enumerate_monomials

# ints, integral Fractions and proper Fractions
mixed = st.one_of(st.integers(-3, 3), rationals).filter(bool)


def mixed_entries(dims, max_size=5):
    if not all(dims):
        return st.just({})
    idx = st.tuples(*(st.integers(0, d - 1) for d in dims))
    return st.dictionaries(idx, mixed, max_size=max_size)


def mixed_tensor(dims):
    return mixed_entries(dims).map(lambda e: SparseTensor._trusted(dims, e))


def tensor_as_fractions(t: SparseTensor) -> SparseTensor:
    return SparseTensor._trusted(t.dims, {i: Q(v) for i, v in t.entries.items()})


def terms_as_fractions(terms: dict) -> dict:
    return {m: Q(c) for m, c in terms.items()}


def element_as_fractions(e: WeilElement) -> WeilElement:
    return WeilElement._trusted(e.dims, terms_as_fractions(e.terms))


def derivation_as_fractions(d: GradedDerivation) -> GradedDerivation:
    return GradedDerivation._trusted(
        d.dims,
        d.total_degree,
        tuple(map(terms_as_fractions, d.ext_images)),
        tuple(map(terms_as_fractions, d.sym_images)),
    )


def mixed_element(dims, degree_bound=3):
    monos = enumerate_monomials(dims, degree_bound)
    terms = st.dictionaries(st.sampled_from(monos), mixed, max_size=4)
    return terms.map(lambda t: WeilElement._trusted(dims, t))


@st.composite
def table_and_derivation(draw):
    """A dual crossed module (Jacobi not asserted) read as a bracket table,
    and a derivation of total degree -1, 0 or 1, with mixed coefficients."""
    n0, n1 = dims = (draw(st.integers(0, 2)), draw(st.integers(1, 2)))
    core = {}
    for (i, j, k), v in draw(mixed_entries((n1, n1, n1), 3)).items():
        if i != j:
            core[(i, j, k)], core[(j, i, k)] = v, -v
    G = crossed_module(
        (n1, n0),
        SparseTensor._trusted((n1, n1, n1), core),
        SparseTensor._trusted((n1, n0, n0), draw(mixed_entries((n1, n0, n0), 3))),
    )
    degree = draw(st.sampled_from((-1, 0, 1)))
    monos = enumerate_monomials(dims, 2 + degree)

    def image(gen_degree):
        of_degree = [m for m in monos if _total_degree(m) == gen_degree + degree]
        if not of_degree:
            return {}
        return draw(st.dictionaries(st.sampled_from(of_degree), mixed, max_size=2))

    d = GradedDerivation._trusted(
        dims, degree, tuple(image(1) for _ in range(n0)), tuple(image(2) for _ in range(n1))
    )
    return G, d


def assert_same_exact(got, want, values):
    assert got == want
    for v in values(got):
        assert_exact(v)


@given(mixed_tensor((2, 3)), mixed_tensor((2, 3)), mixed_tensor((3, 2, 2)), mixed)
def test_tensor_ops_on_mixed_operands_equal_all_fraction_copies(t1, t2, t3, c):
    f1, f2, f3 = map(tensor_as_fractions, (t1, t2, t3))
    for got, want in (
        (t1.add(t2), f1.add(f2)),
        (t1.scale(c), f1.scale(Q(c))),
        (contract(t1, t3, [(1, 0)]), contract(f1, f3, [(1, 0)])),
        (contract(t3, t3, [(1, 2), (2, 1)]), contract(f3, f3, [(1, 2), (2, 1)])),
        (contract(t1, f2, [(0, 0)]), contract(f1, f2, [(0, 0)])),
        (permute_axes(t3, (2, 0, 1)), permute_axes(f3, (2, 0, 1))),
    ):
        assert_same_exact(got, want, lambda t: t.entries.values())


@settings(max_examples=60, deadline=None)
@given(table_and_derivation(), st.data())
def test_weil_ops_on_mixed_operands_equal_all_fraction_copies(case, data):
    G, d = case
    a = data.draw(mixed_element(d.dims))
    b = data.draw(mixed_element(d.dims))
    fa, fb = element_as_fractions(a), element_as_fractions(b)
    fG = crossed_module(
        (G.dim0, G.dim1), tensor_as_fractions(G.base.bracket), tensor_as_fractions(G.action)
    )
    fd = derivation_as_fractions(d)
    for got, want in (
        (apply_derivation(d, a), apply_derivation(fd, fa)),
        (gerst_bracket(G, a, b), gerst_bracket(fG, fa, fb)),
    ):
        assert_same_exact(got, want, lambda e: e.terms.values())
    for got, want in (
        (derivation_sum(d, fd), derivation_sum(fd, fd)),
        (graded_commutator(d, d), graded_commutator(fd, fd)),
    ):
        assert_same_exact(
            got, want, lambda g: (c for img in g.ext_images + g.sym_images for c in img.values())
        )


def test_from_table_and_parsed_documents_store_canonical_values():
    g = LieAlgebra.from_table(("x", "y", "z"), {(0, 1): {1: Q(4, 2), 2: Q(1, 2)}, (0, 2): {2: True}})
    d = LieCobracket.from_table(3, {0: {(1, 2): 2.0}, 1: {(0, 2): Q(-3, 2)}})
    assert g.bracket.entries[(1, 0, 1)] == -2 and d.tensor.entries[(0, 2, 1)] == -2
    values = [*g.bracket.entries.values(), *d.tensor.entries.values()]
    docs = [parse_document(serialize_document(entry.document)) for entry in catalog.entries()]
    # the in-memory documents of seeded edits, whose values are sums of Fractions
    for family in catalog.FAMILIES:
        for seed in range(5):
            try:
                docs.append(catalog.gen_document(family, seed, perturbed=True))
            except catalog.RetryExhaustion:
                pass
    values += [v for doc in docs for block in doc.blocks.values() for v in block.entries.values()]
    for v in values:
        assert_canonical(v)


@pytest.mark.parametrize(
    "text, value",
    [("4/2", 2), ("-0", 0), ("6/4", Q(3, 2)), ("+7", 7), ("-10/5", -2), ("0/3", 0), ("-3/9", Q(-1, 3))],
)
def test_parse_rational_stores_integral_values_as_int(text, value):
    q = parse_rational(text)
    assert q == value and type(q) is type(value)


@given(st.one_of(st.integers(-(10**20), 10**20), st.fractions()))
def test_format_rational_parses_back(q):
    back = parse_rational(format_rational(q))
    assert back == q
    assert type(back) is (int if Q(q).denominator == 1 else Q)
