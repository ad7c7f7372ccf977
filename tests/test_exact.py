import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given
import hypothesis.strategies as st

from l2b.exact import (
    DimensionMismatch,
    MalformedPermutation,
    SparseTensor,
    asymmetric_entries,
    contract,
    format_rational,
    parse_rational,
    perm_parity,
    permute_axes,
)
from conftest import (
    assert_canonical,
    assert_exact,
    nonzero_rationals,
    rationals,
    small_tensor,
)


# --- rationals ---------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-3/4") == Q(-3, 4)
    assert parse_rational("2") == Q(2)
    assert parse_rational("4/2") == Q(2)


# digits of other scripts are refused too: "٠" and "０" are zeros that the
# zero-denominator test would miss
@pytest.mark.parametrize(
    "bad", ["1/0", "0/0", "1.5", "a", "1/-2", "", "1//2", "1/\u0660", "\uff11/\uff10", "\u0663"]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    for q in (Q(3, 4), Q(-7, 3), Q(5), Q(0), Q(-2)):
        assert parse_rational(format_rational(q)) == q


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if c:
        assert (a / c) * c == a


# --- sparse tensors ----------------------------------------------------------

def test_tensor_canonical_zero_free():
    t = SparseTensor((2, 2), {(0, 0): Q(0), (0, 1): Q(1)})
    assert (0, 0) not in t.entries
    assert t == SparseTensor((2, 2), {(0, 1): 1})


def test_tensor_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseTensor((2,), {(2,): 1})
    with pytest.raises(ValueError):
        SparseTensor((2, 2), {(0, -1): 1})
    with pytest.raises(DimensionMismatch):
        SparseTensor((2,), {(0, 0): 1})


def test_tensor_refuses_non_integer_indices_and_dims():
    # indices and dims go through operator.index: a float or a string is
    # refused rather than truncated or parsed
    for dims, entries in (
        ((2,), {(1.5,): 1}),
        ((2,), {(1.0,): 1}),
        ((2,), {("1",): 1}),
        ((2.5,), {}),
        (("2",), {}),
    ):
        with pytest.raises(TypeError):
            SparseTensor(dims, entries)


def test_tensor_wraps_integer_values():
    # integral values are stored as int, the others as Fraction; bools,
    # floats and integral Fractions are converted, zeros of any type dropped
    given_values = (3, Q(6, 2), True, 2.0, Q(3, 2), 0.5, Q(0), False, 0.0)
    t = SparseTensor((len(given_values),), {(i,): v for i, v in enumerate(given_values)})
    assert t.entries == {(0,): 3, (1,): 3, (2,): 1, (3,): 2, (4,): Q(3, 2), (5,): Q(1, 2)}
    for v in t.entries.values():
        assert_canonical(v)
    assert type(t.get((6,))) is int and t.get((6,)) == 0
    for c in (Q(4, 2), True, 2.0):
        assert type(t.scale(c).entries[(0,)]) is int


def assert_revalidates(t: SparseTensor):
    """Kernel results are exact and equal their re-validated copies, which
    store every value canonically."""
    copy = SparseTensor(t.dims, dict(t.entries))
    assert t == copy
    assert all(type(d) is int for d in t.dims)
    for idx, v in t.entries.items():
        assert all(type(i) is int for i in idx)
        assert_exact(v)
        assert_canonical(copy.entries[idx])


# small values, so that sums and contractions cancel often; halves make
# integral products of Fractions
small_values = st.sampled_from((-1, 1, 2, Q(1, 2), Q(-3, 2)))


@given(
    small_tensor((2, 3), 6, small_values),
    small_tensor((2, 3), 6, small_values),
    small_tensor((3, 2, 2), 6, small_values),
    st.sampled_from((0, 1, -1, Q(1, 2), Q(4, 2), True)),
)
def test_kernel_results_revalidate(t1, t2, t3, c):
    assert_revalidates(t1.add(t2))
    assert_revalidates(t1.add(t1.scale(-1)))
    assert_revalidates(t1.scale(c))
    assert_revalidates(contract(t1, t3, [(1, 0)]))
    assert_revalidates(contract(t3, t3, [(1, 2), (2, 1)]))
    assert_revalidates(contract(t1, t1, [(0, 0), (1, 1)]))
    assert_revalidates(permute_axes(t3, (2, 0, 1)))


def test_contract_identity_action():
    ident = SparseTensor((2, 2), {(0, 0): 1, (1, 1): 1})
    v = SparseTensor((2,), {(0,): 1})
    assert contract(ident, v, [(1, 0)]) == v


def test_contract_zero():
    z = SparseTensor.zero((2, 3))
    v = SparseTensor((3,), {(1,): 5})
    assert not contract(z, v, [(1, 0)]).entries


def test_contract_sl2_ef_gives_h(sl2):
    # plugging e then f into the bracket tensor leaves the h coefficient column
    e = SparseTensor((3,), {(0,): 1})
    f = SparseTensor((3,), {(1,): 1})
    m = contract(sl2.bracket, e, [(0, 0)])  # axes (j, k)
    col = contract(m, f, [(0, 0)])  # axis (k,)
    assert col == SparseTensor((3,), {(2,): 1})


def test_contract_dimension_error_names_axes():
    a = SparseTensor((2, 3), {(0, 0): 1})
    b = SparseTensor((4,), {(0,): 1})
    with pytest.raises(DimensionMismatch) as err:
        contract(a, b, [(1, 0)])
    assert "axis 1" in str(err.value) and "axis 0" in str(err.value)


def test_contract_refuses_non_integer_axes():
    # int() would truncate 0.9 to axis 0 and parse "1" as axis 1
    t = SparseTensor((2, 2), {(0, 1): 1})
    v = SparseTensor((2,), {(0,): 1})
    for pairs in ([(0.9, 0)], [("1", 0)], [(0, 0.0)]):
        with pytest.raises(TypeError):
            contract(t, v, pairs)


@given(small_tensor((2, 3)), small_tensor((2, 3)), small_tensor((3, 2)), rationals)
def test_contract_bilinear(t1, t1p, t2, a):
    lhs = contract(t1.scale(a).add(t1p), t2, [(1, 0)])
    rhs = contract(t1, t2, [(1, 0)]).scale(a).add(contract(t1p, t2, [(1, 0)]))
    assert lhs == rhs


def test_permute_axes():
    t = SparseTensor((2, 3), {(1, 2): Q(5)})
    p = permute_axes(t, (1, 0))
    assert p.dims == (3, 2)
    assert p.get((2, 1)) == Q(5)


def test_permute_axes_malformed():
    t = SparseTensor((2, 2), {(0, 1): 1})
    with pytest.raises(MalformedPermutation):
        permute_axes(t, (0, 0))
    with pytest.raises(MalformedPermutation):
        permute_axes(t, (0,))


# --- matrices as rank-2 tensors ------------------------------------------------

def test_matrix_products_as_tensors():
    ident = SparseTensor((2, 2), {(0, 0): 1, (1, 1): 1})
    m = SparseTensor((2, 2), {(0, 0): 1, (0, 1): 2, (1, 1): 3})
    assert contract(ident, m, [(1, 0)]) == m
    assert contract(m, ident, [(1, 0)]) == m
    assert permute_axes(m, (1, 0)) == SparseTensor((2, 2), {(0, 0): 1, (1, 0): 2, (1, 1): 3})
    assert permute_axes(permute_axes(m, (1, 0)), (1, 0)) == m
    # a 0 x 2 matrix keeps its column count through the transpose
    empty = SparseTensor.zero((0, 2))
    assert permute_axes(empty, (1, 0)).dims == (2, 0)
    assert contract(empty, m, [(1, 0)]).dims == (0, 2)


# --- the antisymmetry finder ------------------------------------------------------

@st.composite
def nearly_antisymmetric(draw, dims, axes):
    """Signed orbits of a few entries under the permutations of ``axes``,
    with some orbit members omitted or of the wrong sign."""
    entries = {}
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.tuples(*(st.integers(0, d - 1) for d in dims)))
        v = draw(nonzero_rationals)
        for perm in itertools.permutations(range(len(axes))):
            idx = list(base)
            for pos, src in enumerate(perm):
                idx[axes[pos]] = base[axes[src]]
            fault = draw(st.sampled_from((None, None, None, "omit", "flip")))
            if fault != "omit":
                entries[tuple(idx)] = perm_parity(perm) * v * (-1 if fault == "flip" else 1)
    return SparseTensor(dims, entries)


def asymmetric_by_permutations(t, axes):
    """Entries, in entry order, that some permutation of ``axes`` does not map
    to their value times its sign."""
    bad = []
    for idx, v in t.entries.items():
        for perm in itertools.permutations(range(len(axes))):
            tgt = list(idx)
            for pos, src in enumerate(perm):
                tgt[axes[pos]] = idx[axes[src]]
            if t.get(tgt) != perm_parity(perm) * v:
                bad.append(idx)
                break
    return bad


@pytest.mark.parametrize("dims,axes", [((3, 3, 3, 2), (0, 1, 2)), ((2, 3, 3), (1, 2))])
@given(data=st.data())
def test_asymmetric_entries_equal_permutation_oracle(dims, axes, data):
    t = data.draw(nearly_antisymmetric(dims, axes))
    assert list(asymmetric_entries(t, axes)) == asymmetric_by_permutations(t, axes)
