from fractions import Fraction

import hypothesis.strategies as st
import pytest

from l2b import catalog
from l2b.exact import SparseTensor
from l2b.liecore import LieAlgebra
from l2b.twoterm import CrossedModuleData, TwoVectorSpace

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_rationals = rationals.filter(bool)


def assert_exact(value):
    """A nonzero kernel scalar: an `int` or a `Fraction`, never a `bool` or a `float`."""
    assert type(value) in (int, Fraction) and value != 0, repr(value)


def assert_canonical(value):
    """A nonzero scalar as the public constructors store it: an `int` when
    integral, else a `Fraction`."""
    assert_exact(value)
    assert (type(value) is int) == (value.denominator == 1), repr(value)


def small_tensor(dims, max_entries=4, values=nonzero_rationals):
    """Strategy for a sparse tensor with the given dims and few entries."""
    idx = st.tuples(*(st.integers(0, d - 1) for d in dims))
    return st.dictionaries(idx, values, max_size=max_entries).map(
        lambda e: SparseTensor(dims, e)
    )


def crossed_module(dims, bracket=None, action=None, partial=None) -> CrossedModuleData:
    """The crossed-module candidate on ``[g1 -> g0]`` of dims ``(n0, n1)``
    with the given tensors, zero where omitted, and default labels.

    Read as the dual crossed module of a Weil algebra, its Weil dims are
    ``(n1, n0)``: ``bracket`` gives ``[g_i, g_j]`` and ``action`` gives
    ``[g_i, a_j]``.
    """
    n0, n1 = dims
    tvs = TwoVectorSpace(n0, n1, SparseTensor.zero((n0, n1)) if partial is None else partial)
    return CrossedModuleData(
        LieAlgebra(tvs.labels0, SparseTensor.zero((n0, n0, n0)) if bracket is None else bracket),
        tvs,
        SparseTensor.zero((n0, n1, n1)) if action is None else action,
    )


@pytest.fixture
def sl2():
    return catalog.sl2()


@pytest.fixture
def axb():
    return catalog.axb()
