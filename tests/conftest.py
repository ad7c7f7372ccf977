from fractions import Fraction

import hypothesis.strategies as st
import pytest

from l2b import catalog
from l2b.exact import SparseTensor

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


@pytest.fixture
def sl2():
    return catalog.sl2()


@pytest.fixture
def axb():
    return catalog.axb()
