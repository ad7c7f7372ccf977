import hypothesis.strategies as st
import pytest

from l2b import catalog
from l2b.exact import SparseTensor

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_rationals = rationals.filter(bool)


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
