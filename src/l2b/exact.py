"""Exact rational scalars and sparse multilinear tensors.

A scalar is an exact rational (`Rational`): an `int` when it is integral
and a `fractions.Fraction` (lowest terms, positive denominator) otherwise.
`rational` makes that conversion where values enter the kernel.  Sums,
differences and products of ints and Fractions are again exact, and they
compare and hash by value (``2 == Fraction(2)``), so equality stays
structural and every verification check stays decidable; a kernel result
may hold an integral product of Fractions as a `Fraction`.  The kernel
never divides scalars, so integer structure constants stay `int`s and
skip the cost of `Fraction` arithmetic.  Tensors are immutable sparse maps
from index tuples to nonzero scalars; two tensors are equal iff their
dimension tuples and entry maps are equal.

Validation happens at the public constructor: `SparseTensor(dims, entries)`
checks every index against the dims, converts every value with `rational`
and drops zeros.  The kernel operations (`contract`, `permute_axes`,
`SparseTensor.add`, `SparseTensor.scale`) build their results with the
trusted `SparseTensor._trusted`, because indices taken from valid operands
are in range and products and sums of exact rationals are exact; they only
drop the zeros that cancellation leaves.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache
from fractions import Fraction
from operator import index, itemgetter

Rational = int | Fraction

_ZERO = 0


class DimensionMismatch(ValueError):
    """Axes paired in a tensor operation have unequal dimensions."""


class MalformedPermutation(ValueError):
    """A permutation argument is not a bijection of its index range."""


# ASCII digits only: a Unicode ``\d`` such as "٠" or "０" is a digit to
# `Fraction` but not a "0" to the zero-denominator test
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)


def rational(value) -> Rational:
    """``value`` as an exact rational: an `int` when integral, else a `Fraction`.

    Takes whatever `Fraction` takes; a `bool` becomes the int 0 or 1.
    """
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def parse_rational(text: str) -> Rational:
    """Parse "p" or "p/q" (q > 0) into a canonical exact rational."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"bad rational literal {text!r}: expected 'p' or 'p/q'")
    s = text.strip()
    if "/" in s and s.split("/")[1].lstrip("0") == "":
        raise ValueError(f"bad rational literal {text!r}: zero denominator")
    try:
        return rational(s)
    except ValueError:  # more digits than int() reads from text
        raise ValueError(
            "bad rational literal: a numerator or denominator of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def format_rational(q: Rational) -> str:
    """Canonical string form: "p/q" for non-integers, plain "p" otherwise.

    Any size is rendered: where `str` refuses an integer of more digits
    than ``sys.get_int_max_str_digits()``, `Decimal` converts it exactly.
    """
    q = Fraction(q)
    try:
        return str(q)
    except ValueError:
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def perm_parity(perm) -> int:
    """Sign (+1/-1) of a permutation given as a sequence of distinct ints."""
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class SparseTensor:
    """Sparse exact tensor: dims plus a zero-free map index tuple -> rational.

    The constructor validates its arguments; results of kernel operations
    are built by `_trusted`, which skips that work.
    """

    dims: tuple[int, ...]
    entries: dict[tuple[int, ...], Rational] = field(default_factory=dict)

    def __post_init__(self):
        dims = tuple(map(index, self.dims))
        if any(d < 0 for d in dims):
            raise ValueError(f"negative dimension in {dims}")
        clean: dict[tuple[int, ...], Rational] = {}
        for idx, val in self.entries.items():
            idx = tuple(map(index, idx))
            if len(idx) != len(dims):
                raise DimensionMismatch(
                    f"index {idx} has rank {len(idx)}, tensor has rank {len(dims)}"
                )
            for ax, (i, d) in enumerate(zip(idx, dims)):
                if not 0 <= i < d:
                    raise ValueError(
                        f"index {idx} out of bounds on axis {ax} (dim {d})"
                    )
            q = rational(val)
            if q:
                clean[idx] = q
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], entries: dict) -> "SparseTensor":
        """A tensor from in-range int index tuples to nonzero rationals, unchecked."""
        t = object.__new__(cls)
        object.__setattr__(t, "dims", dims)
        object.__setattr__(t, "entries", entries)
        return t

    @property
    def rank(self) -> int:
        return len(self.dims)

    @classmethod
    def zero(cls, dims) -> "SparseTensor":
        return cls(tuple(dims), {})

    def get(self, idx) -> Rational:
        return self.entries.get(tuple(idx), _ZERO)

    def add(self, other: "SparseTensor") -> "SparseTensor":
        if self.dims != other.dims:
            raise DimensionMismatch(f"{self.dims} vs {other.dims}")
        out = dict(self.entries)
        for idx, val in other.entries.items():
            out[idx] = out.get(idx, _ZERO) + val
        return SparseTensor._trusted(self.dims, {i: v for i, v in out.items() if v})

    def scale(self, c) -> "SparseTensor":
        c = rational(c)
        if not c:
            return SparseTensor._trusted(self.dims, {})
        return SparseTensor._trusted(self.dims, {i: c * v for i, v in self.entries.items()})


def _index_getter(axes):
    """``idx -> tuple(idx[ax] for ax in axes)``.

    `itemgetter` of one axis returns the bare item and needs at least one
    axis, so those two cases get their own getters.
    """
    if len(axes) > 1:
        return itemgetter(*axes)
    if axes:
        (ax,) = axes
        return lambda idx: (idx[ax],)
    return lambda idx: ()


def contract(t1: SparseTensor, t2: SparseTensor, pairs) -> SparseTensor:
    """Contract paired axes of two tensors.

    `pairs` lists (axis of t1, axis of t2), each an integer (`operator.index`,
    so a float or a string axis is a `TypeError`); paired axes must have equal
    dimensions.  Result axes are the free axes of t1 followed by the free
    axes of t2, in their original order.
    """
    pairs = [(index(a), index(b)) for a, b in pairs]
    a_axes = [a for a, _ in pairs]
    b_axes = [b for _, b in pairs]
    if len(set(a_axes)) != len(a_axes) or len(set(b_axes)) != len(b_axes):
        raise DimensionMismatch(f"repeated axis in contraction pairs {pairs}")
    for a, b in pairs:
        if not 0 <= a < t1.rank or not 0 <= b < t2.rank:
            raise DimensionMismatch(f"axis pair ({a},{b}) out of range")
        if t1.dims[a] != t2.dims[b]:
            raise DimensionMismatch(
                f"axis {a} of left operand (dim {t1.dims[a]}) vs "
                f"axis {b} of right operand (dim {t2.dims[b]})"
            )
    free1 = [ax for ax in range(t1.rank) if ax not in a_axes]
    free2 = [ax for ax in range(t2.rank) if ax not in b_axes]
    dims = tuple(t1.dims[ax] for ax in free1) + tuple(t2.dims[ax] for ax in free2)
    if not (t1.entries and t2.entries):
        return SparseTensor._trusted(dims, {})
    key2, rest2 = _index_getter(b_axes), _index_getter(free2)
    groups: dict[tuple[int, ...], list] = {}
    for idx2, v2 in t2.entries.items():
        groups.setdefault(key2(idx2), []).append((rest2(idx2), v2))
    key1, rest1 = _index_getter(a_axes), _index_getter(free1)
    out: dict[tuple[int, ...], Rational] = {}
    for idx1, v1 in t1.entries.items():
        f1 = rest1(idx1)
        for f2, v2 in groups.get(key1(idx1), ()):
            full = f1 + f2
            out[full] = out.get(full, _ZERO) + v1 * v2
    return SparseTensor._trusted(dims, {i: v for i, v in out.items() if v})


@lru_cache(maxsize=64)
def _axis_moves(rank: int, axes: tuple[int, ...]):
    """(index map, is odd) for each non-identity permutation of ``axes``."""
    moves = []
    for perm in list(itertools.permutations(range(len(axes))))[1:]:
        full = list(range(rank))
        for pos, src in enumerate(perm):
            full[axes[pos]] = axes[src]
        moves.append((itemgetter(*full), perm_parity(perm) < 0))
    return tuple(moves)


def asymmetric_entries(t: SparseTensor, axes):
    """Yield, in entry order, the indices at which ``t`` is not antisymmetric.

    An entry fails when some permutation of the listed axes does not carry
    its index to an entry equal to its value times the permutation's sign.
    """
    moves = _axis_moves(t.rank, tuple(axes))
    get = t.entries.get
    for idx, val in t.entries.items():
        for move, odd in moves:
            if get(move(idx), _ZERO) != (-val if odd else val):
                yield idx
                break


def permute_axes(t: SparseTensor, perm) -> SparseTensor:
    """Reindex axes: result axis k is source axis perm[k]."""
    perm = list(perm)
    if sorted(perm) != list(range(t.rank)):
        raise MalformedPermutation(f"{perm!r} is not a bijection of range({t.rank})")
    dims = tuple(t.dims[p] for p in perm)
    out = {}
    for idx, val in t.entries.items():
        out[tuple(idx[p] for p in perm)] = val
    return SparseTensor._trusted(dims, out)

