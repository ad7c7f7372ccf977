"""Lie algebras, representations and cobrackets by structure constants.

Index conventions:

* a bracket tensor stores ``(i, j, k) -> c`` meaning the coefficient of
  ``e_k`` in ``[e_i, e_j]`` is ``c`` (antisymmetric in ``i, j``, enforced
  at construction; the Jacobi identity is deliberately *not* a construction
  invariant -- it is what `verify_lie` checks, and invalid candidates must
  be representable for negative tests);
* a cobracket tensor stores ``(i, j, k) -> d`` meaning
  ``delta(e_i) = sum_{j<k} d * e_j ^ e_k`` (antisymmetric in ``j, k``);
* an action tensor on a module ``V`` stores ``(i, j, k) -> a`` meaning
  the coefficient of ``v_k`` in ``e_i . v_j``; the adjoint action is the
  bracket tensor itself.

The 1-cocycle convention is ``delta([x,y]) = x.delta(y) - y.delta(x)``
with ``x`` acting on wedge squares by the extended adjoint action
``x.(u^v) = [x,u]^v + u^[x,v]``.

The ``cocycle`` and ``representation`` checks compare two coefficient maps
keyed ``(i, j, a, b)`` with ``i < j``: the pair of generators ``e_i, e_j``,
then the output basis element -- ``e_a ^ e_b`` with ``a < b`` in the
cocycle check, the coefficient of ``v_a`` in the image of the input ``v_b``
in the representation check.  The lexicographically first key at which
the maps differ is the witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .exact import (
    DimensionMismatch,
    Rational,
    SparseTensor,
    antisymmetrized,
    asymmetric_entries,
    contract,
    format_rational,
    permute_axes,
    rational,
)

# --- verification reports ---------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Offending basis tuple with the two sides that failed to agree.

    ``at`` carries a rendered location (generator or monomial names) for
    checks whose failure site is not a bare index tuple.
    """

    indices: tuple[int, ...]
    lhs: str
    rhs: str
    at: str = ""


@dataclass(frozen=True)
class Check:
    cond: str
    passed: bool
    witness: Witness | None = None


Section = tuple[str, "VerificationReport"]


@dataclass(frozen=True)
class VerificationReport:
    """Checks in order, each with its full id, and the metadata of the whole
    report.  Reports compare by value, however `combine` assembled them."""

    checks: tuple[Check, ...]
    metadata: tuple[tuple[str, str], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, cond: str) -> Check:
        for c in self.checks:
            if c.cond == cond:
                return c
        raise KeyError(cond)


def combine(*parts: VerificationReport | Section) -> VerificationReport:
    """The checks and metadata of ``parts``, in order.

    A report adds its checks as they are; a ``(prefix, report)`` section
    adds each of the report's checks with ``prefix`` before its id.  This is
    the one place ids get prefixes, once per level of nesting.
    """
    checks: list[Check] = []
    metadata: list[tuple[str, str]] = []
    for part in parts:
        if isinstance(part, VerificationReport):
            checks.extend(part.checks)
        else:
            prefix, part = part
            checks.extend(Check(prefix + c.cond, c.passed, c.witness) for c in part.checks)
        metadata.extend(part.metadata)
    return VerificationReport(tuple(checks), tuple(metadata))


def _first_mismatch(lhs: dict, rhs: dict):
    """The lexicographically first key at which two coefficient maps differ, or None."""
    if lhs == rhs:
        return None
    keys = lhs.keys() | rhs.keys()
    return min((k for k in keys if lhs.get(k, 0) != rhs.get(k, 0)), default=None)


def _scalar_witness(lhs: dict, rhs: dict) -> Witness | None:
    """Both values at the lexicographically first key where they differ, or None."""
    idx = _first_mismatch(lhs, rhs)
    if idx is None:
        return None
    return Witness(idx, format_rational(lhs.get(idx, 0)), format_rational(rhs.get(idx, 0)))


def _mismatch_witness(lhs: dict, rhs: dict, labels, k: int = 1) -> Witness | None:
    """Both sides at the lexicographically first key where they differ, or None.

    The last ``k`` axes of a key index the basis and the others the vector,
    which is rendered as ``(c)*x`` terms for ``k = 1`` and as ``(c)*x^y``
    wedge terms for ``k = 2``.
    """
    idx = _first_mismatch(lhs, rhs)
    if idx is None:
        return None
    at = idx[:-k]

    def render(coeffs: dict) -> str:
        terms = sorted((key[-k:], v) for key, v in coeffs.items() if key[:-k] == at)
        return " + ".join(
            f"({format_rational(v)})*" + "^".join(labels[b] for b in basis)
            for basis, v in terms
        ) or "0"

    return Witness(at, render(lhs), render(rhs))


def _signed_fold(t: SparseTensor, perm, pairs) -> dict:
    """The entries of ``t`` reindexed by ``perm``, summed onto sorted pairs.

    Key axis ``k`` is axis ``perm[k]`` of ``t``.  For each listed pair of
    key axes the two indices are put in increasing order, and each swap
    flips the sign of the value; a key with an equal pair is dropped.
    """
    reindex = itemgetter(*perm)
    out: dict = {}
    for idx, v in t.entries.items():
        key = list(reindex(idx))
        for p, q in pairs:
            if key[p] == key[q]:
                break
            if key[p] > key[q]:
                key[p], key[q], v = key[q], key[p], -v
        else:
            key = tuple(key)
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


# --- core types --------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebra:
    labels: tuple[str, ...]
    bracket: SparseTensor  # (i, j, k) -> coefficient of e_k in [e_i, e_j]

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        object.__setattr__(self, "labels", labels)
        n = len(labels)
        if self.bracket.dims != (n, n, n):
            raise DimensionMismatch(
                f"bracket dims {self.bracket.dims} do not match dimension {n}"
            )
        if (bad := next(asymmetric_entries(self.bracket, (0, 1)), None)) is not None:
            raise ValueError(f"bracket tensor not antisymmetric at {bad}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def abelian(cls, labels) -> "LieAlgebra":
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, SparseTensor.zero((n, n, n)))

    @classmethod
    def from_table(cls, labels, table) -> "LieAlgebra":
        """Build from ``{(i, j): {k: coeff}}`` for i < j; `antisymmetrized` fills in the mirror."""
        labels = tuple(labels)
        n = len(labels)
        if (i := next((i for i, j in table if i == j), None)) is not None:
            raise ValueError(f"diagonal bracket entry ({i},{i})")
        entries = (
            ((i, j, k), rational(c)) for (i, j), row in table.items() for k, c in row.items()
        )
        return cls(labels, SparseTensor((n, n, n), antisymmetrized(entries, 3, (0, 1))))


@dataclass(frozen=True)
class LieCobracket:
    dim: int
    tensor: SparseTensor  # (i, j, k) -> coefficient of e_j^e_k in delta(e_i)

    def __post_init__(self):
        n = self.dim
        if self.tensor.dims != (n, n, n):
            raise DimensionMismatch(
                f"cobracket dims {self.tensor.dims} do not match dimension {n}"
            )
        if (bad := next(asymmetric_entries(self.tensor, (1, 2)), None)) is not None:
            raise ValueError(f"cobracket tensor not antisymmetric at {bad}")

    @classmethod
    def from_table(cls, n: int, table) -> "LieCobracket":
        """Build from ``{i: {(j, k): coeff}}`` for j < k; `antisymmetrized` fills in the mirror."""
        diagonal = (j for row in table.values() for j, k in row if j == k)
        if (j := next(diagonal, None)) is not None:
            raise ValueError(f"diagonal wedge entry ({j},{j})")
        entries = (
            ((i, j, k), rational(c)) for i, row in table.items() for (j, k), c in row.items()
        )
        return cls(n, SparseTensor((n, n, n), antisymmetrized(entries, 3, (1, 2))))


# --- operations ---------------------------------------------------------------


def verify_lie(g: LieAlgebra) -> VerificationReport:
    """Check the Jacobi identity on all basis triples.

    Fails with the lexicographically first witness (i, j, k, l) where the
    cyclic sum of structure-constant products is nonzero.
    """
    n = g.dim
    c = g.bracket.get
    witness = None
    for i, j, k in itertools.combinations(range(n), 3):
        for l in range(n):
            total = Fraction(0)
            for m in range(n):
                total += c((i, j, m)) * c((m, k, l))
                total += c((j, k, m)) * c((m, i, l))
                total += c((k, i, m)) * c((m, j, l))
            if total != 0 and witness is None:
                witness = Witness(
                    (i, j, k, l), format_rational(total), "0"
                )
    return VerificationReport((Check("jacobi", witness is None, witness),))


def verify_rep(g: LieAlgebra, action: SparseTensor) -> VerificationReport:
    """Check that an action tensor is a representation of ``g``.

    ``action`` stores ``(i, j, k) -> a``, the coefficient of ``v_k`` in
    ``e_i . v_j``.  The one check, ``representation``, compares
    ``[e_i, e_j] . v_b`` with ``e_i.(e_j.v_b) - e_j.(e_i.v_b)`` for
    ``i < j``; it fails with the lexicographically first witness
    ``(i, j, a, b)``, where ``a`` indexes the output coefficient and ``b``
    the input basis vector.  Jacobi of ``g`` is not part of it.
    """
    m = action.dims[1] if action.rank == 3 else 0
    if action.dims != (g.dim, m, m):
        raise DimensionMismatch(
            f"action dims {action.dims}, expected {(g.dim, m, m)}"
        )
    # coefficients keyed (i, j, a, b) for i < j: of v_a in [e_i, e_j].v_b ...
    lhs = {
        (i, j, a, b): v
        for (i, j, b, a), v in contract(g.bracket, action, [(2, 0)]).entries.items()
        if i < j
    }
    # ... and in e_i.(e_j.v_b) - e_j.(e_i.v_b); entry (j, b, i, a) of the
    # contraction is the coefficient of v_a in e_i.(e_j.v_b)
    comm = _signed_fold(contract(action, action, [(2, 1)]), (2, 0, 3, 1), ((0, 1),))
    witness = _scalar_witness(lhs, comm)
    return VerificationReport((Check("representation", witness is None, witness),))


def cobracket_to_dual_lie(d: LieCobracket) -> LieAlgebra:
    """Transpose a cobracket into the Lie bracket it induces on the dual basis ``x{i}*``."""
    # bracket entry (j, k, i) on the dual is the cobracket entry (i, j, k)
    labels = tuple(f"x{i}*" for i in range(d.dim))
    return LieAlgebra(labels, permute_axes(d.tensor, (1, 2, 0)))


def cocycle_check(g: LieAlgebra, d: LieCobracket) -> Check:
    """The 1-cocycle identity ``delta([e_i,e_j]) = e_i.delta(e_j) - e_j.delta(e_i)``
    on all basis pairs, as the ``cocycle`` check.

    It fails with the lexicographically first witness ``(i, j)``, rendered
    as the two wedge vectors.  Jacobi of ``g`` and of the dual bracket are
    not part of it (see `verify_cocycle`).
    """
    if g.dim != d.dim:
        raise DimensionMismatch(f"algebra dim {g.dim} vs cobracket dim {d.dim}")
    # coefficients keyed (i, j, a, b) for i < j, a < b: of e_a^e_b in
    # delta([e_i, e_j]) ...
    lhs = {
        key: v
        for key, v in contract(g.bracket, d.tensor, [(2, 0)]).entries.items()
        if key[0] < key[1] and key[2] < key[3]
    }
    # ... and in e_i.delta(e_j) - e_j.delta(e_i); entry (i, a, j, b) of the
    # contraction is the coefficient of e_a (x) e_b in e_i.delta(e_j) with
    # e_i acting on the first factor, and the second factor gives the same
    # with a and b swapped and the sign flipped
    rhs = _signed_fold(
        contract(g.bracket, d.tensor, [(1, 1)]), (0, 2, 1, 3), ((0, 1), (2, 3))
    )
    witness = _mismatch_witness(lhs, rhs, g.labels, 2)
    return Check("cocycle", witness is None, witness)


def verify_cocycle(g: LieAlgebra, d: LieCobracket) -> VerificationReport:
    """Check the Lie-bialgebra compatibility of a bracket and a cobracket.

    Sub-checks: Jacobi for ``g`` (``lie.primal.*``), Jacobi for the dual
    bracket obtained by transposing ``d`` (``lie.dual.*``), and the
    1-cocycle identity (`cocycle_check`).
    """
    return combine(
        ("lie.primal.", verify_lie(g)),
        ("lie.dual.", verify_lie(cobracket_to_dual_lie(d))),
        VerificationReport((cocycle_check(g, d),)),
    )


def bicrossed_sum(
    h: LieAlgebra, k: LieAlgebra, h_on_k: SparseTensor, k_on_h: SparseTensor
) -> LieAlgebra:
    """Bracket on h (+) k from two mutual actions, each as in `verify_rep`.

    ``[(x,xi),(y,eta)] = ([x,y] + xi>y - eta>x, [xi,eta] + x>eta - y>xi)``;
    a semidirect sum is the case ``k_on_h = 0``.  Antisymmetric by
    construction; Jacobi of the result is not asserted, callers use
    `verify_lie`.
    """
    nh, nk = h.dim, k.dim
    for name, action, dims in (
        ("h_on_k", h_on_k, (nh, nk, nk)),
        ("k_on_h", k_on_h, (nk, nh, nh)),
    ):
        if action.dims != dims:
            raise DimensionMismatch(f"{name} dims {action.dims}, expected {dims}")
    entries: dict[tuple[int, int, int], Rational] = dict(h.bracket.entries)
    for (a, b, c), v in k.bracket.entries.items():
        entries[(nh + a, nh + b, nh + c)] = v
    # [k_a, x_j] has h-part k_a > x_j and [x_i, k_b] has k-part x_i > k_b;
    # these blocks are disjoint from the two brackets and from each other
    mixed = [((nh + a, j, c), v) for (a, j, c), v in k_on_h.entries.items()]
    mixed += [((i, nh + b, nh + c), v) for (i, b, c), v in h_on_k.entries.items()]
    entries.update(antisymmetrized(mixed, 3, (0, 1)))
    total = nh + nk
    return LieAlgebra(h.labels + k.labels, SparseTensor._trusted((total, total, total), entries))
