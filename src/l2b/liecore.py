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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    DimensionMismatch,
    Rational,
    SparseTensor,
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


@dataclass(frozen=True)
class VerificationReport:
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

    def prefixed(self, prefix: str) -> "VerificationReport":
        return VerificationReport(
            tuple(Check(prefix + c.cond, c.passed, c.witness) for c in self.checks),
            self.metadata,
        )


def combine(*reports: VerificationReport) -> VerificationReport:
    checks = tuple(itertools.chain.from_iterable(r.checks for r in reports))
    metadata = tuple(itertools.chain.from_iterable(r.metadata for r in reports))
    return VerificationReport(checks, metadata)


def _first_mismatch(lhs: dict, rhs: dict):
    """The lexicographically first key at which two coefficient maps differ, or None."""
    if lhs == rhs:
        return None
    keys = lhs.keys() | rhs.keys()
    return min((k for k in keys if lhs.get(k, 0) != rhs.get(k, 0)), default=None)


def _vec_render(coeffs: dict[int, Rational], labels) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i in sorted(coeffs):
        parts.append(f"({format_rational(coeffs[i])})*{labels[i]}")
    return " + ".join(parts)


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
        """Build from ``{(i, j): {k: coeff}}`` for i < j; the mirror is filled in."""
        labels = tuple(labels)
        n = len(labels)
        entries: dict[tuple[int, int, int], Rational] = {}
        for (i, j), row in table.items():
            if i == j:
                raise ValueError(f"diagonal bracket entry ({i},{i})")
            for k, c in row.items():
                c = rational(c)
                entries[(i, j, k)] = entries.get((i, j, k), 0) + c
                entries[(j, i, k)] = entries.get((j, i, k), 0) - c
        return cls(labels, SparseTensor((n, n, n), entries))


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
    def zero(cls, n: int) -> "LieCobracket":
        return cls(n, SparseTensor.zero((n, n, n)))

    @classmethod
    def from_table(cls, n: int, table) -> "LieCobracket":
        """Build from ``{i: {(j, k): coeff}}`` for j < k; the mirror is filled in."""
        entries: dict[tuple[int, int, int], Rational] = {}
        for i, row in table.items():
            for (j, k), c in row.items():
                if j == k:
                    raise ValueError(f"diagonal wedge entry ({j},{j})")
                c = rational(c)
                entries[(i, j, k)] = entries.get((i, j, k), 0) + c
                entries[(i, k, j)] = entries.get((i, k, j), 0) - c
        return cls(n, SparseTensor((n, n, n), entries))


# --- wedge-square helpers (internal) -----------------------------------------


def _w2_add(acc: dict, key: tuple[int, int], val: Rational):
    if val == 0:
        return
    j, k = key
    if j == k:
        return
    if j > k:
        j, k, val = k, j, -val
    acc[(j, k)] = acc.get((j, k), 0) + val
    if acc[(j, k)] == 0:
        del acc[(j, k)]


def _ad2(brackets: dict, x: int, w2: dict) -> dict:
    """Extended adjoint action of e_x on a wedge square: [x,u]^v + u^[x,v].

    ``brackets`` maps ``(i, j)`` to the coefficients of ``[e_i, e_j]``.
    """
    out: dict = {}
    for (u, v), c in w2.items():
        for m, cm in brackets.get((x, u), {}).items():
            _w2_add(out, (m, v), c * cm)
        for m, cm in brackets.get((x, v), {}).items():
            _w2_add(out, (u, m), c * cm)
    return out


def _w2_render(w2: dict, labels) -> str:
    if not w2:
        return "0"
    parts = []
    for (j, k) in sorted(w2):
        parts.append(f"({format_rational(w2[(j, k)])})*{labels[j]}^{labels[k]}")
    return " + ".join(parts)


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


def _check_action_dims(g: LieAlgebra, action: SparseTensor) -> int:
    """The module dimension of an action tensor of ``g``, checked."""
    m = action.dims[1] if action.rank == 3 else 0
    if action.dims != (g.dim, m, m):
        raise DimensionMismatch(
            f"action dims {action.dims}, expected {(g.dim, m, m)}"
        )
    return m


def verify_rep(g: LieAlgebra, action: SparseTensor) -> VerificationReport:
    """Check that an action tensor is a representation of ``g``.

    ``action`` stores ``(i, j, k) -> a``, the coefficient of ``v_k`` in
    ``e_i . v_j``.  The one check, ``representation``, compares
    ``[e_i, e_j] . v_b`` with ``e_i.(e_j.v_b) - e_j.(e_i.v_b)`` for
    ``i < j``; it fails with the lexicographically first witness
    ``(i, j, a, b)``, where ``a`` indexes the output coefficient and ``b``
    the input basis vector.  Jacobi of ``g`` is not part of it.
    """
    _check_action_dims(g, action)
    # coefficients keyed (i, j, a, b) for i < j: of v_a in [e_i, e_j].v_b ...
    lhs = {
        (i, j, a, b): v
        for (i, j, b, a), v in contract(g.bracket, action, [(2, 0)]).entries.items()
        if i < j
    }
    # ... and in e_i.(e_j.v_b) - e_j.(e_i.v_b); entry (j, b, i, a) of the
    # contraction is the coefficient of v_a in e_i.(e_j.v_b)
    comm: dict[tuple[int, int, int, int], Rational] = {}
    for (j, b, i, a), v in contract(action, action, [(2, 1)]).entries.items():
        if i < j:
            comm[(i, j, a, b)] = comm.get((i, j, a, b), 0) + v
        elif j < i:
            comm[(j, i, a, b)] = comm.get((j, i, a, b), 0) - v
    idx = _first_mismatch(lhs, comm)
    witness = None
    if idx is not None:
        witness = Witness(
            idx,
            format_rational(lhs.get(idx, 0)),
            format_rational(comm.get(idx, 0)),
        )
    return VerificationReport((Check("representation", witness is None, witness),))


def cobracket_to_dual_lie(d: LieCobracket, labels=None) -> LieAlgebra:
    """Transpose a cobracket into the Lie bracket it induces on the dual space."""
    if labels is None:
        labels = tuple(f"x{i}*" for i in range(d.dim))
    # bracket entry (j, k, i) on the dual is the cobracket entry (i, j, k)
    return LieAlgebra(tuple(labels), permute_axes(d.tensor, (1, 2, 0)))


def bracket_to_dual_cobracket(g: LieAlgebra) -> LieCobracket:
    """Transpose a Lie bracket into the cobracket it induces on the dual space."""
    return LieCobracket(g.dim, permute_axes(g.bracket, (2, 0, 1)))


def verify_cocycle(g: LieAlgebra, d: LieCobracket) -> VerificationReport:
    """Check the Lie-bialgebra compatibility of a bracket and a cobracket.

    Sub-checks: Jacobi for ``g`` (``lie.primal.*``), Jacobi for the dual
    bracket obtained by transposing ``d`` (``lie.dual.*``), and the
    1-cocycle identity ``delta([e_i,e_j]) = e_i.delta(e_j) - e_j.delta(e_i)``
    on all basis pairs (``cocycle``).
    """
    if g.dim != d.dim:
        raise DimensionMismatch(f"algebra dim {g.dim} vs cobracket dim {d.dim}")
    primal = verify_lie(g).prefixed("lie.primal.")
    dual = verify_lie(cobracket_to_dual_lie(d)).prefixed("lie.dual.")
    # the coefficients of [e_a, e_b] and of delta(e_a), grouped in one pass each
    brackets: dict[tuple[int, int], dict[int, Rational]] = {}
    for (a, b, k), v in g.bracket.entries.items():
        brackets.setdefault((a, b), {})[k] = v
    images: dict[int, dict[tuple[int, int], Rational]] = {}
    for (a, j, k), v in d.tensor.entries.items():
        if j < k:
            images.setdefault(a, {})[(j, k)] = v
    witness = None
    for i, j in itertools.combinations(range(g.dim), 2):
        lhs: dict = {}
        for m, cm in brackets.get((i, j), {}).items():
            for key, val in images.get(m, {}).items():
                _w2_add(lhs, key, cm * val)
        rhs = _ad2(brackets, i, images.get(j, {}))
        for key, val in _ad2(brackets, j, images.get(i, {})).items():
            _w2_add(rhs, key, -val)
        diff = dict(lhs)
        for key, val in rhs.items():
            _w2_add(diff, key, -val)
        if diff and witness is None:
            witness = Witness(
                (i, j), _w2_render(lhs, g.labels), _w2_render(rhs, g.labels)
            )
    cocycle = Check("cocycle", witness is None, witness)
    return combine(primal, dual, VerificationReport((cocycle,)))


def semidirect(
    g: LieAlgebra,
    action: SparseTensor,
    core_bracket: LieAlgebra | None = None,
    module_labels=None,
) -> LieAlgebra:
    """Semidirect-sum bracket on g (+) V for an action tensor as in `verify_rep`.

    ``[(x,u),(y,w)] = ([x,y], x.w - y.u + [u,w]_V)`` where the module
    bracket ``[.,.]_V`` is zero when ``core_bracket`` is absent.  Jacobi of
    the result is not asserted; callers use `verify_lie`.
    """
    m = _check_action_dims(g, action)
    n = g.dim
    if core_bracket is not None and core_bracket.dim != m:
        raise DimensionMismatch(
            f"core bracket dim {core_bracket.dim} vs module dim {m}"
        )
    if module_labels is None:
        if core_bracket is not None:
            module_labels = core_bracket.labels
        else:
            module_labels = tuple(f"v{a}" for a in range(m))
    total = n + m
    entries: dict[tuple[int, int, int], Rational] = dict(g.bracket.entries)
    for (i, a, b), v in action.items_sorted():
        entries[(i, n + a, n + b)] = v
        entries[(n + a, i, n + b)] = -v
    if core_bracket is not None:
        for (a, b, k), v in core_bracket.bracket.entries.items():
            entries[(n + a, n + b, n + k)] = v
    return LieAlgebra(g.labels + tuple(module_labels), SparseTensor((total, total, total), entries))
