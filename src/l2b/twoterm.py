"""Two-term structures: 2-vector spaces, crossed-module data, split DVB duals.

A 2-vector space is a linear map ``partial: g1 -> g0`` between finite
dimensional spaces (``g0`` the side, ``g1`` the core), stored as a tensor
of dims ``(n0, n1)`` whose entry ``(a, b)`` is the coefficient of ``e_a``
in ``partial(f_b)``.

Crossed-module candidate data is (Lie algebra on g0, 2-vector space,
action tensor ``(i, j, k) -> a`` meaning the coefficient of ``f_k`` in
``e_i . f_j``).  Validity -- Jacobi, the representation property, the
equivariance condition ``partial(v.c) = [v, partial(c)]`` and the skew
pairing condition ``partial(c1).c2 = -partial(c2).c1`` -- is the subject
of `verify_cm`, never a construction invariant, so perturbed candidates
are first-class values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (
    DimensionMismatch,
    SparseTensor,
    asymmetric_entries,
    contract,
    permute_axes,
)
from .liecore import (
    Check,
    LieAlgebra,
    VerificationReport,
    Witness,
    bicrossed_sum,
    verify_lie,
    verify_rep,
    _mismatch_witness,
    _scalar_witness,
)


def star_label(label: str) -> str:
    """Toggle a trailing * so that dualizing twice restores the name."""
    return label[:-1] if label.endswith("*") else label + "*"


@dataclass(frozen=True)
class TwoVectorSpace:
    dim0: int
    dim1: int
    partial: SparseTensor  # (a, b) -> coefficient of e_a in partial(f_b)
    labels0: tuple[str, ...] | None = None
    labels1: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.partial.dims != (self.dim0, self.dim1):
            raise DimensionMismatch(
                f"partial dims {self.partial.dims}, expected {(self.dim0, self.dim1)}"
            )
        l0 = tuple(f"e{i}" for i in range(self.dim0)) if self.labels0 is None else self.labels0
        l1 = tuple(f"f{i}" for i in range(self.dim1)) if self.labels1 is None else self.labels1
        if len(l0) != self.dim0 or len(l1) != self.dim1:
            raise DimensionMismatch("label count does not match dimensions")
        object.__setattr__(self, "labels0", tuple(l0))
        object.__setattr__(self, "labels1", tuple(l1))


def dual_two_vs(t: TwoVectorSpace) -> TwoVectorSpace:
    """The dual 2-vector space: side g1*, core g0*, transposed structure map."""
    return TwoVectorSpace(
        t.dim1,
        t.dim0,
        permute_axes(t.partial, (1, 0)),
        tuple(star_label(s) for s in t.labels1),
        tuple(star_label(s) for s in t.labels0),
    )


@dataclass(frozen=True)
class CrossedModuleData:
    base: LieAlgebra
    tvs: TwoVectorSpace
    action: SparseTensor  # (i, j, k) -> coefficient of f_k in e_i . f_j

    def __post_init__(self):
        n0, n1 = self.tvs.dim0, self.tvs.dim1
        if self.base.dim != n0:
            raise DimensionMismatch(
                f"base dim {self.base.dim} vs side dim {n0}"
            )
        if self.action.dims != (n0, n1, n1):
            raise DimensionMismatch(
                f"action dims {self.action.dims}, expected {(n0, n1, n1)}"
            )
        if self.base.labels != self.tvs.labels0:
            raise ValueError(
                f"base labels {self.base.labels} vs side labels {self.tvs.labels0}"
            )

    @property
    def dim0(self) -> int:
        return self.tvs.dim0

    @property
    def dim1(self) -> int:
        return self.tvs.dim1


def derived_bracket_tensor(cm: CrossedModuleData) -> SparseTensor:
    """Raw tensor of the pairing [f_i, f_j] := partial(f_i).f_j (no symmetry check)."""
    return contract(cm.tvs.partial, cm.action, [(0, 0)])


class DerivedBracketError(ValueError):
    """The skew pairing condition fails, so the derived bracket is not defined."""


def verify_cm(cm: CrossedModuleData) -> VerificationReport:
    """Run the four crossed-module candidate checks.

    ``jacobi``: the base bracket satisfies Jacobi; ``representation``: the
    action tensor is a representation; ``equivariance``:
    ``partial(e_i . f_j) = [e_i, partial(f_j)]``; ``skew_action``:
    ``partial(f_i).f_j = -partial(f_j).f_i``.
    """
    partial, bracket = cm.tvs.partial, cm.base.bracket
    # entry (i, j, a): the coefficient of e_a in partial(e_i . f_j) and in
    # [e_i, partial(f_j)]
    eq_witness = _mismatch_witness(
        contract(cm.action, partial, [(2, 1)]).entries,
        permute_axes(contract(partial, bracket, [(0, 1)]), (1, 0, 2)).entries,
        cm.base.labels,
    )
    # entry (i, j, k) for i <= j: the coefficient of f_k in partial(f_i).f_j
    # and in -partial(f_j).f_i
    pairing = derived_bracket_tensor(cm).entries
    skew_witness = _scalar_witness(
        {(i, j, k): v for (i, j, k), v in pairing.items() if i <= j},
        {(j, i, k): -v for (i, j, k), v in pairing.items() if j <= i},
    )

    return VerificationReport(
        (
            verify_lie(cm.base).check("jacobi"),
            verify_rep(cm.base, cm.action).check("representation"),
            Check("equivariance", eq_witness is None, eq_witness),
            Check("skew_action", skew_witness is None, skew_witness),
        )
    )


def derived_bracket(cm: CrossedModuleData) -> LieAlgebra:
    """The bracket [f_i, f_j] := partial(f_i).f_j on the core.

    Raises `DerivedBracketError` when the skew pairing condition fails,
    since the result would not be antisymmetric.
    """
    try:
        return LieAlgebra(cm.tvs.labels1, derived_bracket_tensor(cm))
    except ValueError as e:
        raise DerivedBracketError(f"skew_action fails: {e}") from e


def gamma_total(cm: CrossedModuleData) -> LieAlgebra:
    """Semidirect total of g0 with the core *as a Lie algebra* (derived bracket).

    Raises `DerivedBracketError` when the skew pairing condition fails;
    for any candidate passing `verify_cm` the result satisfies Jacobi.
    """
    no_back_action = SparseTensor.zero((cm.dim1, cm.dim0, cm.dim0))
    return bicrossed_sum(cm.base, derived_bracket(cm), cm.action, no_back_action)


@dataclass(frozen=True)
class WeakLie2Data:
    """Two-term homotopy Lie-algebra candidate data: a crossed-module
    candidate plus a Jacobiator.

    ``jacobiator`` stores ``(i, j, k, b) -> l`` meaning the coefficient of
    ``f_b`` in ``l3(e_i, e_j, e_k)``, antisymmetric in the first three
    slots, which is checked here; as for ``cm``, everything else is the
    subject of verification.
    """

    cm: CrossedModuleData
    jacobiator: SparseTensor

    def __post_init__(self):
        n0, n1 = self.cm.dim0, self.cm.dim1
        if self.jacobiator.dims != (n0, n0, n0, n1):
            raise DimensionMismatch(f"jacobiator dims {self.jacobiator.dims}")
        if (bad := next(asymmetric_entries(self.jacobiator, (0, 1, 2)), None)) is not None:
            raise ValueError(f"jacobiator not antisymmetric at {bad}")


# --- split double-vector-space bookkeeping -----------------------------------


@dataclass(frozen=True)
class SpaceDescriptor:
    name: str
    dim: int
    dualized: bool = False

    def dual(self) -> "SpaceDescriptor":
        return SpaceDescriptor(self.name, self.dim, not self.dualized)

    def render(self) -> str:
        return self.name + ("*" if self.dualized else "")


@dataclass(frozen=True)
class SplitDvb:
    """A split double vector space: horizontal side, vertical side, core."""

    side_h: SpaceDescriptor
    side_v: SpaceDescriptor
    core: SpaceDescriptor


def dvb_vertical_dual(d: SplitDvb) -> SplitDvb:
    """(A, B, C) -> (C*, B, A*)."""
    return SplitDvb(d.core.dual(), d.side_v, d.side_h.dual())


def dvb_horizontal_dual(d: SplitDvb) -> SplitDvb:
    """(A, B, C) -> (A, C*, B*)."""
    return SplitDvb(d.side_h, d.core.dual(), d.side_v.dual())


def dvb_flip(d: SplitDvb) -> SplitDvb:
    """(A, B, C) -> (B, A, C)."""
    return SplitDvb(d.side_v, d.side_h, d.core)


def check_duality_identity(d: SplitDvb) -> VerificationReport:
    """flip(vertical dual) agrees with the vertical dual of the horizontal dual.

    The identification is the identity on the side spaces and minus the
    identity on the core; the core sign is recorded as report metadata
    (over a point there is no pairing tensor for it to act on).
    """
    left = dvb_flip(dvb_vertical_dual(d))
    right = dvb_vertical_dual(dvb_horizontal_dual(d))
    ok = left == right
    witness = None
    if not ok:
        witness = Witness(
            (),
            f"({left.side_h.render()},{left.side_v.render()},{left.core.render()})",
            f"({right.side_h.render()},{right.side_v.render()},{right.core.render()})",
        )
    return VerificationReport(
        (Check("triple_identity", ok, witness),),
        metadata=(("core_identification_sign", "-1"),),
    )
