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

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    DimensionMismatch,
    SparseTensor,
    contract,
    format_rational,
    perm_parity,
    permute_axes,
)
from .liecore import (
    Check,
    LieAlgebra,
    VerificationReport,
    Witness,
    combine,
    semidirect,
    verify_lie,
    verify_rep,
    _vec_render,
)


def star_label(label: str) -> str:
    """Toggle a trailing * so that dualizing twice restores the name."""
    return label[:-1] if label.endswith("*") else label + "*"


def _check_partial_dims(partial: SparseTensor, n0: int, n1: int):
    if partial.dims != (n0, n1):
        raise DimensionMismatch(
            f"partial dims {partial.dims}, expected {(n0, n1)}"
        )


@dataclass(frozen=True)
class TwoVectorSpace:
    dim0: int
    dim1: int
    partial: SparseTensor  # (a, b) -> coefficient of e_a in partial(f_b)
    labels0: tuple[str, ...] | None = None
    labels1: tuple[str, ...] | None = None

    def __post_init__(self):
        _check_partial_dims(self.partial, self.dim0, self.dim1)
        l0 = self.labels0 or tuple(f"e{i}" for i in range(self.dim0))
        l1 = self.labels1 or tuple(f"f{i}" for i in range(self.dim1))
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

    @property
    def dim0(self) -> int:
        return self.tvs.dim0

    @property
    def dim1(self) -> int:
        return self.tvs.dim1


def _act(cm: CrossedModuleData, i: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
    """Apply e_i to a g1 vector given by coefficients."""
    out: dict[int, Fraction] = {}
    for j, c in vec.items():
        for (a, b, k), v in cm.action.entries.items():
            if a == i and b == j:
                out[k] = out.get(k, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


def _partial_columns(cm: CrossedModuleData) -> list[dict[int, Fraction]]:
    """``partial(f_b)`` as g0 coefficients, for each core basis vector ``f_b``."""
    cols: list[dict[int, Fraction]] = [{} for _ in range(cm.dim1)]
    for (a, b), v in cm.tvs.partial.entries.items():
        cols[b][a] = v
    return cols


def _partial_coeffs(
    cols: list[dict[int, Fraction]], vec: dict[int, Fraction]
) -> dict[int, Fraction]:
    """partial applied to a g1 vector, as g0 coefficients."""
    out: dict[int, Fraction] = {}
    for b, c in vec.items():
        for a, v in cols[b].items():
            out[a] = out.get(a, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


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
    n0, n1 = cm.dim0, cm.dim1
    cols = _partial_columns(cm)

    eq_witness = None
    for i in range(n0):
        for j in range(n1):
            lhs = _partial_coeffs(cols, _act(cm, i, {j: Fraction(1)}))
            rhs: dict[int, Fraction] = {}
            for k, p in cols[j].items():
                for a, c in cm.base.bracket_coeffs(i, k).items():
                    rhs[a] = rhs.get(a, Fraction(0)) + p * c
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs and eq_witness is None:
                eq_witness = Witness(
                    (i, j),
                    _vec_render(lhs, cm.base.labels),
                    _vec_render(rhs, cm.base.labels),
                )

    skew_witness = None
    dtens = derived_bracket_tensor(cm)
    for i in range(n1):
        for j in range(i, n1):
            for k in range(n1):
                s = dtens.get((i, j, k)) + dtens.get((j, i, k))
                if s != 0 and skew_witness is None:
                    skew_witness = Witness(
                        (i, j, k),
                        format_rational(dtens.get((i, j, k))),
                        format_rational(-dtens.get((j, i, k))),
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
    dtens = derived_bracket_tensor(cm)
    for (i, j, k), v in dtens.entries.items():
        if dtens.get((j, i, k)) != -v:
            raise DerivedBracketError(
                f"skew_action fails at {(i, j, k)}: the pairing "
                "partial(f_i).f_j is not antisymmetric"
            )
    return LieAlgebra(cm.tvs.labels1, dtens)


def verify_full_crossed_module(
    cm: CrossedModuleData, core_bracket: LieAlgebra
) -> VerificationReport:
    """Candidate checks for a full crossed module with an explicit core bracket.

    Beyond `verify_cm`: the supplied core bracket must equal the derived
    one, ``partial`` must be a bracket morphism, and the action must act by
    derivations of the core bracket.
    """
    if core_bracket.dim != cm.dim1:
        raise DimensionMismatch(
            f"core bracket dim {core_bracket.dim} vs core dim {cm.dim1}"
        )
    base = verify_cm(cm)
    dtens = derived_bracket_tensor(cm)
    diff = core_bracket.bracket.sub(dtens)
    cb_witness = None
    if not diff.is_zero():
        idx = min(diff.entries)
        cb_witness = Witness(
            idx,
            format_rational(core_bracket.bracket.get(idx)),
            format_rational(dtens.get(idx)),
        )

    n1 = cm.dim1
    cols = _partial_columns(cm)
    morph_witness = None
    for i, j in itertools.combinations(range(n1), 2):
        lhs = _partial_coeffs(cols, core_bracket.bracket_coeffs(i, j))
        rhs: dict[int, Fraction] = {}
        for a, ca in cols[i].items():
            for b, cb in cols[j].items():
                for k, c in cm.base.bracket_coeffs(a, b).items():
                    rhs[k] = rhs.get(k, Fraction(0)) + ca * cb * c
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs and morph_witness is None:
            morph_witness = Witness(
                (i, j),
                _vec_render(lhs, cm.base.labels),
                _vec_render(rhs, cm.base.labels),
            )

    der_witness = None
    for i in range(cm.dim0):
        for a, b in itertools.combinations_with_replacement(range(n1), 2):
            lhs = _act(cm, i, core_bracket.bracket_coeffs(a, b))
            rhs: dict[int, Fraction] = {}
            for k, c in _act(cm, i, {a: Fraction(1)}).items():
                for m, d in core_bracket.bracket_coeffs(k, b).items():
                    rhs[m] = rhs.get(m, Fraction(0)) + c * d
            for k, c in _act(cm, i, {b: Fraction(1)}).items():
                for m, d in core_bracket.bracket_coeffs(a, k).items():
                    rhs[m] = rhs.get(m, Fraction(0)) + c * d
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs and der_witness is None:
                der_witness = Witness(
                    (i, a, b),
                    _vec_render(lhs, cm.tvs.labels1),
                    _vec_render(rhs, cm.tvs.labels1),
                )

    return combine(
        base,
        VerificationReport(
            (
                Check("core_bracket", cb_witness is None, cb_witness),
                Check("partial_morphism", morph_witness is None, morph_witness),
                Check("action_derivation", der_witness is None, der_witness),
            )
        ),
    )


def gamma_total(cm: CrossedModuleData) -> LieAlgebra:
    """Semidirect total of g0 with the core *as a Lie algebra* (derived bracket).

    Raises `DerivedBracketError` when the skew pairing condition fails;
    for any candidate passing `verify_cm` the result satisfies Jacobi.
    """
    return semidirect(cm.base, cm.action, derived_bracket(cm))


def g_action_algebroid(cm: CrossedModuleData) -> LieAlgebra:
    """Semidirect total of g0 with the core as a plain module (no core bracket)."""
    return semidirect(cm.base, cm.action, None, module_labels=cm.tvs.labels1)


@dataclass(frozen=True)
class WeakLie2Data:
    """Two-term homotopy Lie-algebra candidate data.

    ``bracket0`` is antisymmetric but Jacobi is not assumed; ``action`` is
    not assumed to be a representation; ``jacobiator`` stores
    ``(i, j, k, b) -> l`` meaning the coefficient of ``f_b`` in
    ``l3(e_i, e_j, e_k)``, antisymmetric in the first three slots.  The
    stated antisymmetries are construction invariants; everything else is
    the subject of verification.
    """

    dim0: int
    dim1: int
    partial: SparseTensor  # (a, b) -> coefficient of e_a in partial(f_b)
    bracket0: SparseTensor
    action: SparseTensor
    jacobiator: SparseTensor
    labels0: tuple[str, ...] | None = None
    labels1: tuple[str, ...] | None = None

    def __post_init__(self):
        n0, n1 = self.dim0, self.dim1
        _check_partial_dims(self.partial, n0, n1)
        if self.bracket0.dims != (n0, n0, n0):
            raise DimensionMismatch(f"bracket0 dims {self.bracket0.dims}")
        if self.action.dims != (n0, n1, n1):
            raise DimensionMismatch(f"action dims {self.action.dims}")
        if self.jacobiator.dims != (n0, n0, n0, n1):
            raise DimensionMismatch(f"jacobiator dims {self.jacobiator.dims}")
        for (i, j, k), v in self.bracket0.entries.items():
            if self.bracket0.get((j, i, k)) != -v:
                raise ValueError(f"bracket0 not antisymmetric at {(i, j, k)}")
        for (i, j, k, b), v in self.jacobiator.entries.items():
            for perm in itertools.permutations((0, 1, 2)):
                src = (i, j, k)
                tgt = tuple(src[p_] for p_ in perm) + (b,)
                if self.jacobiator.get(tgt) != perm_parity(perm) * v:
                    raise ValueError(
                        f"jacobiator not antisymmetric at {(i, j, k, b)}"
                    )
        l0 = self.labels0 or tuple(f"e{i}" for i in range(n0))
        l1 = self.labels1 or tuple(f"f{i}" for i in range(n1))
        object.__setattr__(self, "labels0", tuple(l0))
        object.__setattr__(self, "labels1", tuple(l1))

    @classmethod
    def from_cm(cls, cm: CrossedModuleData, jacobiator: SparseTensor | None = None):
        n0, n1 = cm.dim0, cm.dim1
        if jacobiator is None:
            jacobiator = SparseTensor.zero((n0, n0, n0, n1))
        return cls(
            n0,
            n1,
            cm.tvs.partial,
            cm.base.bracket,
            cm.action,
            jacobiator,
            cm.base.labels,
            cm.tvs.labels1,
        )

    def strict_part(self) -> CrossedModuleData:
        """The crossed-module candidate obtained by forgetting the Jacobiator."""
        return CrossedModuleData(
            LieAlgebra(self.labels0, self.bracket0),
            TwoVectorSpace(self.dim0, self.dim1, self.partial, self.labels0, self.labels1),
            self.action,
        )


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
