"""Contragredient actions, matched pairs, and the three Lie 2-bialgebra verifiers.

A Lie 2-bialgebra candidate is a pair of crossed-module candidates on dual
2-vector spaces: ``cm1`` on ``[g1 -> g0]`` and ``cm2`` on ``[g0* -> g1*]``
(the 2-vector space of ``cm2`` must be `twoterm.dual_two_vs` of ``cm1``'s,
which is checked at construction).  Validity has three independent
characterizations, implemented as three verifiers that must agree:

* ``verify_l2b_def``: the two semidirect totals form a Lie bialgebra
  (1-cocycle condition through the natural block pairing);
* ``verify_l2b_matched``: the side algebra and the dual core algebra form
  a matched pair under the contragredient actions, which their bicrossed
  sum being a Lie algebra decides alone (`verify_matched_pair`);
* ``verify_l2b_weil``: the total differential built from ``cm1`` is a
  derivation of the bidegree (-1,-1) bracket built from ``cm2``.

Disagreement between the verifiers is a kernel defect, never a property
of the instance; `cross_check` reports it as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from .exact import DimensionMismatch, SparseTensor, permute_axes
from .liecore import (
    Check,
    LieAlgebra,
    LieCobracket,
    Section,
    VerificationReport,
    bicrossed_sum,
    cocycle_check,
    combine,
    verify_lie,
)
from .twoterm import CrossedModuleData, dual_two_vs, gamma_total, verify_cm
from .weil import (
    check_cm_square,
    check_derivation_of_bracket,
    check_gerst_axioms,
    cm_differentials,
    derivation_sum,
)


@dataclass(frozen=True)
class Lie2BialgebraData:
    cm1: CrossedModuleData  # on [g1 -> g0]
    cm2: CrossedModuleData  # on [g0* -> g1*]

    def __post_init__(self):
        if self.cm2.tvs != dual_two_vs(self.cm1.tvs):
            raise ValueError(
                "the 2-vector space of the dual crossed module is not the dual of "
                "cm1's: mirrored dims, transposed structure map and starred labels"
            )

    @property
    def dim0(self) -> int:
        return self.cm1.dim0

    @property
    def dim1(self) -> int:
        return self.cm1.dim1


def abelian_dual_pair(cm1: CrossedModuleData) -> Lie2BialgebraData:
    """Pair a crossed-module candidate with the zero structure on the dual."""
    tvs2 = dual_two_vs(cm1.tvs)
    n0, n1 = cm1.dim0, cm1.dim1
    cm2 = CrossedModuleData(
        LieAlgebra.abelian(tvs2.labels0),
        tvs2,
        SparseTensor.zero((n1, n0, n0)),
    )
    return Lie2BialgebraData(cm1, cm2)


@dataclass(frozen=True)
class MatchedPairData:
    h: LieAlgebra
    k: LieAlgebra
    act_h_on_k: SparseTensor  # (i, j, k): coefficient of k_k in h_i > k_j
    act_k_on_h: SparseTensor  # (i, j, k): coefficient of h_k in k_i > h_j

    def __post_init__(self):
        nh, nk = self.h.dim, self.k.dim
        if self.act_h_on_k.dims != (nh, nk, nk):
            raise DimensionMismatch(
                f"act_h_on_k dims {self.act_h_on_k.dims}, expected {(nh, nk, nk)}"
            )
        if self.act_k_on_h.dims != (nk, nh, nh):
            raise DimensionMismatch(
                f"act_k_on_h dims {self.act_k_on_h.dims}, expected {(nk, nh, nh)}"
            )


def contragredient(action: SparseTensor) -> SparseTensor:
    """The contragredient of an action tensor on the dual module.

    ``(x > xi)(c) = -xi(x . c)``: entry ``(i, j, k)`` of the result is
    minus entry ``(i, k, j)`` of the action.
    """
    return permute_axes(action, (0, 2, 1)).scale(-1)


def verify_matched_pair(mp: MatchedPairData) -> VerificationReport:
    """The one section ``bicrossed.``: Jacobi of the bicrossed sum h ⋈ k.

    It is a Lie algebra iff (h, k, >, <) is a matched pair (Majid,
    *Foundations of Quantum Group Theory*, §8.3).  The factor and action
    checks are blocks of that identity: ``[h, h]`` lies in ``h``, so the
    (h,h,h) block is Jacobi of ``h``, and the k-part of the (h,h,k) block
    is ``rho([x,y]) - [rho(x), rho(y)]`` applied to ``k``, zero iff > is a
    representation; likewise for ``k`` and <.
    """
    total = bicrossed_sum(mp.h, mp.k, mp.act_h_on_k, mp.act_k_on_h)
    return combine(("bicrossed.", verify_lie(total)))


def induced_cobracket(d: Lie2BialgebraData) -> LieCobracket:
    """Transport the semidirect total of cm2 to a cobracket on the total of cm1.

    The total of ``cm1`` has basis ``(e_0..e_{n0-1}, f_0..f_{n1-1})``; the
    total of ``cm2`` has basis ``(f*_0..f*_{n1-1}, e*_0..e*_{n0-1})``.  The
    natural pairing identifies the dual basis vector of ``u_r`` with the
    cm2-total basis vector at position ``n1 + r`` (r < n0) or ``r - n0``.
    """
    n0, n1 = d.dim0, d.dim1
    gamma2 = gamma_total(d.cm2)
    total = n0 + n1

    def sigma_inv(s: int) -> int:
        return s - n1 if s >= n1 else s + n0

    # entry (i, j, k) is the gamma2 entry (sigma(j), sigma(k), sigma(i))
    entries = {
        (sigma_inv(c), sigma_inv(a), sigma_inv(b)): v
        for (a, b, c), v in gamma2.bracket.entries.items()
    }
    return LieCobracket(total, SparseTensor((total, total, total), entries))


CmReports = tuple[VerificationReport, VerificationReport]


def _cm_sections(d: Lie2BialgebraData, cm_reports: CmReports | None) -> tuple[Section, Section]:
    """``verify_cm`` of both candidates as sections ``cm1.`` and ``cm2.``;
    computed unless given."""
    if cm_reports is None:
        cm_reports = (verify_cm(d.cm1), verify_cm(d.cm2))
    return ("cm1.", cm_reports[0]), ("cm2.", cm_reports[1])


def verify_l2b_def(
    d: Lie2BialgebraData, cm_reports: CmReports | None = None
) -> VerificationReport:
    """Definition-style verifier: the two totals form a Lie bialgebra.

    When either crossed-module candidate fails its own checks the cocycle
    stage is skipped (the totals need not even be Lie algebras then).
    Otherwise the stage is the one check ``bialgebra.cocycle``
    (`liecore.cocycle_check`): Jacobi of the two totals already follows
    from the ``cm1.`` and ``cm2.`` checks.  The primal total is
    ``gamma_total(cm1)``, a Lie algebra for every candidate passing
    `verify_cm` (`test_acceptance::test_criterion_4_derived_bracket_theorems`);
    the dual bracket of `induced_cobracket` is ``gamma_total(cm2)`` with
    its basis relabeled
    (`test_bicross::test_induced_cobracket_dual_is_relabeled_gamma_total`).
    ``cm_reports`` passes in ``verify_cm`` of ``cm1`` and ``cm2`` when the
    caller has them already."""
    cm1, cm2 = _cm_sections(d, cm_reports)
    if not (cm1[1].passed and cm2[1].passed):
        return combine(
            cm1,
            cm2,
            VerificationReport(
                (),
                metadata=(
                    ("bialgebra", "skipped: crossed-module prerequisites failed"),
                ),
            ),
        )
    cocycle = cocycle_check(gamma_total(d.cm1), induced_cobracket(d))
    return combine(cm1, cm2, ("bialgebra.", VerificationReport((cocycle,))))


def matched_pair_of(d: Lie2BialgebraData) -> MatchedPairData:
    """The matched-pair candidate (g0, g1*) with the contragredient actions."""
    return MatchedPairData(
        d.cm1.base,
        d.cm2.base,
        contragredient(d.cm1.action),
        contragredient(d.cm2.action),
    )


def verify_l2b_matched(
    d: Lie2BialgebraData, cm_reports: CmReports | None = None
) -> VerificationReport:
    """Matched-pair verifier: (g0, g1*) with the dual actions.

    ``cm_reports`` is as for `verify_l2b_def`."""
    return combine(
        *_cm_sections(d, cm_reports),
        ("mp.", verify_matched_pair(matched_pair_of(d))),
    )


def verify_l2b_weil(d: Lie2BialgebraData) -> VerificationReport:
    """Differential-calculus verifier on the bigraded algebra of cm1's spaces.

    Checks that ``delta_h`` built from ``cm1`` squares to zero and commutes
    with ``delta_v`` (`weil.check_cm_square`), that the bidegree (-1,-1)
    bracket, which is ``cm2`` read as a bracket, satisfies graded Jacobi
    (`weil.check_gerst_axioms`), and that the total differential is a
    derivation of the bracket (`weil.check_derivation_of_bracket`).  What
    holds by construction is not checked: ``delta_v^2 = 0``, and the
    bracket's graded skew and Leibniz rules.
    """
    dv, dh = cm_differentials(d.cm1)
    return combine(
        check_cm_square(dv, dh),
        ("gerst.", check_gerst_axioms(d.cm2)),
        ("derivation.", check_derivation_of_bracket(derivation_sum(dh, dv), d.cm2)),
    )


def cross_check(d: Lie2BialgebraData) -> VerificationReport:
    """Run the three verifiers and compare their verdicts.

    The combined report carries an ``agreement`` metadata flag; any
    disagreement is a kernel defect (the characterizations are equivalent),
    so it is additionally surfaced as a failing ``agreement`` check.
    Each crossed-module candidate is verified once, for both ``def`` and
    ``matched``.
    """
    cm_reports = (verify_cm(d.cm1), verify_cm(d.cm2))
    rd = verify_l2b_def(d, cm_reports)
    rm = verify_l2b_matched(d, cm_reports)
    reports = [("def", rd), ("matched", rm), ("weil", verify_l2b_weil(d))]
    verdicts = {name: r.passed for name, r in reports}
    agreement = len(set(verdicts.values())) == 1
    notes = [("agreement", "true" if agreement else "false")]
    if not agreement:
        notes.append(
            (
                "defect",
                "verifier disagreement is a kernel defect, not an instance property: "
                + ", ".join(f"{n}={'pass' if v else 'fail'}" for n, v in verdicts.items()),
            )
        )
    return combine(
        *((f"{name}.", r) for name, r in reports),
        VerificationReport((Check("agreement", agreement, None),), tuple(notes)),
    )
