"""Exact-arithmetic verification kernel for two-term Lie theory."""

__version__ = "0.1.0"

from .exact import Rational, SparseTensor, contract
from .liecore import (
    Check,
    LieAlgebra,
    LieCobracket,
    VerificationReport,
    Witness,
    bicrossed_sum,
    cobracket_to_dual_lie,
    verify_cocycle,
    verify_lie,
    verify_rep,
)
from .twoterm import (
    CrossedModuleData,
    SpaceDescriptor,
    SplitDvb,
    TwoVectorSpace,
    WeakLie2Data,
    check_duality_identity,
    derived_bracket,
    dual_two_vs,
    dvb_flip,
    dvb_horizontal_dual,
    dvb_vertical_dual,
    gamma_total,
    verify_cm,
)
from .weil import (
    GradedDerivation,
    WeilElement,
    WeilMonomial,
    apply_derivation,
    build_delta_j,
    check_derivation_of_bracket,
    check_gerst_axioms,
    check_square_zero,
    gerst_bracket,
    graded_commutator,
    verify_weak_lie2,
)
from .bicross import (
    Lie2BialgebraData,
    MatchedPairData,
    abelian_dual_pair,
    contragredient,
    cross_check,
    verify_l2b_def,
    verify_l2b_matched,
    verify_l2b_weil,
    verify_matched_pair,
)
