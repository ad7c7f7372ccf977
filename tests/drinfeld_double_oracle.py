"""The Drinfeld double of a Lie bialgebra candidate, as a matched pair.

A test oracle for `l2b.liecore.verify_cocycle` on `bialgebra` documents.  A
Lie bialgebra ``(g, delta)`` is equivalently a matched pair ``g ⋈ g*``: the
dual bracket on ``g*`` is the transpose of ``delta``, and each factor acts
on the other by the coadjoint action, the contragredient of its bracket
(Majid, *Foundations of Quantum Group Theory*, §8.3; Lu–Weinstein).  The
candidate is a Lie bialgebra iff `bicross.verify_matched_pair` passes the
pair, which decides Jacobi of the bicrossed sum ``g ⋈ g*``.  The
construction shares no code with `verify_cocycle`'s cocycle check and
reads no `bicross.induced_cobracket`.
"""

from l2b.bicross import MatchedPairData, contragredient, verify_matched_pair
from l2b.liecore import LieAlgebra, LieCobracket, cobracket_to_dual_lie


def drinfeld_double(g: LieAlgebra, d: LieCobracket) -> MatchedPairData:
    dual = cobracket_to_dual_lie(d)
    return MatchedPairData(g, dual, contragredient(g.bracket), contragredient(dual.bracket))


def is_lie_bialgebra(g: LieAlgebra, d: LieCobracket) -> bool:
    """The verdict of the Drinfeld double."""
    return verify_matched_pair(drinfeld_double(g, d)).passed
