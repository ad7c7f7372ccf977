"""The Manin double of a Lie 2-bialgebra candidate, as one crossed module.

A test oracle for the `matched` and `weil` verdicts on `lie2_bialgebra`
documents.  Strict Lie 2-bialgebras correspond to Manin triples of strict
Lie 2-algebras (Bai–Sheng–Zhu, *Lie 2-bialgebras*, 2013).  Over a point the
double is the crossed module ``D = (D0* -> D0)``:

* ``D0 = g0 ⋈ g1*`` is the bicrossed sum of `bicross.matched_pair_of`, on
  the basis ``(e_0.., f*_0..)``;
* ``D0*`` is its dual, on the dual basis ``(e*_0.., f_0..)``, so it is
  ``g0* ⊕ g1``, and ``D0`` acts on it by the coadjoint action, the
  contragredient of ``D0``'s bracket;
* ``∂`` is ``cm1``'s structure map on ``g1`` plus ``cm2``'s on ``g0*``.

The candidate is a Lie 2-bialgebra iff `twoterm.verify_cm` passes ``D``.
The construction reads neither `bicross.induced_cobracket` nor the Weil
algebra, and the sign of the ``cm2`` part matters: ``core_sign=-1`` builds
the double with ``-∂2``, which disagrees on some candidates.
"""

from l2b.bicross import Lie2BialgebraData, contragredient, matched_pair_of
from l2b.exact import SparseTensor
from l2b.liecore import bicrossed_sum
from l2b.twoterm import CrossedModuleData, TwoVectorSpace


def manin_double(d: Lie2BialgebraData, core_sign: int = 1) -> CrossedModuleData:
    mp = matched_pair_of(d)
    d0 = bicrossed_sum(mp.h, mp.k, mp.act_h_on_k, mp.act_k_on_h)
    n0, n = d.dim0, d0.dim
    # entry (a, b): the coefficient of D0's basis vector a in ∂ of D0*'s b;
    # D0* has e*_r at r and f_s at n0 + s, D0 has e_r at r and f*_s at n0 + s
    partial = {(a, n0 + b): v for (a, b), v in d.cm1.tvs.partial.entries.items()}
    partial.update(
        {(n0 + a, b): core_sign * v for (a, b), v in d.cm2.tvs.partial.entries.items()}
    )
    tvs = TwoVectorSpace(n, n, SparseTensor((n, n), partial), d0.labels)
    return CrossedModuleData(d0, tvs, contragredient(d0.bracket))
