"""Sparse version of the Jacobi check.

A test oracle for `l2b.liecore.verify_lie`, whose loop sums
``c(i,j,m) c(m,k,l) + c(j,k,m) c(m,i,l) + c(k,i,m) c(m,j,l)`` for every
``i < j < k`` and ``l``.  Here the same sums come from one contraction:
entry ``(a, b, c, l)`` of ``contract(bracket, bracket, [(2, 0)])`` is the
coefficient of ``e_l`` in ``[[e_a, e_b], e_c]``.  Each entry with ``a < b``
and ``c`` not in ``{a, b}`` adds to the sum of its sorted triple: with sign
+1 when ``c`` is the largest or the smallest index, and with sign -1 when
``a < c < b``, since then it is ``-[[e_k, e_i], e_j]`` of the sorted
triple ``i < j < k``.  The first nonzero key is the witness.  The kernel
must report the same `Check`, witness text included.
"""

from l2b.exact import contract, format_rational
from l2b.liecore import Check, LieAlgebra, VerificationReport, Witness


def verify_lie_by_fold(g: LieAlgebra) -> VerificationReport:
    sums: dict = {}
    for (a, b, c, l), v in contract(g.bracket, g.bracket, [(2, 0)]).entries.items():
        if a < b and c != a and c != b:
            key = tuple(sorted((a, b, c))) + (l,)
            sums[key] = sums.get(key, 0) + (-v if a < c < b else v)
    bad = min((key for key, v in sums.items() if v), default=None)
    witness = None if bad is None else Witness(bad, format_rational(sums[bad]), "0")
    return VerificationReport((Check("jacobi", witness is None, witness),))
