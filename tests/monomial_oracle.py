"""Degree-bounded monomial checks of the bidegree (-1,-1) bracket.

A test oracle for `l2b.weil.check_gerst_axioms` and
`l2b.weil.check_derivation_of_bracket`, which decide the same conditions on
generators.  Here every monomial pair and triple up to a total-degree bound
is enumerated, and the first failing sorted tuple gives the witness, so at
any bound of at least 4 (every generator triple included) the reports must
equal the generator-level ones, witnesses included.
"""

import itertools

from l2b.liecore import Check, VerificationReport, Witness
from l2b.weil import (
    GerstenhaberStructure,
    GradedDerivation,
    WeilElement,
    WeilMonomial,
    apply_derivation,
    gerst_bracket,
    weil_add,
    weil_mul,
    weil_scale,
    weil_sub,
)


def enumerate_monomials(dims, degree_bound: int):
    """All monomials of total degree <= degree_bound, in a fixed order."""
    n0, n1 = dims
    out = []
    for r in range(min(n0, degree_bound) + 1):
        for ext in itertools.combinations(range(n0), r):
            for s in range((degree_bound - r) // 2 + 1):
                for sym in itertools.combinations_with_replacement(range(n1), s):
                    out.append(WeilMonomial(ext, sym))
    out.sort(key=WeilMonomial.sort_key)
    return out


def _elt(G: GerstenhaberStructure, m: WeilMonomial) -> WeilElement:
    return WeilElement(G.dims, {m: 1})


def _bracket(G: GerstenhaberStructure, m1: WeilMonomial, m2: WeilMonomial) -> WeilElement:
    return gerst_bracket(G, _elt(G, m1), _elt(G, m2))


def check_gerst_axioms_bounded(G: GerstenhaberStructure, degree_bound: int) -> VerificationReport:
    """Graded skew-symmetry, Jacobi and Leibniz on monomials up to a degree bound."""
    monos = enumerate_monomials(G.dims, degree_bound)

    skew_witness = None
    for m1, m2 in itertools.combinations_with_replacement(monos, 2):
        lhs = _bracket(G, m1, m2)
        sign = -1 if (m1.total_degree * m2.total_degree) % 2 else 1
        rhs = weil_scale(-sign, _bracket(G, m2, m1))
        if lhs != rhs and skew_witness is None:
            skew_witness = Witness(
                (), lhs.render(), rhs.render(), at=f"({m1.render()}, {m2.render()})"
            )

    jacobi_witness = None
    for m1, m2, m3 in itertools.combinations_with_replacement(monos, 3):
        lhs = gerst_bracket(G, _elt(G, m1), _bracket(G, m2, m3))
        rhs = gerst_bracket(G, _bracket(G, m1, m2), _elt(G, m3))
        sign = -1 if (m1.total_degree * m2.total_degree) % 2 else 1
        rhs = weil_add(rhs, weil_scale(sign, gerst_bracket(G, _elt(G, m2), _bracket(G, m1, m3))))
        if lhs != rhs and jacobi_witness is None:
            jacobi_witness = Witness(
                (),
                lhs.render(),
                rhs.render(),
                at=f"({m1.render()}, {m2.render()}, {m3.render()})",
            )

    leibniz_witness = None
    for m1 in monos:
        for m2, m3 in itertools.combinations_with_replacement(monos, 2):
            if m2.total_degree + m3.total_degree > degree_bound:
                continue
            prod = weil_mul(_elt(G, m2), _elt(G, m3))
            lhs = gerst_bracket(G, _elt(G, m1), prod)
            rhs = weil_mul(_bracket(G, m1, m2), _elt(G, m3))
            sign = -1 if (m1.total_degree * m2.total_degree) % 2 else 1
            rhs = weil_add(rhs, weil_scale(sign, weil_mul(_elt(G, m2), _bracket(G, m1, m3))))
            if lhs != rhs and leibniz_witness is None:
                leibniz_witness = Witness(
                    (),
                    lhs.render(),
                    rhs.render(),
                    at=f"({m1.render()}; {m2.render()}, {m3.render()})",
                )

    return VerificationReport(
        (
            Check("skew", skew_witness is None, skew_witness),
            Check("jacobi", jacobi_witness is None, jacobi_witness),
            Check("leibniz", leibniz_witness is None, leibniz_witness),
        )
    )


def check_derivation_of_bracket_bounded(
    d: GradedDerivation, G: GerstenhaberStructure, degree_bound: int
) -> VerificationReport:
    """d[x,y] = [d x, y] + (-1)^|x| [x, d y] on generator and monomial pairs."""

    def defect(m1: WeilMonomial, m2: WeilMonomial) -> WeilElement:
        e1, e2 = _elt(G, m1), _elt(G, m2)
        lhs = apply_derivation(d, _bracket(G, m1, m2))
        rhs = gerst_bracket(G, apply_derivation(d, e1), e2)
        sign = -1 if m1.total_degree % 2 else 1
        rhs = weil_add(rhs, weil_scale(sign, gerst_bracket(G, e1, apply_derivation(d, e2))))
        return weil_sub(lhs, rhs)

    n0, n1 = G.dims
    gens = [WeilMonomial((i,), ()) for i in range(n0)] + [
        WeilMonomial((), (j,)) for j in range(n1)
    ]
    gen_witness = None
    for m1, m2 in itertools.product(gens, gens):
        dft = defect(m1, m2)
        if not dft.is_zero() and gen_witness is None:
            gen_witness = Witness((), dft.render(), "0", at=f"({m1.render()}, {m2.render()})")

    mono_witness = None
    monos = enumerate_monomials(G.dims, degree_bound)
    for m1, m2 in itertools.combinations_with_replacement(monos, 2):
        dft = defect(m1, m2)
        if not dft.is_zero() and mono_witness is None:
            mono_witness = Witness((), dft.render(), "0", at=f"({m1.render()}, {m2.render()})")

    return VerificationReport(
        (
            Check("generator_pairs", gen_witness is None, gen_witness),
            Check("monomial_pairs", mono_witness is None, mono_witness),
        )
    )
