"""Degree-bounded monomial checks of the bidegree (-1,-1) bracket.

A test oracle for `l2b.weil.check_gerst_axioms` and
`l2b.weil.check_derivation_of_bracket`, which decide the same conditions on
generators.  Here every monomial pair and triple up to a total-degree bound
is enumerated, and the first failing sorted tuple gives the witness, so at
any bound of at least 4 (every generator triple included) the reports must
equal the generator-level ones, witnesses included.

It also holds element-level oracles for `l2b.weil.apply_derivation` and
`l2b.weil.gerst_bracket`, which compute the same values the long way,
through element products and sums.
"""

import itertools

from l2b.liecore import Check, VerificationReport, Witness
from l2b.weil import (
    GerstenhaberStructure,
    GradedDerivation,
    WeilElement,
    WeilMonomial,
    _mono_bracket,
    apply_derivation,
    gerst_bracket,
    weil_add,
    weil_mul,
    weil_scale,
    weil_sub,
    weil_zero,
)


def apply_derivation_by_products(d: GradedDerivation, a: WeilElement) -> WeilElement:
    """`apply_derivation` as ``prefix * image * suffix`` element products.

    Passing the derivation over a prefix of total degree ``t`` contributes
    the sign ``(-1)**(deg(d) * t)``.
    """
    dodd = d.total_degree % 2
    out = weil_zero(a.dims)
    for mono, coeff in a.terms.items():
        gens = [("ext", i) for i in mono.ext] + [("sym", j) for j in mono.sym]
        prefix_deg = 0
        for pos, (kind, idx) in enumerate(gens):
            img = d.ext_images[idx] if kind == "ext" else d.sym_images[idx]
            if not img.is_zero():
                sign = -1 if (dodd and prefix_deg % 2) else 1
                pre_ext = mono.ext[:pos] if kind == "ext" else mono.ext
                pre_sym = () if kind == "ext" else mono.sym[: pos - len(mono.ext)]
                suf_ext = mono.ext[pos + 1 :] if kind == "ext" else ()
                suf_sym = mono.sym if kind == "ext" else mono.sym[pos - len(mono.ext) + 1 :]
                prefix = WeilElement(a.dims, {WeilMonomial(pre_ext, pre_sym): 1})
                suffix = WeilElement(a.dims, {WeilMonomial(suf_ext, suf_sym): 1})
                term = weil_mul(weil_mul(prefix, img), suffix)
                out = weil_add(out, weil_scale(sign * coeff, term))
            prefix_deg += 1 if kind == "ext" else 2
    return out


def gerst_bracket_by_sums(G: GerstenhaberStructure, a: WeilElement, b: WeilElement) -> WeilElement:
    """`gerst_bracket` as a sum of scaled monomial brackets."""
    out = weil_zero(G.dims)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out = weil_add(out, weil_scale(c1 * c2, _mono_bracket(G, m1, m2)))
    return out


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
