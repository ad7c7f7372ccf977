"""Monomial checks of the bidegree (-1,-1) bracket, on a recursive bracket.

A test oracle for `l2b.weil.check_gerst_axioms` and
`l2b.weil.check_derivation_of_bracket`, which decide the same conditions on
generators through the derivations ``ad_x``.  Here the bracket is
`MonomialBracket`, a memoized Leibniz recursion on monomials that shares no
code with the kernel's bracket, and a derivation is applied by
`apply_derivation_by_products`, which shares none with the kernel's
`_derive`.  The checks run over a list of monomials
and the first failing sorted tuple gives the witness, over the generators
or over every monomial up to a total-degree bound of at least 4 (every
generator triple included).  The kernel reports only ``jacobi`` and
``generator_pairs``, which must equal the oracle's, witnesses included.
The oracle's other checks are the facts that make the rest redundant:
``skew`` and ``leibniz`` pass on every table, because the kernel's bracket
is graded skew and a biderivation by construction, and ``monomial_pairs``
has the verdict of ``generator_pairs``.

The element-level values are compared too: `l2b.weil._apply` with
`apply_derivation_by_products`, and `bracket_by_ads`, the bracket of two
elements as the kernel's table and engine evaluate it (`_bracket_table`,
`_derive`), with `gerst_bracket_by_sums`.  The element algebra
(``weil_zero`` to ``weil_mul``) is its own: it builds every result through
the validating `WeilElement` constructor, which checks each ``(ext, sym)``
monomial key, and shares no arithmetic with the kernel.  `derivation`
builds a `GradedDerivation` from the images of the ``a``s and the ``g``s
with the checks that the kernel's unvalidated record skips.
"""

import itertools

from operator import index

from l2b.exact import DimensionMismatch
from l2b.liecore import Check, VerificationReport, Witness
from l2b.twoterm import CrossedModuleData
from l2b.weil import (
    GradedDerivation,
    Monomial,
    WeilElement,
    _apply,
    _bracket_table,
    _clean,
    _derive,
    _render,
    _render_monomial as render,
    _sort_key,
    _swap_sign,
    _total_degree as total_degree,
)

from crossed_module_oracle import _VALUES, random_candidate


# --- the element algebra ------------------------------------------------------------

ONE = ((), ())


def weil_zero(dims) -> WeilElement:
    return WeilElement(tuple(dims), {})


def weil_one(dims) -> WeilElement:
    return WeilElement(tuple(dims), {ONE: 1})


def weil_alpha(dims, i: int) -> WeilElement:
    return WeilElement(tuple(dims), {((i,), ()): 1})


def weil_gamma(dims, j: int) -> WeilElement:
    return WeilElement(tuple(dims), {((), (j,)): 1})


def _same_dims(a: WeilElement, b: WeilElement) -> None:
    if a.dims != b.dims:
        raise DimensionMismatch(f"{a.dims} vs {b.dims}")


def weil_add(a: WeilElement, b: WeilElement) -> WeilElement:
    _same_dims(a, b)
    out = dict(a.terms)
    for mono, coeff in b.terms.items():
        out[mono] = out.get(mono, 0) + coeff
    return WeilElement(a.dims, out)


def weil_scale(c, a: WeilElement) -> WeilElement:
    return WeilElement(a.dims, {m: c * v for m, v in a.terms.items()})


def weil_sub(a: WeilElement, b: WeilElement) -> WeilElement:
    return weil_add(a, weil_scale(-1, b))


def weil_mul(a: WeilElement, b: WeilElement) -> WeilElement:
    """The product: a pair of terms whose exterior parts share an index
    gives nothing, the others one sign per inversion between them."""
    _same_dims(a, b)
    out = {}
    for (e1, s1), c1 in a.terms.items():
        for (e2, s2), c2 in b.terms.items():
            if set(e1) & set(e2):
                continue
            sign = -1 if sum(1 for x in e1 for y in e2 if x > y) % 2 else 1
            mono = (tuple(sorted(e1 + e2)), tuple(sorted(s1 + s2)))
            out[mono] = out.get(mono, 0) + sign * c1 * c2
    return WeilElement(a.dims, out)


# --- derivations and the bracket, the long way ----------------------------------------


def derivation(dims, degree, ext_images, sym_images) -> GradedDerivation:
    """The derivation of total degree ``degree`` with the given images of
    ``a0..a{n0-1}`` and of ``g0..g{n1-1}``, validated.

    One image per generator, else `DimensionMismatch`; each image is
    validated as `WeilElement` validates its terms (stored without zeros)
    and must have the total degree of its generator plus ``degree``, else
    `ValueError`.
    """
    n0, n1 = dims = (index(dims[0]), index(dims[1]))
    if len(ext_images) != n0 or len(sym_images) != n1:
        raise DimensionMismatch(
            f"generator image count {(len(ext_images), len(sym_images))} "
            f"does not match dims {dims}"
        )
    degree = index(degree)
    images = []
    for gen_degree, family in ((1, ext_images), (2, sym_images)):
        for img in family:
            terms = WeilElement(dims, img).terms
            if any(total_degree(m) != gen_degree + degree for m in terms):
                raise ValueError("image total degree inconsistent with derivation degree")
            images.append(terms)
    return GradedDerivation(dims, degree, tuple(images))


def bracket_by_ads(cm2: CrossedModuleData, a: dict, b: dict) -> dict:
    """The term dict of ``[a, b]`` for term dicts ``a`` and ``b``, on the
    kernel's ``ad_x`` table.

    For ``a`` of total degree ``t``, ``[a, -]`` is the derivation of degree
    ``t - 2`` whose image of a generator ``y`` is
    ``[a, y] = -(-1)^(t|y|) ad_y(a)``; an ``a`` of several total degrees is
    split by degree.
    """
    dims, _, deg, _, ads = _bracket_table(cm2)
    parts: dict = {}
    for mono, coeff in a.items():
        parts.setdefault(total_degree(mono), {})[mono] = coeff
    out: dict = {}
    for t, terms in parts.items():
        images = tuple(_apply(ad, terms, _swap_sign(t, dy)) for ad, dy in zip(ads, deg))
        _derive(GradedDerivation(dims, t - 2, images), b, out, 1)
    return _clean(out)


def apply_derivation_by_products(d: GradedDerivation, a: WeilElement) -> WeilElement:
    """``d(a)`` as ``prefix * image * suffix`` element products.

    Passing the derivation over a prefix of total degree ``t`` contributes
    the sign ``(-1)**(deg(d) * t)``.
    """
    dodd = d.total_degree % 2
    out = weil_zero(a.dims)
    for (ext, sym), coeff in a.terms.items():
        gens = [("ext", i) for i in ext] + [("sym", j) for j in sym]
        prefix_deg = 0
        for pos, (kind, idx) in enumerate(gens):
            img = d.images[idx if kind == "ext" else d.dims[0] + idx]
            if img:
                sign = -1 if (dodd and prefix_deg % 2) else 1
                pre_ext = ext[:pos] if kind == "ext" else ext
                pre_sym = () if kind == "ext" else sym[: pos - len(ext)]
                suf_ext = ext[pos + 1 :] if kind == "ext" else ()
                suf_sym = sym if kind == "ext" else sym[pos - len(ext) + 1 :]
                prefix = WeilElement(a.dims, {(pre_ext, pre_sym): 1})
                suffix = WeilElement(a.dims, {(suf_ext, suf_sym): 1})
                term = weil_mul(weil_mul(prefix, WeilElement(a.dims, img)), suffix)
                out = weil_add(out, weil_scale(sign * coeff, term))
            prefix_deg += 1 if kind == "ext" else 2
    return out


def weil_dims(cm2: CrossedModuleData) -> tuple[int, int]:
    """The Weil dims of a dual crossed module on ``[g0* -> g1*]``."""
    return (cm2.dim1, cm2.dim0)


class MonomialBracket:
    """The bracket of a dual crossed module by recursive Leibniz expansion, memoized.

    One generator is peeled off a monomial at a time: ``[g.m', b] =
    g.[m', b] + (-1)^(|m'||b|) [g, b].m'`` on the left, then ``[x, h.w'] =
    [x,h].w' + (-1)^(|x||h|) h.[x, w']`` on the right, down to a table
    entry (base bracket for two ``g``, action for a ``g`` and an ``a``),
    which is looked up by scanning the table.
    """

    def __init__(self, cm2: CrossedModuleData):
        self.cm2 = cm2
        self.dims = weil_dims(cm2)
        self.cache: dict = {}

    def _elt(self, m: Monomial) -> WeilElement:
        return WeilElement(self.dims, {m: 1})

    def table(self, g1, g2) -> WeilElement:
        """``[g1, g2]`` for generators given as ``(kind, index)``."""
        (kind1, i), (kind2, j) = g1, g2
        dims = self.dims
        if kind1 == "ext" and kind2 == "ext":
            return weil_zero(dims)
        if kind1 == "sym" and kind2 == "sym":
            return WeilElement(
                dims,
                {((), (k,)): v for (a, b, k), v in self.cm2.base.bracket.entries.items()
                 if (a, b) == (i, j)},
            )
        if kind1 == "sym":
            return WeilElement(
                dims,
                {((k,), ()): v for (a, b, k), v in self.cm2.action.entries.items()
                 if (a, b) == (i, j)},
            )
        # [a_i, g_j] = -(-1)^(1*2) [g_j, a_i] = -[g_j, a_i]
        return weil_scale(-1, self.table(g2, g1))

    def mono(self, m1: Monomial, m2: Monomial) -> WeilElement:
        key = (m1, m2)
        if key in self.cache:
            return self.cache[key]
        k1 = len(m1[0]) + len(m1[1])
        k2 = len(m2[0]) + len(m2[1])
        if k1 == 0 or k2 == 0:
            result = weil_zero(self.dims)
        elif k1 == 1 and k2 == 1:
            result = self.table(_peel(m1)[0], _peel(m2)[0])
        elif k1 > 1:
            g, rest = _peel(m1)
            g_mono = _gen_mono(*g)
            first = weil_mul(self._elt(g_mono), self.mono(rest, m2))
            sign = -1 if (total_degree(rest) * total_degree(m2)) % 2 else 1
            second = weil_mul(self.mono(g_mono, m2), self._elt(rest))
            result = weil_add(first, weil_scale(sign, second))
        else:
            h, rest2 = _peel(m2)
            h_mono = _gen_mono(*h)
            first = weil_mul(self.mono(m1, h_mono), self._elt(rest2))
            sign = -1 if (total_degree(m1) * total_degree(h_mono)) % 2 else 1
            second = weil_mul(self._elt(h_mono), self.mono(m1, rest2))
            result = weil_add(first, weil_scale(sign, second))
        self.cache[key] = result
        return result

    def bracket(self, a: WeilElement, b: WeilElement) -> WeilElement:
        out = weil_zero(self.dims)
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                out = weil_add(out, weil_scale(c1 * c2, self.mono(m1, m2)))
        return out


def _gen_mono(kind: str, idx: int) -> Monomial:
    return ((idx,), ()) if kind == "ext" else ((), (idx,))


def _peel(m: Monomial):
    """Split off the first generator in canonical order."""
    ext, sym = m
    if ext:
        return ("ext", ext[0]), (ext[1:], sym)
    return ("sym", sym[0]), ((), sym[1:])


def gerst_bracket_by_sums(G: CrossedModuleData, a: WeilElement, b: WeilElement) -> WeilElement:
    """``[a, b]`` as a sum of scaled recursive monomial brackets."""
    return MonomialBracket(G).bracket(a, b)


def enumerate_monomials(dims, degree_bound: int):
    """All monomials of total degree <= degree_bound, in a fixed order."""
    n0, n1 = dims
    out = []
    for r in range(min(n0, degree_bound) + 1):
        for ext in itertools.combinations(range(n0), r):
            for s in range((degree_bound - r) // 2 + 1):
                for sym in itertools.combinations_with_replacement(range(n1), s):
                    out.append((ext, sym))
    out.sort(key=_sort_key)
    return out


def generators(dims):
    """The generators ``a0..a{n0-1}, g0..g{n1-1}``, in monomial sort order."""
    n0, n1 = dims
    return [((i,), ()) for i in range(n0)] + [((), (j,)) for j in range(n1)]


def _elt(G: CrossedModuleData, m: Monomial) -> WeilElement:
    return WeilElement(weil_dims(G), {m: 1})


def gerst_axioms_over(G: CrossedModuleData, monos, degree_bound: int) -> VerificationReport:
    """Graded skew-symmetry, Jacobi and Leibniz on sorted tuples of ``monos``.

    Leibniz takes the products of total degree at most ``degree_bound``.
    """
    B = MonomialBracket(G)

    skew_witness = None
    for m1, m2 in itertools.combinations_with_replacement(monos, 2):
        lhs = B.mono(m1, m2)
        sign = -1 if (total_degree(m1) * total_degree(m2)) % 2 else 1
        rhs = weil_scale(-sign, B.mono(m2, m1))
        if lhs != rhs and skew_witness is None:
            skew_witness = Witness(
                (), _render(lhs.terms), _render(rhs.terms), at=f"({render(m1)}, {render(m2)})"
            )

    jacobi_witness = None
    for m1, m2, m3 in itertools.combinations_with_replacement(monos, 3):
        lhs = B.bracket(_elt(G, m1), B.mono(m2, m3))
        rhs = B.bracket(B.mono(m1, m2), _elt(G, m3))
        sign = -1 if (total_degree(m1) * total_degree(m2)) % 2 else 1
        rhs = weil_add(rhs, weil_scale(sign, B.bracket(_elt(G, m2), B.mono(m1, m3))))
        if lhs != rhs and jacobi_witness is None:
            jacobi_witness = Witness(
                (),
                _render(lhs.terms),
                _render(rhs.terms),
                at=f"({render(m1)}, {render(m2)}, {render(m3)})",
            )

    leibniz_witness = None
    for m1 in monos:
        for m2, m3 in itertools.combinations_with_replacement(monos, 2):
            if total_degree(m2) + total_degree(m3) > degree_bound:
                continue
            prod = weil_mul(_elt(G, m2), _elt(G, m3))
            lhs = B.bracket(_elt(G, m1), prod)
            rhs = weil_mul(B.mono(m1, m2), _elt(G, m3))
            sign = -1 if (total_degree(m1) * total_degree(m2)) % 2 else 1
            rhs = weil_add(rhs, weil_scale(sign, weil_mul(_elt(G, m2), B.mono(m1, m3))))
            if lhs != rhs and leibniz_witness is None:
                leibniz_witness = Witness(
                    (),
                    _render(lhs.terms),
                    _render(rhs.terms),
                    at=f"({render(m1)}; {render(m2)}, {render(m3)})",
                )

    return VerificationReport(
        (
            Check("skew", skew_witness is None, skew_witness),
            Check("jacobi", jacobi_witness is None, jacobi_witness),
            Check("leibniz", leibniz_witness is None, leibniz_witness),
        )
    )


def check_gerst_axioms_bounded(G: CrossedModuleData, degree_bound: int) -> VerificationReport:
    """The axioms on every monomial up to a total-degree bound."""
    return gerst_axioms_over(G, enumerate_monomials(weil_dims(G), degree_bound), degree_bound)


def check_gerst_axioms_on_generators(G: CrossedModuleData) -> VerificationReport:
    """The axioms on generator tuples, as `l2b.weil.check_gerst_axioms` decides them."""
    return gerst_axioms_over(G, generators(weil_dims(G)), 4)


def derivation_of_bracket_over(
    d: GradedDerivation, G: CrossedModuleData, monos
) -> VerificationReport:
    """d[x,y] = [d x, y] + (-1)^|x| [x, d y] on generator pairs and on sorted pairs of ``monos``."""
    B = MonomialBracket(G)

    def defect(m1: Monomial, m2: Monomial) -> WeilElement:
        e1, e2 = _elt(G, m1), _elt(G, m2)
        lhs = apply_derivation_by_products(d, B.mono(m1, m2))
        rhs = B.bracket(apply_derivation_by_products(d, e1), e2)
        sign = -1 if total_degree(m1) % 2 else 1
        rhs = weil_add(rhs, weil_scale(sign, B.bracket(e1, apply_derivation_by_products(d, e2))))
        return weil_sub(lhs, rhs)

    gens = generators(weil_dims(G))
    gen_witness = None
    for m1, m2 in itertools.product(gens, gens):
        dft = defect(m1, m2)
        if dft.terms and gen_witness is None:
            gen_witness = Witness((), _render(dft.terms), "0", at=f"({render(m1)}, {render(m2)})")

    mono_witness = None
    for m1, m2 in itertools.combinations_with_replacement(monos, 2):
        dft = defect(m1, m2)
        if dft.terms and mono_witness is None:
            mono_witness = Witness((), _render(dft.terms), "0", at=f"({render(m1)}, {render(m2)})")

    return VerificationReport(
        (
            Check("generator_pairs", gen_witness is None, gen_witness),
            Check("monomial_pairs", mono_witness is None, mono_witness),
        )
    )


def check_derivation_of_bracket_bounded(
    d: GradedDerivation, G: CrossedModuleData, degree_bound: int
) -> VerificationReport:
    """The derivation property on every monomial pair up to a total-degree bound."""
    return derivation_of_bracket_over(d, G, enumerate_monomials(weil_dims(G), degree_bound))


def check_derivation_of_bracket_on_generators(
    d: GradedDerivation, G: CrossedModuleData
) -> VerificationReport:
    """The derivation property on generator pairs, as
    `l2b.weil.check_derivation_of_bracket` decides it."""
    return derivation_of_bracket_over(d, G, generators(weil_dims(G)))


def random_table_and_derivation(rng):
    """A dual crossed module with dims 0-3 and an odd derivation on its Weil algebra.

    The dual crossed module is a candidate of
    `crossed_module_oracle.random_candidate`: half are a Lie algebra acting
    on itself, with an entry perturbed now and then, the rest random
    antisymmetric tables, so Jacobi both holds and fails.  The derivation
    has total degree -1 or 1 and is zero, ``ad_{a_i}`` of the table by
    `MonomialBracket` (a derivation of the bracket whenever Jacobi holds), or
    random images.
    """
    G, _ = random_candidate(rng)
    dims = n0, n1 = weil_dims(G)
    kind = rng.choice(("zero", "ad", "random", "random"))
    if kind == "ad" and n0:
        i = rng.randrange(n0)
        sym = tuple(MonomialBracket(G).table(("ext", i), ("sym", j)).terms for j in range(n1))
        return G, derivation(dims, -1, ({},) * n0, sym)
    degree = rng.choice((-1, 1))
    monos = enumerate_monomials(dims, 2 + degree)

    def image(gen_degree: int) -> dict:
        of_degree = [m for m in monos if total_degree(m) == gen_degree + degree]
        if kind == "zero" or not of_degree:
            return {}
        return {rng.choice(of_degree): rng.choice(_VALUES) for _ in range(rng.randrange(3))}

    ext = tuple(image(1) for _ in range(n0))
    sym = tuple(image(2) for _ in range(n1))
    return G, derivation(dims, degree, ext, sym)
