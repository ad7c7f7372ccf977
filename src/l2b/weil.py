"""Bigraded Weil-algebra calculus for two-term data.

For side dimension ``n0`` and core dimension ``n1`` the algebra is the
super-commutative product of an exterior algebra on odd generators
``a0..a{n0-1}`` (the dual side basis, bidegree (1,0)) and a symmetric
algebra on even generators ``g0..g{n1-1}`` (the dual core basis, bidegree
(1,1)).  Total degree of a bidegree ``(p, q)`` element is ``p + q``, so a
monomial with ``r`` exterior and ``s`` symmetric factors has bidegree
``(r + s, s)`` and total degree ``r + 2s``.

Sign conventions (calibrated so that the crossed-module conditions are
exactly equivalent to ``delta_h^2 = 0``, ``delta_v^2 = 0`` and the
vanishing graded commutator ``[delta_h, delta_v] = 0``):

* ``delta_v`` extends the transpose of the structure map:
  ``delta_v(a_i) = sum_b partial[i, b] g_b``, ``delta_v(g_b) = 0``;
* ``delta_h(a_l) = - sum_{p<q} c^l_{pq} a_p a_q`` and
  ``delta_h(g_b) = - sum_{i,j} act^b_{ij} a_i g_j``
  (Chevalley-Eilenberg convention);
* ``delta_J(g_b) = - sum_{i<j<k} l3^b_{ijk} a_i a_j a_k``, ``delta_J(a) = 0``.

The bidegree (-1,-1) bracket induced by dual crossed-module data uses the
table ``[g_i, g_j] = dual bracket``, ``[g_i, a_j] = dual action``,
``[a_i, a_j] = 0`` with graded skew ``[x,y] = -(-1)^{|x||y|}[y,x]`` and
Leibniz ``[x, y.z] = [x,y].z + (-1)^{|x||y|} y.[x,z]`` in total degree
(legitimate because the bracket's total degree -2 is even).

Validation happens at the public constructors: `WeilMonomial` checks that
its index tuples are sorted and `WeilElement` that every monomial is in
range, wrapping coefficients in `Fraction` and dropping zeros.  Products,
sums, scalings, brackets and derivation images are built by the trusted
`_trusted` constructors, since they combine monomials and `Fraction`
coefficients of valid operands of the same dims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import SparseTensor, DimensionMismatch, asymmetric_entries, format_rational
from .liecore import Check, VerificationReport, Witness, combine
from .twoterm import CrossedModuleData, WeakLie2Data

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class WeilMonomial:
    ext: tuple[int, ...]  # strictly increasing
    sym: tuple[int, ...]  # non-decreasing

    def __post_init__(self):
        ext = tuple(int(i) for i in self.ext)
        sym = tuple(int(i) for i in self.sym)
        if any(ext[i] >= ext[i + 1] for i in range(len(ext) - 1)):
            raise ValueError(f"exterior indices not strictly increasing: {ext}")
        if any(sym[i] > sym[i + 1] for i in range(len(sym) - 1)):
            raise ValueError(f"symmetric indices not sorted: {sym}")
        object.__setattr__(self, "ext", ext)
        object.__setattr__(self, "sym", sym)

    @classmethod
    def _trusted(cls, ext: tuple[int, ...], sym: tuple[int, ...]) -> "WeilMonomial":
        """A monomial from already sorted int tuples, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "ext", ext)
        object.__setattr__(m, "sym", sym)
        return m

    @property
    def bidegree(self) -> tuple[int, int]:
        return (len(self.ext) + len(self.sym), len(self.sym))

    @property
    def total_degree(self) -> int:
        return len(self.ext) + 2 * len(self.sym)

    def sort_key(self):
        return (self.total_degree, self.ext, self.sym)

    def render(self) -> str:
        if not self.ext and not self.sym:
            return "1"
        return "*".join(
            [f"a{i}" for i in self.ext] + [f"g{j}" for j in self.sym]
        )


ONE = WeilMonomial((), ())


@dataclass(frozen=True)
class WeilElement:
    """A zero-free map from monomials to `Fraction` coefficients.

    The constructor validates its arguments; results of the kernel
    operations are built by `_trusted`, which skips that work.
    """

    dims: tuple[int, int]
    terms: dict[WeilMonomial, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        n0, n1 = self.dims
        clean = {}
        for mono, coeff in self.terms.items():
            if any(not 0 <= i < n0 for i in mono.ext) or any(
                not 0 <= j < n1 for j in mono.sym
            ):
                raise ValueError(f"monomial {mono.render()} out of range for {self.dims}")
            q = Fraction(coeff)
            if q:
                clean[mono] = q
        object.__setattr__(self, "dims", (int(n0), int(n1)))
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, dims: tuple[int, int], terms: dict) -> "WeilElement":
        """An element from in-range monomials to nonzero `Fraction`s, unchecked."""
        e = object.__new__(cls)
        object.__setattr__(e, "dims", dims)
        object.__setattr__(e, "terms", terms)
        return e

    def is_zero(self) -> bool:
        return not self.terms

    def bidegree(self) -> tuple[int, int] | None:
        """The common bidegree of all terms, or None if mixed or zero."""
        degs = {m.bidegree for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=WeilMonomial.sort_key):
            parts.append(f"({format_rational(self.terms[mono])})*{mono.render()}")
        return " + ".join(parts)


def weil_zero(dims) -> WeilElement:
    return WeilElement(tuple(dims), {})


def weil_one(dims) -> WeilElement:
    return WeilElement(tuple(dims), {ONE: Fraction(1)})


def weil_alpha(dims, i: int) -> WeilElement:
    return WeilElement(tuple(dims), {WeilMonomial((i,), ()): Fraction(1)})


def weil_gamma(dims, j: int) -> WeilElement:
    return WeilElement(tuple(dims), {WeilMonomial((), (j,)): Fraction(1)})


def _nonzero(dims, terms: dict) -> WeilElement:
    """The trusted element of the nonzero ``terms``."""
    return WeilElement._trusted(dims, {m: c for m, c in terms.items() if c})


def weil_add(a: WeilElement, b: WeilElement) -> WeilElement:
    if a.dims != b.dims:
        raise DimensionMismatch(f"{a.dims} vs {b.dims}")
    out = dict(a.terms)
    for mono, coeff in b.terms.items():
        out[mono] = out.get(mono, _ZERO) + coeff
    return _nonzero(a.dims, out)


def weil_sub(a: WeilElement, b: WeilElement) -> WeilElement:
    return weil_add(a, weil_scale(Fraction(-1), b))


def weil_scale(c, a: WeilElement) -> WeilElement:
    c = Fraction(c)
    if not c:
        return WeilElement._trusted(a.dims, {})
    return WeilElement._trusted(a.dims, {m: c * v for m, v in a.terms.items()})


def _merge_ext(e1: tuple[int, ...], e2: tuple[int, ...]):
    """Merge two increasing index tuples; returns (sign, merged) or None on repetition."""
    if set(e1) & set(e2):
        return None
    inversions = sum(1 for x in e1 for y in e2 if x > y)
    merged = tuple(sorted(e1 + e2))
    return (-1 if inversions % 2 else 1, merged)


def mono_mul(m1: WeilMonomial, m2: WeilMonomial):
    """Product of two monomials: (sign, monomial) or None if it vanishes."""
    if not m2.ext:
        sign, ext = 1, m1.ext
    elif not m1.ext:
        sign, ext = 1, m2.ext
    else:
        merged = _merge_ext(m1.ext, m2.ext)
        if merged is None:
            return None
        sign, ext = merged
    if not m2.sym:
        sym = m1.sym
    elif not m1.sym:
        sym = m2.sym
    else:
        sym = tuple(sorted(m1.sym + m2.sym))
    return sign, WeilMonomial._trusted(ext, sym)


def weil_mul(a: WeilElement, b: WeilElement) -> WeilElement:
    if a.dims != b.dims:
        raise DimensionMismatch(f"{a.dims} vs {b.dims}")
    out: dict[WeilMonomial, Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            prod = mono_mul(m1, m2)
            if prod is None:
                continue
            sign, mono = prod
            c = c1 * c2
            out[mono] = out.get(mono, _ZERO) + (c if sign > 0 else -c)
    return _nonzero(a.dims, out)


def _generators(dims) -> list[WeilMonomial]:
    """The generators ``a0..a{n0-1}, g0..g{n1-1}``, in monomial sort order.

    Under `WeilMonomial.sort_key` every generator sorts before every
    product of two or more generators (``a_i a_j`` has the same total degree
    as ``g_k`` but a non-empty exterior part).
    """
    n0, n1 = dims
    return [WeilMonomial((i,), ()) for i in range(n0)] + [
        WeilMonomial((), (j,)) for j in range(n1)
    ]


# --- graded derivations -------------------------------------------------------


@dataclass(frozen=True)
class GradedDerivation:
    """A derivation given by its images on the algebra generators.

    Homogeneous derivations carry their bidegree; sums of different
    bidegrees (such as a total differential) carry ``bidegree=None`` and an
    explicit total degree.  Images extend to the whole algebra lazily by
    the graded Leibniz rule.
    """

    dims: tuple[int, int]
    bidegree: tuple[int, int] | None
    ext_images: tuple[WeilElement, ...]
    sym_images: tuple[WeilElement, ...]
    total_degree: int | None = None

    def __post_init__(self):
        n0, n1 = self.dims
        if len(self.ext_images) != n0 or len(self.sym_images) != n1:
            raise DimensionMismatch(
                f"generator image count {(len(self.ext_images), len(self.sym_images))} "
                f"does not match dims {self.dims}"
            )
        if self.bidegree is not None:
            p, q = self.bidegree
            object.__setattr__(self, "total_degree", p + q)
            for gen_bid, images in (((1, 0), self.ext_images), ((1, 1), self.sym_images)):
                want = (gen_bid[0] + p, gen_bid[1] + q)
                for img in images:
                    got = img.bidegree()
                    if not img.is_zero() and got != want:
                        raise ValueError(
                            f"image bidegree {got} does not match expected {want}"
                        )
        else:
            if self.total_degree is None:
                raise ValueError("non-homogeneous derivation needs a total degree")
            for gen_deg, images in ((1, self.ext_images), (2, self.sym_images)):
                for img in images:
                    for mono in img.terms:
                        if mono.total_degree != gen_deg + self.total_degree:
                            raise ValueError(
                                "image total degree inconsistent with derivation degree"
                            )


def apply_derivation(d: GradedDerivation, a: WeilElement) -> WeilElement:
    """Extend the generator images by the graded Leibniz rule.

    The generator at each position of a monomial is replaced by its image,
    multiplied between the prefix before it and the suffix after it.
    Passing the derivation over a prefix of total degree ``t`` contributes
    the sign ``(-1)**(deg(d) * t)``; only exterior generators have odd
    degree, so ``t`` is odd exactly when the exterior part of the prefix
    has odd length.
    """
    if d.dims != a.dims:
        raise DimensionMismatch(f"{d.dims} vs {a.dims}")
    dodd = d.total_degree % 2
    trusted = WeilMonomial._trusted
    out: dict[WeilMonomial, Fraction] = {}

    def put(coeff: Fraction, prefix: WeilMonomial, img: WeilElement, suffix: WeilMonomial):
        for im, ic in img.terms.items():
            left = mono_mul(prefix, im)
            if left is None:
                continue
            right = mono_mul(left[1], suffix)
            if right is None:
                continue
            c = coeff * ic
            out[right[1]] = out.get(right[1], _ZERO) + (c if left[0] * right[0] > 0 else -c)

    for mono, coeff in a.terms.items():
        ext, sym = mono.ext, mono.sym
        for pos, i in enumerate(ext):
            img = d.ext_images[i]
            if img.terms:
                c = -coeff if (dodd and pos % 2) else coeff
                put(c, trusted(ext[:pos], ()), img, trusted(ext[pos + 1 :], sym))
        c = -coeff if (dodd and len(ext) % 2) else coeff
        for pos, j in enumerate(sym):
            img = d.sym_images[j]
            if img.terms:
                put(c, trusted(ext, sym[:pos]), img, trusted((), sym[pos + 1 :]))
    return _nonzero(a.dims, out)


def derivation_sum(d1: GradedDerivation, d2: GradedDerivation) -> GradedDerivation:
    if d1.dims != d2.dims:
        raise DimensionMismatch(f"{d1.dims} vs {d2.dims}")
    if d1.total_degree != d2.total_degree:
        raise ValueError("cannot sum derivations of different total degree")
    bid = d1.bidegree if d1.bidegree == d2.bidegree else None
    return GradedDerivation(
        d1.dims,
        bid,
        tuple(weil_add(x, y) for x, y in zip(d1.ext_images, d2.ext_images)),
        tuple(weil_add(x, y) for x, y in zip(d1.sym_images, d2.sym_images)),
        total_degree=d1.total_degree,
    )


def graded_commutator(d1: GradedDerivation, d2: GradedDerivation) -> GradedDerivation:
    """d1 d2 - (-1)^(|d1||d2|) d2 d1, computed on generators."""
    if d1.dims != d2.dims:
        raise DimensionMismatch(f"{d1.dims} vs {d2.dims}")
    sign = -1 if (d1.total_degree * d2.total_degree) % 2 else 1

    def comm_on(img2: WeilElement, img1: WeilElement) -> WeilElement:
        return weil_sub(apply_derivation(d1, img2), weil_scale(sign, apply_derivation(d2, img1)))

    ext = tuple(map(comm_on, d2.ext_images, d1.ext_images))
    sym = tuple(map(comm_on, d2.sym_images, d1.sym_images))
    if d1.bidegree is not None and d2.bidegree is not None:
        bid = (d1.bidegree[0] + d2.bidegree[0], d1.bidegree[1] + d2.bidegree[1])
        return GradedDerivation(d1.dims, bid, ext, sym)
    return GradedDerivation(
        d1.dims, None, ext, sym, total_degree=d1.total_degree + d2.total_degree
    )


def check_zero_on_generators(d: GradedDerivation, prefix: str) -> VerificationReport:
    """Two checks ({prefix}.side / {prefix}.core): d vanishes on each generator family."""
    side_witness = None
    for i, img in enumerate(d.ext_images):
        if not img.is_zero() and side_witness is None:
            side_witness = Witness((i,), img.render(), "0", at=f"a{i}")
    core_witness = None
    for j, img in enumerate(d.sym_images):
        if not img.is_zero() and core_witness is None:
            core_witness = Witness((j,), img.render(), "0", at=f"g{j}")
    return VerificationReport(
        (
            Check(f"{prefix}.side", side_witness is None, side_witness),
            Check(f"{prefix}.core", core_witness is None, core_witness),
        )
    )


def _square(d: GradedDerivation) -> GradedDerivation:
    """``d o d`` on the generators; for odd ``d`` it is the derivation ``[d, d] / 2``."""
    return GradedDerivation(
        d.dims,
        None,
        tuple(apply_derivation(d, img) for img in d.ext_images),
        tuple(apply_derivation(d, img) for img in d.sym_images),
        total_degree=2 * d.total_degree,
    )


def check_square_zero(d: GradedDerivation) -> VerificationReport:
    """d(d(gen)) = 0 for every generator; only odd derivations can square to zero."""
    if d.total_degree % 2 == 0:
        raise ValueError("square-zero check requires an odd derivation")
    return check_zero_on_generators(_square(d), "square_zero")


# --- the three differentials --------------------------------------------------


def build_delta_v(partial: SparseTensor) -> GradedDerivation:
    """The bidegree (0,1) differential extending the transpose of a structure map.

    ``partial`` stores ``(a, b) -> coefficient of e_a in partial(f_b)``.
    """
    dims = partial.dims
    rows: list[dict[WeilMonomial, Fraction]] = [{} for _ in range(dims[0])]
    for (a, b), v in partial.items_sorted():
        rows[a][WeilMonomial((), (b,))] = v
    ext = [WeilElement(dims, terms) for terms in rows]
    sym = tuple(weil_zero(dims) for _ in range(dims[1]))
    return GradedDerivation(dims, (0, 1), tuple(ext), sym)


def build_delta_h(bracket0: SparseTensor, action: SparseTensor) -> GradedDerivation:
    """The bidegree (1,0) differential dual to a bracket and an action.

    ``delta_h(a_l)`` evaluates on ``x^y`` to ``-a_l([x,y])``;
    ``delta_h(g_b)`` evaluates on ``x (x) c`` to ``-g_b(x.c)``.
    """
    n0 = bracket0.dims[0]
    if bracket0.dims != (n0, n0, n0):
        raise DimensionMismatch(f"bracket dims {bracket0.dims}")
    n1 = action.dims[1]
    if action.dims != (n0, n1, n1):
        raise DimensionMismatch(
            f"action dims {action.dims}, expected {(n0, n1, n1)}"
        )
    if (bad := next(asymmetric_entries(bracket0, (0, 1)), None)) is not None:
        raise ValueError(f"bracket tensor not antisymmetric at {bad}")
    dims = (n0, n1)
    ext: list[dict[WeilMonomial, Fraction]] = [{} for _ in range(n0)]
    for (p, q, k), v in bracket0.entries.items():
        if p < q:
            ext[k][WeilMonomial((p, q), ())] = -v
    sym: list[dict[WeilMonomial, Fraction]] = [{} for _ in range(n1)]
    for (i, j, k), v in action.entries.items():
        sym[k][WeilMonomial((i,), (j,))] = -v
    ext_images = tuple(WeilElement(dims, terms) for terms in ext)
    sym_images = tuple(WeilElement(dims, terms) for terms in sym)
    return GradedDerivation(dims, (1, 0), ext_images, sym_images)


def build_delta_j(l3: SparseTensor) -> GradedDerivation:
    """The bidegree (2,-1) component dual to a Jacobiator l3: wedge^3 g0 -> g1."""
    n0 = l3.dims[0]
    n1 = l3.dims[3]
    if l3.dims != (n0, n0, n0, n1):
        raise DimensionMismatch(f"jacobiator dims {l3.dims}")
    if (bad := next(asymmetric_entries(l3, (0, 1, 2)), None)) is not None:
        raise ValueError(f"jacobiator not antisymmetric at {bad}")
    dims = (n0, n1)
    ext = tuple(weil_zero(dims) for _ in range(n0))
    sym: list[dict[WeilMonomial, Fraction]] = [{} for _ in range(n1)]
    for (i, j, k, b), v in l3.entries.items():
        if i < j < k:
            sym[b][WeilMonomial((i, j, k), ())] = -v
    return GradedDerivation(dims, (2, -1), ext, tuple(WeilElement(dims, t) for t in sym))


def square_components(*ds: GradedDerivation) -> dict[tuple[int, int], GradedDerivation]:
    """The square of a sum of odd homogeneous derivations on generators, by bidegree.

    Each ``d_i^2`` and ``[d_i, d_j]`` (``i < j``) adds to the component of
    its bidegree; for ``delta_v + delta_h + delta_J`` these are (0,2),
    (1,1), (2,0) = [delta_v, delta_J] + delta_h^2, (3,-1) and (4,-2).
    """
    square: dict[tuple[int, int], GradedDerivation] = {}
    for i, d1 in enumerate(ds):
        for j, d2 in enumerate(ds[i:], i):
            term = _square(d1) if i == j else graded_commutator(d1, d2)
            bid = (d1.bidegree[0] + d2.bidegree[0], d1.bidegree[1] + d2.bidegree[1])
            square[bid] = derivation_sum(square[bid], term) if bid in square else term
    return square


def check_cm_square(dv: GradedDerivation, dh: GradedDerivation) -> VerificationReport:
    """The crossed-module checks, read from the square of ``delta_v + delta_h``.

    Its components (2,0) = delta_h^2, (0,2) = delta_v^2 and (1,1), each
    checked per generator family.  Componentwise this is equivalent to
    `twoterm.verify_cm`: Jacobi is ``delta_h.square_zero.side``, the
    representation property is ``delta_h.square_zero.core``, equivariance
    is ``commute.side`` and the skew pairing condition is ``commute.core``.
    """
    square = square_components(dv, dh)
    return combine(
        check_zero_on_generators(square[(2, 0)], "delta_h.square_zero"),
        check_zero_on_generators(square[(0, 2)], "delta_v.square_zero"),
        check_zero_on_generators(square[(1, 1)], "commute"),
    )


def verify_cm_via_weil(cm: CrossedModuleData) -> VerificationReport:
    """The differential-calculus characterization of the crossed-module checks."""
    return check_cm_square(
        build_delta_v(cm.tvs.partial), build_delta_h(cm.base.bracket, cm.action)
    )


def verify_weak_lie2(w: WeakLie2Data) -> VerificationReport:
    """Square-zero test for the total differential of two-term homotopy data.

    Each bidegree component of `square_components` is one check, which
    fails with its first failing generator.  With a vanishing Jacobiator
    this agrees with `twoterm.verify_cm` on the same data.
    """
    square = square_components(
        build_delta_v(w.partial),
        build_delta_h(w.bracket0, w.action),
        build_delta_j(w.jacobiator),
    )
    checks = []
    for (p, q), comp in sorted(square.items()):
        cond = f"square({p},{q})"
        rep = check_zero_on_generators(comp, cond)
        witness = next((c.witness for c in rep.checks if not c.passed), None)
        checks.append(Check(cond, rep.passed, witness))
    return VerificationReport(tuple(checks))


# --- the bidegree (-1,-1) bracket ----------------------------------------------


@dataclass(frozen=True)
class GerstenhaberStructure:
    """Generator table of the bidegree (-1,-1) bracket on the Weil algebra.

    ``core_bracket`` stores ``[g_i, g_j]`` (a core-generator-valued tensor,
    antisymmetric), ``side_action`` stores ``[g_i, a_j]`` (side-generator
    valued); ``[a_i, a_j] = 0`` is forced since its bidegree would have a
    negative symmetric component.  The antisymmetry is checked here, so the
    bracket is graded skew, which the generator-level checks rely on.
    """

    dims: tuple[int, int]
    core_bracket: SparseTensor  # (i, j, k): coefficient of g_k in [g_i, g_j]
    side_action: SparseTensor  # (i, j, k): coefficient of a_k in [g_i, a_j]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        n0, n1 = self.dims
        if self.core_bracket.dims != (n1, n1, n1):
            raise DimensionMismatch(
                f"core bracket dims {self.core_bracket.dims}, expected {(n1, n1, n1)}"
            )
        if self.side_action.dims != (n1, n0, n0):
            raise DimensionMismatch(
                f"side action dims {self.side_action.dims}, expected {(n1, n0, n0)}"
            )
        if (bad := next(asymmetric_entries(self.core_bracket, (0, 1)), None)) is not None:
            raise ValueError(f"bracket tensor not antisymmetric at {bad}")


def build_gerstenhaber(cm2: CrossedModuleData) -> GerstenhaberStructure:
    """Bracket table from crossed-module candidate data on the dual spaces.

    ``cm2`` lives on the dual 2-vector space: its base algebra is the dual
    core (bracket of the ``g`` generators), its action is of the dual core
    on the dual side (bracket of a ``g`` with an ``a``).
    """
    n1 = cm2.tvs.dim0
    n0 = cm2.tvs.dim1
    return GerstenhaberStructure((n0, n1), cm2.base.bracket, cm2.action)


def _gen_mono(kind: str, idx: int) -> WeilMonomial:
    if kind == "ext":
        return WeilMonomial._trusted((idx,), ())
    return WeilMonomial._trusted((), (idx,))


def _peel(m: WeilMonomial):
    """Split off the first generator in canonical order."""
    if m.ext:
        return ("ext", m.ext[0]), WeilMonomial._trusted(m.ext[1:], m.sym)
    return ("sym", m.sym[0]), WeilMonomial._trusted((), m.sym[1:])


def _table_bracket(G: GerstenhaberStructure, g1, g2) -> WeilElement:
    kind1, i = g1
    kind2, j = g2
    dims = G.dims
    if kind1 == "ext" and kind2 == "ext":
        return WeilElement._trusted(dims, {})
    if kind1 == "sym" and kind2 == "sym":
        terms = {}
        for (a, b, k), v in G.core_bracket.entries.items():
            if a == i and b == j:
                terms[WeilMonomial._trusted((), (k,))] = v
        return WeilElement._trusted(dims, terms)
    if kind1 == "sym":
        terms = {}
        for (a, b, k), v in G.side_action.entries.items():
            if a == i and b == j:
                terms[WeilMonomial._trusted((k,), ())] = v
        return WeilElement._trusted(dims, terms)
    # [a_i, g_j] = -(-1)^(1*2) [g_j, a_i] = -[g_j, a_i]
    return weil_scale(-1, _table_bracket(G, g2, g1))


def _mono_bracket(G: GerstenhaberStructure, m1: WeilMonomial, m2: WeilMonomial) -> WeilElement:
    key = (m1, m2)
    cached = G._cache.get(key)
    if cached is not None:
        return cached
    k1 = len(m1.ext) + len(m1.sym)
    k2 = len(m2.ext) + len(m2.sym)
    if k1 == 0 or k2 == 0:
        result = WeilElement._trusted(G.dims, {})
    elif k1 == 1 and k2 == 1:
        result = _table_bracket(
            G,
            ("ext", m1.ext[0]) if m1.ext else ("sym", m1.sym[0]),
            ("ext", m2.ext[0]) if m2.ext else ("sym", m2.sym[0]),
        )
    elif k1 > 1:
        # [g.m', b] = g.[m', b] + (-1)^(|m'||b|) [g, b].m'
        g, rest = _peel(m1)
        g_mono = _gen_mono(*g)
        first = weil_mul(_mono_elt(G, g_mono), _mono_bracket(G, rest, m2))
        sign = -1 if (rest.total_degree * m2.total_degree) % 2 else 1
        second = weil_mul(_mono_bracket(G, g_mono, m2), _mono_elt(G, rest))
        result = weil_add(first, weil_scale(sign, second))
    else:
        # [x, h.w'] = [x,h].w' + (-1)^(|x||h|) h.[x, w']
        h, rest2 = _peel(m2)
        h_mono = _gen_mono(*h)
        first = weil_mul(_mono_bracket(G, m1, h_mono), _mono_elt(G, rest2))
        sign = -1 if (m1.total_degree * h_mono.total_degree) % 2 else 1
        second = weil_mul(_mono_elt(G, h_mono), _mono_bracket(G, m1, rest2))
        result = weil_add(first, weil_scale(sign, second))
    G._cache[key] = result
    return result


def gerst_bracket(G: GerstenhaberStructure, a: WeilElement, b: WeilElement) -> WeilElement:
    """Bilinear recursive Leibniz evaluation of the bracket on two elements."""
    if a.dims != G.dims or b.dims != G.dims:
        raise DimensionMismatch(f"{a.dims}/{b.dims} vs structure dims {G.dims}")
    out: dict[WeilMonomial, Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c = c1 * c2
            for mono, v in _mono_bracket(G, m1, m2).terms.items():
                out[mono] = out.get(mono, _ZERO) + c * v
    return _nonzero(G.dims, out)


def _mono_elt(G: GerstenhaberStructure, m: WeilMonomial) -> WeilElement:
    """The element ``1 * m`` for a monomial ``m`` in range for ``G.dims``."""
    return WeilElement._trusted(G.dims, {m: _ONE})


def check_gerst_axioms(G: GerstenhaberStructure) -> VerificationReport:
    """Graded skew-symmetry, Jacobi and Leibniz, decided on generators.

    The bracket is the Leibniz extension of the generator table, so it is
    a biderivation by construction, and it is skew because the table is
    (see `GerstenhaberStructure`); skew and Leibniz are checked on
    generators all the same.  The Jacobiator of a skew biderivation is a
    graded-antisymmetric triderivation, so it vanishes on all monomials iff
    it vanishes on sorted generator triples.  Generators sort before every
    product, and a failing tuple with a product in it stays failing, up to
    order, when the product is replaced by a suitable one of its factors,
    which sorts earlier; so the first failing sorted generator tuple is
    also the first failing sorted monomial tuple.
    """
    gens = _generators(G.dims)

    skew_witness = None
    for m1, m2 in itertools.combinations_with_replacement(gens, 2):
        lhs = _mono_bracket(G, m1, m2)
        sign = -1 if (m1.total_degree * m2.total_degree) % 2 else 1
        rhs = weil_scale(-sign, _mono_bracket(G, m2, m1))
        if lhs != rhs:
            skew_witness = Witness(
                (), lhs.render(), rhs.render(), at=f"({m1.render()}, {m2.render()})"
            )
            break

    jacobi_witness = None
    for m1, m2, m3 in itertools.combinations_with_replacement(gens, 3):
        lhs = gerst_bracket(G, _mono_elt(G, m1), _mono_bracket(G, m2, m3))
        rhs = gerst_bracket(G, _mono_bracket(G, m1, m2), _mono_elt(G, m3))
        sign = -1 if (m1.total_degree * m2.total_degree) % 2 else 1
        rhs = weil_add(
            rhs,
            weil_scale(sign, gerst_bracket(G, _mono_elt(G, m2), _mono_bracket(G, m1, m3))),
        )
        if lhs != rhs:
            jacobi_witness = Witness(
                (),
                lhs.render(),
                rhs.render(),
                at=f"({m1.render()}, {m2.render()}, {m3.render()})",
            )
            break

    leibniz_witness = None
    for m1, (m2, m3) in itertools.product(
        gens, itertools.combinations_with_replacement(gens, 2)
    ):
        prod = weil_mul(_mono_elt(G, m2), _mono_elt(G, m3))
        lhs = gerst_bracket(G, _mono_elt(G, m1), prod)
        rhs = weil_mul(_mono_bracket(G, m1, m2), _mono_elt(G, m3))
        sign = -1 if (m1.total_degree * m2.total_degree) % 2 else 1
        rhs = weil_add(
            rhs, weil_scale(sign, weil_mul(_mono_elt(G, m2), _mono_bracket(G, m1, m3)))
        )
        if lhs != rhs:
            leibniz_witness = Witness(
                (),
                lhs.render(),
                rhs.render(),
                at=f"({m1.render()}; {m2.render()}, {m3.render()})",
            )
            break

    return VerificationReport(
        (
            Check("skew", skew_witness is None, skew_witness),
            Check("jacobi", jacobi_witness is None, jacobi_witness),
            Check("leibniz", leibniz_witness is None, leibniz_witness),
        )
    )


def check_derivation_of_bracket(
    d: GradedDerivation, G: GerstenhaberStructure
) -> VerificationReport:
    """Check d[x,y] = [d x, y] + (-1)^|x| [x, d y], decided on generators.

    The defect is a biderivation (``[d, ad_x] - ad_{dx}`` in each argument),
    so it vanishes on all monomials iff it vanishes on generator pairs, and
    it is graded-skew because the bracket is.  ``generator_pairs`` reports
    the first failing ordered generator pair, ``monomial_pairs`` the first
    failing sorted one, which is also the first failing sorted monomial pair
    (the argument of `check_gerst_axioms`).
    """
    if d.total_degree % 2 == 0:
        raise ValueError("derivation compatibility check requires an odd derivation")
    if d.dims != G.dims:
        raise DimensionMismatch(f"{d.dims} vs {G.dims}")

    def defect(m1: WeilMonomial, m2: WeilMonomial) -> WeilElement:
        e1, e2 = _mono_elt(G, m1), _mono_elt(G, m2)
        lhs = apply_derivation(d, _mono_bracket(G, m1, m2))
        rhs = gerst_bracket(G, apply_derivation(d, e1), e2)
        sign = -1 if m1.total_degree % 2 else 1
        rhs = weil_add(rhs, weil_scale(sign, gerst_bracket(G, e1, apply_derivation(d, e2))))
        return weil_sub(lhs, rhs)

    gens = _generators(G.dims)
    defects = {pair: defect(*pair) for pair in itertools.product(gens, gens)}

    def first_failing(pairs) -> Witness | None:
        for m1, m2 in pairs:
            dft = defects[(m1, m2)]
            if not dft.is_zero():
                return Witness((), dft.render(), "0", at=f"({m1.render()}, {m2.render()})")
        return None

    gen_witness = first_failing(itertools.product(gens, gens))
    mono_witness = first_failing(itertools.combinations_with_replacement(gens, 2))
    return VerificationReport(
        (
            Check("generator_pairs", gen_witness is None, gen_witness),
            Check("monomial_pairs", mono_witness is None, mono_witness),
        )
    )
