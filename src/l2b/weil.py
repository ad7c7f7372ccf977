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

The bidegree (-1,-1) bracket is read off the dual crossed module ``cm2``
on ``[g0* -> g1*]``: ``[g_i, g_j]`` is its base bracket, ``[g_i, a_j]``
its action and ``[a_i, a_j] = 0``, with graded skew
``[x,y] = -(-1)^{|x||y|}[y,x]`` and Leibniz
``[x, y.z] = [x,y].z + (-1)^{|x||y|} y.[x,z]`` in total degree
(legitimate because the bracket's total degree -2 is even).  Being a
biderivation, it is known by the derivations ``ad_x = [x, -]`` of the
generators, whose images are those structure constants
(Kosmann-Schwarzbach, *Derived brackets*); every bracket is an
`apply_derivation` of one of them.

Validation happens at the public constructors: `WeilMonomial` checks that
its index tuples are sorted, `WeilElement` that every monomial is in
range, converting coefficients with `exact.rational` (an `int` when
integral, else a `Fraction`) and dropping zeros, and `GradedDerivation`
that its images have the degrees of its bidegree or total degree.
Products, sums, scalings, brackets and derivation images are built by the
trusted `_trusted` constructors, since they combine monomials and exact
rational coefficients of valid operands of the same dims; so are the
derivations the kernel reads off `CrossedModuleData` and `WeakLie2Data`,
whose dims and antisymmetry their constructors have checked (the three
differentials and the ``ad_x``), and those it derives from valid ones
(squares, commutators, sums and the bracket with an element).  A monomial
is an immutable ``(ext, sym)`` tuple, so hashing and equality run in C.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import index

from .exact import DimensionMismatch, Rational, format_rational, rational
from .liecore import Check, VerificationReport, Witness, combine
from .twoterm import CrossedModuleData, WeakLie2Data

_ZERO = 0
_ONE = 1


class WeilMonomial(tuple):
    """The monomial ``a_ext * g_sym``, stored as the tuple ``(ext, sym)``.

    ``ext`` is strictly increasing and ``sym`` non-decreasing.  As a tuple
    subclass without instance dict, hashing and equality run in C.
    """

    __slots__ = ()

    def __new__(cls, ext, sym):
        ext = tuple(map(index, ext))
        sym = tuple(map(index, sym))
        if any(ext[i] >= ext[i + 1] for i in range(len(ext) - 1)):
            raise ValueError(f"exterior indices not strictly increasing: {ext}")
        if any(sym[i] > sym[i + 1] for i in range(len(sym) - 1)):
            raise ValueError(f"symmetric indices not sorted: {sym}")
        return tuple.__new__(cls, (ext, sym))

    @classmethod
    def _trusted(cls, ext: tuple[int, ...], sym: tuple[int, ...]) -> "WeilMonomial":
        """A monomial from already sorted int tuples, unchecked."""
        return tuple.__new__(cls, (ext, sym))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"WeilMonomial(ext={self[0]!r}, sym={self[1]!r})"

    @property
    def ext(self) -> tuple[int, ...]:
        return self[0]

    @property
    def sym(self) -> tuple[int, ...]:
        return self[1]

    @property
    def bidegree(self) -> tuple[int, int]:
        ext, sym = self
        return (len(ext) + len(sym), len(sym))

    @property
    def total_degree(self) -> int:
        ext, sym = self
        return len(ext) + 2 * len(sym)

    def sort_key(self):
        return (self.total_degree, *self)

    def render(self) -> str:
        ext, sym = self
        if not ext and not sym:
            return "1"
        return "*".join([f"a{i}" for i in ext] + [f"g{j}" for j in sym])


ONE = WeilMonomial((), ())


@dataclass(frozen=True)
class WeilElement:
    """A zero-free map from monomials to exact rational coefficients.

    The constructor validates its arguments; results of the kernel
    operations are built by `_trusted`, which skips that work.
    """

    dims: tuple[int, int]
    terms: dict[WeilMonomial, Rational] = field(default_factory=dict)

    def __post_init__(self):
        n0, n1 = self.dims
        clean = {}
        for mono, coeff in self.terms.items():
            ext, sym = mono
            if any(not 0 <= i < n0 for i in ext) or any(not 0 <= j < n1 for j in sym):
                raise ValueError(f"monomial {mono.render()} out of range for {self.dims}")
            q = rational(coeff)
            if q:
                clean[mono] = q
        object.__setattr__(self, "dims", (index(n0), index(n1)))
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, dims: tuple[int, int], terms: dict) -> "WeilElement":
        """An element from in-range monomials to nonzero rationals, unchecked."""
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
    return WeilElement(tuple(dims), {ONE: _ONE})


def weil_alpha(dims, i: int) -> WeilElement:
    return WeilElement(tuple(dims), {WeilMonomial((i,), ()): _ONE})


def weil_gamma(dims, j: int) -> WeilElement:
    return WeilElement(tuple(dims), {WeilMonomial((), (j,)): _ONE})


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
    return weil_add(a, weil_scale(-1, b))


def weil_scale(c, a: WeilElement) -> WeilElement:
    c = rational(c)
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
    e1, s1 = m1
    e2, s2 = m2
    if not e2:
        sign, ext = 1, e1
    elif not e1:
        sign, ext = 1, e2
    else:
        merged = _merge_ext(e1, e2)
        if merged is None:
            return None
        sign, ext = merged
    if not s2:
        sym = s1
    elif not s1:
        sym = s2
    else:
        sym = tuple(sorted(s1 + s2))
    return sign, WeilMonomial._trusted(ext, sym)


def weil_mul(a: WeilElement, b: WeilElement) -> WeilElement:
    if a.dims != b.dims:
        raise DimensionMismatch(f"{a.dims} vs {b.dims}")
    out: dict[WeilMonomial, Rational] = {}
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
    trusted = WeilMonomial._trusted
    return [trusted((i,), ()) for i in range(n0)] + [trusted((), (j,)) for j in range(n1)]


# --- graded derivations -------------------------------------------------------


@dataclass(frozen=True)
class GradedDerivation:
    """A derivation given by its images on the algebra generators.

    Homogeneous derivations carry their bidegree; sums of different
    bidegrees (such as a total differential) carry ``bidegree=None`` and an
    explicit total degree.  Images extend to the whole algebra lazily by
    the graded Leibniz rule.  The constructor checks the images' degrees;
    derivations the kernel derives from valid ones are built by `_trusted`.
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

    @classmethod
    def _trusted(
        cls, dims, bidegree, ext_images, sym_images, total_degree: int
    ) -> "GradedDerivation":
        """A derivation whose images are known to have the right degrees, unchecked."""
        d = object.__new__(cls)
        object.__setattr__(d, "dims", dims)
        object.__setattr__(d, "bidegree", bidegree)
        object.__setattr__(d, "ext_images", ext_images)
        object.__setattr__(d, "sym_images", sym_images)
        object.__setattr__(d, "total_degree", total_degree)
        return d


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
    if not a.terms:
        return a  # the zero element
    dodd = d.total_degree % 2
    trusted = WeilMonomial._trusted
    out: dict[WeilMonomial, Rational] = {}

    def put(coeff: Rational, prefix: WeilMonomial, img: WeilElement, suffix: WeilMonomial):
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
        ext, sym = mono
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
    return GradedDerivation._trusted(
        d1.dims,
        bid,
        tuple(map(weil_add, d1.ext_images, d2.ext_images)),
        tuple(map(weil_add, d1.sym_images, d2.sym_images)),
        d1.total_degree,
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
    bid = None
    if d1.bidegree is not None and d2.bidegree is not None:
        bid = (d1.bidegree[0] + d2.bidegree[0], d1.bidegree[1] + d2.bidegree[1])
    return GradedDerivation._trusted(
        d1.dims, bid, ext, sym, d1.total_degree + d2.total_degree
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
    return GradedDerivation._trusted(
        d.dims,
        None,
        tuple(apply_derivation(d, img) for img in d.ext_images),
        tuple(apply_derivation(d, img) for img in d.sym_images),
        2 * d.total_degree,
    )


def check_square_zero(d: GradedDerivation) -> VerificationReport:
    """d(d(gen)) = 0 for every generator; only odd derivations can square to zero."""
    if d.total_degree % 2 == 0:
        raise ValueError("square-zero check requires an odd derivation")
    return check_zero_on_generators(_square(d), "square_zero")


# --- the three differentials --------------------------------------------------


def _derivation(dims, bidegree, ext_terms, sym_terms) -> GradedDerivation:
    """The homogeneous derivation whose generator images have the given
    zero-free terms, unchecked: the callers read the terms off valid data."""
    return GradedDerivation._trusted(
        dims,
        bidegree,
        tuple(WeilElement._trusted(dims, t) for t in ext_terms),
        tuple(WeilElement._trusted(dims, t) for t in sym_terms),
        sum(bidegree),
    )


def cm_differentials(cm: CrossedModuleData) -> tuple[GradedDerivation, GradedDerivation]:
    """``(delta_v, delta_h)`` of a crossed-module candidate.

    ``delta_v`` (bidegree (0,1)) extends the transpose of ``partial``;
    ``delta_h`` (bidegree (1,0)) is dual to the base bracket and the action:
    ``delta_h(a_l)`` evaluates on ``x^y`` to ``-a_l([x,y])`` and
    ``delta_h(g_b)`` on ``x (x) c`` to ``-g_b(x.c)``.
    """
    n0, n1 = dims = (cm.dim0, cm.dim1)
    trusted = WeilMonomial._trusted
    dv: list[dict[WeilMonomial, Rational]] = [{} for _ in range(n0)]
    for (a, b), v in cm.tvs.partial.entries.items():
        dv[a][trusted((), (b,))] = v
    dh_ext: list[dict[WeilMonomial, Rational]] = [{} for _ in range(n0)]
    for (p, q, k), v in cm.base.bracket.entries.items():
        if p < q:
            dh_ext[k][trusted((p, q), ())] = -v
    dh_sym: list[dict[WeilMonomial, Rational]] = [{} for _ in range(n1)]
    for (i, j, k), v in cm.action.entries.items():
        dh_sym[k][trusted((i,), (j,))] = -v
    return (
        _derivation(dims, (0, 1), dv, [{}] * n1),
        _derivation(dims, (1, 0), dh_ext, dh_sym),
    )


def build_delta_j(w: WeakLie2Data) -> GradedDerivation:
    """The bidegree (2,-1) component dual to the Jacobiator l3: wedge^3 g0 -> g1."""
    n0, n1 = dims = (w.cm.dim0, w.cm.dim1)
    sym: list[dict[WeilMonomial, Rational]] = [{} for _ in range(n1)]
    for (i, j, k, b), v in w.jacobiator.entries.items():
        if i < j < k:
            sym[b][WeilMonomial._trusted((i, j, k), ())] = -v
    return _derivation(dims, (2, -1), [{}] * n0, sym)


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
    return check_cm_square(*cm_differentials(cm))


def verify_weak_lie2(w: WeakLie2Data) -> VerificationReport:
    """Square-zero test for the total differential of two-term homotopy data.

    Each bidegree component of `square_components` is one check, which
    fails with its first failing generator.  With a vanishing Jacobiator
    this agrees with `twoterm.verify_cm` on the same data.
    """
    square = square_components(*cm_differentials(w.cm), build_delta_j(w))
    checks = []
    for (p, q), comp in sorted(square.items()):
        cond = f"square({p},{q})"
        rep = check_zero_on_generators(comp, cond)
        witness = next((c.witness for c in rep.checks if not c.passed), None)
        checks.append(Check(cond, rep.passed, witness))
    return VerificationReport(tuple(checks))


# --- the bidegree (-1,-1) bracket ----------------------------------------------


def _adjoints(cm2: CrossedModuleData) -> list[GradedDerivation]:
    """``ad_x = [x, -]`` for each generator ``x``, in `_generators` order.

    ``cm2`` is the dual crossed module, on ``[g0* -> g1*]``: its base
    bracket is the bracket of the ``g`` generators and its action the
    bracket of a ``g`` with an ``a``, so the Weil dims are
    ``(cm2.dim1, cm2.dim0)``.  Read off in one pass over its entries:
    ``ad_{g_i}(a_j) = sum_k action[i, j, k] a_k``,
    ``ad_{g_i}(g_j) = sum_k bracket[i, j, k] g_k``, ``ad_{a_i}(a_j) = 0``
    and, by graded skew, ``ad_{a_j}(g_i) = -ad_{g_i}(a_j)``.  ``ad_{a_i}`` has
    bidegree (0,-1) and ``ad_{g_i}`` bidegree (0,0).  The table is graded
    skew because `LieAlgebra` refuses a bracket that is not antisymmetric.
    """
    n0, n1 = dims = (cm2.dim1, cm2.dim0)
    trusted = WeilMonomial._trusted
    rows = [[{} for _ in range(n0 + n1)] for _ in range(n0 + n1)]  # rows[p][q]: [x_p, x_q]
    for (i, j, k), v in cm2.action.entries.items():
        rows[n0 + i][j][trusted((k,), ())] = v
        rows[j][n0 + i][trusted((k,), ())] = -v
    for (i, j, k), v in cm2.base.bracket.entries.items():
        rows[n0 + i][n0 + j][trusted((), (k,))] = v
    bids = [(0, -1)] * n0 + [(0, 0)] * n1
    return [_derivation(dims, bid, row[:n0], row[n0:]) for bid, row in zip(bids, rows)]


def _swap_sign(deg_a: int, deg_b: int) -> int:
    """The sign of ``[a, b] = sign * [b, a]``, by graded skew."""
    return 1 if (deg_a * deg_b) % 2 else -1


def _signed_sum(dims, *parts: tuple[int, WeilElement]) -> WeilElement:
    """``sum sign * element`` over ``(sign, element)`` pairs with signs +-1."""
    out: dict[WeilMonomial, Rational] = {}
    for sign, e in parts:
        for mono, coeff in e.terms.items():
            out[mono] = out.get(mono, _ZERO) + (coeff if sign > 0 else -coeff)
    return _nonzero(dims, out)


def gerst_bracket(cm2: CrossedModuleData, a: WeilElement, b: WeilElement) -> WeilElement:
    """The bracket of two elements, as a derivation applied to ``b``.

    For ``a`` of total degree ``t``, ``[a, -]`` is the derivation of degree
    ``t - 2`` whose image of a generator ``y`` is
    ``[a, y] = -(-1)^(t|y|) ad_y(a)``; an ``a`` of several total degrees is
    split by degree.
    """
    dims = (cm2.dim1, cm2.dim0)
    if a.dims != dims or b.dims != dims:
        raise DimensionMismatch(f"{a.dims}/{b.dims} vs structure dims {dims}")
    ads = _adjoints(cm2)
    degrees = [m.total_degree for m in _generators(dims)]
    n0 = cm2.dim1
    parts: dict[int, dict[WeilMonomial, Rational]] = {}
    for mono, coeff in a.terms.items():
        parts.setdefault(mono.total_degree, {})[mono] = coeff
    brackets = []
    for t, terms in parts.items():
        part = WeilElement._trusted(dims, terms)
        images = [
            weil_scale(_swap_sign(t, deg), apply_derivation(ad, part))
            for ad, deg in zip(ads, degrees)
        ]
        ad_part = GradedDerivation._trusted(
            dims, None, tuple(images[:n0]), tuple(images[n0:]), t - 2
        )
        brackets.append((1, apply_derivation(ad_part, b)))
    return _signed_sum(dims, *brackets)


def check_gerst_axioms(cm2: CrossedModuleData) -> VerificationReport:
    """Graded skew-symmetry, Jacobi and Leibniz, decided on generators.

    Every bracket is an image of one of the derivations ``ad_x``
    (`_adjoints`): ``[x, y]`` is read off ``ad_x``, and ``[e, z]`` for an
    element ``e`` is ``-(-1)^(|e||z|) ad_z(e)``.  So the bracket is a
    biderivation by construction, and it is skew because the table is (see
    `_adjoints`); skew and Leibniz (``ad_x(y.z)`` against the
    product rule) are checked on generators all the same.  The Jacobiator
    ``ad_x(ad_y z) - [ad_x y, z] -+ ad_y(ad_x z)`` of a skew biderivation
    is a graded-antisymmetric triderivation, so it vanishes on all
    monomials iff it vanishes on sorted generator triples.  Generators sort
    before every product, and a failing tuple with a product in it stays
    failing, up to order, when the product is replaced by a suitable one of
    its factors, which sorts earlier; so the first failing sorted generator
    tuple is also the first failing sorted monomial tuple.
    """
    dims = (cm2.dim1, cm2.dim0)
    gens = _generators(dims)
    deg = [m.total_degree for m in gens]
    ads = _adjoints(cm2)
    br = [ad.ext_images + ad.sym_images for ad in ads]  # br[p][q] = [x_p, x_q]
    idx = range(len(gens))

    def at(*ps) -> str:
        return ", ".join(gens[p].render() for p in ps)

    skew_witness = None
    for p, q in itertools.combinations_with_replacement(idx, 2):
        lhs = br[p][q]
        rhs = weil_scale(_swap_sign(deg[p], deg[q]), br[q][p])
        if lhs != rhs:
            skew_witness = Witness((), lhs.render(), rhs.render(), at=f"({at(p, q)})")
            break

    jacobi_witness = None
    for p, q, r in itertools.combinations_with_replacement(idx, 3):
        if not (br[q][r].terms or br[p][q].terms or br[p][r].terms):
            continue  # both sides are zero
        lhs = apply_derivation(ads[p], br[q][r])
        rhs = _signed_sum(
            dims,
            (_swap_sign(deg[p] + deg[q], deg[r]), apply_derivation(ads[r], br[p][q])),
            (-_swap_sign(deg[p], deg[q]), apply_derivation(ads[q], br[p][r])),
        )
        if lhs != rhs:
            jacobi_witness = Witness((), lhs.render(), rhs.render(), at=f"({at(p, q, r)})")
            break

    leibniz_witness = None
    elts = [WeilElement._trusted(dims, {m: _ONE}) for m in gens]
    products = [
        (q, r, weil_mul(elts[q], elts[r]))
        for q, r in itertools.combinations_with_replacement(idx, 2)
    ]
    for p, (q, r, prod) in itertools.product(idx, products):
        if not (br[p][q].terms or br[p][r].terms):
            continue  # ad_p vanishes on both factors, so both sides are zero
        lhs = apply_derivation(ads[p], prod)
        rhs = _signed_sum(
            dims,
            (1, weil_mul(br[p][q], elts[r])),
            (-_swap_sign(deg[p], deg[q]), weil_mul(elts[q], br[p][r])),
        )
        if lhs != rhs:
            leibniz_witness = Witness((), lhs.render(), rhs.render(), at=f"({at(p)}; {at(q, r)})")
            break

    return VerificationReport(
        (
            Check("skew", skew_witness is None, skew_witness),
            Check("jacobi", jacobi_witness is None, jacobi_witness),
            Check("leibniz", leibniz_witness is None, leibniz_witness),
        )
    )


def check_derivation_of_bracket(
    d: GradedDerivation, cm2: CrossedModuleData
) -> VerificationReport:
    """Check d[x,y] = [d x, y] + (-1)^|x| [x, d y], decided on generators.

    On generators the defect is ``d(ad_x y) - [d x, y] - (-1)^|x| ad_x(d y)``
    with ``[d x, y] = -(-1)^(|dx||y|) ad_y(d x)`` (`_adjoints`).  The defect
    is a biderivation (``[d, ad_x] - ad_{dx}`` in each argument), so it
    vanishes on all monomials iff it vanishes on generator pairs, and it is
    graded-skew because the bracket is.  ``generator_pairs`` reports the
    first failing ordered generator pair, ``monomial_pairs`` the first
    failing sorted one, which is also the first failing sorted monomial pair
    (the argument of `check_gerst_axioms`).
    """
    if d.total_degree % 2 == 0:
        raise ValueError("derivation compatibility check requires an odd derivation")
    dims = (cm2.dim1, cm2.dim0)
    if d.dims != dims:
        raise DimensionMismatch(f"{d.dims} vs {dims}")
    gens = _generators(dims)
    deg = [m.total_degree for m in gens]
    ads = _adjoints(cm2)
    br = [ad.ext_images + ad.sym_images for ad in ads]  # br[p][q] = [x_p, x_q]
    ad_d = [[apply_derivation(ad, dy) for dy in d.ext_images + d.sym_images] for ad in ads]
    idx = range(len(gens))
    defects = {}  # nonzero d[x_p, x_q] - [d x_p, x_q] - (-1)^|x_p| [x_p, d x_q] by (p, q)
    for p, q in itertools.product(idx, idx):
        if not (br[p][q].terms or ad_d[q][p].terms or ad_d[p][q].terms):
            continue  # all three parts are zero
        dft = _signed_sum(
            dims,
            (1, apply_derivation(d, br[p][q])),
            (-_swap_sign(deg[p] + 1, deg[q]), ad_d[q][p]),
            (1 if deg[p] % 2 else -1, ad_d[p][q]),
        )
        if dft.terms:
            defects[p, q] = dft

    def first_failing(pairs) -> Witness | None:
        for p, q in pairs:
            if (p, q) in defects:
                at = f"({gens[p].render()}, {gens[q].render()})"
                return Witness((), defects[p, q].render(), "0", at=at)
        return None

    gen_witness = first_failing(itertools.product(idx, idx))
    mono_witness = first_failing(itertools.combinations_with_replacement(idx, 2))
    return VerificationReport(
        (
            Check("generator_pairs", gen_witness is None, gen_witness),
            Check("monomial_pairs", mono_witness is None, mono_witness),
        )
    )
