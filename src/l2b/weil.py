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

``delta_v^2`` and ``delta_J^2`` vanish for any data, so the square-zero
checks build only the other components of the square (`check_cm_square`,
`verify_weak_lie2`).

The bidegree (-1,-1) bracket is read off the dual crossed module ``cm2``
on ``[g0* -> g1*]``: ``[g_i, g_j]`` is its base bracket, ``[g_i, a_j]``
its action and ``[a_i, a_j] = 0``, with graded skew
``[x,y] = -(-1)^{|x||y|}[y,x]`` and Leibniz
``[x, y.z] = [x,y].z + (-1)^{|x||y|} y.[x,z]`` in total degree
(legitimate because the bracket's total degree -2 is even).  Being a
biderivation, it is known by the derivations ``ad_x = [x, -]`` of the
generators, whose images are those structure constants
(Kosmann-Schwarzbach, *Derived brackets*); every bracket is a
derivation image (`_derive`) of one of them.

The checks compute on plain ``{(ext, sym): coefficient}`` term dicts.  A
monomial ``a_ext g_sym`` is the tuple ``(ext, sym)`` of a strictly
increasing tuple of exterior indices and a non-decreasing one of symmetric
indices, so hashing and equality run in C; `_total_degree`, `_sort_key`
and `_render_monomial` read it.  A `GradedDerivation` is the record of its
dims, its total degree and the zero-free term dicts of its images of the
generators in `_generators` order, the order of the rows of `_brackets`;
`_derive` applies it by adding into a dict, and an identity is decided on
one dict holding its left side minus its right side.  Only total degrees
are tracked, since `_derive` needs only their parity; the bidegrees above
name the components.  Witnesses are rendered from term dicts (`_render`).

A derivation is built one way, unchecked: the three differentials are
read off `CrossedModuleData` and `WeakLie2Data`, whose constructors have
checked dims and antisymmetry, the derivations ``ad_x`` off ``cm2`` the
same way, and squares, commutators and sums combine monomials and exact
rational coefficients of such derivations.  `WeilElement`, the one
validating constructor (`_monomial`: integer indices, sorted as above; in
range; coefficients through `exact.rational`), is entered by no verifier;
the benchmark's tracer names it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import index

from .exact import DimensionMismatch, Rational, format_rational, rational
from .liecore import Check, VerificationReport, Witness, combine
from .twoterm import CrossedModuleData, WeakLie2Data

_ZERO = 0

# ``a_ext g_sym``: strictly increasing exterior and non-decreasing symmetric indices
Monomial = tuple[tuple[int, ...], tuple[int, ...]]


def _monomial(ext, sym) -> Monomial:
    """The monomial ``(ext, sym)`` with int indices, or `ValueError` when
    ``ext`` is not strictly increasing or ``sym`` not sorted."""
    ext = tuple(map(index, ext))
    sym = tuple(map(index, sym))
    if any(ext[i] >= ext[i + 1] for i in range(len(ext) - 1)):
        raise ValueError(f"exterior indices not strictly increasing: {ext}")
    if any(sym[i] > sym[i + 1] for i in range(len(sym) - 1)):
        raise ValueError(f"symmetric indices not sorted: {sym}")
    return (ext, sym)


def _total_degree(mono: Monomial) -> int:
    ext, sym = mono
    return len(ext) + 2 * len(sym)


def _sort_key(mono: Monomial):
    """Total degree first, then the index tuples."""
    return (_total_degree(mono), *mono)


def _render_monomial(mono: Monomial) -> str:
    ext, sym = mono
    if not ext and not sym:
        return "1"
    return "*".join([f"a{i}" for i in ext] + [f"g{j}" for j in sym])


@dataclass(frozen=True)
class WeilElement:
    """A zero-free map from monomials to exact rational coefficients.

    The constructor validates its arguments: each key through `_monomial`
    and in range, each coefficient through `exact.rational`.  No kernel
    path builds one, since the checks compute on term dicts; the class
    stays because the benchmark's tracer (``bench/tracing.py``) counts its
    constructions by name, and goes when that count does (ROADMAP).
    """

    dims: tuple[int, int]
    terms: dict[Monomial, Rational] = field(default_factory=dict)

    def __post_init__(self):
        n0, n1 = self.dims
        clean = {}
        for mono, coeff in self.terms.items():
            ext, sym = mono = _monomial(*mono)
            if any(not 0 <= i < n0 for i in ext) or any(not 0 <= j < n1 for j in sym):
                raise ValueError(f"monomial {_render_monomial(mono)} out of range for {self.dims}")
            q = rational(coeff)
            if q:
                clean[mono] = q
        object.__setattr__(self, "dims", (index(n0), index(n1)))
        object.__setattr__(self, "terms", clean)


def _clean(terms: dict) -> dict:
    """``terms`` without its zero coefficients (itself when it has none)."""
    return terms if all(terms.values()) else {m: c for m, c in terms.items() if c}


def _add_terms(out: dict, terms: dict, sign: int) -> None:
    """Add ``sign * terms`` to the term dict ``out``, for ``sign`` +-1."""
    for mono, coeff in terms.items():
        out[mono] = out.get(mono, _ZERO) + (coeff if sign > 0 else -coeff)


def _render(terms: dict) -> str:
    """The nonzero terms of ``terms`` as a sum, in monomial sort order."""
    parts = [
        f"({format_rational(terms[mono])})*{_render_monomial(mono)}"
        for mono in sorted(terms, key=_sort_key)
        if terms[mono]
    ]
    return " + ".join(parts) or "0"


def _generators(dims) -> list[Monomial]:
    """The generators ``a0..a{n0-1}, g0..g{n1-1}``, in monomial sort order.

    Under `_sort_key` every generator sorts before every product of two or
    more generators (``a_i a_j`` has the same total degree as ``g_k`` but a
    non-empty exterior part).
    """
    n0, n1 = dims
    return [((i,), ()) for i in range(n0)] + [((), (j,)) for j in range(n1)]


# --- graded derivations -------------------------------------------------------


@dataclass(frozen=True)
class GradedDerivation:
    """A derivation of total degree ``total_degree``, given by ``images``,
    the zero-free term dicts of its images of the generators in
    `_generators` order: ``a0..a{n0-1}``, then ``g0..g{n1-1}``.

    Images extend to the whole algebra lazily by the graded Leibniz rule
    (`_derive`).  The record is not validated: every derivation is read off
    `CrossedModuleData` or `WeakLie2Data`, whose constructors check dims
    and antisymmetry, or combined from such derivations.
    """

    dims: tuple[int, int]
    total_degree: int
    images: tuple[dict[Monomial, Rational], ...]


def _derive(d: GradedDerivation, terms: dict, out: dict, sign: int) -> None:
    """Add ``sign * d(terms)`` to the term dict ``out``, for ``sign`` +-1.

    The generator at each slot of a monomial ``a_ext g_sym`` is replaced by
    each term ``a_ie g_is`` of its image in one merge.  The slot has
    ``shift`` exterior factors before it: ``pos`` for the exterior factor
    at ``pos``, ``len(ext)`` for a symmetric one.  Passing ``d`` over them
    gives ``(-1)**(dodd * shift)``, for the parity ``dodd`` of ``d``'s
    degree; moving ``a_ie`` over them to the front gives
    ``(-1)**(shift * len(ie))``, and sorting it into the remaining exterior
    indices ``rest`` one sign per inversion, a pair of an ``ie`` index above
    a ``rest`` one.  The term vanishes if ``ie`` and ``rest`` share an
    index.  Symmetric factors are even and only get sorted.
    """
    images, n0, dodd = d.images, d.dims[0], d.total_degree % 2
    for (ext, sym), coeff in terms.items():
        if sign < 0:
            coeff = -coeff
        r = len(ext)
        for pos in range(r + len(sym)):
            if pos < r:
                img = images[ext[pos]]
                if not img:
                    continue
                rest, base, shift = ext[:pos] + ext[pos + 1 :], sym, pos
            else:
                img = images[n0 + sym[pos - r]]
                if not img:
                    continue
                rest, base, shift = ext, sym[: pos - r] + sym[pos - r + 1 :], r
            c = -coeff if dodd and shift & 1 else coeff
            for (ie, isym), ic in img.items():
                v = c * ic
                sm = tuple(sorted(base + isym)) if base and isym else base or isym
                if ie and rest:
                    odd = shift * len(ie)
                    for x in ie:  # inversions of x, unless rest holds it
                        k = bisect_left(rest, x)
                        if k < len(rest) and rest[k] == x:
                            break
                        odd += k
                    else:
                        m = (tuple(sorted(rest + ie)), sm)
                        out[m] = out.get(m, _ZERO) + (-v if odd & 1 else v)
                    continue
                m = (rest or ie, sm)
                out[m] = out.get(m, _ZERO) + v


def _apply(d: GradedDerivation, terms: dict, sign: int = 1) -> dict:
    """The zero-free term dict of ``sign * d(terms)``."""
    out: dict[Monomial, Rational] = {}
    _derive(d, terms, out, sign)
    return _clean(out)


def derivation_sum(d1: GradedDerivation, d2: GradedDerivation) -> GradedDerivation:
    if d1.dims != d2.dims:
        raise DimensionMismatch(f"{d1.dims} vs {d2.dims}")
    if d1.total_degree != d2.total_degree:
        raise ValueError("cannot sum derivations of different total degree")

    def add(img1: dict, img2: dict) -> dict:
        out = dict(img1)
        _add_terms(out, img2, 1)
        return _clean(out)

    return GradedDerivation(d1.dims, d1.total_degree, tuple(map(add, d1.images, d2.images)))


def graded_commutator(d1: GradedDerivation, d2: GradedDerivation) -> GradedDerivation:
    """d1 d2 - (-1)^(|d1||d2|) d2 d1, computed on generators."""
    if d1.dims != d2.dims:
        raise DimensionMismatch(f"{d1.dims} vs {d2.dims}")
    sign = -1 if (d1.total_degree * d2.total_degree) % 2 else 1

    def comm_on(img2: dict, img1: dict) -> dict:
        out: dict[Monomial, Rational] = {}
        _derive(d1, img2, out, 1)
        _derive(d2, img1, out, -sign)
        return _clean(out)

    return GradedDerivation(
        d1.dims, d1.total_degree + d2.total_degree, tuple(map(comm_on, d2.images, d1.images))
    )


def check_zero_on_generators(d: GradedDerivation, prefix: str) -> VerificationReport:
    """Two checks ({prefix}.side / {prefix}.core): d vanishes on each generator
    family, each failing with its first generator of nonzero image."""
    n0, checks = d.dims[0], []
    for family, gen, images in (("side", "a", d.images[:n0]), ("core", "g", d.images[n0:])):
        i = next((i for i, img in enumerate(images) if img), None)
        witness = None if i is None else Witness((i,), _render(images[i]), "0", at=f"{gen}{i}")
        checks.append(Check(f"{prefix}.{family}", witness is None, witness))
    return VerificationReport(tuple(checks))


def _square(d: GradedDerivation) -> GradedDerivation:
    """``d o d`` on the generators; for odd ``d`` it is the derivation ``[d, d] / 2``."""
    return GradedDerivation(d.dims, 2 * d.total_degree, tuple(_apply(d, img) for img in d.images))


def check_square_zero(d: GradedDerivation) -> VerificationReport:
    """d(d(gen)) = 0 for every generator; only odd derivations can square to zero.

    `check_cm_square` decides ``delta_h^2`` with it.
    """
    if d.total_degree % 2 == 0:
        raise ValueError("square-zero check requires an odd derivation")
    return check_zero_on_generators(_square(d), "square_zero")


# --- the three differentials --------------------------------------------------


def cm_differentials(cm: CrossedModuleData) -> tuple[GradedDerivation, GradedDerivation]:
    """``(delta_v, delta_h)`` of a crossed-module candidate.

    ``delta_v`` (bidegree (0,1)) extends the transpose of ``partial``;
    ``delta_h`` (bidegree (1,0)) is dual to the base bracket and the action:
    ``delta_h(a_l)`` evaluates on ``x^y`` to ``-a_l([x,y])`` and
    ``delta_h(g_b)`` on ``x (x) c`` to ``-g_b(x.c)``.
    """
    n0, n1 = dims = (cm.dim0, cm.dim1)
    dv: list[dict[Monomial, Rational]] = [{} for _ in range(n0 + n1)]
    for (a, b), v in cm.tvs.partial.entries.items():
        dv[a][((), (b,))] = v
    dh: list[dict[Monomial, Rational]] = [{} for _ in range(n0 + n1)]
    for (p, q, k), v in cm.base.bracket.entries.items():
        if p < q:
            dh[k][((p, q), ())] = -v
    for (i, j, k), v in cm.action.entries.items():
        dh[n0 + k][((i,), (j,))] = -v
    return GradedDerivation(dims, 1, tuple(dv)), GradedDerivation(dims, 1, tuple(dh))


def build_delta_j(w: WeakLie2Data) -> GradedDerivation:
    """The bidegree (2,-1) component dual to the Jacobiator l3: wedge^3 g0 -> g1."""
    n0, n1 = dims = (w.cm.dim0, w.cm.dim1)
    images: list[dict[Monomial, Rational]] = [{} for _ in range(n0 + n1)]
    for (i, j, k, b), v in w.jacobiator.entries.items():
        if i < j < k:
            images[n0 + b][((i, j, k), ())] = -v
    return GradedDerivation(dims, 1, tuple(images))


# each `twoterm.verify_cm` check id -> the `check_cm_square` check deciding it
CM_SQUARE_CHECKS = {
    "jacobi": "delta_h.square_zero.side",
    "representation": "delta_h.square_zero.core",
    "equivariance": "commute.side",
    "skew_action": "commute.core",
}


def check_cm_square(dv: GradedDerivation, dh: GradedDerivation) -> VerificationReport:
    """The crossed-module checks, read from the square of ``delta_v + delta_h``.

    Its components (2,0) = delta_h^2 and (1,1) = [delta_v, delta_h], each
    checked per generator family.  Componentwise this is equivalent to
    `twoterm.verify_cm`, check by check as `CM_SQUARE_CHECKS` pairs them.
    The third component, (0,2) = delta_v^2, vanishes for any ``partial``:
    ``delta_v`` sends each ``a`` to a combination of ``g``s and each ``g``
    to 0.  So it is not computed.
    """
    return combine(
        ("delta_h.", check_square_zero(dh)),
        check_zero_on_generators(graded_commutator(dv, dh), "commute"),
    )


def verify_weak_lie2(w: WeakLie2Data) -> VerificationReport:
    """Square-zero test for the total differential of two-term homotopy data.

    Of the square of ``delta_v + delta_h + delta_J`` only three bidegree
    components can be nonzero, each one check that fails with its first
    failing generator: (1,1) = [delta_v, delta_h], (2,0) = [delta_v,
    delta_J] + delta_h^2 and (3,-1) = [delta_h, delta_J].  (0,2) =
    delta_v^2 vanishes as in `check_cm_square`, and (4,-2) = delta_J^2
    because ``delta_J`` kills the ``a``s and sends each ``g`` into them.
    With a vanishing Jacobiator this agrees with `twoterm.verify_cm`.
    """
    dv, dh = cm_differentials(w.cm)
    dj = build_delta_j(w)
    checks = []
    for cond, comp in (
        ("square(1,1)", graded_commutator(dv, dh)),
        ("square(2,0)", derivation_sum(graded_commutator(dv, dj), _square(dh))),
        ("square(3,-1)", graded_commutator(dh, dj)),
    ):
        rep = check_zero_on_generators(comp, cond)
        witness = next((c.witness for c in rep.checks if not c.passed), None)
        checks.append(Check(cond, rep.passed, witness))
    return VerificationReport(tuple(checks))


# --- the bidegree (-1,-1) bracket ----------------------------------------------


def _brackets(cm2: CrossedModuleData) -> list[list[dict]]:
    """``br[p][q]``: the term dict of ``[x_p, x_q]`` for generators in
    `_generators` order, so that ``br[p]`` lists the images of ``ad_{x_p}``.

    ``cm2`` is the dual crossed module, on ``[g0* -> g1*]``: its base
    bracket is the bracket of the ``g`` generators and its action the
    bracket of a ``g`` with an ``a``, so the Weil dims are
    ``(cm2.dim1, cm2.dim0)``.  Read off in one pass over its entries:
    ``[g_i, a_j] = sum_k action[i, j, k] a_k``,
    ``[g_i, g_j] = sum_k bracket[i, j, k] g_k``, ``[a_i, a_j] = 0`` and,
    by graded skew, ``[a_j, g_i] = -[g_i, a_j]``.  The table is graded
    skew because `LieAlgebra` refuses a bracket that is not antisymmetric.
    """
    n0, n1 = cm2.dim1, cm2.dim0
    br = [[{} for _ in range(n0 + n1)] for _ in range(n0 + n1)]
    for (i, j, k), v in cm2.action.entries.items():
        br[n0 + i][j][((k,), ())] = v
        br[j][n0 + i][((k,), ())] = -v
    for (i, j, k), v in cm2.base.bracket.entries.items():
        br[n0 + i][n0 + j][((), (k,))] = v
    return br


def _bracket_table(cm2: CrossedModuleData):
    """What every bracket computation reads off ``cm2``: the Weil dims, the
    generators ``x_p`` in `_generators` order, their total degrees, the
    table ``br`` of `_brackets` and the derivations ``ad_{x_p}``, of degree
    ``|x_p| - 2``, whose images are the rows ``br[p]``."""
    dims = (cm2.dim1, cm2.dim0)
    gens = _generators(dims)
    deg = [_total_degree(m) for m in gens]
    br = _brackets(cm2)
    ads = [GradedDerivation(dims, t - 2, tuple(row)) for t, row in zip(deg, br)]
    return dims, gens, deg, br, ads


def _swap_sign(deg_a: int, deg_b: int) -> int:
    """The sign of ``[a, b] = sign * [b, a]``, by graded skew."""
    return 1 if (deg_a * deg_b) % 2 else -1


def check_gerst_axioms(cm2: CrossedModuleData) -> VerificationReport:
    """Graded Jacobi of the bracket, decided on generators.

    Every bracket is an image of one of the derivations ``ad_x``
    (`_brackets`): ``[x, y]`` is read off ``ad_x``, and ``[e, z]`` for an
    element ``e`` is ``-(-1)^(|e||z|) ad_z(e)``.  So the bracket is a
    biderivation (Leibniz) by construction, and it is graded skew because
    the table is (see `_brackets`); neither is checked, and
    `tests/monomial_oracle.py` confirms both on random tables.  The
    Jacobiator ``ad_x(ad_y z) - [ad_x y, z] -+ ad_y(ad_x z)`` of a skew
    biderivation is a graded-antisymmetric triderivation, so it vanishes on
    all monomials iff it vanishes on sorted generator triples.  Generators
    sort before every product, and a failing tuple with a product in it
    stays failing, up to order, when the product is replaced by a suitable
    one of its factors, which sorts earlier; so the first failing sorted
    generator triple is also the first failing sorted monomial triple.
    A triple is decided on one term dict, the left side minus the right;
    only a failing one is evaluated again, side by side, for its witness.
    """
    _, gens, deg, br, ads = _bracket_table(cm2)  # br[p][q] = [x_p, x_q]

    def sides(p, q, r, lhs, rhs, rsign):
        """Add the left side to ``lhs`` and ``rsign`` times the right to ``rhs``."""
        _derive(ads[p], br[q][r], lhs, 1)
        _derive(ads[r], br[p][q], rhs, rsign * _swap_sign(deg[p] + deg[q], deg[r]))
        _derive(ads[q], br[p][r], rhs, -rsign * _swap_sign(deg[p], deg[q]))

    witness = None
    for p, q, r in itertools.combinations_with_replacement(range(len(gens)), 3):
        if not (br[q][r] or br[p][q] or br[p][r]):
            continue  # all three brackets are zero, and so both sides
        diff: dict[Monomial, Rational] = {}
        sides(p, q, r, diff, diff, -1)
        if any(diff.values()):
            lhs: dict[Monomial, Rational] = {}
            rhs: dict[Monomial, Rational] = {}
            sides(p, q, r, lhs, rhs, 1)
            at = f"({', '.join(_render_monomial(gens[x]) for x in (p, q, r))})"
            witness = Witness((), _render(lhs), _render(rhs), at=at)
            break
    return VerificationReport((Check("jacobi", witness is None, witness),))


def check_derivation_of_bracket(
    d: GradedDerivation, cm2: CrossedModuleData
) -> VerificationReport:
    """Check d[x,y] = [d x, y] + (-1)^|x| [x, d y], decided on generators.

    On generators the defect is ``d(ad_x y) - [d x, y] - (-1)^|x| ad_x(d y)``
    with ``[d x, y] = -(-1)^(|dx||y|) ad_y(d x)`` (`_brackets`).  The defect
    is a biderivation (``[d, ad_x] - ad_{dx}`` in each argument), so it
    vanishes on all monomials iff it vanishes on generator pairs.  The one
    check, ``generator_pairs``, fails with the first failing ordered
    generator pair.  The defect is graded skew because the bracket is, so
    sorted pairs would give the same verdict; `tests/monomial_oracle.py`
    confirms that too.
    """
    if d.total_degree % 2 == 0:
        raise ValueError("derivation compatibility check requires an odd derivation")
    dims, gens, deg, br, ads = _bracket_table(cm2)  # br[p][q] = [x_p, x_q]
    if d.dims != dims:
        raise DimensionMismatch(f"{d.dims} vs {dims}")
    ad_d = [[_apply(ad, dy) for dy in d.images] for ad in ads]  # ad_d[p][q] = ad_{x_p}(d x_q)
    witness = None
    for p, q in itertools.product(range(len(gens)), repeat=2):
        if not (br[p][q] or ad_d[q][p] or ad_d[p][q]):
            continue  # all three parts are zero
        # d[x_p, x_q] - [d x_p, x_q] - (-1)^|x_p| [x_p, d x_q]
        dft: dict[Monomial, Rational] = {}
        _derive(d, br[p][q], dft, 1)
        _add_terms(dft, ad_d[q][p], -_swap_sign(deg[p] + 1, deg[q]))
        _add_terms(dft, ad_d[p][q], 1 if deg[p] % 2 else -1)
        if any(dft.values()):
            at = f"({', '.join(_render_monomial(gens[x]) for x in (p, q))})"
            witness = Witness((), _render(dft), "0", at=at)
            break
    return VerificationReport((Check("generator_pairs", witness is None, witness),))
