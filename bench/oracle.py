"""Verdict oracle for l2b documents, written apart from the program.

It reads the JSON document format (``kind``, ``spaces``, sparse ``blocks``
of ``[[indices...], "p/q"]``) and decides validity from the defining
identities with exact rational arithmetic.  It imports nothing from l2b and
shares none of its code paths: vectors are sparse dicts, brackets and
actions are applied as bilinear maps, and every identity is evaluated
directly on basis elements.

Conventions are those of the document format: ``bracket[i, j, k]`` is the
coefficient of e_k in [e_i, e_j]; ``action[i, j, k]`` the coefficient of
f_k in e_i . f_j; ``partial[a, b]`` the e_a coefficient of partial(f_b);
``cobracket[i, j, k]`` the coefficient of e_j ^ e_k in delta(e_i);
``jacobiator[i, j, k, b]`` the coefficient of f_b in l3(e_i, e_j, e_k),
with partial(l3(x, y, z)) equal to the Jacobiator [[x,y],z] + cyclic.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


class OracleInputError(ValueError):
    """The document is outside what the kernel accepts (so it must exit 2)."""


# --- sparse linear algebra -------------------------------------------------


def _clean(v: dict) -> dict:
    return {k: x for k, x in v.items() if x}


def _add(*vecs) -> dict:
    out: dict = {}
    for v in vecs:
        for k, x in v.items():
            out[k] = out.get(k, 0) + x
    return _clean(out)


def _scale(c, v: dict) -> dict:
    return _clean({k: c * x for k, x in v.items()})


def _basis(i) -> dict:
    return {i: Fraction(1)}


class Bilinear:
    """A bilinear map given by a 3-index table (i, j) -> {k: coefficient}."""

    def __init__(self, entries: dict):
        self.table: dict = {}
        for (i, j, k), v in entries.items():
            self.table.setdefault((i, j), {})[k] = v

    def __call__(self, u: dict, w: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            for j, b in w.items():
                for k, c in self.table.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + a * b * c
        return _clean(out)


def _antisymmetric(entries: dict, swap) -> bool:
    return all(entries.get(swap(idx), 0) == -v for idx, v in entries.items())


def _jacobi_holds(br, n: int) -> bool:
    for i, j, k in itertools.combinations(range(n), 3):
        x, y, z = _basis(i), _basis(j), _basis(k)
        if _add(br(br(x, y), z), br(br(y, z), x), br(br(z, x), y)):
            return False
    return True


def _is_representation(br, n: int, act, m: int) -> bool:
    """act(x, v) represents the algebra (br on n generators) on an m-dim module."""
    for i, j in itertools.combinations(range(n), 2):
        x, y = _basis(i), _basis(j)
        for b in range(m):
            v = _basis(b)
            lhs = act(br(x, y), v)
            rhs = _add(act(x, act(y, v)), _scale(-1, act(y, act(x, v))))
            if lhs != rhs:
                return False
    return True


# --- document access -------------------------------------------------------


def _blocks(doc: dict, key: str) -> dict:
    out = {}
    for idx, val in doc.get("blocks", {}).get(key, []):
        q = Fraction(val)
        if q:
            out[tuple(idx)] = q
    return out


def _dim(doc: dict, space: str) -> int:
    return doc["spaces"][space]["dim"]


def _lie_bracket(entries: dict) -> Bilinear:
    if not _antisymmetric(entries, lambda t: (t[1], t[0], t[2])):
        raise OracleInputError("bracket table is not antisymmetric")
    return Bilinear(entries)


# --- structures --------------------------------------------------------------


def crossed_module_valid(n0, n1, bracket, partial, action) -> bool:
    """Jacobi, representation, equivariance and the skew pairing condition."""
    br = _lie_bracket(bracket)
    act = Bilinear(action)

    def d(v):  # partial: g1 -> g0
        out: dict = {}
        for (a, b), p in partial.items():
            if b in v:
                out[a] = out.get(a, 0) + p * v[b]
        return _clean(out)

    if not _jacobi_holds(br, n0):
        return False
    if not _is_representation(br, n0, act, n1):
        return False
    for i in range(n0):
        for b in range(n1):
            if d(act(_basis(i), _basis(b))) != br(_basis(i), d(_basis(b))):
                return False
    for a in range(n1):
        for b in range(a, n1):
            fa, fb = _basis(a), _basis(b)
            if _add(act(d(fa), fb), act(d(fb), fa)):
                return False
    return True


def matched_pair_valid(nh, nk, bracket_h, bracket_k, h_on_k, k_on_h) -> bool:
    """Both factors Lie, both actions representations, and the bracket
    [(x,a),(y,b)] = ([x,y] + a>y - b>x, [a,b] + x>b - y>a) on h (+) k is Lie."""
    bh, bk = _lie_bracket(bracket_h), _lie_bracket(bracket_k)
    hk, kh = Bilinear(h_on_k), Bilinear(k_on_h)
    if not (_jacobi_holds(bh, nh) and _jacobi_holds(bk, nk)):
        return False
    if not (_is_representation(bh, nh, hk, nk) and _is_representation(bk, nk, kh, nh)):
        return False

    def split(v):
        return (
            {i: c for i, c in v.items() if i < nh},
            {i - nh: c for i, c in v.items() if i >= nh},
        )

    def join(x, a):
        out = dict(x)
        out.update({nh + i: c for i, c in a.items()})
        return out

    def bicrossed(u, w):
        x, a = split(u)
        y, b = split(w)
        side = _add(bh(x, y), kh(a, y), _scale(-1, kh(b, x)))
        core = _add(bk(a, b), hk(x, b), _scale(-1, hk(y, a)))
        return join(side, core)

    return _jacobi_holds(bicrossed, nh + nk)


def bialgebra_valid(n, bracket, cobracket) -> bool:
    """Jacobi for the bracket and its transposed cobracket, and the cocycle
    identity delta([x,y]) = x.delta(y) - y.delta(x) on full 2-tensors."""
    br = _lie_bracket(bracket)
    if not _antisymmetric(cobracket, lambda t: (t[0], t[2], t[1])):
        raise OracleInputError("cobracket table is not antisymmetric")
    dual = Bilinear({(j, k, i): v for (i, j, k), v in cobracket.items()})
    if not (_jacobi_holds(br, n) and _jacobi_holds(dual, n)):
        return False

    def delta(v):  # full tensor sum_{j,k} c e_j (x) e_k
        out: dict = {}
        for (i, j, k), c in cobracket.items():
            if i in v:
                out[(j, k)] = out.get((j, k), 0) + v[i] * c
        return _clean(out)

    def ad2(x, t):
        out: dict = {}
        for (u, w), c in t.items():
            for m, a in br(x, _basis(u)).items():
                out[(m, w)] = out.get((m, w), 0) + c * a
            for m, a in br(x, _basis(w)).items():
                out[(u, m)] = out.get((u, m), 0) + c * a
        return _clean(out)

    for i, j in itertools.combinations(range(n), 2):
        x, y = _basis(i), _basis(j)
        if delta(br(x, y)) != _add(ad2(x, delta(y)), _scale(-1, ad2(y, delta(x)))):
            return False
    return True


def weak_lie2_valid(n0, n1, bracket, partial, action, l3) -> bool:
    """The two-term L-infinity identities for (partial, bracket, action, l3):

    partial(x.h) = [x, partial h];  partial(h).k = -partial(k).h;
    partial l3(x,y,z) = [[x,y],z] + cyclic;
    x.(y.h) - y.(x.h) - [x,y].h = -l3(x, y, partial h);
    and l3 is closed under the Chevalley-Eilenberg differential with
    coefficients in the g0-module g1 (the four-argument identity).
    """
    br = _lie_bracket(bracket)
    if not all(
        l3.get(tuple(idx[p] for p in perm) + (idx[3],), 0) == _perm_sign(perm) * v
        for idx, v in l3.items()
        for perm in itertools.permutations(range(3))
    ):
        raise OracleInputError("jacobiator is not alternating")
    act = Bilinear(action)

    def d(v):
        out: dict = {}
        for (a, b), p in partial.items():
            if b in v:
                out[a] = out.get(a, 0) + p * v[b]
        return _clean(out)

    def L3(x, y, z):
        out: dict = {}
        for (i, j, k, b), c in l3.items():
            if i in x and j in y and k in z:
                out[b] = out.get(b, 0) + x[i] * y[j] * z[k] * c
        return _clean(out)

    e = _basis
    for i in range(n0):
        for b in range(n1):
            if d(act(e(i), e(b))) != br(e(i), d(e(b))):
                return False
    for a in range(n1):
        for b in range(a, n1):
            if _add(act(d(e(a)), e(b)), act(d(e(b)), e(a))):
                return False
    for i, j, k in itertools.combinations(range(n0), 3):
        x, y, z = e(i), e(j), e(k)
        jac = _add(br(br(x, y), z), br(br(y, z), x), br(br(z, x), y))
        if d(L3(x, y, z)) != jac:
            return False
    for i, j in itertools.combinations(range(n0), 2):
        x, y = e(i), e(j)
        for b in range(n1):
            h = e(b)
            lhs = _add(act(x, act(y, h)), _scale(-1, act(y, act(x, h))), _scale(-1, act(br(x, y), h)))
            if lhs != _scale(-1, L3(x, y, d(h))):
                return False
    for quad in itertools.combinations(range(n0), 4):
        xs = [e(i) for i in quad]
        terms = []
        for pos in range(4):
            rest = [xs[q] for q in range(4) if q != pos]
            terms.append(_scale((-1) ** pos, act(xs[pos], L3(*rest))))
        for p, q in itertools.combinations(range(4), 2):
            rest = [xs[r] for r in range(4) if r not in (p, q)]
            terms.append(_scale((-1) ** (p + q), L3(br(xs[p], xs[q]), *rest)))
        if _add(*terms):
            return False
    return True


def _perm_sign(perm) -> int:
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def _dvb_valid(doc: dict) -> bool:
    """flip(vertical dual) equals vertical dual of horizontal dual.

    A space is (name, dim, dualized); dualizing toggles the flag.
    """

    def space(key):
        s = doc["spaces"][key]
        return (s.get("name", key), s["dim"], bool(s.get("dual", False)))

    def star(s):
        return (s[0], s[1], not s[2])

    a, b, c = space("side_h"), space("side_v"), space("core")
    vertical = (star(c), b, star(a))
    left = (vertical[1], vertical[0], vertical[2])
    horizontal = (a, star(c), star(b))
    right = (star(horizontal[2]), horizontal[1], star(horizontal[0]))
    return left == right


# --- per kind -----------------------------------------------------------------


def _transpose(partial: dict) -> dict:
    return {(b, a): v for (a, b), v in partial.items()}


def lie2_bialgebra_valid(doc: dict) -> bool:
    """Both crossed modules valid and (g0, g1*) a matched pair under the
    contragredient actions x > xi = -xi(x . -) and xi > x = -(xi . -)(x)."""
    n0, n1 = _dim(doc, "g0"), _dim(doc, "g1")
    bracket0, partial = _blocks(doc, "bracket0"), _blocks(doc, "partial")
    action0 = _blocks(doc, "action0")
    dual_bracket, dual_action = _blocks(doc, "dual_bracket"), _blocks(doc, "dual_action")
    if not crossed_module_valid(n0, n1, bracket0, partial, action0):
        return False
    if not crossed_module_valid(n1, n0, dual_bracket, _transpose(partial), dual_action):
        return False
    side_on_dual_core = {(i, k, j): -v for (i, j, k), v in action0.items()}
    dual_core_on_side = {(i, k, j): -v for (i, j, k), v in dual_action.items()}
    return matched_pair_valid(
        n0, n1, bracket0, dual_bracket, side_on_dual_core, dual_core_on_side
    )


def expected_valid(doc: dict) -> bool:
    """True when the document's structure satisfies its defining identities."""
    kind = doc["kind"]
    if kind == "lie_algebra":
        n = _dim(doc, "g")
        return _jacobi_holds(_lie_bracket(_blocks(doc, "bracket")), n)
    if kind == "bialgebra":
        return bialgebra_valid(
            _dim(doc, "g"), _blocks(doc, "bracket"), _blocks(doc, "cobracket")
        )
    if kind == "crossed_module":
        return crossed_module_valid(
            _dim(doc, "g0"),
            _dim(doc, "g1"),
            _blocks(doc, "bracket0"),
            _blocks(doc, "partial"),
            _blocks(doc, "action"),
        )
    if kind == "weak_lie2":
        return weak_lie2_valid(
            _dim(doc, "g0"),
            _dim(doc, "g1"),
            _blocks(doc, "bracket0"),
            _blocks(doc, "partial"),
            _blocks(doc, "action"),
            _blocks(doc, "jacobiator"),
        )
    if kind == "lie2_bialgebra":
        return lie2_bialgebra_valid(doc)
    if kind == "matched_pair":
        return matched_pair_valid(
            _dim(doc, "h"),
            _dim(doc, "k"),
            _blocks(doc, "bracket_h"),
            _blocks(doc, "bracket_k"),
            _blocks(doc, "act_h_on_k"),
            _blocks(doc, "act_k_on_h"),
        )
    if kind == "dvb":
        return _dvb_valid(doc)
    raise OracleInputError(f"unknown kind {kind!r}")


def expected_valid_bytes(data: bytes) -> bool:
    return expected_valid(json.loads(data))
