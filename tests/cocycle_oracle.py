"""Per-pair wedge-square version of the 1-cocycle check.

A test oracle for the ``cocycle`` check of `l2b.liecore.verify_cocycle`.
For each basis pair ``i < j``, in lexicographic order, it expands
``delta([e_i, e_j])`` and ``e_i.delta(e_j) - e_j.delta(e_i)`` as wedge
squares, with ``e_x`` acting by ``x.(u^v) = [x,u]^v + u^[x,v]``; the first
pair where they differ is the witness, rendered as both wedge squares.
The kernel must report the same `Check`, witness text included.
"""

import itertools
from fractions import Fraction

from l2b.catalog import _unimodular, axb, heisenberg, sl2, transform_lie
from l2b.exact import SparseTensor, format_rational
from l2b.liecore import (
    Check,
    LieAlgebra,
    LieCobracket,
    VerificationReport,
    Witness,
    bicrossed_sum,
    cobracket_to_dual_lie,
    combine,
    verify_lie,
)


def _w2_add(acc: dict, key, val):
    if val == 0:
        return
    j, k = key
    if j == k:
        return
    if j > k:
        j, k, val = k, j, -val
    acc[(j, k)] = acc.get((j, k), 0) + val
    if acc[(j, k)] == 0:
        del acc[(j, k)]


def _ad2(brackets: dict, x: int, w2: dict) -> dict:
    """Extended adjoint action of e_x on a wedge square: [x,u]^v + u^[x,v].

    ``brackets`` maps ``(i, j)`` to the coefficients of ``[e_i, e_j]``.
    """
    out: dict = {}
    for (u, v), c in w2.items():
        for m, cm in brackets.get((x, u), {}).items():
            _w2_add(out, (m, v), c * cm)
        for m, cm in brackets.get((x, v), {}).items():
            _w2_add(out, (u, m), c * cm)
    return out


def _w2_render(w2: dict, labels) -> str:
    if not w2:
        return "0"
    return " + ".join(
        f"({format_rational(w2[(j, k)])})*{labels[j]}^{labels[k]}" for (j, k) in sorted(w2)
    )


def cocycle(g: LieAlgebra, d: LieCobracket) -> Check:
    brackets: dict = {}
    for (a, b, k), v in g.bracket.entries.items():
        brackets.setdefault((a, b), {})[k] = v
    images: dict = {}
    for (a, j, k), v in d.tensor.entries.items():
        if j < k:
            images.setdefault(a, {})[(j, k)] = v
    for i, j in itertools.combinations(range(g.dim), 2):
        lhs: dict = {}
        for m, cm in brackets.get((i, j), {}).items():
            for key, val in images.get(m, {}).items():
                _w2_add(lhs, key, cm * val)
        rhs = _ad2(brackets, i, images.get(j, {}))
        for key, val in _ad2(brackets, j, images.get(i, {})).items():
            _w2_add(rhs, key, -val)
        if lhs != rhs:
            witness = Witness((i, j), _w2_render(lhs, g.labels), _w2_render(rhs, g.labels))
            return Check("cocycle", False, witness)
    return Check("cocycle", True, None)


def verify_cocycle_by_pairs(g: LieAlgebra, d: LieCobracket) -> VerificationReport:
    return combine(
        ("lie.primal.", verify_lie(g)),
        ("lie.dual.", verify_lie(cobracket_to_dual_lie(d))),
        VerificationReport((cocycle(g, d),)),
    )


# --- random candidates ------------------------------------------------------------

_VALUES = (Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2))


def _random_bracket(rng, n: int) -> LieAlgebra:
    entries: dict = {}
    for _ in range(rng.randrange(5) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k, v = rng.randrange(n), rng.choice(_VALUES)
        entries[(i, j, k)] = entries.get((i, j, k), 0) + v
        entries[(j, i, k)] = entries.get((j, i, k), 0) - v
    return LieAlgebra(tuple(f"x{i}" for i in range(n)), SparseTensor((n, n, n), entries))


def _coboundary(rng, g: LieAlgebra) -> LieCobracket:
    """delta(x) = x.r for a random r in the wedge square."""
    n = g.dim
    r = {}
    for _ in range(rng.randrange(1, 3) if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        r[(u, v)] = r.get((u, v), 0) + rng.choice(_VALUES)
    brackets: dict = {}
    for (a, b, k), v in g.bracket.entries.items():
        brackets.setdefault((a, b), {})[k] = v
    table = {x: _ad2(brackets, x, r) for x in range(n)}
    return LieCobracket.from_table(n, table)


def random_bialgebra_candidate(rng):
    """A bracket and a cobracket of dimension 1-5, valid and invalid alike.

    The bracket is a Lie algebra (sl2, axb, the Heisenberg algebra, a line,
    or a direct sum of two of them that fits, half of them in a random
    unimodular basis) or a random antisymmetric table; the cobracket is
    zero, a coboundary ``x.r`` (a cocycle when the bracket is Lie) or a
    random antisymmetric table.
    """
    if rng.random() < 0.5:
        parts = (sl2(), axb(), heisenberg(), LieAlgebra.abelian(("a",)))
        g = rng.choice(parts)
        rest = [h for h in parts if h.dim + g.dim <= 5]
        if rest and rng.random() < 0.4:
            h = rng.choice(rest)  # the direct sum: neither acts on the other
            no_action = SparseTensor.zero((g.dim, h.dim, h.dim))
            g = bicrossed_sum(g, h, no_action, SparseTensor.zero((h.dim, g.dim, g.dim)))
        if rng.random() < 0.5:
            g = transform_lie(g, *_unimodular(rng, g.dim))
        g = LieAlgebra(tuple(f"x{i}" for i in range(g.dim)), g.bracket)
    else:
        g = _random_bracket(rng, rng.randrange(1, 6))
    n = g.dim
    kind = rng.random()
    if kind < 0.2:
        return g, LieCobracket(n, SparseTensor.zero((n, n, n)))
    if kind < 0.55:
        return g, _coboundary(rng, g)
    table: dict = {}
    for _ in range(rng.randrange(1, 4) if n > 1 else 0):
        j, k = sorted(rng.sample(range(n), 2))
        row = table.setdefault(rng.randrange(n), {})
        row[(j, k)] = row.get((j, k), 0) + rng.choice(_VALUES)
    return g, LieCobracket.from_table(n, table)
