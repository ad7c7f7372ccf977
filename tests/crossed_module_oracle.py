"""Per-vector loop versions of the contraction-based crossed-module checks.

A test oracle for the ``equivariance`` and ``skew_action`` checks of
`l2b.twoterm.verify_cm`.  Each check applies the maps to one basis vector at
a time and scans the basis tuples in lexicographic order, so the first
failing tuple is the witness; the kernel must report the same `Check`,
witness text included.

It also owns two constructions that the kernel does not run:

* the checks of a full crossed module with an explicit core bracket,
  ``core_bracket``, ``partial_morphism`` and ``action_derivation``
  (`verify_full_crossed_module_by_loops`), with which the tests assert the
  derived-bracket structure theorems;
* `g_action_algebroid`, the semidirect sum of the side with the core as a
  plain module, whose Jacobi identity has the verdict of
  `l2b.weil.check_gerst_axioms` on the same crossed module.
"""

import itertools
from fractions import Fraction

from l2b.catalog import adjoint_cm, axb, heisenberg, sl2
from l2b.exact import SparseTensor, format_rational
from l2b.liecore import (
    Check,
    LieAlgebra,
    VerificationReport,
    Witness,
    bicrossed_sum,
    verify_lie,
    verify_rep,
)
from l2b.twoterm import CrossedModuleData, TwoVectorSpace, derived_bracket_tensor


def _vec_render(coeffs, labels) -> str:
    if not coeffs:
        return "0"
    return " + ".join(f"({format_rational(coeffs[i])})*{labels[i]}" for i in sorted(coeffs))


def _nonzero(vec):
    return {k: v for k, v in vec.items() if v}


def _bracket_coeffs(bracket: SparseTensor, i, j):
    """Coefficients of [e_i, e_j]."""
    return {k: v for (a, b, k), v in bracket.entries.items() if (a, b) == (i, j)}


def _act(cm, i, vec):
    """e_i applied to a core vector given by coefficients."""
    out = {}
    for j, c in vec.items():
        for (a, b, k), v in cm.action.entries.items():
            if a == i and b == j:
                out[k] = out.get(k, Fraction(0)) + c * v
    return _nonzero(out)


def _partial(cm, vec):
    """partial applied to a core vector, as side coefficients."""
    out = {}
    for b, c in vec.items():
        for (a, bb), v in cm.tvs.partial.entries.items():
            if bb == b:
                out[a] = out.get(a, Fraction(0)) + c * v
    return _nonzero(out)


def _first_failing(name, cases, labels):
    """The check over ``(indices, lhs, rhs)`` vector cases, in scan order."""
    for idx, lhs, rhs in cases:
        if lhs != rhs:
            witness = Witness(idx, _vec_render(lhs, labels), _vec_render(rhs, labels))
            return Check(name, False, witness)
    return Check(name, True, None)


def equivariance(cm: CrossedModuleData) -> Check:
    def cases():
        for i, j in itertools.product(range(cm.dim0), range(cm.dim1)):
            lhs = _partial(cm, _act(cm, i, {j: Fraction(1)}))
            rhs = {}
            for k, p in _partial(cm, {j: Fraction(1)}).items():
                for a, c in _bracket_coeffs(cm.base.bracket, i, k).items():
                    rhs[a] = rhs.get(a, Fraction(0)) + p * c
            yield (i, j), lhs, _nonzero(rhs)

    return _first_failing("equivariance", cases(), cm.base.labels)


def skew_action(cm: CrossedModuleData) -> Check:
    dtens = derived_bracket_tensor(cm)
    n1 = cm.dim1
    for i in range(n1):
        for j in range(i, n1):
            for k in range(n1):
                if dtens.get((i, j, k)) + dtens.get((j, i, k)) != 0:
                    witness = Witness(
                        (i, j, k),
                        format_rational(dtens.get((i, j, k))),
                        format_rational(-dtens.get((j, i, k))),
                    )
                    return Check("skew_action", False, witness)
    return Check("skew_action", True, None)


def core_bracket(cm: CrossedModuleData, core: LieAlgebra) -> Check:
    dtens = derived_bracket_tensor(cm)
    for idx in itertools.product(range(cm.dim1), repeat=3):
        if core.bracket.get(idx) != dtens.get(idx):
            witness = Witness(
                idx, format_rational(core.bracket.get(idx)), format_rational(dtens.get(idx))
            )
            return Check("core_bracket", False, witness)
    return Check("core_bracket", True, None)


def partial_morphism(cm: CrossedModuleData, core: LieAlgebra) -> Check:
    def cases():
        for i, j in itertools.combinations(range(cm.dim1), 2):
            lhs = _partial(cm, _bracket_coeffs(core.bracket, i, j))
            rhs = {}
            for a, ca in _partial(cm, {i: Fraction(1)}).items():
                for b, cb in _partial(cm, {j: Fraction(1)}).items():
                    for k, c in _bracket_coeffs(cm.base.bracket, a, b).items():
                        rhs[k] = rhs.get(k, Fraction(0)) + ca * cb * c
            yield (i, j), lhs, _nonzero(rhs)

    return _first_failing("partial_morphism", cases(), cm.base.labels)


def action_derivation(cm: CrossedModuleData, core: LieAlgebra) -> Check:
    def cases():
        for i in range(cm.dim0):
            for a, b in itertools.combinations_with_replacement(range(cm.dim1), 2):
                lhs = _act(cm, i, _bracket_coeffs(core.bracket, a, b))
                rhs = {}
                for k, c in _act(cm, i, {a: Fraction(1)}).items():
                    for m, d in _bracket_coeffs(core.bracket, k, b).items():
                        rhs[m] = rhs.get(m, Fraction(0)) + c * d
                for k, c in _act(cm, i, {b: Fraction(1)}).items():
                    for m, d in _bracket_coeffs(core.bracket, a, k).items():
                        rhs[m] = rhs.get(m, Fraction(0)) + c * d
                yield (i, a, b), lhs, _nonzero(rhs)

    return _first_failing("action_derivation", cases(), cm.tvs.labels1)


def verify_cm_by_loops(cm: CrossedModuleData) -> VerificationReport:
    return VerificationReport(
        (
            verify_lie(cm.base).check("jacobi"),
            verify_rep(cm.base, cm.action).check("representation"),
            equivariance(cm),
            skew_action(cm),
        )
    )


def verify_full_crossed_module_by_loops(
    cm: CrossedModuleData, core: LieAlgebra
) -> VerificationReport:
    return VerificationReport(
        verify_cm_by_loops(cm).checks
        + (core_bracket(cm, core), partial_morphism(cm, core), action_derivation(cm, core))
    )


def g_action_algebroid(cm: CrossedModuleData) -> LieAlgebra:
    """Semidirect total of g0 with the core as a plain module (no core bracket)."""
    no_back_action = SparseTensor.zero((cm.dim1, cm.dim0, cm.dim0))
    return bicrossed_sum(
        cm.base, LieAlgebra.abelian(cm.tvs.labels1), cm.action, no_back_action
    )


# --- random candidates ------------------------------------------------------------

_VALUES = (Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2))


def _antisymmetric(rng, n, count):
    entries = {}
    for _ in range(count if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k, v = rng.randrange(n), rng.choice(_VALUES)
        entries[(i, j, k)] = entries.get((i, j, k), 0) + v
        entries[(j, i, k)] = entries.get((j, i, k), 0) - v
    return SparseTensor((n, n, n), entries)


def _bumped(rng, t: SparseTensor, count):
    entries = dict(t.entries)
    for _ in range(count):
        idx = tuple(rng.randrange(d) for d in t.dims)
        entries[idx] = entries.get(idx, 0) + rng.choice(_VALUES)
    return SparseTensor(t.dims, entries)


def random_candidate(rng):
    """A crossed-module candidate with dims 0-3 and a core bracket for it.

    Half are adjoint crossed modules of sl2, axb, the Heisenberg algebra or
    a line, with a few entries of the structure map, the action or the base
    bracket perturbed; the rest are random small tables.  The core bracket
    is the derived pairing when that is antisymmetric (so the full checks
    can pass), otherwise a random antisymmetric table; derived pairings
    that are not antisymmetric are frequent.
    """
    if rng.random() < 0.5:
        g = rng.choice((sl2(), axb(), heisenberg(), LieAlgebra.abelian(("x",))))
        cm = adjoint_cm(g)
        n0 = n1 = g.dim
        partial = _bumped(rng, cm.tvs.partial, rng.choice((0, 0, 1)))
        action = _bumped(rng, cm.action, rng.choice((0, 0, 1, 2)))
        bracket = g.bracket.add(_antisymmetric(rng, n0, rng.choice((0, 0, 1))))
        labels0, labels1 = g.labels, cm.tvs.labels1
    else:
        n0, n1 = rng.randrange(4), rng.randrange(4)
        partial = _bumped(rng, SparseTensor.zero((n0, n1)), rng.randrange(4) if n0 * n1 else 0)
        action = _bumped(rng, SparseTensor.zero((n0, n1, n1)), rng.randrange(4) if n0 * n1 else 0)
        bracket = _antisymmetric(rng, n0, rng.randrange(3))
        labels0, labels1 = None, None
    tvs = TwoVectorSpace(n0, n1, partial, labels0, labels1)
    cm = CrossedModuleData(LieAlgebra(tvs.labels0, bracket), tvs, action)
    dtens = derived_bracket_tensor(cm)
    try:
        core = LieAlgebra(tvs.labels1, dtens)
    except ValueError:
        core = LieAlgebra(tvs.labels1, _antisymmetric(rng, n1, 2))
    if rng.random() < 0.25:
        core = LieAlgebra(tvs.labels1, core.bracket.add(_antisymmetric(rng, n1, 1)))
    return cm, core
