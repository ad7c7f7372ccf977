"""The oracle must agree with the kernel wherever the kernel is correct.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402
from l2b import catalog  # noqa: E402
from l2b.documents import parse_document, run_verifier, serialize_document  # noqa: E402


def _program_passes(data: bytes, method: str = "auto") -> bool:
    return run_verifier(parse_document(data), method).passed


def _doc(kind, spaces, blocks) -> bytes:
    return json.dumps(
        {
            "kind": kind,
            "name": "t",
            "spaces": {k: {"dim": d} for k, d in spaces.items()},
            "blocks": {
                key: [[list(idx), str(v)] for idx, v in sorted(entries.items()) if v]
                for key, entries in blocks.items()
            },
        }
    ).encode()


@pytest.mark.parametrize("entry", catalog.entries(), ids=lambda e: e.name)
def test_catalog_verdicts(entry):
    data = serialize_document(entry.document)
    assert oracle.expected_valid_bytes(data) == entry.valid == _program_passes(data)


@pytest.mark.parametrize(
    "family",
    [
        "abelian",
        "adjoint",
        "semidirect_mp",
        "weak_abelian_l3",
        "random_basis_change:adjoint",
        "scaling",
        "random_basis_change:scaling",
    ],
)
def test_generated_and_edited_verdicts(family):
    for seed in range(10):
        doc = catalog.gen_document(family, seed)
        rng = random.Random(seed)
        for edits in range(3):
            edited = doc
            for _ in range(edits):
                edited = catalog.perturb_document(edited, rng)
            data = serialize_document(edited)
            assert oracle.expected_valid_bytes(data) == _program_passes(data), (seed, edits)


def test_abelian_dual_pairs_every_verifier():
    for seed in range(8):
        doc = catalog.gen_document("abelian_dual", seed)
        if doc.spaces["g0"].dim > 2:
            continue
        rng = random.Random(seed)
        for edits in range(2):
            edited = doc
            for _ in range(edits):
                edited = catalog.perturb_document(edited, rng)
            data = serialize_document(edited)
            want = oracle.expected_valid_bytes(data)
            for method in ("def", "matched", "weil"):
                assert _program_passes(data, method) == want, (seed, edits, method)


def test_ladder_rungs():
    for data in (
        serialize_document(workloads.adjoint_cm_doc(("sl2", "axb"))),
        serialize_document(workloads.adjoint_pair_doc(("axb", "axb"))),
    ):
        assert oracle.expected_valid_bytes(data) is True
        assert _program_passes(data, "matched" if b"lie2" in data else "auto")


def test_bialgebra_pairs_expose_the_def_defect():
    for name in workloads.BIALGEBRA_PAIRS:
        data = serialize_document(workloads.bialgebra_pair_doc(name))
        assert oracle.expected_valid_bytes(data)
        assert _program_passes(data, "matched")
        assert not _program_passes(data, "def")


def _random_bracket(rng, n, density=0.5):
    out = {}
    for i, j in itertools.combinations(range(n), 2):
        for k in range(n):
            if rng.random() < density:
                v = Fraction(rng.randint(-2, 2))
                out[(i, j, k)], out[(j, i, k)] = v, -v
    return out


def test_bialgebra_fuzz():
    rng = random.Random(3)
    seen = set()
    for _ in range(60):
        n = rng.choice((2, 3))
        bracket = _random_bracket(rng, n, 0.3)
        cob = {(i, j, k): -v for (j, k, i), v in _random_bracket(rng, n, 0.3).items()}
        data = _doc("bialgebra", {"g": n}, {"bracket": bracket, "cobracket": cob})
        want = oracle.expected_valid_bytes(data)
        seen.add(want)
        assert _program_passes(data) == want
    assert seen == {True, False}
    sl2_standard = _doc(
        "bialgebra",
        {"g": 3},
        {
            "bracket": {(0, 1, 2): 1, (1, 0, 2): -1, (2, 0, 0): 2, (0, 2, 0): -2,
                        (2, 1, 1): -2, (1, 2, 1): 2},
            "cobracket": {(0, 0, 2): 1, (0, 2, 0): -1, (1, 1, 2): 1, (1, 2, 1): -1},
        },
    )
    assert oracle.expected_valid_bytes(sl2_standard) and _program_passes(sl2_standard)


def _alternating(rng, n0, n1, density=0.5):
    out = {}
    for trip in itertools.combinations(range(n0), 3):
        for b in range(n1):
            if rng.random() < density:
                v = Fraction(rng.randint(-2, 2))
                for perm in itertools.permutations(range(3)):
                    out[tuple(trip[p] for p in perm) + (b,)] = oracle._perm_sign(perm) * v
    return out


def _weak_doc(n0, n1, bracket, partial, action, l3):
    return _doc(
        "weak_lie2",
        {"g0": n0, "g1": n1},
        {"bracket0": bracket, "partial": partial, "action": action, "jacobiator": l3},
    )


def test_weak_jacobiator_sign_and_homotopy_rep():
    """partial = id and x.h = [x,h] for a non-Jacobi bracket: valid iff l3 is
    the Jacobiator itself, with that sign."""
    rng = random.Random(5)
    for _ in range(6):
        n = 3
        bracket = _random_bracket(rng, n)
        br = oracle.Bilinear(bracket)
        jac = {}
        for i, j, k in itertools.permutations(range(n), 3):
            x, y, z = ({a: Fraction(1)} for a in (i, j, k))
            v = oracle._add(br(br(x, y), z), br(br(y, z), x), br(br(z, x), y))
            for b, c in v.items():
                jac[(i, j, k, b)] = c
        ident = {(a, a): Fraction(1) for a in range(n)}
        for sign in (1, -1):
            l3 = {idx: sign * v for idx, v in jac.items()}
            data = _weak_doc(n, n, bracket, ident, bracket, l3)
            assert oracle.expected_valid_bytes(data) == _program_passes(data)


def test_weak_four_argument_identity():
    """On axb (+) axb acting on a line, l3 is valid iff it is a
    Chevalley-Eilenberg cocycle; coboundaries pass and most random l3 fail."""
    rng = random.Random(11)
    g = workloads.direct_sum(("axb", "axb"))
    n0, n1 = g.dim, 1
    bracket = dict(g.bracket.entries)
    action = {(0, 0, 0): Fraction(1), (2, 0, 0): Fraction(2)}
    outcomes = set()
    for _ in range(12):
        # l3 = d(beta) for a random 2-cochain beta, or a random alternating form
        beta = {}
        for i, j in itertools.combinations(range(n0), 2):
            v = Fraction(rng.randint(-2, 2))
            beta[(i, j)], beta[(j, i)] = v, -v
        act = oracle.Bilinear(action)
        br = oracle.Bilinear(bracket)

        def b2(x, y):
            return {0: sum(x.get(i, 0) * y.get(j, 0) * c for (i, j), c in beta.items())}

        l3 = {}
        if rng.random() < 0.5:
            for trip in itertools.permutations(range(n0), 3):
                xs = [{a: Fraction(1)} for a in trip]
                terms = []
                for pos in range(3):
                    rest = [xs[q] for q in range(3) if q != pos]
                    terms.append(oracle._scale((-1) ** pos, act(xs[pos], b2(*rest))))
                for p, q in itertools.combinations(range(3), 2):
                    rest = [xs[r] for r in range(3) if r not in (p, q)]
                    terms.append(oracle._scale((-1) ** (p + q), b2(br(xs[p], xs[q]), rest[0])))
                v = oracle._add(*terms)
                if v.get(0):
                    l3[trip + (0,)] = v[0]
        else:
            l3 = _alternating(rng, n0, n1)
        data = _weak_doc(n0, n1, bracket, {}, action, l3)
        want = oracle.expected_valid_bytes(data)
        outcomes.add(want)
        assert _program_passes(data) == want
    assert outcomes == {True, False}
