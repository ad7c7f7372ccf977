import contextlib
import itertools
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from l2b.bicross import abelian_dual_pair, matched_pair_of
from l2b.catalog import adjoint_cm, axb, heisenberg, sl2, transform_lie, _unimodular
from l2b.exact import DimensionMismatch, SparseTensor, permute_axes
from l2b.liecore import (
    Check,
    LieAlgebra,
    LieCobracket,
    VerificationReport,
    Witness,
    bicrossed_sum,
    cobracket_to_dual_lie,
    cocycle_check,
    combine,
    verify_cocycle,
    verify_lie,
    verify_rep,
)
from l2b import catalog
from l2b.documents import (
    build_bialgebra,
    build_crossed_module,
    build_lie2_bialgebra,
    parse_document,
)
from l2b.twoterm import DerivedBracketError, gamma_total

import random

from conftest import bench_workloads
from cocycle_oracle import random_bialgebra_candidate, verify_cocycle_by_pairs
from drinfeld_double_oracle import is_lie_bialgebra
from jacobi_oracle import verify_lie_by_fold


def dual_cobracket(g: LieAlgebra) -> LieCobracket:
    """The cobracket a Lie bracket induces on the dual space: the transpose
    that `cobracket_to_dual_lie` inverts."""
    return LieCobracket(g.dim, permute_axes(g.bracket, (2, 0, 1)))


def random_valid_lie(seed):
    base = [LieAlgebra.abelian(("a", "b")), sl2(), axb(), heisenberg()][seed % 4]
    rng = random.Random(seed)
    s, s_inv = _unimodular(rng, base.dim)
    return transform_lie(base, s, s_inv)


def brute_force_jacobi(g):
    """Independent oracle: expand [[x,y],z] cyclically on all basis triples."""
    n = g.dim
    coeffs = {}  # (x, y) -> the coefficients of [e_x, e_y]
    for (x, y, k), v in g.bracket.entries.items():
        coeffs.setdefault((x, y), {})[k] = v
    for i, j, k in itertools.combinations(range(n), 3):
        acc = {}
        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c1 in coeffs.get((x, y), {}).items():
                for l, c2 in coeffs.get((m, z), {}).items():
                    acc[l] = acc.get(l, Q(0)) + c1 * c2
        if any(v != 0 for v in acc.values()):
            return False
    return True


def test_reports_compare_by_value():
    # nested sections and one section with the joined prefix give equal
    # reports, checks and metadata included
    w = Witness((0, 1), "1", "0", at="e0")
    r = VerificationReport((Check("x", True), Check("y", False, w)), (("note", "n"),))
    nested = combine(("a.", combine(("b.", r))))
    expected = VerificationReport(
        (Check("a.b.x", True), Check("a.b.y", False, w)), (("note", "n"),)
    )
    assert nested == combine(("a.b.", r)) == expected
    assert hash(nested) == hash(expected)
    assert not nested.passed and nested.check("a.b.y") == expected.checks[1]
    assert combine(r) == r == combine(("", r))
    assert combine(r, ("c.", VerificationReport((), (("m", "v"),)))).metadata == (
        ("note", "n"),
        ("m", "v"),
    )
    # a verifier's report equals the same checks assembled by hand
    g, d = sl2(), dual_cobracket(sl2())
    assert verify_cocycle(g, d) == combine(
        ("lie.primal.", verify_lie(g)),
        ("lie.dual.", verify_lie(cobracket_to_dual_lie(d))),
        VerificationReport((cocycle_check(g, d),)),
    )


def test_antisymmetry_enforced():
    with pytest.raises(ValueError):
        LieAlgebra(("a", "b"), SparseTensor((2, 2, 2), {(0, 1, 0): 1}))


def test_verify_lie_abelian():
    assert verify_lie(LieAlgebra.abelian(("a", "b"))).passed


def test_verify_lie_sl2():
    g = sl2()
    assert brute_force_jacobi(g)
    assert verify_lie(g).passed


def test_verify_lie_perturbed_sl2():
    # an e-component on [e,f] genuinely breaks Jacobi (unlike rescaling h,
    # which only moves within the isomorphism class)
    bad = LieAlgebra.from_table(
        ("e", "f", "h"), {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    )
    assert not brute_force_jacobi(bad)
    report = verify_lie(bad)
    assert not report.passed
    w = report.check("jacobi").witness
    assert w is not None and w.indices[:3] == (0, 1, 2)


@given(st.integers(0, 60))
def test_verify_lie_matches_brute_force(seed):
    g = random_valid_lie(seed)
    assert verify_lie(g).passed == brute_force_jacobi(g)


def random_table(rng):
    """An antisymmetric bracket table of dim 0 to 7 with a few int and Fraction entries."""
    n = rng.randrange(8)
    entries = {}
    for _ in range(rng.randrange(3 * n + 1)):
        i, j, k = (rng.randrange(n) for _ in range(3))
        if i != j:
            c = rng.choice((rng.randrange(-2, 3), Q(rng.randrange(-3, 4), rng.randrange(1, 4))))
            entries[(i, j, k)] = entries.get((i, j, k), 0) + c
            entries[(j, i, k)] = entries.get((j, i, k), 0) - c
    return LieAlgebra(tuple(f"x{i}" for i in range(n)), SparseTensor((n, n, n), entries))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_verify_lie_matches_fold_oracle(seed):
    g = random_table(random.Random(seed))
    assert verify_lie(g).checks == verify_lie_by_fold(g).checks


def test_verify_lie_fold_oracle_covers_dims_scalars_and_verdicts():
    seen = set()
    for seed in range(300):
        g = random_table(random.Random(seed))
        report = verify_lie(g)
        assert report.checks == verify_lie_by_fold(g).checks
        values = g.bracket.entries.values()
        seen.add((g.dim, report.passed, any(type(v) is Q for v in values)))
    assert {dim for dim, _, _ in seen} == set(range(8))
    assert {(passed, frac) for _, passed, frac in seen} == {
        (True, False), (True, True), (False, False), (False, True)
    }


def test_verify_lie_fold_oracle_on_the_sl2_sl2_ladder_totals():
    # the def and matched totals of the adjoint sl2+sl2 pair with the zero dual
    zero = SparseTensor.zero((3, 3, 3))
    d = abelian_dual_pair(adjoint_cm(bicrossed_sum(sl2(), sl2(), zero, zero)))
    mp = matched_pair_of(d)
    totals = [gamma_total(d.cm1), bicrossed_sum(mp.h, mp.k, mp.act_h_on_k, mp.act_k_on_h)]
    # and the def total with one entry pair changed, so that Jacobi fails
    g = totals[0]
    edit = {(0, 6, 7): 1, (6, 0, 7): -1}
    totals.append(LieAlgebra(g.labels, g.bracket.add(SparseTensor(g.bracket.dims, edit))))
    assert [verify_lie(t).passed for t in totals] == [True, True, False]
    for t in totals:
        assert t.dim == 12
        assert verify_lie(t).checks == verify_lie_by_fold(t).checks


def test_verify_lie_fold_oracle_on_every_benchmark_algebra():
    # every Lie algebra the verifiers build from the distinct documents of
    # the l2b_population seeds 1-3 and the dim_ladder seed 1: the base of
    # each crossed module, the matched pair's bicrossed sum and the def
    # totals that exist
    workloads = bench_workloads()
    ops = [op for s in (1, 2, 3) for op in workloads.build_population(workloads.plan_population(s))]
    ops += workloads.build_ladder(workloads.plan_ladder(1))
    algebras = []
    for data in dict.fromkeys(op.data for op in ops):
        doc = parse_document(data)
        if doc.kind == "crossed_module":
            algebras.append(build_crossed_module(doc).base)
            continue
        d = build_lie2_bialgebra(doc)
        mp = matched_pair_of(d)
        bicrossed = bicrossed_sum(mp.h, mp.k, mp.act_h_on_k, mp.act_k_on_h)
        algebras += [d.cm1.base, d.cm2.base, bicrossed]
        for cm in (d.cm1, d.cm2):
            with contextlib.suppress(DerivedBracketError):
                algebras.append(gamma_total(cm))
    verdicts = Counter()
    for g in algebras:
        report = verify_lie(g)
        assert report.checks == verify_lie_by_fold(g).checks, g.labels
        verdicts[report.passed] += 1
    assert verdicts == {True: 690, False: 30}
    assert max(g.dim for g in algebras) == 12


def test_verify_rep_zero_matrices():
    assert verify_rep(sl2(), SparseTensor.zero((3, 2, 2))).passed


def test_verify_rep_adjoint_sl2():
    g = sl2()
    report = verify_rep(g, g.bracket)
    assert report.passed
    assert [c.cond for c in report.checks] == ["representation"]


def test_verify_rep_perturbed():
    g = sl2()
    report = verify_rep(g, g.bracket.add(SparseTensor((3, 3, 3), {(0, 0, 0): 1})))
    assert not report.passed
    assert report.check("representation").witness is not None


def test_verify_rep_witness_convention():
    # axb acting on a line through e1 only: [e0, e1].v = e1.v = v, while
    # e0 acts by zero, so the commutator is 0.  The witness is (i, j, a, b)
    # with a the output and b the input index.
    report = verify_rep(axb(), SparseTensor((2, 1, 1), {(1, 0, 0): 1}))
    w = report.check("representation").witness
    assert (w.indices, w.lhs, w.rhs) == ((0, 1, 0, 0), "1", "0")
    # on a 2-dim module with e1.v0 = v1 and e1.v1 = 2 v0 both output/input
    # pairs fail; the first is a = 0, b = 1, the v0 coefficient of e1.v1
    act = SparseTensor((2, 2, 2), {(1, 0, 1): 1, (1, 1, 0): 2})
    w = verify_rep(axb(), act).check("representation").witness
    assert (w.indices, w.lhs, w.rhs) == ((0, 1, 0, 1), "2", "0")


def test_verify_rep_checks_action_dims():
    with pytest.raises(DimensionMismatch):
        verify_rep(sl2(), SparseTensor.zero((2, 1, 1)))
    with pytest.raises(DimensionMismatch):
        verify_rep(sl2(), SparseTensor.zero((3, 1, 2)))
    line = LieAlgebra.abelian(("v",))
    with pytest.raises(DimensionMismatch):
        bicrossed_sum(sl2(), line, SparseTensor.zero((3, 2)), SparseTensor.zero((1, 3, 3)))
    with pytest.raises(DimensionMismatch):
        bicrossed_sum(sl2(), line, SparseTensor.zero((3, 1, 1)), SparseTensor.zero((1, 2, 2)))


@given(st.integers(0, 60))
def test_adjoint_rep_iff_jacobi(seed):
    g = random_valid_lie(seed)
    assert verify_rep(g, g.bracket).passed == verify_lie(g).passed


def test_cobracket_to_dual_zero():
    d = LieCobracket(2, SparseTensor.zero((2, 2, 2)))
    assert not cobracket_to_dual_lie(d).bracket.entries


def test_cobracket_to_dual_example():
    # delta(e1) = e0^e1 dualizes to [x0*, x1*] = x1*
    d = LieCobracket.from_table(2, {1: {(0, 1): 1}})
    dual = cobracket_to_dual_lie(d)
    assert dual.bracket.get((0, 1, 1)) == 1
    assert dual.bracket.get((0, 1, 0)) == 0


@given(small_cobr=st.integers(0, 100))
def test_dual_round_trip(small_cobr):
    rng = random.Random(small_cobr)
    n = 2 + rng.randrange(2)
    entries = {}
    for _ in range(rng.randrange(4)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        k = rng.randrange(n)
        if j == k:
            continue
        entries[(i, j, k)] = entries.get((i, j, k), Q(0)) + 1
        entries[(i, k, j)] = entries.get((i, k, j), Q(0)) - 1
    d = LieCobracket(n, SparseTensor((n, n, n), entries))
    assert dual_cobracket(cobracket_to_dual_lie(d)).tensor == d.tensor


def test_cocycle_zero_cobracket():
    for g in (sl2(), axb(), heisenberg()):
        assert verify_cocycle(g, LieCobracket(g.dim, SparseTensor.zero((g.dim,) * 3))).passed


def test_cocycle_axb():
    d = LieCobracket.from_table(2, {1: {(0, 1): 1}})
    assert verify_cocycle(axb(), d).passed


def test_cocycle_heisenberg_fails():
    d = LieCobracket.from_table(3, {2: {(0, 1): 1}})
    report = verify_cocycle(heisenberg(), d)
    assert not report.passed
    assert report.check("lie.primal.jacobi").passed
    assert report.check("lie.dual.jacobi").passed
    w = report.check("cocycle").witness
    assert w is not None and w.indices == (0, 1)


def test_cocycle_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_cocycle(axb(), LieCobracket(3, SparseTensor.zero((3, 3, 3))))


def _bialgebra_candidates(seed):
    """Seeded (bracket, cobracket) pairs, valid and invalid alike."""
    rng = random.Random(seed)
    g = random_valid_lie(rng.randrange(1000))
    n = g.dim
    entries = {}
    for _ in range(rng.randrange(3)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        k = rng.randrange(n)
        if j == k:
            continue
        v = Q(rng.randrange(1, 3))
        entries[(i, j, k)] = entries.get((i, j, k), Q(0)) + v
        entries[(i, k, j)] = entries.get((i, k, j), Q(0)) - v
    return g, LieCobracket(n, SparseTensor((n, n, n), entries))


@settings(max_examples=40)
@given(st.integers(0, 2000))
def test_bialgebra_duality_symmetry(seed):
    # (g, d) is a bialgebra iff the transposed pair is one
    g, d = _bialgebra_candidates(seed)
    forward = verify_cocycle(g, d).passed
    backward = verify_cocycle(
        cobracket_to_dual_lie(d), dual_cobracket(g)
    ).passed
    assert forward == backward


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_cocycle_equals_pair_oracle(seed):
    g, d = random_bialgebra_candidate(random.Random(seed))
    assert verify_cocycle(g, d).checks == verify_cocycle_by_pairs(g, d).checks


def test_drinfeld_double_decides_bialgebras():
    # the catalog's bialgebra documents and random candidates, valid and
    # invalid alike: the double is a Lie algebra iff the cocycle verdict passes
    cases = [
        build_bialgebra(entry.document)
        for entry in catalog.entries()
        if entry.kind == "bialgebra"
    ]
    assert len(cases) == 2
    cases += [random_bialgebra_candidate(random.Random(seed)) for seed in range(40)]
    verdicts = Counter()
    for g, d in cases:
        passed = verify_cocycle(g, d).passed
        assert is_lie_bialgebra(g, d) == passed
        verdicts[passed] += 1
    assert verdicts[True] and verdicts[False]


def test_pair_oracle_candidates_pass_and_fail():
    verdicts = set()
    for seed in range(200):
        g, d = random_bialgebra_candidate(random.Random(seed))
        report = verify_cocycle(g, d)
        assert report.checks == verify_cocycle_by_pairs(g, d).checks
        verdicts.add(report.check("cocycle").passed)
    assert verdicts == {True, False}


def _no_back_action(h, k):
    return SparseTensor.zero((k.dim, h.dim, h.dim))


def test_semidirect_abelian():
    g = LieAlgebra.abelian(("a", "b"))
    v = LieAlgebra.abelian(("v",))
    total = bicrossed_sum(g, v, SparseTensor.zero((2, 1, 1)), _no_back_action(g, v))
    assert total.dim == 3 and not total.bracket.entries


def test_semidirect_scaling():
    g, v = LieAlgebra.abelian(("e",)), LieAlgebra.abelian(("f",))
    total = bicrossed_sum(g, v, SparseTensor((1, 1, 1), {(0, 0, 0): 1}), _no_back_action(g, v))
    assert total.labels == ("e", "f")
    assert total.bracket.get((0, 1, 1)) == 1
    assert verify_lie(total).passed


def test_semidirect_sl2_adjoint_with_core():
    g = sl2()
    core = LieAlgebra(("E", "F", "H"), g.bracket)
    total = bicrossed_sum(g, core, g.bracket, _no_back_action(g, core))
    assert total.dim == 6
    assert verify_lie(total).passed
    # core-core block carries the core bracket
    assert total.bracket.get((3, 4, 5)) == 1


@given(st.integers(0, 60))
def test_semidirect_zero_core_is_lie(seed):
    g = random_valid_lie(seed)
    v = LieAlgebra.abelian(tuple(f"v{i}" for i in range(g.dim)))
    total = bicrossed_sum(g, v, g.bracket, _no_back_action(g, v))
    assert verify_lie(total).passed
