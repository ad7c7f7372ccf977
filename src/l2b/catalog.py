"""Built-in instance catalog and deterministic seeded generators.

Every catalog entry ships as a document together with its expected
verdict; valid entries pass their natural verifier and the perturbed ones
fail with a nonempty witness.  The generator families produce documents
deterministically from ``(family, seed)``; with ``perturbed=True`` a
seeded single-entry modification is applied and re-rolled (bounded) until
the result genuinely fails its verifier.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .bicross import Lie2BialgebraData, MatchedPairData, abelian_dual_pair
from .documents import (
    SpaceDecl,
    StructureDocument,
    _SCHEMAS,
    build_crossed_module,
    build_lie2_bialgebra,
    doc_from_bialgebra,
    doc_from_crossed_module,
    doc_from_lie2_bialgebra,
    doc_from_lie_algebra,
    doc_from_matched_pair,
    doc_from_weak_lie2,
    run_verifier,
)
from .exact import SparseTensor, contract, perm_parity, permute_axes
from .liecore import LieAlgebra, LieCobracket
from .twoterm import (
    CrossedModuleData,
    TwoVectorSpace,
    WeakLie2Data,
    dual_two_vs,
)


class UnknownFamily(ValueError):
    """Requested generator family does not exist."""


class RetryExhaustion(RuntimeError):
    """No seeded perturbation of this instance produced an invalid document."""


# --- stock instances ----------------------------------------------------------


def sl2() -> LieAlgebra:
    """Basis (e, f, h) with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return LieAlgebra.from_table(
        ("e", "f", "h"), {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    )


def axb() -> LieAlgebra:
    """The 2-dimensional non-abelian algebra [e0, e1] = e1."""
    return LieAlgebra.from_table(("e0", "e1"), {(0, 1): {1: 1}})


def heisenberg() -> LieAlgebra:
    return LieAlgebra.from_table(("x", "y", "z"), {(0, 1): {2: 1}})


def adjoint_cm(g: LieAlgebra) -> CrossedModuleData:
    """The crossed module [g -> g] with identity map and adjoint action."""
    n = g.dim
    core_labels = tuple(s.upper() if s.upper() != s else s + "'" for s in g.labels)
    identity = SparseTensor((n, n), {(i, i): 1 for i in range(n)})
    tvs = TwoVectorSpace(n, n, identity, g.labels, core_labels)
    return CrossedModuleData(g, tvs, SparseTensor((n, n, n), dict(g.bracket.entries)))


def abelian_cm(n0: int, n1: int) -> CrossedModuleData:
    tvs = TwoVectorSpace(n0, n1, SparseTensor.zero((n0, n1)))
    return CrossedModuleData(
        LieAlgebra.abelian(tvs.labels0), tvs, SparseTensor.zero((n0, n1, n1))
    )


def axb_action_cm() -> CrossedModuleData:
    """g0 = axb acting on a 1-dimensional core by e0.f = f, zero structure map."""
    g = axb()
    tvs = TwoVectorSpace(2, 1, SparseTensor.zero((2, 1)), g.labels, ("f",))
    return CrossedModuleData(g, tvs, SparseTensor((2, 1, 1), {(0, 0, 0): 1}))


def scaling_pair(lam, mu) -> Lie2BialgebraData:
    """1-dimensional side and core, zero structure map, scaling actions."""
    tvs1 = TwoVectorSpace(1, 1, SparseTensor.zero((1, 1)), ("e",), ("f",))
    cm1 = CrossedModuleData(
        LieAlgebra.abelian(("e",)), tvs1, SparseTensor((1, 1, 1), {(0, 0, 0): lam})
    )
    tvs2 = dual_two_vs(tvs1)
    cm2 = CrossedModuleData(
        LieAlgebra.abelian(tvs2.labels0),
        tvs2,
        SparseTensor((1, 1, 1), {(0, 0, 0): mu}),
    )
    return Lie2BialgebraData(cm1, cm2)


def trace_pair(a, b, c, d) -> Lie2BialgebraData:
    """axb side acting on a 1-dim core, dual action by [[a,c],[b,d]] on g0*.

    Direct computation (matched-pair Jacobi, equivalently the cocycle or
    the derivation condition) shows validity is exactly trace zero:
    a + d = 0.
    """
    g = axb()
    tvs1 = TwoVectorSpace(2, 1, SparseTensor.zero((2, 1)), g.labels, ("f",))
    cm1 = CrossedModuleData(g, tvs1, SparseTensor((2, 1, 1), {(0, 0, 0): 1}))
    tvs2 = dual_two_vs(tvs1)
    dual_act = SparseTensor(
        (1, 2, 2),
        {(0, 0, 0): a, (0, 0, 1): b, (0, 1, 0): c, (0, 1, 1): d},
    )
    cm2 = CrossedModuleData(LieAlgebra.abelian(tvs2.labels0), tvs2, dual_act)
    return Lie2BialgebraData(cm1, cm2)


def weak_l3_example(n1: int = 1, coeff=1, target: int = 0) -> WeakLie2Data:
    """Abelian 3-dim side, trivial structure, nonzero alternating 3-form into g1."""
    entries = {
        perm + (target,): perm_parity(perm) * Fraction(coeff)
        for perm in itertools.permutations((0, 1, 2))
    }
    return WeakLie2Data(abelian_cm(3, n1), SparseTensor((3, 3, 3, n1), entries))


def semidirect_mp(h: LieAlgebra, act: SparseTensor, k_dim: int) -> MatchedPairData:
    k = LieAlgebra.abelian(tuple(f"k{i}" for i in range(k_dim)))
    return MatchedPairData(h, k, act, SparseTensor.zero((k_dim, h.dim, h.dim)))


# --- the shipped catalog --------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    valid: bool
    description: str
    document: StructureDocument


def _build_entries() -> tuple[CatalogEntry, ...]:
    out = []

    def add(name, valid, description, doc):
        out.append(CatalogEntry(name, doc.kind, valid, description, doc))

    add(
        "abelian2",
        True,
        "2-dimensional abelian Lie algebra",
        doc_from_lie_algebra(LieAlgebra.abelian(("e0", "e1")), "abelian2"),
    )
    add("sl2", True, "sl2 with [e,f]=h, [h,e]=2e, [h,f]=-2f", doc_from_lie_algebra(sl2(), "sl2"))
    bad_sl2 = LieAlgebra.from_table(
        ("e", "f", "h"), {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    )
    add(
        "sl2_bad_jacobi",
        False,
        "sl2 with an extra e-component on [e,f]; Jacobi fails on (e,f,h)",
        doc_from_lie_algebra(bad_sl2, "sl2_bad_jacobi"),
    )
    add(
        "axb_bialgebra",
        True,
        "[e0,e1]=e1 with cobracket delta(e1)=e0^e1",
        doc_from_bialgebra(
            axb(), LieCobracket.from_table(2, {1: {(0, 1): 1}}), "axb_bialgebra"
        ),
    )
    add(
        "heisenberg_bad_cocycle",
        False,
        "Heisenberg bracket with cobracket delta(z)=x^y; both sides are Lie "
        "but the cocycle identity fails on (x,y)",
        doc_from_bialgebra(
            heisenberg(), LieCobracket.from_table(3, {2: {(0, 1): 1}}),
            "heisenberg_bad_cocycle",
        ),
    )
    add(
        "abelian_cm_21",
        True,
        "abelian crossed module, side dim 2, core dim 1",
        doc_from_crossed_module(abelian_cm(2, 1), "abelian_cm_21"),
    )
    add(
        "axb_action_cm",
        True,
        "axb acting on a 1-dim core by e0.f=f, zero structure map",
        doc_from_crossed_module(axb_action_cm(), "axb_action_cm"),
    )
    add(
        "adjoint_sl2_cm",
        True,
        "adjoint crossed module [sl2 -> sl2]",
        doc_from_crossed_module(adjoint_cm(sl2()), "adjoint_sl2_cm"),
    )
    bad_adj = adjoint_cm(sl2())
    bad_action = bad_adj.action.add(SparseTensor((3, 3, 3), {(0, 0, 0): 1}))
    add(
        "adjoint_sl2_cm_bad_action",
        False,
        "adjoint crossed module with one action entry bumped; the "
        "representation check fails",
        doc_from_crossed_module(
            CrossedModuleData(bad_adj.base, bad_adj.tvs, bad_action),
            "adjoint_sl2_cm_bad_action",
        ),
    )
    add(
        "scaling_l2b",
        True,
        "scaling pair with unit weights on a 1-dim side and core",
        doc_from_lie2_bialgebra(scaling_pair(1, 1), "scaling_l2b"),
    )
    add(
        "trace_l2b",
        True,
        "axb-side pair with trace-zero dual action (valid iff trace zero)",
        doc_from_lie2_bialgebra(trace_pair(1, 2, 3, -1), "trace_l2b"),
    )
    add(
        "trace_l2b_bad",
        False,
        "axb-side pair with trace-one dual action; all three verifiers fail",
        doc_from_lie2_bialgebra(trace_pair(1, 0, 0, 1), "trace_l2b_bad"),
    )
    add(
        "abelian_dual_adjoint_l2b",
        True,
        "adjoint sl2 crossed module paired with the zero dual structure",
        doc_from_lie2_bialgebra(
            abelian_dual_pair(adjoint_cm(sl2())), "abelian_dual_adjoint_l2b"
        ),
    )
    add(
        "weak_l3",
        True,
        "abelian 3-dim side with a nonzero alternating 3-form into the core",
        doc_from_weak_lie2(weak_l3_example(), "weak_l3"),
    )
    wbad = weak_l3_example()
    bad_partial = TwoVectorSpace(3, 1, SparseTensor((3, 1), {(0, 0): 1}))
    add(
        "weak_l3_bad_partial",
        False,
        "same 3-form with a nonzero structure map; the (2,0) square fails",
        doc_from_weak_lie2(
            WeakLie2Data(
                CrossedModuleData(wbad.cm.base, bad_partial, wbad.cm.action), wbad.jacobiator
            ),
            "weak_l3_bad_partial",
        ),
    )
    add(
        "dvb_231",
        True,
        "split double vector space with dims (2,3,1)",
        StructureDocument(
            "dvb",
            "dvb_231",
            {
                "side_h": SpaceDecl(2, name="A"),
                "side_v": SpaceDecl(3, name="B"),
                "core": SpaceDecl(1, name="C"),
            },
        ),
    )
    add(
        "matched_axb_module",
        True,
        "axb acting on a 1-dim abelian factor, trivial reverse action",
        doc_from_matched_pair(
            semidirect_mp(axb(), SparseTensor((2, 1, 1), {(0, 0, 0): 1}), 1),
            "matched_axb_module",
        ),
    )
    add(
        "matched_axb_bad",
        False,
        "same with the action moved to e1, not a representation; bicrossed Jacobi fails",
        doc_from_matched_pair(
            semidirect_mp(axb(), SparseTensor((2, 1, 1), {(1, 0, 0): 1}), 1),
            "matched_axb_bad",
        ),
    )
    return tuple(out)


_ENTRIES = _build_entries()


def entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


def get(name: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    raise KeyError(name)


# --- seeded generators ------------------------------------------------------------


# every `gen` family, in a fixed order (scripts/report_digest.py seeds by
# position), with the family whose members a random basis change moves
_BASIS_CHANGE_OF = {
    "abelian": None,
    "adjoint": None,
    "scaling": None,
    "abelian_dual": None,
    "semidirect_mp": None,
    "weak_abelian_l3": None,
    "random_basis_change:adjoint": "adjoint",
    "random_basis_change:scaling": "scaling",
    "random_basis_change:abelian_dual": "abelian_dual",
}
FAMILIES = tuple(_BASIS_CHANGE_OF)


def _rand_nonzero(rng: random.Random) -> Fraction:
    num = rng.randrange(1, 4) * (1 if rng.randrange(2) else -1)
    den = rng.randrange(1, 4)
    return Fraction(num, den)


def _mat_tensor(m) -> SparseTensor:
    """A basis change given as row tuples, as a tensor of dims (rows, columns)."""
    entries = {}
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return SparseTensor((len(m), len(m[0]) if m else 0), entries)


def _unimodular(rng: random.Random, n: int):
    """The product of three elementary shears (none if ``n < 2``) and its inverse, as rows.

    Shear ``i, j, c`` is the identity plus ``c`` at row ``i``, column ``j``;
    multiplying ``s`` by it on the right adds ``c`` times column ``i`` to
    column ``j``, and multiplying ``s_inv`` by its inverse on the left
    subtracts ``c`` times row ``j`` from row ``i``.
    """
    s = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    s_inv = [list(row) for row in s]
    for _ in range(3 if n >= 2 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        c = Fraction(rng.randrange(1, 3) * (1 if rng.randrange(2) else -1))
        for row in s:
            row[j] += c * row[i]
        s_inv[i] = [x - c * y for x, y in zip(s_inv[i], s_inv[j])]
    return tuple(map(tuple, s)), tuple(map(tuple, s_inv))


def _change_bracket(bracket: SparseTensor, s: SparseTensor, s_inv: SparseTensor) -> SparseTensor:
    """A bracket-shaped tensor (x, y, out) in the basis e~_i = sum_a S[a][i] e_a."""
    return permute_axes(
        contract(s_inv, contract(contract(bracket, s, [(0, 0)]), s, [(0, 0)]), [(1, 0)]),
        (1, 2, 0),
    )


def transform_lie(g: LieAlgebra, s, s_inv) -> LieAlgebra:
    """Change of basis e~_i = sum_a S[a][i] e_a on a bare Lie algebra."""
    return LieAlgebra(g.labels, _change_bracket(g.bracket, _mat_tensor(s), _mat_tensor(s_inv)))


def _transform_cm(cm: CrossedModuleData, s, s_inv, t, t_inv) -> CrossedModuleData:
    bracket = _change_bracket(cm.base.bracket, s, s_inv)
    action = permute_axes(
        contract(t_inv, contract(contract(cm.action, s, [(0, 0)]), t, [(0, 0)]), [(1, 0)]),
        (1, 2, 0),
    )
    partial = contract(contract(s_inv, cm.tvs.partial, [(1, 0)]), t, [(1, 0)])
    base = LieAlgebra(cm.base.labels, bracket)
    tvs = TwoVectorSpace(cm.dim0, cm.dim1, partial, cm.tvs.labels0, cm.tvs.labels1)
    return CrossedModuleData(base, tvs, action)


def transform_cm(cm: CrossedModuleData, s, s_inv, t, t_inv) -> CrossedModuleData:
    """Change of basis e~_i = sum_a S[a][i] e_a on the side, T on the core.

    The four basis changes are row tuples.
    """
    return _transform_cm(cm, *map(_mat_tensor, (s, s_inv, t, t_inv)))


def transform_l2b(d: Lie2BialgebraData, s, s_inv, t, t_inv) -> Lie2BialgebraData:
    """Simultaneous change of basis; the dual data moves contragrediently."""
    s, s_inv, t, t_inv = map(_mat_tensor, (s, s_inv, t, t_inv))
    cm1 = _transform_cm(d.cm1, s, s_inv, t, t_inv)
    s2, s2_inv, t2, t2_inv = (permute_axes(m, (1, 0)) for m in (t_inv, t, s_inv, s))
    cm2 = _transform_cm(d.cm2, s2, s2_inv, t2, t2_inv)
    return Lie2BialgebraData(cm1, cm2)


def _valid_document(family: str, rng: random.Random, name: str) -> StructureDocument:
    if family == "abelian":
        n0 = 1 + rng.randrange(3)
        n1 = 1 + rng.randrange(3)
        return doc_from_crossed_module(abelian_cm(n0, n1), name)
    if family == "adjoint":
        g = [sl2, axb, lambda: LieAlgebra.abelian(("e0", "e1"))][rng.randrange(3)]()
        return doc_from_crossed_module(adjoint_cm(g), name)
    if family == "scaling":
        lam = _rand_nonzero(rng)
        mu = _rand_nonzero(rng)
        return doc_from_lie2_bialgebra(scaling_pair(lam, mu), name)
    if family == "abelian_dual":
        pick = rng.randrange(4)
        if pick == 0:
            cm = abelian_cm(1 + rng.randrange(2), 1 + rng.randrange(2))
        elif pick == 1:
            cm = adjoint_cm(sl2())
        elif pick == 2:
            cm = axb_action_cm()
        else:
            cm = adjoint_cm(axb())
        return doc_from_lie2_bialgebra(abelian_dual_pair(cm), name)
    if family == "semidirect_mp":
        if rng.randrange(2):
            act = SparseTensor((2, 1, 1), {(0, 0, 0): _rand_nonzero(rng)})
            mp = semidirect_mp(axb(), act, 1)
        else:
            g = sl2()
            mp = semidirect_mp(g, SparseTensor((3, 3, 3), dict(g.bracket.entries)), 3)
        return doc_from_matched_pair(mp, name)
    # weak_abelian_l3
    n1 = 1 + rng.randrange(2)
    w = weak_l3_example(n1, _rand_nonzero(rng), rng.randrange(n1))
    return doc_from_weak_lie2(w, name)


def _gen_valid(family: str, rng: random.Random, name: str) -> StructureDocument:
    if family not in _BASIS_CHANGE_OF:
        raise UnknownFamily(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    base = _BASIS_CHANGE_OF[family]
    if base is None:
        return _valid_document(family, rng, name)
    doc = _valid_document(base, rng, name)
    if doc.kind == "crossed_module":
        cm = build_crossed_module(doc)
        s, s_inv = _unimodular(rng, cm.dim0)
        t, t_inv = _unimodular(rng, cm.dim1)
        return doc_from_crossed_module(transform_cm(cm, s, s_inv, t, t_inv), name)
    d = build_lie2_bialgebra(doc)
    s, s_inv = _unimodular(rng, d.dim0)
    t, t_inv = _unimodular(rng, d.dim1)
    return doc_from_lie2_bialgebra(transform_l2b(d, s, s_inv, t, t_inv), name)


# perturbation slot descriptions: block name -> symmetry kind
_SYMMETRY = {
    "bracket": "antisym01",
    "bracket0": "antisym01",
    "bracket_h": "antisym01",
    "bracket_k": "antisym01",
    "dual_bracket": "antisym01",
    "cobracket": "antisym12",
    "jacobiator": "antisym012",
    "partial": "plain",
    "action": "plain",
    "action0": "plain",
    "dual_action": "plain",
    "act_h_on_k": "plain",
    "act_k_on_h": "plain",
}

_DELTAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def _perturbable_blocks(doc: StructureDocument):
    schema = _SCHEMAS[doc.kind]["blocks"]
    usable = []
    for key, axes in schema.items():
        dims = tuple(doc.spaces[s].dim for s in axes)
        sym = _SYMMETRY[key]
        if sym == "antisym01" and (dims[0] < 2):
            continue
        if sym == "antisym12" and (dims[1] < 2):
            continue
        if sym == "antisym012" and (dims[0] < 3):
            continue
        if any(d == 0 for d in dims):
            continue
        usable.append((key, dims, sym))
    return usable


def perturb_document(doc: StructureDocument, rng: random.Random) -> StructureDocument:
    """One seeded single-entry modification preserving construction invariants."""
    usable = _perturbable_blocks(doc)
    if not usable:
        raise RetryExhaustion(f"no perturbable blocks in kind {doc.kind}")
    key, dims, sym = usable[rng.randrange(len(usable))]
    delta = _DELTAS[rng.randrange(len(_DELTAS))]
    entries = dict(doc.block_tensor(key).entries)

    def bump(idx, val):
        cur = entries.get(idx, Fraction(0)) + val
        if cur:
            entries[idx] = cur
        else:
            entries.pop(idx, None)

    if sym == "antisym01":
        i = rng.randrange(dims[0])
        j = rng.randrange(dims[0])
        while j == i:
            j = rng.randrange(dims[0])
        k = rng.randrange(dims[2])
        bump((i, j, k), delta)
        bump((j, i, k), -delta)
    elif sym == "antisym12":
        i = rng.randrange(dims[0])
        j = rng.randrange(dims[1])
        k = rng.randrange(dims[1])
        while k == j:
            k = rng.randrange(dims[1])
        bump((i, j, k), delta)
        bump((i, k, j), -delta)
    elif sym == "antisym012":
        picks: set[int] = set()
        while len(picks) < 3:
            picks.add(rng.randrange(dims[0]))
        i, j, k = sorted(picks)
        b = rng.randrange(dims[3])
        for perm in itertools.permutations((i, j, k)):
            bump(perm + (b,), perm_parity(perm) * delta)
    else:
        idx = tuple(rng.randrange(d) for d in dims)
        bump(idx, delta)
    blocks = {**doc.blocks, key: SparseTensor(dims, entries)}
    return StructureDocument(doc.kind, doc.name, doc.spaces, blocks)


_MAX_PERTURB_ATTEMPTS = 64


def gen_document(family: str, seed: int, perturbed: bool = False) -> StructureDocument:
    """Deterministic document for (family, seed); optionally an invalid variant."""
    rng = random.Random(seed)
    suffix = "-perturbed" if perturbed else ""
    name = f"{family.replace(':', '-')}-{seed}{suffix}"
    doc = _gen_valid(family, rng, name)
    if not perturbed:
        return doc
    for _ in range(_MAX_PERTURB_ATTEMPTS):
        candidate = perturb_document(doc, rng)
        try:
            report = run_verifier(candidate, "auto")
        except ValueError:
            continue
        if not report.passed:
            return candidate
    raise RetryExhaustion(
        f"no invalidating single-entry perturbation found for {family} seed {seed}"
    )


# --- seeded populations -------------------------------------------------------------

# population families (see `seeded_member`): crossed-module families whose
# valid members exercise all the crossed-module machinery, and Lie
# 2-bialgebra families, every member of which has a nonzero core
CM_FAMILIES = ("abelian", "adjoint", "random_basis_change:adjoint")
L2B_FAMILIES = (
    "scaling",
    "abelian_dual",
    "random_basis_change:scaling",
    "random_basis_change:abelian_dual",
)


def seeded_doc(family: str, seed: int, modifications: int = 0) -> StructureDocument:
    """``gen_document(family, seed)`` with ``modifications`` seeded edits.

    Unlike ``perturbed=True`` the edits are kept whatever the verdict.
    """
    doc = gen_document(family, seed)
    rng = random.Random(seed * 1000003 + modifications * 97 + sum(map(ord, family)))
    for _ in range(modifications):
        doc = perturb_document(doc, rng)
    return doc


def seeded_member(families: tuple[str, ...], seed: int) -> StructureDocument:
    """Member ``seed`` of the population over ``families``, with ``seed % 3`` edits."""
    return seeded_doc(families[seed % len(families)], seed, seed % 3)
