"""Inputs of the two workloads, made from a seed through l2b's public API.

Making a workload has two steps.  `plan_*` draws every random choice from
the seed (sub-seeds, edit seeds and basis changes) into plain data and is
not timed.  `build_*` turns a plan into operations: it generates, edits,
transforms and serializes the documents.  `build_*` is what the benchmark
times as set-up.

l2b is imported inside the functions, not at module level, because the
benchmark re-imports l2b for every timed set-up.

Every seed yields the same mix of sizes and verdicts, because the cost of
an instance depends on its size and on whether it fails far more than on
its entries.  So families whose generator picks among several shapes
(``abelian_dual`` picks one of four crossed modules) are sampled by shape
class, and the population's edited members are edits that the oracle finds
invalid (no edit of an abelian pair is; those keep their 64th draw).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

WORKLOADS = ("l2b_population", "dim_ladder")

# Lie bialgebras whose adjoint crossed modules form the bialgebra-derived pairs
BIALGEBRA_PAIRS = ("axb", "sl2")
# the failing bialgebra pairs take their basis change from this fixed seed,
# so the operations counted as failed do not depend on the run's seed
BIALGEBRA_TWIN_SEED = 2106

LADDER_ABELIAN = (2, 3, 4, 5, 6, 7, 8)
LADDER_ADJOINT = (("axb",), ("sl2",), ("axb", "axb"), ("sl2", "axb"), ("sl2", "sl2"))
# basis-changed abelian-dual pairs stop one rung lower: def on the
# basis-changed (6,6) pair alone would take a quarter of the pass
LADDER_PAIR_TWIN_MAX_DIM = 5

@dataclass
class Op:
    """One timed operation: verify the serialized document ``data`` with ``method``."""

    label: str
    method: str = "auto"
    data: bytes = b""
    twin_of: int | None = None
    known_defect: bool = False
    dim: int = 0
    expected_valid: bool | None = None  # filled in by the oracle


# --- shared builders ---------------------------------------------------------


def direct_sum(names):
    from l2b import catalog
    from l2b.exact import SparseTensor
    from l2b.liecore import LieAlgebra

    labels, entries, offset = [], {}, 0
    for pos, name in enumerate(names):
        g = {"sl2": catalog.sl2, "axb": catalog.axb}[name]()
        labels += [f"{label}{pos}" for label in g.labels]
        for (i, j, k), v in g.bracket.entries.items():
            entries[(i + offset, j + offset, k + offset)] = v
        offset += g.dim
    return LieAlgebra(tuple(labels), SparseTensor((offset,) * 3, entries))


def adjoint_cm_doc(names, name=""):
    from l2b import catalog
    from l2b.documents import doc_from_crossed_module

    return doc_from_crossed_module(catalog.adjoint_cm(direct_sum(names)), name)


def adjoint_pair_doc(names, name=""):
    from l2b import catalog
    from l2b.bicross import abelian_dual_pair
    from l2b.documents import doc_from_lie2_bialgebra

    return doc_from_lie2_bialgebra(
        abelian_dual_pair(catalog.adjoint_cm(direct_sum(names))), name
    )


def bialgebra_pair_doc(name, label=""):
    """[g -id-> g] with the adjoint action, paired with the adjoint crossed
    module of the dual Lie algebra of a Lie bialgebra (g, delta)."""
    from l2b import catalog
    from l2b.bicross import Lie2BialgebraData
    from l2b.documents import doc_from_lie2_bialgebra
    from l2b.exact import SparseTensor
    from l2b.liecore import LieAlgebra, LieCobracket, cobracket_to_dual_lie
    from l2b.twoterm import CrossedModuleData, dual_two_vs

    if name == "axb":  # delta(e1) = e0 ^ e1
        g, delta = catalog.axb(), LieCobracket.from_table(2, {1: {(0, 1): 1}})
    else:  # coboundary of r = e ^ f: delta(e) = e ^ h, delta(f) = f ^ h
        g = catalog.sl2()
        delta = LieCobracket.from_table(3, {0: {(0, 2): 1}, 1: {(1, 2): 1}})
    cm1 = catalog.adjoint_cm(g)
    tvs2 = dual_two_vs(cm1.tvs)
    dual = cobracket_to_dual_lie(delta).bracket
    cm2 = CrossedModuleData(
        LieAlgebra(tvs2.labels0, dual), tvs2, SparseTensor(dual.dims, dict(dual.entries))
    )
    return doc_from_lie2_bialgebra(Lie2BialgebraData(cm1, cm2), label or f"bialgebra_{name}")


def shears(rng: random.Random, n: int, count: int = 3):
    """A seeded unimodular basis change and its exact inverse, as row tuples."""

    def identity():
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def mul(a, b):
        return [[sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
                for i in range(n)]

    s, s_inv = identity(), identity()
    if n == 1:
        c = rng.choice((Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-3)))
        s[0][0], s_inv[0][0] = c, 1 / c
    else:
        for _ in range(count):
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.choice((1, 2, -1, -2)))
            e, e_inv = identity(), identity()
            e[i][j], e_inv[i][j] = c, -c
            s, s_inv = mul(s, e), mul(e_inv, s_inv)
    return tuple(map(tuple, s)), tuple(map(tuple, s_inv))


def basis_changed(doc, rng: random.Random, name: str, count: int = 3):
    """The same structure in a seeded new basis (side and core changed independently)."""
    from l2b import catalog
    from l2b import documents as D

    n0, n1 = doc.spaces["g0"].dim, doc.spaces["g1"].dim
    s, s_inv = shears(rng, n0, count)
    t, t_inv = shears(rng, n1, count)
    if doc.kind == "crossed_module":
        cm = catalog.transform_cm(D.build_crossed_module(doc), s, s_inv, t, t_inv)
        return D.doc_from_crossed_module(cm, name)
    d = catalog.transform_l2b(D.build_lie2_bialgebra(doc), s, s_inv, t, t_inv)
    return D.doc_from_lie2_bialgebra(d, name)


def edited(doc, edit_seed: int, name: str):
    """One seeded single-entry edit (kept whatever its verdict; the oracle decides)."""
    from dataclasses import replace

    from l2b import catalog

    return replace(catalog.perturb_document(doc, random.Random(edit_seed)), name=name)


def shape_class(doc) -> str:
    """The sub-shape a generator picked: which crossed module, by size and bracket."""
    g0, g1 = doc.spaces["g0"].dim, doc.spaces["g1"].dim
    if not doc.blocks.get("bracket0"):
        return f"abelian{g0}{g1}"
    if doc.kind == "lie2_bialgebra":
        return {(2, 1): "axb_action", (2, 2): "adjoint_axb", (3, 3): "adjoint_sl2"}[(g0, g1)]
    return {2: "axb", 3: "sl2"}[g0]


def draw_seed(rng: random.Random, family: str, wanted: str | None) -> int:
    """A sub-seed whose generated document has the wanted shape class."""
    from l2b import catalog

    for _ in range(1000):
        sub = rng.randrange(1 << 30)
        if wanted is None or shape_class(catalog.gen_document(family, sub)) == wanted:
            return sub
    raise RuntimeError(f"no {wanted} member of {family} in 1000 draws")


def draw_invalidating_edit(rng: random.Random, doc) -> int:
    """An edit seed whose single edit makes the document invalid, by the oracle.

    Some shapes have none (every single edit of an abelian pair stays
    valid); for those the 64th draw is kept.
    """
    from l2b.documents import serialize_document

    for _ in range(64):
        edit_seed = rng.randrange(1 << 30)
        if not oracle.expected_valid_bytes(serialize_document(edited(doc, edit_seed, ""))):
            break
    return edit_seed


def _total_dim(doc) -> int:
    return sum(s.dim for s in doc.spaces.values())


# --- l2b_population ------------------------------------------------------------

# (family, shape class or None, edited?) for each member.
#
# The 28 scaling members and their 2 twins are the cheapest operations and
# more than half of the 52, so doc_p50_ms falls inside them rather than on
# the edge of the next size.  The (3,3) members, whose Weil checks dominate,
# are four here plus the sl2 bialgebra pair and its twin: six of 52 is more
# than a tenth, so doc_p90_ms falls on the fastest of them, an abelian-dual
# sl2 pair.
POPULATION = (
    [("scaling", None, False)] * 7
    + [("scaling", None, True)] * 7
    + [("random_basis_change:scaling", None, False)] * 7
    + [("random_basis_change:scaling", None, True)] * 7
    + [("abelian_dual", c, False) for c in ("abelian12", "axb_action", "adjoint_axb", "adjoint_sl2")]
    + [("abelian_dual", c, True) for c in ("abelian21", "axb_action", "adjoint_axb", "adjoint_sl2")]
    + [("random_basis_change:abelian_dual", c, False)
       for c in ("abelian21", "axb_action", "adjoint_axb", "adjoint_sl2")]
    + [("random_basis_change:abelian_dual", c, True)
       for c in ("abelian12", "axb_action", "adjoint_axb", "adjoint_sl2")]
)
# members (by index in POPULATION) that also get a basis-changed twin: the
# first unedited and edited scaling members and both adjoint axb abelian_dual
POPULATION_TWINS = (0, 7, 30, 34)


def plan_population(seed: int):
    """(family, sub-seed, edit seed or None) per member, and the twins' seeds."""
    from l2b import catalog

    rng = random.Random(seed)
    members = []
    for family, cls, is_edited in POPULATION:
        sub = draw_seed(rng, family, cls)
        edit = draw_invalidating_edit(rng, catalog.gen_document(family, sub)) if is_edited else None
        members.append((family, sub, edit))
    return members, [rng.randrange(1 << 30) for _ in POPULATION_TWINS]


def build_population(plan) -> list[Op]:
    from l2b import catalog
    from l2b.documents import serialize_document

    members, twin_seeds = plan
    ops: list[Op] = []
    docs = []
    for family, sub, edit_seed in members:
        doc = catalog.gen_document(family, sub)
        if edit_seed is not None:
            doc = edited(doc, edit_seed, doc.name + "-edited")
        docs.append(doc)
        ops.append(Op(doc.name, data=serialize_document(doc), dim=_total_dim(doc)))
    for pos, twin_seed in zip(POPULATION_TWINS, twin_seeds):
        twin = basis_changed(docs[pos], random.Random(twin_seed), docs[pos].name + "-twin", 1)
        ops.append(Op(twin.name, data=serialize_document(twin), dim=_total_dim(twin), twin_of=pos))
    for name in BIALGEBRA_PAIRS:
        pair = bialgebra_pair_doc(name)
        ops.append(Op(pair.name, data=serialize_document(pair), dim=_total_dim(pair),
                      known_defect=True))
        twin = basis_changed(pair, random.Random(BIALGEBRA_TWIN_SEED), pair.name + "-twin", 1)
        ops.append(Op(twin.name, data=serialize_document(twin), dim=_total_dim(twin),
                      twin_of=len(ops) - 1, known_defect=True))
    return ops


# --- dim_ladder ------------------------------------------------------------------


def plan_ladder(seed: int) -> list[int]:
    """Edit and basis-change seeds, consumed in order by `build_ladder`."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(len(LADDER_ABELIAN) + 4 * len(LADDER_ADJOINT))]


def build_ladder(plan: list[int]) -> list[Op]:
    from l2b import catalog
    from l2b.documents import doc_from_crossed_module, serialize_document

    seeds = iter(plan)
    ops: list[Op] = []

    def add(doc, method="auto", twin_of=None):
        ops.append(Op(f"{doc.name}/{method}", method, serialize_document(doc),
                      twin_of=twin_of, dim=_total_dim(doc)))
        return len(ops) - 1

    for n in LADDER_ABELIAN:
        doc = doc_from_crossed_module(catalog.abelian_cm(n, n), f"abelian_cm_{n}")
        add(doc)
        add(edited(doc, next(seeds), doc.name + "-edited"))
    pairs = []
    for names in LADDER_ADJOINT:
        tag = "+".join(names)
        plain = adjoint_cm_doc(names, f"adjoint_{tag}")
        twin = basis_changed(plain, random.Random(next(seeds)), plain.name + "-twin")
        add(plain)
        add(edited(plain, next(seeds), plain.name + "-edited"))
        add(twin, twin_of=len(ops) - 2)
        add(edited(twin, next(seeds), twin.name + "-edited"))
        pair = adjoint_pair_doc(names, f"abelian_dual_adjoint_{tag}")
        pairs.append((pair, random.Random(next(seeds))))
    for pair, rng in pairs:
        twin = None
        if pair.spaces["g0"].dim <= LADDER_PAIR_TWIN_MAX_DIM:
            twin = basis_changed(pair, rng, pair.name + "-twin")
        for method in ("def", "matched"):
            first = add(pair, method)
            if twin is not None:
                add(twin, method, twin_of=first)
    return ops


PLANNERS = {"l2b_population": plan_population, "dim_ladder": plan_ladder}
BUILDERS = {"l2b_population": build_population, "dim_ladder": build_ladder}
