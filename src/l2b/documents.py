"""Structured text documents for kernel instances, plus report emission.

Documents are UTF-8 JSON, one instance per file: a ``kind``, named spaces
with dimensions and basis labels, and sparse tensor blocks given as lists
of ``[[indices...], "p/q"]`` pairs with 0-based indices and canonical
rational strings.  Missing blocks mean zero; unknown fields are rejected;
serialization is canonical (sorted entries, sorted keys), so identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace

from . import __version__
from .bicross import (
    Lie2BialgebraData,
    MatchedPairData,
    abelian_dual_pair,
    cross_check,
    verify_l2b_def,
    verify_l2b_matched,
    verify_l2b_weil,
    verify_matched_pair,
)
from .exact import Rational, SparseTensor, format_rational, parse_rational
from .liecore import (
    Check,
    LieAlgebra,
    LieCobracket,
    VerificationReport,
    Witness,
    verify_cocycle,
    verify_lie,
)
from .twoterm import (
    CrossedModuleData,
    TwoVectorSpace,
    WeakLie2Data,
    dual_two_vs,
    verify_cm,
)
from .weil import verify_weak_lie2


class DocumentError(ValueError):
    """Malformed document; carries the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class UnsupportedMethod(ValueError):
    """The requested verification method does not apply to this document kind."""


# the blocks of a crossed module on g1 -> g0 other than its action, which is
# ``action0`` in a lie2_bialgebra document and ``action`` elsewhere
_CM_BLOCKS = {"bracket0": ("g0", "g0", "g0"), "partial": ("g0", "g1")}

# block arity expressed through space names
_SCHEMAS: dict[str, dict] = {
    "lie_algebra": {
        "spaces": ("g",),
        "blocks": {"bracket": ("g", "g", "g")},
    },
    "bialgebra": {
        "spaces": ("g",),
        "blocks": {"bracket": ("g", "g", "g"), "cobracket": ("g", "g", "g")},
    },
    "crossed_module": {
        "spaces": ("g0", "g1"),
        "blocks": {**_CM_BLOCKS, "action": ("g0", "g1", "g1")},
    },
    "weak_lie2": {
        "spaces": ("g0", "g1"),
        "blocks": {
            **_CM_BLOCKS,
            "action": ("g0", "g1", "g1"),
            "jacobiator": ("g0", "g0", "g0", "g1"),
        },
    },
    "lie2_bialgebra": {
        "spaces": ("g0", "g1"),
        "blocks": {
            **_CM_BLOCKS,
            "action0": ("g0", "g1", "g1"),
            "dual_bracket": ("g1", "g1", "g1"),
            "dual_action": ("g1", "g0", "g0"),
        },
    },
    "matched_pair": {
        "spaces": ("h", "k"),
        "blocks": {
            "bracket_h": ("h", "h", "h"),
            "bracket_k": ("k", "k", "k"),
            "act_h_on_k": ("h", "k", "k"),
            "act_k_on_h": ("k", "h", "h"),
        },
    },
    "dvb": {"spaces": ("side_h", "side_v", "core"), "blocks": {}},
}

KINDS = tuple(_SCHEMAS)

# The largest ``dim`` a document may declare: 32 times the largest space of
# any catalog, generated or benchmark document (8), and small enough that
# building a space never runs out of memory.
MAX_DIM = 256


@dataclass(frozen=True)
class SpaceDecl:
    dim: int
    labels: tuple[str, ...] = ()
    dual: bool = False  # only meaningful for dvb descriptors
    name: str = ""  # only meaningful for dvb descriptors


@dataclass(frozen=True)
class StructureDocument:
    """A document: each block is a `SparseTensor` in its block's index
    convention, and a zero block is absent."""

    kind: str
    name: str
    spaces: dict[str, SpaceDecl]
    blocks: dict[str, SparseTensor] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "blocks", {k: t for k, t in self.blocks.items() if t.entries})

    def block_tensor(self, key: str) -> SparseTensor:
        if key in self.blocks:
            return self.blocks[key]
        axes = _SCHEMAS[self.kind]["blocks"][key]
        return SparseTensor._trusted(tuple(self.spaces[s].dim for s in axes), {})


# --- parsing ------------------------------------------------------------------


def _is_int(x) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass but not a number here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise DocumentError(path, message)


class _IntText(str):
    """The text of a JSON integer, kept as read."""


def _long_int_path(obj) -> str:
    """The JSON path of the first `_IntText` in ``obj`` that `int` refuses to read."""
    stack = [("", obj)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, _IntText):
            try:
                int(node)
            except ValueError:
                return path
        elif isinstance(node, dict):
            stack += reversed([(f"{path}.{k}" if path else k, v) for k, v in node.items()])
        elif isinstance(node, list):
            stack += reversed([(f"{path}[{i}]", v) for i, v in enumerate(node)])
    return ""


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``, refusing a repeated key, of which
    `json.loads` would keep only the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise DocumentError("", f"repeated key {key!r}")
    return obj


def _load_json(text: str):
    try:
        try:
            return json.loads(text, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, DocumentError):
            raise
        except ValueError:
            # an integer of more digits than int() reads from text: read the
            # text again, keeping each integer's digits, to name the first
            path = _long_int_path(
                json.loads(text, parse_int=_IntText, object_pairs_hook=_unique_keys)
            )
            limit = sys.get_int_max_str_digits()
            raise DocumentError(path, f"integer of more than {limit} digits") from None
    except json.JSONDecodeError as e:
        raise DocumentError("", f"syntax error at line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise DocumentError("", "nesting too deep") from e


def parse_document(data: bytes) -> StructureDocument:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DocumentError("", f"not UTF-8: {e}") from e
    obj = _load_json(text)
    _expect(isinstance(obj, dict), "", "top level must be an object")
    unknown = set(obj) - {"kind", "name", "spaces", "blocks"}
    _expect(not unknown, sorted(unknown)[0] if unknown else "", "unknown field")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise DocumentError("kind", f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    schema = _SCHEMAS[kind]
    name = obj.get("name", "")
    _expect(isinstance(name, str), "name", "must be a string")

    raw_spaces = obj.get("spaces", {})
    _expect(isinstance(raw_spaces, dict), "spaces", "must be an object")
    unknown = set(raw_spaces) - set(schema["spaces"])
    _expect(not unknown, f"spaces.{sorted(unknown)[0]}" if unknown else "", "unknown space")
    spaces: dict[str, SpaceDecl] = {}
    for key in schema["spaces"]:
        path = f"spaces.{key}"
        _expect(key in raw_spaces, path, "missing space")
        decl = raw_spaces[key]
        _expect(isinstance(decl, dict), path, "must be an object")
        allowed = {"name", "dim", "dual"} if kind == "dvb" else {"dim", "labels"}
        bad = set(decl) - allowed
        _expect(not bad, f"{path}.{sorted(bad)[0]}" if bad else "", "unknown field")
        dim = decl.get("dim")
        _expect(_is_int(dim) and dim >= 0, f"{path}.dim", "must be a non-negative integer")
        _expect(dim <= MAX_DIM, f"{path}.dim", f"must be at most {MAX_DIM}")
        if kind == "dvb":
            sname = decl.get("name", key)
            dual = decl.get("dual", False)
            _expect(isinstance(sname, str), f"{path}.name", "must be a string")
            _expect(isinstance(dual, bool), f"{path}.dual", "must be a boolean")
            spaces[key] = SpaceDecl(dim, (), dual, sname)
        else:
            labels = decl["labels"] if "labels" in decl else [f"{key}_{i}" for i in range(dim)]
            _expect(
                isinstance(labels, list) and all(isinstance(s, str) for s in labels),
                f"{path}.labels",
                "must be a list of strings",
            )
            _expect(len(labels) == dim, f"{path}.labels", f"expected {dim} labels")
            spaces[key] = SpaceDecl(dim, tuple(labels))

    raw_blocks = obj.get("blocks", {})
    _expect(isinstance(raw_blocks, dict), "blocks", "must be an object")
    unknown = set(raw_blocks) - set(schema["blocks"])
    _expect(not unknown, f"blocks.{sorted(unknown)[0]}" if unknown else "", "unknown block")
    blocks: dict[str, SparseTensor] = {}
    for key, axes in schema["blocks"].items():
        if key not in raw_blocks:
            continue
        entries_raw = raw_blocks[key]
        path = f"blocks.{key}"
        _expect(isinstance(entries_raw, list), path, "must be a list of [indices, rational] pairs")
        dims = tuple(spaces[s].dim for s in axes)
        entries: dict[tuple[int, ...], Rational] = {}
        for pos, item in enumerate(entries_raw):
            # the conditions are tested first, so that only a refused entry
            # pays for its path and message
            if not (isinstance(item, list) and len(item) == 2):
                raise DocumentError(f"{path}[{pos}]", "must be a pair [indices, rational]")
            idx_raw, val_raw = item
            if not (isinstance(idx_raw, list) and all(_is_int(i) for i in idx_raw)):
                raise DocumentError(f"{path}[{pos}]", "indices must be a list of integers")
            if len(idx_raw) != len(dims):
                raise DocumentError(
                    f"{path}[{pos}]", f"expected {len(dims)} indices for block {key}"
                )
            for ax, (i, dlim) in enumerate(zip(idx_raw, dims)):
                if not 0 <= i < dlim:
                    raise DocumentError(
                        f"{path}[{pos}]",
                        f"index {i} out of range on axis {ax} (space {axes[ax]}, dim {dlim})",
                    )
            idx = tuple(idx_raw)
            if idx in entries:
                raise DocumentError(f"{path}[{pos}]", f"duplicate index {list(idx)}")
            try:
                entries[idx] = parse_rational(val_raw)
            except (ValueError, TypeError) as e:
                raise DocumentError(f"{path}[{pos}]", str(e)) from e
        blocks[key] = SparseTensor._trusted(dims, {i: v for i, v in entries.items() if v})
    return StructureDocument(kind, name, spaces, blocks)


def serialize_document(doc: StructureDocument) -> bytes:
    obj: dict = {"kind": doc.kind, "name": doc.name, "spaces": {}, "blocks": {}}
    for key in _SCHEMAS[doc.kind]["spaces"]:
        decl = doc.spaces[key]
        if doc.kind == "dvb":
            obj["spaces"][key] = {"name": decl.name, "dim": decl.dim, "dual": decl.dual}
        else:
            obj["spaces"][key] = {"dim": decl.dim, "labels": list(decl.labels)}
    for key in _SCHEMAS[doc.kind]["blocks"]:
        entries = sorted(doc.block_tensor(key).entries.items())
        obj["blocks"][key] = [[list(idx), format_rational(val)] for idx, val in entries]
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


# --- kernel object builders ----------------------------------------------------


def _from_block(doc: StructureDocument, key: str, make, first):
    """``make(first, tensor of block key)``, the kernel object that the block
    feeds; a `ValueError` it raises is refused at the block's path."""
    try:
        return make(first, doc.block_tensor(key))
    except ValueError as e:
        raise DocumentError(f"blocks.{key}", str(e)) from e


def build_lie_algebra(doc: StructureDocument) -> LieAlgebra:
    return _from_block(doc, "bracket", LieAlgebra, doc.spaces["g"].labels)


def build_bialgebra(doc: StructureDocument) -> tuple[LieAlgebra, LieCobracket]:
    g = _from_block(doc, "bracket", LieAlgebra, doc.spaces["g"].labels)
    d = _from_block(doc, "cobracket", LieCobracket, doc.spaces["g"].dim)
    return g, d


def _action_block(kind: str) -> str:
    """The action block of a document's crossed module on ``g1 -> g0``."""
    return "action0" if kind == "lie2_bialgebra" else "action"


def _read_cm(doc: StructureDocument) -> CrossedModuleData:
    """The crossed module on ``g1 -> g0`` of a ``crossed_module``,
    ``weak_lie2`` or ``lie2_bialgebra`` document.

    The ``build_*`` functions call this rather than each other, so that a
    document is built by one public call."""
    g0, g1 = doc.spaces["g0"], doc.spaces["g1"]
    base = _from_block(doc, "bracket0", LieAlgebra, g0.labels)
    tvs = TwoVectorSpace(g0.dim, g1.dim, doc.block_tensor("partial"), g0.labels, g1.labels)
    return CrossedModuleData(base, tvs, doc.block_tensor(_action_block(doc.kind)))


def build_crossed_module(doc: StructureDocument) -> CrossedModuleData:
    return _read_cm(doc)


def build_weak_lie2(doc: StructureDocument) -> WeakLie2Data:
    return _from_block(doc, "jacobiator", WeakLie2Data, _read_cm(doc))


def build_lie2_bialgebra(doc: StructureDocument) -> Lie2BialgebraData:
    cm1 = _read_cm(doc)
    tvs2 = dual_two_vs(cm1.tvs)
    base2 = _from_block(doc, "dual_bracket", LieAlgebra, tvs2.labels0)
    cm2 = CrossedModuleData(base2, tvs2, doc.block_tensor("dual_action"))
    return Lie2BialgebraData(cm1, cm2)


def build_dvb(doc: StructureDocument) -> dict[str, SpaceDecl]:
    """The declarations of the ``(side_h, side_v, core)`` spaces: a dvb
    document holds no tensors, so they are its whole content."""
    return doc.spaces


def build_matched_pair(doc: StructureDocument) -> MatchedPairData:
    h = _from_block(doc, "bracket_h", LieAlgebra, doc.spaces["h"].labels)
    k = _from_block(doc, "bracket_k", LieAlgebra, doc.spaces["k"].labels)
    return MatchedPairData(
        h, k, doc.block_tensor("act_h_on_k"), doc.block_tensor("act_k_on_h")
    )


# --- document constructors -------------------------------------------------------


def doc_from_lie_algebra(g: LieAlgebra, name: str = "") -> StructureDocument:
    return StructureDocument(
        "lie_algebra",
        name,
        {"g": SpaceDecl(g.dim, g.labels)},
        {"bracket": g.bracket},
    )


def doc_from_bialgebra(g: LieAlgebra, d: LieCobracket, name: str = "") -> StructureDocument:
    return StructureDocument(
        "bialgebra",
        name,
        {"g": SpaceDecl(g.dim, g.labels)},
        {"bracket": g.bracket, "cobracket": d.tensor},
    )


def _cm_document(kind: str, name: str, cm: CrossedModuleData, **blocks) -> StructureDocument:
    """A document of ``kind`` whose crossed module on ``g1 -> g0`` is ``cm``,
    with the further ``blocks``."""
    return StructureDocument(
        kind,
        name,
        {
            "g0": SpaceDecl(cm.dim0, cm.base.labels),
            "g1": SpaceDecl(cm.dim1, cm.tvs.labels1),
        },
        {
            "bracket0": cm.base.bracket,
            "partial": cm.tvs.partial,
            _action_block(kind): cm.action,
            **blocks,
        },
    )


def doc_from_crossed_module(cm: CrossedModuleData, name: str = "") -> StructureDocument:
    return _cm_document("crossed_module", name, cm)


def doc_from_weak_lie2(w: WeakLie2Data, name: str = "") -> StructureDocument:
    return _cm_document("weak_lie2", name, w.cm, jacobiator=w.jacobiator)


def doc_from_lie2_bialgebra(d: Lie2BialgebraData, name: str = "") -> StructureDocument:
    return _cm_document(
        "lie2_bialgebra",
        name,
        d.cm1,
        dual_bracket=d.cm2.base.bracket,
        dual_action=d.cm2.action,
    )


def doc_from_matched_pair(mp: MatchedPairData, name: str = "") -> StructureDocument:
    return StructureDocument(
        "matched_pair",
        name,
        {
            "h": SpaceDecl(mp.h.dim, mp.h.labels),
            "k": SpaceDecl(mp.k.dim, mp.k.labels),
        },
        {
            "bracket_h": mp.h.bracket,
            "bracket_k": mp.k.bracket,
            "act_h_on_k": mp.act_h_on_k,
            "act_k_on_h": mp.act_k_on_h,
        },
    )


# --- dualization on documents -----------------------------------------------------

# The dualizations of a split double vector space ``(A, B, C)`` = (side_h,
# side_v, core): for each result slot, in that order, the slot it is read
# from and whether it is starred.  A star toggles, so each is an involution.
_DVB_DUALS = {
    "dvb_vertical": (("core", True), ("side_v", False), ("side_h", True)),  # (C*, B, A*)
    "dvb_horizontal": (("side_h", False), ("core", True), ("side_v", True)),  # (A, C*, B*)
    "flip": (("side_v", False), ("side_h", False), ("core", False)),  # (B, A, C)
}


def dvb_dual(spaces: dict[str, SpaceDecl], which: str) -> dict[str, SpaceDecl]:
    """The declarations of the ``which`` dual of a dvb document's spaces."""
    return {
        slot: replace(spaces[src], dual=spaces[src].dual != star)
        for slot, (src, star) in zip(_SCHEMAS["dvb"]["spaces"], _DVB_DUALS[which])
    }


def check_duality_identity(spaces: dict[str, SpaceDecl]) -> VerificationReport:
    """flip(vertical dual) agrees with the vertical dual of the horizontal dual.

    The identification is the identity on the side spaces and minus the
    identity on the core; the core sign is recorded as report metadata
    (over a point there is no pairing tensor for it to act on).
    """
    left = dvb_dual(dvb_dual(spaces, "dvb_vertical"), "flip")
    right = dvb_dual(dvb_dual(spaces, "dvb_horizontal"), "dvb_vertical")
    ok = left == right
    witness = None
    if not ok:

        def render(triple: dict[str, SpaceDecl]) -> str:
            return "(" + ",".join(d.name + ("*" if d.dual else "") for d in triple.values()) + ")"

        witness = Witness((), render(left), render(right))
    return VerificationReport(
        (Check("triple_identity", ok, witness),),
        metadata=(("core_identification_sign", "-1"),),
    )


def dualize_document(doc: StructureDocument, which: str) -> StructureDocument:
    """Emit the dual document; applying the same dualization twice is the identity."""
    if which == "two_vs":
        if doc.kind == "lie2_bialgebra":
            d = build_lie2_bialgebra(doc)
            swapped = Lie2BialgebraData(d.cm2, d.cm1)
            return doc_from_lie2_bialgebra(swapped, doc.name)
        if doc.kind == "crossed_module":
            if "bracket0" in doc.blocks or "action" in doc.blocks:
                raise UnsupportedMethod(
                    "two_vs dualization of a crossed_module document requires zero "
                    "bracket and action (a bare 2-vector space); dualize the full "
                    "pair as a lie2_bialgebra document instead"
                )
            dual = abelian_dual_pair(_read_cm(doc)).cm2
            return doc_from_crossed_module(dual, doc.name)
        raise UnsupportedMethod(f"two_vs dualization does not apply to kind {doc.kind!r}")
    if which in _DVB_DUALS:
        if doc.kind != "dvb":
            raise UnsupportedMethod(f"{which} dualization requires a dvb document")
        return StructureDocument("dvb", doc.name, dvb_dual(doc.spaces, which))
    raise UnsupportedMethod(f"unknown dualization {which!r}")


# --- verifier dispatch --------------------------------------------------------------


METHODS = ("auto", "def", "matched", "weil", "all")
# the ``which`` arguments of `dualize_document`
DUALIZATIONS = ("two_vs", *_DVB_DUALS)


def run_verifier(doc: StructureDocument, method: str = "auto") -> VerificationReport:
    """Dispatch a document to the verifier selected by ``method``.

    ``auto`` picks the natural verifier for the kind (for Lie 2-bialgebra
    documents this is the three-way cross-check, same as ``all``); the
    named methods apply only to Lie 2-bialgebra documents.
    """
    if method not in METHODS:
        raise UnsupportedMethod(f"unknown method {method!r}")
    kind = doc.kind
    if method in ("def", "matched", "weil", "all") and kind != "lie2_bialgebra":
        raise UnsupportedMethod(f"method {method!r} does not apply to kind {kind!r}")
    if kind == "lie_algebra":
        return verify_lie(build_lie_algebra(doc))
    if kind == "bialgebra":
        return verify_cocycle(*build_bialgebra(doc))
    if kind == "crossed_module":
        return verify_cm(build_crossed_module(doc))
    if kind == "weak_lie2":
        return verify_weak_lie2(build_weak_lie2(doc))
    if kind == "dvb":
        return check_duality_identity(build_dvb(doc))
    if kind == "matched_pair":
        return verify_matched_pair(build_matched_pair(doc))
    d = build_lie2_bialgebra(doc)
    if method == "def":
        return verify_l2b_def(d)
    if method == "matched":
        return verify_l2b_matched(d)
    if method == "weil":
        return verify_l2b_weil(d)
    return cross_check(d)


# --- reports ---------------------------------------------------------------------


def report_document(
    doc: StructureDocument, method: str, report: VerificationReport
) -> dict:
    checks = []
    for c in report.checks:
        entry: dict = {"id": c.cond, "pass": c.passed}
        if c.witness is None:
            entry["witness"] = None
        else:
            entry["witness"] = {
                "indices": list(c.witness.indices),
                "lhs": c.witness.lhs,
                "rhs": c.witness.rhs,
                "at": c.witness.at,
            }
        checks.append(entry)
    meta = dict(report.metadata)
    out = {
        "instance": doc.name or f"unnamed:{doc.kind}",
        "kind": doc.kind,
        "method": method,
        "verdict": "pass" if report.passed else "fail",
        "checks": checks,
        "metadata": meta,
        "kernel_version": __version__,
    }
    if "agreement" in meta:
        out["agreement"] = meta["agreement"] == "true"
    return out


def serialize_report(
    doc: StructureDocument, method: str, report: VerificationReport
) -> bytes:
    obj = report_document(doc, method, report)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")
