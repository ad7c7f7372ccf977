import importlib
import itertools
import json
import sys

import pytest

from l2b import catalog
from l2b.bicross import abelian_dual_pair
from l2b.exact import SparseTensor
from l2b.liecore import LieAlgebra
from l2b.twoterm import CrossedModuleData, TwoVectorSpace, star_label
from l2b.documents import (
    DocumentError,
    StructureDocument,
    UnsupportedMethod,
    build_crossed_module,
    build_lie2_bialgebra,
    build_weak_lie2,
    check_duality_identity,
    doc_from_crossed_module,
    doc_from_lie2_bialgebra,
    doc_from_weak_lie2,
    dualize_document,
    dvb_dual,
    parse_document,
    run_verifier,
    serialize_document,
    serialize_report,
)


def doc_bytes(name):
    return serialize_document(catalog.get(name).document)


def test_round_trip_identity_on_catalog():
    # every catalog entry and every `gen` member at seeds 0-4, plain and perturbed
    docs = [entry.document for entry in catalog.entries()]
    for family in catalog.FAMILIES:
        for seed in range(5):
            docs.append(catalog.gen_document(family, seed))
            try:
                docs.append(catalog.gen_document(family, seed, perturbed=True))
            except catalog.RetryExhaustion:
                pass
    for doc in docs:
        data = serialize_document(doc)
        back = parse_document(data)
        assert back == doc and serialize_document(back) == data, doc.name


def test_weak_lie2_round_trip_through_weak_data():
    docs = [catalog.get(name).document for name in ("weak_l3", "weak_l3_bad_partial")]
    docs += [catalog.gen_document("weak_abelian_l3", seed) for seed in range(20)]
    for doc in docs:
        data = serialize_document(doc)
        w = build_weak_lie2(parse_document(data))
        assert serialize_document(doc_from_weak_lie2(w, doc.name)) == data


def test_lie2_bialgebra_round_trip_keeps_side_labels():
    # the dual core labels are the starred side labels, which the document
    # writes once, as the labels of g0
    g = LieAlgebra(("x", "y"), catalog.axb().bracket)
    tvs = TwoVectorSpace(2, 1, SparseTensor.zero((2, 1)), g.labels, ("f",))
    d = abelian_dual_pair(CrossedModuleData(g, tvs, SparseTensor((2, 1, 1), {(0, 0, 0): 1})))
    back = build_lie2_bialgebra(parse_document(serialize_document(doc_from_lie2_bialgebra(d))))
    assert back == d
    assert back.cm2.tvs.labels1 == ("x*", "y*")


def test_parse_rejects_out_of_range_index():
    obj = json.loads(doc_bytes("sl2"))
    obj["blocks"]["bracket"].append([[0, 0, 7], "1"])
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(obj).encode())
    assert "blocks.bracket" in str(err.value)
    assert "out of range" in str(err.value)


def test_parse_rejects_booleans_as_integers():
    doc = {"kind": "lie_algebra", "spaces": {"g": {"dim": True}}}
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc).encode())
    assert "spaces.g.dim" in str(err.value)
    obj = json.loads(doc_bytes("sl2"))
    obj["blocks"]["bracket"].append([[False, 1, 2], "1"])
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(obj).encode())
    assert f"blocks.bracket[{len(obj['blocks']['bracket']) - 1}]" in str(err.value)
    assert "integers" in str(err.value)


def test_parse_rejects_bad_rational():
    obj = json.loads(doc_bytes("sl2"))
    obj["blocks"]["bracket"][0][1] = "1/0"
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(obj).encode())
    assert "zero denominator" in str(err.value)


def test_parse_rejects_unknown_kind():
    with pytest.raises(DocumentError) as err:
        parse_document(b'{"kind": "sheaf", "spaces": {}, "blocks": {}}')
    assert "unknown kind" in str(err.value)


def test_parse_rejects_unknown_fields():
    obj = json.loads(doc_bytes("sl2"))
    obj["extra"] = 1
    with pytest.raises(DocumentError):
        parse_document(json.dumps(obj).encode())
    obj = json.loads(doc_bytes("sl2"))
    obj["blocks"]["cobracket"] = []
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(obj).encode())
    assert "unknown block" in str(err.value)


def test_parse_rejects_duplicate_entries():
    obj = json.loads(doc_bytes("sl2"))
    obj["blocks"]["bracket"].append(obj["blocks"]["bracket"][0])
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(obj).encode())
    assert "duplicate" in str(err.value)


# each per-entry refusal of a block, as the second entry of a crossed
# module's action block on g0 (dim 2) x g1 (dim 3) x g1
@pytest.mark.parametrize(
    "entry, message",
    [
        ([[0, 0, 0]], "must be a pair [indices, rational]"),
        ("0", "must be a pair [indices, rational]"),
        ([[0, 0.5, 0], "1"], "indices must be a list of integers"),
        ([[0, "1", 0], "1"], "indices must be a list of integers"),
        ([[0, True, 0], "1"], "indices must be a list of integers"),
        ([[0, 0], "1"], "expected 3 indices for block action"),
        ([[2, 0, 0], "1"], "index 2 out of range on axis 0 (space g0, dim 2)"),
        ([[0, 3, 0], "1"], "index 3 out of range on axis 1 (space g1, dim 3)"),
        ([[0, 0, -1], "1"], "index -1 out of range on axis 2 (space g1, dim 3)"),
        ([[0, 0, 1], "2"], "duplicate index [0, 0, 1]"),
        ([[0, 1, 1], "1/0"], "bad rational literal '1/0': zero denominator"),
        ([[0, 1, 1], 1], "bad rational literal 1: expected 'p' or 'p/q'"),
    ],
)
def test_parse_entry_refusals_name_path_and_message(entry, message):
    doc = {
        "kind": "crossed_module",
        "spaces": {"g0": {"dim": 2}, "g1": {"dim": 3}},
        "blocks": {"action": [[[0, 0, 1], "1"], entry]},
    }
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc).encode())
    assert str(err.value) == f"blocks.action[1]: {message}"
    assert err.value.path == "blocks.action[1]"


def test_parse_syntax_error_carries_position():
    with pytest.raises(DocumentError) as err:
        parse_document(b'{"kind": ')
    assert "line" in str(err.value) and "column" in str(err.value)


def test_missing_blocks_mean_zero():
    data = b'{"kind": "crossed_module", "name": "bare", "spaces": {"g0": {"dim": 2}, "g1": {"dim": 1}}, "blocks": {"partial": [[[0, 0], "3"]]}}'
    doc = parse_document(data)
    assert set(doc.blocks) == {"partial"}
    assert doc.block_tensor("action") == SparseTensor.zero((2, 1, 1))
    cm = build_crossed_module(doc)
    assert cm.base.bracket.is_zero() and cm.action.is_zero()
    assert cm.tvs.partial == SparseTensor((2, 1), {(0, 0): 3})
    # a block of zero entries is absent too, after parse and after a constructor
    obj = json.loads(data)
    obj["blocks"]["action"] = [[[0, 0, 0], "0"], [[1, 0, 0], "0/3"]]
    assert parse_document(json.dumps(obj).encode()) == doc
    assert doc_from_crossed_module(cm, doc.name) == doc


def test_dualize_two_vs_bare_crossed_module():
    data = b'{"kind": "crossed_module", "spaces": {"g0": {"dim": 2, "labels": ["x", "y"]}, "g1": {"dim": 2, "labels": ["u", "v"]}}, "blocks": {"partial": [[[0, 0], "1"], [[0, 1], "2"], [[1, 1], "3"]]}}'
    doc = parse_document(data)
    dual = dualize_document(doc, "two_vs")
    cm = build_crossed_module(dual)
    assert cm.tvs.partial == SparseTensor((2, 2), {(0, 0): 1, (1, 0): 2, (1, 1): 3})
    assert dual.spaces["g0"].labels == ("u*", "v*")
    # involution on the serialized form
    assert serialize_document(dualize_document(dual, "two_vs")) == serialize_document(doc)


def test_dualize_two_vs_rejects_structured_crossed_module():
    doc = catalog.get("adjoint_sl2_cm").document
    with pytest.raises(UnsupportedMethod):
        dualize_document(doc, "two_vs")


def test_dualize_two_vs_lie2_bialgebra_involution():
    doc = catalog.get("trace_l2b").document
    dual = dualize_document(doc, "two_vs")
    assert build_lie2_bialgebra(dual).cm1.base.bracket == build_lie2_bialgebra(doc).cm2.base.bracket
    assert serialize_document(dualize_document(dual, "two_vs")) == serialize_document(doc)


def test_dualize_dvb_ops():
    doc = catalog.get("dvb_231").document
    vd = dualize_document(doc, "dvb_vertical")
    assert vd.spaces["side_h"].name == "C" and vd.spaces["side_h"].dual
    assert vd.spaces["core"].name == "A" and vd.spaces["core"].dual
    assert serialize_document(dualize_document(vd, "dvb_vertical")) == serialize_document(doc)
    fl = dualize_document(doc, "flip")
    assert (fl.spaces["side_h"].dim, fl.spaces["side_v"].dim) == (3, 2)


def _rendered(spaces):
    """Each declared space as ``(name, dim)``, the name starred if dual."""
    return tuple((d.name + ("*" if d.dual else ""), d.dim) for d in spaces.values())


def _star(space):
    name, dim = space
    return star_label(name), dim


def test_dualize_dvb_from_every_declaration():
    # dims in {0, 1, 2} and every dual flag; the names are given where the
    # dims sum to an even number and otherwise default to the slot keys
    slots = ("side_h", "side_v", "core")
    declarations = itertools.product(
        itertools.product(range(3), repeat=3), itertools.product((False, True), repeat=3)
    )
    for n, (dims, duals) in enumerate(declarations):
        named = sum(dims) % 2 == 0
        spaces = {
            slot: {"dim": dim, "dual": dual, **({"name": "ABC"[i]} if named else {})}
            for i, (slot, dim, dual) in enumerate(zip(slots, dims, duals))
        }
        obj = {"kind": "dvb", "name": f"d{n}", "spaces": spaces}
        doc = parse_document(json.dumps(obj).encode())
        a, b, c = _rendered(doc.spaces)
        expected = {
            "dvb_vertical": (_star(c), b, _star(a)),
            "dvb_horizontal": (a, _star(c), _star(b)),
            "flip": (b, a, c),
        }
        if named and duals == (True, False, False):
            # a starred start stays consistent: from A*, the vertical dual is (C*, B, A)
            assert [s for s, _ in expected["dvb_vertical"]] == ["C*", "B", "A"]
        report = check_duality_identity(doc.spaces)
        assert report.passed and ("core_identification_sign", "-1") in report.metadata
        for which, triple in expected.items():
            dual = dualize_document(doc, which)
            assert dual == StructureDocument("dvb", doc.name, dvb_dual(doc.spaces, which))
            assert parse_document(serialize_document(dual)) == dual
            assert dualize_document(dual, which) == doc
            assert _rendered(dual.spaces) == triple, (which, spaces)


def test_dualize_kind_mismatch():
    with pytest.raises(UnsupportedMethod):
        dualize_document(catalog.get("sl2").document, "flip")
    with pytest.raises(UnsupportedMethod):
        dualize_document(catalog.get("sl2").document, "two_vs")


def test_run_verifier_unsupported_combos():
    with pytest.raises(UnsupportedMethod):
        run_verifier(catalog.get("dvb_231").document, "weil")
    with pytest.raises(UnsupportedMethod):
        run_verifier(catalog.get("sl2").document, "all")
    with pytest.raises(UnsupportedMethod):
        run_verifier(catalog.get("sl2").document, "bogus")


def test_run_verifier_dispatch_every_kind():
    for entry in catalog.entries():
        report = run_verifier(entry.document, "auto")
        assert report.passed == entry.valid, entry.name


def test_report_serialization_deterministic():
    doc = catalog.get("scaling_l2b").document
    r1 = serialize_report(doc, "all", run_verifier(doc, "all"))
    r2 = serialize_report(doc, "all", run_verifier(doc, "all"))
    assert r1 == r2
    obj = json.loads(r1)
    assert obj["verdict"] == "pass"
    assert obj["agreement"] is True
    assert obj["kernel_version"]
    assert obj["instance"] == "scaling_l2b"


def test_report_witnesses_have_both_sides():
    doc = catalog.get("sl2_bad_jacobi").document
    obj = json.loads(serialize_report(doc, "auto", run_verifier(doc, "auto")))
    failing = [c for c in obj["checks"] if not c["pass"]]
    assert failing and all(c["witness"]["lhs"] and c["witness"]["rhs"] for c in failing)


def _l2b_modules() -> list[str]:
    return [name for name in sys.modules if name == "l2b" or name.startswith("l2b.")]


def test_reimported_kernel_gives_the_same_report_bytes():
    # A program may import l2b afresh while modules of an earlier import are
    # still in use.  The earlier ones must keep computing with their own
    # classes: an import made at call time would reach the new copies, and
    # dataclass equality between two copies of a class is always false.
    first = sys.modules["l2b.documents"]
    saved = {name: sys.modules[name] for name in _l2b_modules()}
    entries = [e for e in catalog.entries() if e.kind == "lie2_bialgebra"]
    assert entries
    try:
        for name in saved:
            del sys.modules[name]
        importlib.import_module("l2b.cli")
        second = sys.modules["l2b.documents"]
        assert second is not first
        for entry in entries:
            data = serialize_document(entry.document)
            reports = []
            for documents in (first, second):
                doc = documents.parse_document(data)
                report = documents.run_verifier(doc, "auto")
                reports.append(documents.serialize_report(doc, "auto", report))
            assert reports[0] == reports[1], entry.name
    finally:
        for name in _l2b_modules():
            del sys.modules[name]
        sys.modules.update(saved)
