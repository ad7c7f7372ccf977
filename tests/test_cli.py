import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from l2b import catalog
from l2b.cli import main
from l2b.documents import (
    DUALIZATIONS,
    KINDS,
    MAX_DIM,
    METHODS,
    _SCHEMAS,
    parse_document,
    serialize_document,
)
from l2b.exact import perm_parity

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def doc_file(tmp_path):
    def write(name, data=None):
        path = tmp_path / f"{name}.json"
        if data is None:
            data = serialize_document(catalog.get(name).document)
        path.write_bytes(data)
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_valid_exit_zero(doc_file, capsys):
    code, out, _ = run_cli(capsys, "verify", doc_file("sl2"))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_invalid_exit_one(doc_file, capsys):
    code, out, _ = run_cli(capsys, "verify", doc_file("sl2_bad_jacobi"))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing and failing[0]["witness"] is not None


def test_verify_method_all_scaling(doc_file, capsys):
    code, out, _ = run_cli(capsys, "verify", doc_file("scaling_l2b"), "--method", "all")
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_verify_unsupported_combination(doc_file, capsys):
    code, _, err = run_cli(capsys, "verify", doc_file("dvb_231"), "--method", "weil")
    assert code == 2
    assert "error:" in err


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "/no/such/file.json")
    assert code == 2 and "cannot read" in err


def test_verify_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json")
    code, _, err = run_cli(capsys, "verify", str(p))
    assert code == 2 and "syntax error" in err


def test_verify_out_flag(doc_file, capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", doc_file("sl2"), "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_bytes())["verdict"] == "pass"


def test_verify_byte_identical_reports(doc_file, capsys, tmp_path):
    path = doc_file("trace_l2b")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", path, "--method", "all", "--out", str(out1)]) == 0
    assert main(["verify", path, "--method", "all", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_usage_error_exit_two(capsys):
    assert main(["verify"]) == 2
    assert main(["bogus"]) == 2
    assert main([]) == 2


def test_dualize_two_vs(tmp_path, capsys):
    data = (
        b'{"kind": "crossed_module", "spaces": {"g0": {"dim": 2, "labels": ["x","y"]},'
        b' "g1": {"dim": 2, "labels": ["u","v"]}},'
        b' "blocks": {"partial": [[[0,0],"1"],[[0,1],"2"],[[1,1],"3"]]}}'
    )
    p = tmp_path / "t.json"
    p.write_bytes(data)
    code, out, _ = run_cli(capsys, "dualize", str(p), "--which", "two_vs")
    assert code == 0
    doc = json.loads(out)
    assert [e for e in doc["blocks"]["partial"]] == [[[0, 0], "1"], [[1, 0], "2"], [[1, 1], "3"]]


def test_dualize_twice_identity(doc_file, capsys, tmp_path):
    path = doc_file("dvb_231")
    code, out, _ = run_cli(capsys, "dualize", path, "--which", "dvb_vertical")
    assert code == 0
    p2 = tmp_path / "once.json"
    p2.write_text(out)
    code, out2, _ = run_cli(capsys, "dualize", str(p2), "--which", "dvb_vertical")
    assert code == 0
    assert out2.encode() == serialize_document(catalog.get("dvb_231").document)


def test_dualize_flip_dims(doc_file, capsys):
    code, out, _ = run_cli(capsys, "dualize", doc_file("dvb_231"), "--which", "flip")
    doc = json.loads(out)
    assert (doc["spaces"]["side_h"]["dim"], doc["spaces"]["side_v"]["dim"], doc["spaces"]["core"]["dim"]) == (3, 2, 1)


def test_dualize_kind_mismatch(doc_file, capsys):
    code, _, err = run_cli(capsys, "dualize", doc_file("sl2"), "--which", "flip")
    assert code == 2


def test_gen_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen", "--family", "scaling", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "gen", "--family", "scaling", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "lie2_bialgebra"


def test_gen_perturbed_fails_verification(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "adjoint", "--seed", "7", "--perturbed")
    assert code == 0
    p = tmp_path / "pert.json"
    p.write_text(out)
    assert main(["verify", str(p)]) == 1


def test_gen_unknown_family(capsys):
    known = ", ".join(catalog.FAMILIES)
    for family in ("nope", "random_basis_change", "random_basis_change_scaling",
                   "random_basis_changefoo", "random_basis_change:"):
        code, out, err = run_cli(capsys, "gen", "--family", family, "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: unknown family {family!r}; expected one of {known}\n"


def test_gen_every_family(capsys):
    assert len(catalog.FAMILIES) == 9
    for family in catalog.FAMILIES:
        code, out, _ = run_cli(capsys, "gen", "--family", family, "--seed", "0")
        assert code == 0
        assert parse_document(out.encode()).name == f"{family.replace(':', '-')}-0"


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 12
    assert any("sl2" in l for l in lines)


def test_catalog_show(capsys):
    code, out, _ = run_cli(capsys, "catalog", "show", "sl2")
    assert code == 0
    assert json.loads(out)["name"] == "sl2"


def test_catalog_show_unknown(capsys):
    code, _, err = run_cli(capsys, "catalog", "show", "nonexistent")
    assert code == 2


def test_verify_deeply_nested_input_exit_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 200_000)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_oversized_dim_exit_two(tmp_path, capsys):
    obj = {"kind": "lie_algebra", "spaces": {"g": {"dim": MAX_DIM + 1}}, "blocks": {"bracket": []}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: spaces.g.dim: must be at most {MAX_DIM}\n"
    obj["spaces"]["g"] = {"dim": MAX_DIM}
    assert parse_document(json.dumps(obj).encode()).spaces["g"].dim == MAX_DIM


def test_verify_witness_beyond_the_int_digit_limit(tmp_path, capsys):
    # every literal parses; the Jacobi total at (e0, e1, e2) is -(b^2 + b),
    # about 5000 digits, more than str() renders of an int
    b = int("3" * 2500)
    table = [([0, 1, 2], b), ([1, 2, 1], b), ([0, 2, 0], 1)]
    bracket = []
    for (i, j, k), c in table:
        bracket += [[[i, j, k], f"{c}"], [[j, i, k], f"{-c}"]]
    obj = {"kind": "lie_algebra", "spaces": {"g": {"dim": 3}}, "blocks": {"bracket": bracket}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    outs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    (check,) = json.loads(outs[0])["checks"]
    witness = check["witness"]
    assert check["id"] == "jacobi" and witness["indices"] == [0, 1, 2, 2]
    assert len(witness["lhs"]) > sys.get_int_max_str_digits()
    assert Decimal(witness["lhs"]) == -(b * b + b) and witness["rhs"] == "0"


def test_verify_literal_beyond_the_int_digit_limit_exit_two(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    long = "3" * (limit + 700)
    for literal in (long, f"-{long}", f"1/{long}"):
        obj = {"kind": "lie_algebra", "spaces": {"g": {"dim": 2}},
               "blocks": {"bracket": [[[0, 1, 1], "1"], [[1, 0, 1], literal]]}}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == (
            "error: blocks.bracket[1]: bad rational literal: a numerator or "
            f"denominator of more than {limit} digits\n"
        )
    # a literal of as many digits as the limit reads
    bracket = [[[0, 1, 1], "3" * limit], [[1, 0, 1], "-" + "3" * limit]]
    obj["blocks"]["bracket"] = bracket
    parsed = parse_document(json.dumps(obj).encode())
    assert parsed.blocks["bracket"].entries[(0, 1, 1)] == int("3" * limit)


@pytest.mark.parametrize("literal", ["1/\u0660", "\uff11/\uff10", "\u0663"])
def test_verify_non_ascii_digits_exit_two(tmp_path, capsys, literal):
    # Arabic-Indic and fullwidth digits are no rational literal, zero
    # denominators included
    obj = {"kind": "lie_algebra", "spaces": {"g": {"dim": 2}},
           "blocks": {"bracket": [[[0, 1, 1], literal], [[1, 0, 1], "1"]]}}
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == (
        f"error: blocks.bracket[0]: bad rational literal {literal!r}: expected 'p' or 'p/q'\n"
    )


def test_verify_json_integer_beyond_the_int_digit_limit_exit_two(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 700)
    for text, where in (
        ('{"kind": "lie_algebra", "spaces": {"g": {"dim": %s}}}' % long, "spaces.g.dim"),
        ('{"kind": "lie_algebra", "spaces": {"g": {"dim": 2}}, '
         '"blocks": {"bracket": [[[0, 1, 1], "1"], [[1, %s, %s], "-1"]]}}' % (long, long),
         "blocks.bracket[1][0][1]"),
    ):
        path = tmp_path / "long.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {where}: integer of more than {limit} digits\n"


@pytest.mark.parametrize("index", [[0, 0, 7], [0, -1, 2]])
def test_verify_out_of_range_index_exit_two(tmp_path, capsys, index):
    obj = json.loads(serialize_document(catalog.get("sl2").document))
    obj["blocks"]["bracket"].append([index, "1"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_weak_lie2_bracket_not_antisymmetric_exit_two(tmp_path, capsys):
    # the crossed module of a weak_lie2 document is read as for crossed_module
    messages = []
    for name in ("adjoint_sl2_cm", "weak_l3"):
        obj = json.loads(serialize_document(catalog.get(name).document))
        obj["blocks"]["bracket0"].append([[0, 1, 0], "1"])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        messages.append(err)
    assert messages[0] == messages[1] == (
        "error: blocks.bracket0: bracket tensor not antisymmetric at (0, 1, 0)\n"
    )


def test_verify_unwritable_out_exit_two(doc_file, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", doc_file("sl2"), "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and not target.exists()


def test_subprocess_entry_point(doc_file, tmp_path):
    path = doc_file("axb_bialgebra")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "l2b", "verify", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


# --- zero-dimensional sides and cores ------------------------------------------

_AXB = [[[0, 1, 1], "1"], [[1, 0, 1], "-1"]]
_ZERO_DIMS = ((0, 0), (0, 2), (2, 0))


def _zero_dim_doc(kind, n0, n1):
    """A valid document with a zero side or core; axb where a dimension is 2.

    ``crossed_module`` documents stay bare (zero bracket and action), so
    that the ``two_vs`` dualization applies to them.
    """
    blocks = {}
    if kind != "crossed_module" and n0 == 2:
        blocks["bracket0"] = _AXB
    if kind == "lie2_bialgebra" and n1 == 2:
        blocks["dual_bracket"] = _AXB
    return json.dumps(
        {
            "kind": kind,
            "name": f"{kind}_{n0}{n1}",
            "spaces": {"g0": {"dim": n0}, "g1": {"dim": n1}},
            "blocks": blocks,
        }
    ).encode()


@pytest.mark.parametrize("n0,n1", _ZERO_DIMS)
@pytest.mark.parametrize("kind", ["crossed_module", "weak_lie2", "lie2_bialgebra"])
def test_zero_dimensional_sides_and_cores(kind, n0, n1, tmp_path, capsys):
    data = _zero_dim_doc(kind, n0, n1)
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    methods = ("auto", "def", "matched", "weil", "all") if kind == "lie2_bialgebra" else ("auto",)
    for method in methods:
        code, out, err = run_cli(capsys, "verify", str(path), "--method", method)
        assert code == 0, (method, err)
        assert json.loads(out)["verdict"] == "pass"

    once = tmp_path / "once.json"
    code, _, err = run_cli(capsys, "dualize", str(path), "--which", "two_vs", "--out", str(once))
    if kind == "weak_lie2":
        assert code == 2 and err.startswith("error:")
        return
    assert code == 0, err
    dual = json.loads(once.read_bytes())
    assert (dual["spaces"]["g0"]["dim"], dual["spaces"]["g1"]["dim"]) == (n1, n0)
    code, out, _ = run_cli(capsys, "dualize", str(once), "--which", "two_vs")
    assert code == 0
    assert out.encode() == serialize_document(parse_document(data))


# --- hostile documents ----------------------------------------------------------

# JSON text, so that every draw is a fresh object
_JUNK = ("null", "true", "false", "0", "-1", "2.5", '""', '"1/0"', '"x"', "[]", "{}", "[[]]",
         '{"a": 1}')
_NEGATED = {"1": "-1", "-1": "1", "2/3": "-2/3", "0": "0"}
# the index positions in which each block is antisymmetric
_ANTISYMMETRIC = {"bracket": (0, 1), "bracket0": (0, 1), "bracket_h": (0, 1),
                  "bracket_k": (0, 1), "dual_bracket": (0, 1), "cobracket": (1, 2),
                  "jacobiator": (0, 1, 2)}


@pytest.mark.parametrize("key", sorted(_ANTISYMMETRIC))
def test_verify_block_refused_by_its_builder_names_its_path(key, tmp_path, capsys):
    # parse does not check antisymmetry; the kernel constructor the block
    # feeds refuses it, and the refusal names the block
    kind = next(k for k in KINDS if key in _SCHEMAS[k]["blocks"])
    schema = _SCHEMAS[kind]
    idx = [0, 1, 2, 0][: len(schema["blocks"][key])]
    obj = {
        "kind": kind,
        "spaces": {space: {"dim": 3} for space in schema["spaces"]},
        "blocks": {key: [[idx, "1"]]},
    }
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: blocks.{key}: ") and err.count("\n") == 1


def _index(draw, dim, damaged):
    """In range, or on a damaged document sometimes -1, the dim or a boolean."""
    if dim and not (damaged and draw(st.integers(0, 9)) == 0):
        return draw(st.integers(0, dim - 1))
    return draw(st.sampled_from((-1, dim, True, False)))


def _containers(obj):
    """Every (container, key) pair below ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from _containers(value)


def _signed_orbit(idx, value, positions, taken):
    """``idx`` and its signed permutations in ``positions``; empty if an
    index repeats there or the orbit meets ``taken``."""
    orbit = {}
    for perm in itertools.permutations(range(len(positions))):
        moved = list(idx)
        for pos, src in zip(positions, perm):
            moved[pos] = idx[positions[src]]
        orbit[tuple(moved)] = value if perm_parity(perm) == 1 else _NEGATED[value]
    if len(orbit) < math.factorial(len(positions)) or orbit.keys() & taken.keys():
        return {}
    return orbit


@st.composite
def hostile_documents(draw):
    """Documents of every kind with dims up to 3.

    Half of them have antisymmetric brackets and cobrackets, and half are
    damaged: on those, entries may be out of range or duplicated, and up to
    two values anywhere in the tree are replaced by JSON of the wrong type
    or joined by an unknown field.
    """
    kind = draw(st.sampled_from(KINDS))
    schema = _SCHEMAS[kind]
    antisymmetric, damaged = draw(st.booleans()), draw(st.booleans())
    dims = {key: draw(st.integers(0, 3)) for key in schema["spaces"]}
    if kind == "dvb":
        spaces = {key: {"name": key, "dim": d, "dual": draw(st.booleans())} for key, d in dims.items()}
    else:
        spaces = {key: {"dim": d} for key, d in dims.items()}
    blocks = {}
    for key, axes in schema["blocks"].items():
        entries = {}
        fits = all(dims[a] for a in axes)
        for _ in range(draw(st.integers(0, 3)) if fits or damaged else 0):
            idx = tuple(_index(draw, dims[a], damaged) for a in axes)
            value = draw(st.sampled_from(sorted(_NEGATED)))
            if antisymmetric and key in _ANTISYMMETRIC:
                entries.update(_signed_orbit(idx, value, _ANTISYMMETRIC[key], entries))
            else:
                entries.setdefault(idx, value)
        blocks[key] = [[list(idx), value] for idx, value in entries.items()]
        if damaged and entries and draw(st.integers(0, 7)) == 0:
            blocks[key].append(list(blocks[key][0]))
    doc = {"kind": kind, "name": "hostile", "spaces": spaces, "blocks": blocks}
    for _ in range(draw(st.integers(0, 2)) if damaged else 0):
        container, key = draw(st.sampled_from(list(_containers(doc))))
        junk = json.loads(draw(st.sampled_from(_JUNK)))
        if isinstance(container, dict) and draw(st.booleans()):
            container["extra"] = junk
        else:
            container[key] = junk
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=150, deadline=None)
@given(data=hostile_documents())
def test_verify_hostile_documents_keep_the_exit_contract(data, fuzz_path):
    fuzz_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(fuzz_path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert json.loads(out.getvalue())["verdict"] == ("pass" if code == 0 else "fail")


# --- mutated catalog documents ----------------------------------------------------

# stand-ins for JSON text that `json.dumps` cannot write: nesting deeper than
# the parser recurses, nesting it reads, and an integer past the digit limit
_DEEP, _NESTED, _HUGE = "\x00deep", "\x00nested", "\x00huge"
_EXPANSIONS = {
    _DEEP: "[" * 100_000 + "]" * 100_000,
    _NESTED: "[" * 40 + "1" + "]" * 40,
    _HUGE: "9" * (sys.get_int_max_str_digits() + 100),
}
# integers within -2..6 reach indices out of range of every catalog space
# and keep a dim at most 6, since the dense Jacobi loop grows with dim^5
_MUTANTS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-2, 6),
    st.sampled_from(("", "x", "1", "-2/3", "1/0", " 2", 2.5, 1.0)),
    st.sampled_from((_DEEP, _NESTED)),
    st.sampled_from((_HUGE, "3" * sys.get_int_max_str_digits())),
    st.sampled_from(("[]", "{}", '[[0, 0, 0], "1"]')).map(json.loads),  # fresh objects
)


@st.composite
def mutated_catalog_documents(draw):
    """A catalog document with up to three values anywhere in its tree
    replaced: booleans or strings where integers are expected, nulls,
    out-of-range indices, deep nesting and huge literals.  Integers and
    rational strings in range keep some documents readable."""
    doc = json.loads(serialize_document(draw(st.sampled_from(catalog.entries())).document))
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(list(_containers(doc))))
        container[key] = draw(_MUTANTS)
    return _expanded(doc)


def _expanded(doc) -> bytes:
    text = json.dumps(doc)
    for token, expansion in _EXPANSIONS.items():
        text = text.replace(json.dumps(token), expansion)
    return text.encode()


def _sl2_with_bracket(bracket) -> bytes:
    doc = json.loads(serialize_document(catalog.get("sl2").document))
    doc["blocks"]["bracket"] = bracket
    return _expanded(doc)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=mutated_catalog_documents())
@example(data=_sl2_with_bracket(_DEEP))
@example(data=_sl2_with_bracket([[[0, 1, 2], _HUGE]]))
def test_mutated_catalog_documents_keep_the_cli_contract(data, fuzz_path):
    # exit 0/1/2 under every method and dualization, never an exception, and
    # the same bytes on a repeat
    fuzz_path.write_bytes(data)
    commands = [["verify", str(fuzz_path), "--method", m] for m in METHODS]
    commands += [["dualize", str(fuzz_path), "--which", w] for w in DUALIZATIONS]
    for argv in commands:
        code, out, err = result = _run_main(argv)
        assert _run_main(argv) == result, argv
        assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), argv
        if code == 2:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, argv
        elif argv[0] == "verify":
            assert err == "" and json.loads(out)["verdict"] == ("pass", "fail")[code], argv
        else:
            assert err == "" and parse_document(out.encode()), argv
