import json
import subprocess
import sys

import pytest

from l2b import catalog
from l2b.cli import main
from l2b.documents import serialize_document


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
    code, _, err = run_cli(capsys, "gen", "--family", "nope", "--seed", "1")
    assert code == 2


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


def test_verify_unwritable_out_exit_two(doc_file, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", doc_file("sl2"), "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and not target.exists()


def test_subprocess_entry_point(doc_file, tmp_path):
    path = doc_file("axb_bialgebra")
    proc = subprocess.run(
        [sys.executable, "-m", "l2b", "verify", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"
