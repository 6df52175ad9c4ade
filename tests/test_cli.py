import json

import pytest

from mrgrid import FieldSpec, GFMatrix, TensorCode, Topology, encode, erase
from mrgrid.cli import run
from mrgrid.patterns import ErasurePattern
from _support import simple_code


def invoke(capsys, argv):
    status = run(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_enumerate_known_types(capsys):
    status, out, _ = invoke(capsys, ["enumerate", "--m", "4", "--b", "2"])
    assert status == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert len(data["types"]) == 2
    status, out, _ = invoke(capsys, ["enumerate", "--m", "2", "--b", "2"])
    assert status == 0 and json.loads(out)["types"] == []


def test_output_is_deterministic(capsys):
    _, first, _ = invoke(capsys, ["enumerate", "--m", "3", "--b", "3"])
    _, second, _ = invoke(capsys, ["enumerate", "--m", "3", "--b", "3"])
    assert first == second


def test_bounds_command(capsys):
    status, out, _ = invoke(capsys, ["bounds", "--name", "kmg_poly",
                                     "--m", "2", "--b", "1", "--n", "10"])
    assert status == 0
    assert json.loads(out)["report"]["value"] == "2401"


def test_bounds_missing_constant_is_domain_error(capsys):
    status, _, err = invoke(capsys, ["bounds", "--name", "t4_upper", "--n", "9"])
    assert status == 1
    assert "MissingConstant" in err


def test_usage_error_exit_2(capsys):
    status, _, _ = invoke(capsys, ["enumerate", "--m", "4"])
    assert status == 2
    status, _, _ = invoke(capsys, ["no-such-command"])
    assert status == 2


def test_search_and_certify_roundtrip(tmp_path, capsys):
    status, out, _ = invoke(capsys, ["search", "--m", "4", "--b", "2", "--n", "6",
                                     "--q-max", "16"])
    assert status == 0
    data = json.loads(out)
    assert data["q_found"] == 11
    assert data["progress"][-1]["outcome"] == "found"
    assert all(rec["outcome"] == "not_found" for rec in data["progress"][:-1])
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(data["code"]))
    status, out, _ = invoke(capsys, ["certify", "--code", str(code_file)])
    assert status == 0
    assert json.loads(out)["report"]["verdict"] == "certified"


def test_search_not_found_exit_1(capsys):
    status, out, _ = invoke(capsys, ["search", "--m", "4", "--b", "2", "--n", "6",
                                     "--q-max", "5"])
    assert status == 1
    assert json.loads(out)["code"] is None


def test_certify_failure_pattern_roundtrips(tmp_path, capsys):
    s = FieldSpec(7)
    bad = simple_code(s, 4, 6, 2, [pow(3, t, 7) for t in range(6)])
    code_file = tmp_path / "bad.json"
    code_file.write_text(json.dumps(bad.to_dict()))
    status, out, _ = invoke(capsys, ["certify", "--code", str(code_file)])
    assert status == 1
    rep = json.loads(out)["report"]
    assert rep["verdict"] == "failed_pattern"
    # counterexample round-trips through the pattern JSON and re-fails
    pat = ErasurePattern.from_list(rep["counterexample"])
    from mrgrid import is_correctable_by
    assert not is_correctable_by(bad, pat, method="direct")


def test_attack_command(tmp_path, capsys):
    s = FieldSpec(7)
    bad = simple_code(s, 4, 6, 2, [pow(3, t, 7) for t in range(6)])
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad.to_dict()))
    status, out, _ = invoke(capsys, ["attack", "--code", str(f), "--topology", "t4"])
    assert status == 0
    outcome = json.loads(out)["outcome"]
    assert outcome["rank_found"] < 12
    assert outcome["witness"]["pairing"]
    # a code whose ratio exponents form a 2-Sidon set yields no witness: exit 1
    from mrgrid import primitive_element
    from mrgrid.mr import is_two_sidon
    s32 = FieldSpec(2, 5)
    exps = []
    for x in range(31):
        if is_two_sidon(exps + [x], 31):
            exps.append(x)
        if len(exps) == 6:
            break
    w = primitive_element(s32).value
    good = simple_code(s32, 4, 6, 2, [s32.pow(w, t) for t in exps])
    f2 = tmp_path / "good.json"
    f2.write_text(json.dumps(good.to_dict()))
    status, out, _ = invoke(capsys, ["attack", "--code", str(f2), "--topology", "t4"])
    assert status == 1
    assert json.loads(out)["outcome"] is None


def test_decode_command(tmp_path, capsys):
    s = FieldSpec(13)
    code = simple_code(s, 3, 5, 2, [1, 2, 3, 4, 5])
    w = encode(code, [1, 2, 3, 4, 5, 6])
    we = erase(w, ErasurePattern.of([(0, 0), (1, 0)]))
    (tmp_path / "code.json").write_text(json.dumps(code.to_dict()))
    (tmp_path / "word.json").write_text(json.dumps(we.to_dict()))
    status, out, _ = invoke(capsys, ["decode", "--code", str(tmp_path / "code.json"),
                                     "--word", str(tmp_path / "word.json")])
    assert status == 0
    assert json.loads(out)["grid"] == [list(r) for r in w.entries]


def test_decode_uncorrectable_exit_1(tmp_path, capsys):
    s = FieldSpec(7)
    code = simple_code(s, 4, 6, 2, [1, 2, 3, 4, 5, 6])
    w = encode(code, [0] * 12)
    box = ErasurePattern.of((i, j) for i in range(2) for j in range(3))
    (tmp_path / "code.json").write_text(json.dumps(code.to_dict()))
    (tmp_path / "word.json").write_text(json.dumps(erase(w, box).to_dict()))
    status, _, err = invoke(capsys, ["decode", "--code", str(tmp_path / "code.json"),
                                     "--word", str(tmp_path / "word.json")])
    assert status == 1
    assert "Uncorrectable" in err


def test_formats_and_out_file(tmp_path, capsys):
    status, out, _ = invoke(capsys, ["--format", "csv", "bounds", "--name",
                                     "type_count", "--m", "2", "--b", "1"])
    assert status == 0 and out.startswith("key,value")
    status, out, _ = invoke(capsys, ["--format", "text", "bounds", "--name",
                                     "type_count", "--m", "2", "--b", "1"])
    assert status == 0 and "report.value = 4" in out
    target = tmp_path / "report.json"
    status, out, _ = invoke(capsys, ["--out", str(target), "enumerate",
                                     "--m", "2", "--b", "2"])
    assert status == 0 and out == ""
    assert json.loads(target.read_text())["types"] == []


def test_threads_flag_is_validated_and_inert(tmp_path, capsys, monkeypatch):
    s = FieldSpec(7)
    bad = simple_code(s, 4, 6, 2, [pow(3, t, 7) for t in range(6)])
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad.to_dict()))
    for value in ("0", "-1"):
        status, out, _ = invoke(capsys, ["certify", "--code", str(f), "--threads", value])
        assert status == 2 and out == ""
    # the environment no longer selects anything, so a malformed value is inert
    monkeypatch.setenv("MRGRID_THREADS", "abc")
    status, plain, err = invoke(capsys, ["certify", "--code", str(f)])
    assert status == 1 and "Traceback" not in err
    assert json.loads(plain)["report"]["verdict"] == "failed_pattern"
    status, threaded, _ = invoke(capsys, ["--threads", "2", "certify", "--code", str(f)])
    assert status == 1 and threaded == plain


def test_global_flags_after_subcommand(tmp_path, capsys):
    target = tmp_path / "r.json"
    status, out, _ = invoke(capsys, ["enumerate", "--m", "2", "--b", "2",
                                     "--out", str(target), "--format", "json"])
    assert status == 0 and out == ""
    assert json.loads(target.read_text())["types"] == []
