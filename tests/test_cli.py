import json

import pytest

from mrgrid import FieldSpec, GFMatrix, GridWord, TensorCode, Topology, encode, mr
from mrgrid.cli import build_parser, run
from mrgrid.patterns import ErasurePattern
from _support import is_two_sidon, simple_code


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


@pytest.mark.parametrize("args", [["--m", "2", "--b", "0", "--n", "0"],
                                  ["--m=-1", "--b", "1", "--n", "0"]])
def test_bounds_kmg_poly_outside_its_domain_is_a_usage_error(capsys, args):
    status, out, err = invoke(capsys, ["bounds", "--name", "kmg_poly", *args])
    assert status == 2 and out == "" and "Traceback" not in err
    assert err.startswith("usage error: kmg_poly needs m >= 1, b >= 0 and n >= 1")


def test_bounds_kmg_poly_at_b_zero_reports_a_fraction(capsys):
    status, out, _ = invoke(capsys, ["bounds", "--name", "kmg_poly",
                                     "--m", "2", "--b", "0", "--n", "3"])
    assert status == 0
    assert json.loads(out)["report"]["value"] == {"numerator": "19", "denominator": "3"}


def test_bounds_missing_constant_is_domain_error(capsys):
    status, _, err = invoke(capsys, ["bounds", "--name", "t4_upper", "--n", "9"])
    assert status == 1
    assert "MissingConstant" in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--name", "kmg_poly", "--m", "10", "--b", "10", "--n", "1000"],
    ["bounds", "--name", "t4_upper", "--n", str(10 ** 70), "--C", "1"],
])
def test_bounds_too_large_for_a_float_report_null_approx(capsys, argv):
    status, out, err = invoke(capsys, argv)
    assert status == 0 and "Traceback" not in err
    report = json.loads(out)["report"]
    assert report["approx"] is None and report["value"] is not None


@pytest.mark.parametrize("argv,digits", [
    (["--name", "type_count", "--m", "40", "--b", "40"], 5378),
    (["--name", "kmg_poly", "--m", "40", "--b", "40", "--n", "10"], 8548),
    (["--name", "kmg_poly", "--m", "100", "--b", "100", "--n", "10"], 62110),
    (["--name", "type_count", "--m", "100", "--b", "100"], 42150),
    (["--name", "gopalan_general", "--m", "200", "--b", "100", "--n", "200"], 12044),
])
def test_bounds_too_long_to_print_are_refused_before_they_are_built(capsys, argv, digits):
    # each value is estimated from logarithms, never built: exit 1 at once
    status, out, err = invoke(capsys, ["bounds", *argv])
    assert status == 1 and out == ""
    assert err == (f"error: ResourceGuard: {argv[1]} has at least {digits} digits, "
                   "more than the 4300 a report prints\n")


def _strict_json(out):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(out, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["bounds", "--name", "t4_upper", "--n", "10", "--C", "1e308"],
    ["bounds", "--name", "t3_upper", "--n", "10", "--C=-1e308"],
    ["bounds", "--name", "hypergraph_alpha", "--nv", "10", "--delta-r", "2", "--r", "2",
     "--c-r", "1e308"],
])
def test_bounds_overflow_to_infinity_reports_null_approx(capsys, argv):
    status, out, err = invoke(capsys, argv)
    assert status == 0 and err == ""
    assert _strict_json(out)["report"]["approx"] is None


@pytest.mark.parametrize("name,value", [("C", "inf"), ("C", "nan"), ("C", "-inf"),
                                        ("c_r", "inf"), ("c_r", "nan"),
                                        ("c_r", "-inf"), ("delta_r", "inf"), ("delta_r", "nan")])
def test_bounds_non_finite_constants_are_usage_errors(capsys, name, value):
    if name == "C":
        argv = ["bounds", "--name", "t4_upper", "--n", "10", f"--C={value}"]
    else:
        flags = {"c_r": "1", "delta_r": "2", name: value}
        argv = ["bounds", "--name", "hypergraph_alpha", "--nv", "10", "--r", "2",
                f"--c-r={flags['c_r']}", f"--delta-r={flags['delta_r']}"]
    status, out, err = invoke(capsys, argv)
    assert status == 2 and out == ""
    assert f"usage error: {name} must be a finite number" in err


def test_bounds_negative_exponent_form_parses_with_equals(capsys):
    # a separate "-1e3" reads as an option to argparse; the help names this form
    _, spaced, _ = invoke(capsys, ["bounds", "--name", "t4_upper", "--n", "10", "--C", "-1000"])
    status, out, err = invoke(capsys, ["bounds", "--name", "t4_upper", "--n", "10", "--C=-1e3"])
    assert status == 0 and err == "" and out == spaced
    assert json.loads(out)["report"]["params"] == {"C": -1000.0, "n": 10}


def test_usage_error_exit_2(capsys):
    status, _, _ = invoke(capsys, ["enumerate", "--m", "4"])
    assert status == 2
    status, _, _ = invoke(capsys, ["no-such-command"])
    assert status == 2


@pytest.mark.parametrize("argv", [
    ["bounds", "--name", "hypergraph_alpha", "--nv", "1", "--delta-r", "2", "--r", "2",
     "--c-r", "1"],
    ["bounds", "--name", "hypergraph_alpha", "--nv", "1", "--delta-r", "0", "--r", "2",
     "--c-r", "1"],
    ["bounds", "--name", "t4_upper", "--n", "1", "--C", "1"],
    ["certify", "--code", "{list_file}"],
])
def test_out_of_domain_input_is_usage_error(tmp_path, capsys, argv):
    list_file = tmp_path / "list.json"
    list_file.write_text("[1, 2, 3]")
    argv = [arg.format(list_file=list_file) for arg in argv]
    status, out, err = invoke(capsys, argv)
    assert status == 2 and out == ""
    assert "usage error" in err


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


@pytest.mark.parametrize("q_min,q_max", [("2000000", "2000100"), ("131072", "131072"),
                                         ("24", "25")])
def test_search_without_supported_orders_is_usage_error(capsys, q_min, q_max):
    # orders above the cap, GF(2^17) and GF(25) are fields search cannot build
    status, out, err = invoke(capsys, ["search", "--m", "4", "--b", "2", "--n", "6",
                                       "--q-min", q_min, "--q-max", q_max])
    assert status == 2 and out == ""
    assert "usage error" in err


@pytest.mark.parametrize("extra", [["--cap", "-1"], ["--cap", "0"],
                                   ["--strategy", "random", "--budget", "0"],
                                   ["--budget", "-3"]])
def test_search_cap_and_budget_must_be_positive(capsys, extra):
    status, out, err = invoke(capsys, ["search", "--m", "4", "--b", "2", "--n", "6",
                                       "--q-max", "16"] + extra)
    assert status == 2 and out == ""
    assert "Traceback" not in err


def test_certify_cap_must_be_positive(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(simple_code(FieldSpec(7), 4, 6, 2, range(6)).to_dict()))
    status, out, _ = invoke(capsys, ["certify", "--code", str(code_file), "--cap", "0"])
    assert status == 2 and out == ""
    # a positive cap below the 75 row classes of T_4x6(1,2,0) trips the guard
    status, out, err = invoke(capsys, ["certify", "--code", str(code_file), "--cap", "74"])
    assert status == 1 and "75 pattern classes exceed cap 74" in err
    status, out, _ = invoke(capsys, ["certify", "--code", str(code_file), "--cap", "75"])
    assert status == 1 and json.loads(out)["report"]["verdict"] == "failed_pattern"


def test_cap_and_budget_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["search", "--m", "4", "--b", "2", "--n", "6",
                                      "--q-max", "16"])
    assert (args.cap, args.budget) == (mr.DEFAULT_INSTANTIATION_CAP, mr.DEFAULT_RANDOM_BUDGET)
    args = build_parser().parse_args(["certify", "--code", "code.json"])
    assert args.cap == mr.DEFAULT_INSTANTIATION_CAP


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
    s32 = FieldSpec(2, 5)
    exps = []
    for x in range(31):
        if is_two_sidon(exps + [x], 31):
            exps.append(x)
        if len(exps) == 6:
            break
    w = primitive_element(s32)
    good = simple_code(s32, 4, 6, 2, [s32.pow(w, t) for t in exps])
    f2 = tmp_path / "good.json"
    f2.write_text(json.dumps(good.to_dict()))
    status, out, _ = invoke(capsys, ["attack", "--code", str(f2), "--topology", "t4"])
    assert status == 1
    assert json.loads(out)["outcome"] is None


def _geometric_code(m, a, alphas=None) -> TensorCode:
    """A T_{m x 6}(a, 2, 0) code over GF(7) whose row code holds a t4 witness."""
    s = FieldSpec(7)
    h_row = GFMatrix(s, [[1] * 6, [pow(3, t, 7) for t in range(6)]])
    h_col = [alphas or [1] * m] if a == 1 else [[1] * m, list(range(1, m + 1))]
    return TensorCode(Topology(m, 6, a, 2), GFMatrix(s, h_col), h_row)


@pytest.mark.parametrize("m,a", [(4, 2), (3, 1), (2, 1)])
def test_attack_t4_outside_its_shape_is_usage_error(tmp_path, capsys, m, a):
    # two column parities, or fewer than four grid rows for the Type II pattern
    f = tmp_path / "code.json"
    f.write_text(json.dumps(_geometric_code(m, a).to_dict()))
    status, out, err = invoke(capsys, ["attack", "--code", str(f), "--topology", "t4"])
    assert status == 2 and out == ""
    assert "usage error" in err


def test_attack_with_a_zero_column_coefficient_is_not_mds(tmp_path, capsys):
    f = tmp_path / "code.json"
    f.write_text(json.dumps(_geometric_code(4, 1, alphas=[3, 0, 0, 0]).to_dict()))
    status, out, err = invoke(capsys, ["attack", "--code", str(f), "--topology", "t4"])
    assert status == 1 and out == ""
    assert "NotMds" in err


def _set(path, value):
    """A copy-and-edit of a code dict: path is a key list into it."""
    def edit(d):
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return d
    return edit


@pytest.mark.parametrize("command", [["certify"], ["attack", "--topology", "t4"]])
@pytest.mark.parametrize("edit", [
    _set(["m"], "3"), _set(["m"], 4.0), _set(["h_row"], [1]),
    _set(["h_row", "data"], 5), _set(["h_row", "data"], [5, 6]),
    _set(["h_row", "field", "p"], "7"), _set(["h_col", "field", "k"], "1"),
    _set(["h_col", "field"], 7), _set(["h_row", "field", "p"], 2 ** 127 - 1),
    # declared shape or field that disagrees with the data
    _set(["h_row", "rows"], 3), _set(["h_row", "cols"], 8), _set(["field"], {"p": 11, "k": 1}),
    # a boolean is not an integer, though each one here equals the value meant
    _set(["a"], True), _set(["h_col", "field", "k"], True), _set(["h_col", "rows"], True),
    _set(["h_row", "data"], [[True] * 6, [pow(3, t, 7) for t in range(6)]]),
], ids=["m-str", "m-float", "h_row-list", "data-int", "rows-int", "p-str", "k-str",
        "field-int", "p-huge-prime", "h_row-rows", "h_row-cols", "code-field",
        "a-true", "k-true", "h_col-rows-true", "data-true"])
def test_malformed_code_file_is_usage_error(tmp_path, capsys, command, edit):
    code = edit(_geometric_code(4, 1).to_dict())
    f = tmp_path / "code.json"
    f.write_text(json.dumps(code))
    status, out, err = invoke(capsys, command + ["--code", str(f)])
    assert status == 2 and out == ""
    assert err.startswith("usage error: ")


def test_declared_shape_and_field_are_optional(tmp_path, capsys):
    code = _geometric_code(4, 1).to_dict()
    f = tmp_path / "code.json"
    f.write_text(json.dumps(code))
    full = invoke(capsys, ["certify", "--code", str(f)])
    del code["field"]
    for key in ("h_col", "h_row"):
        del code[key]["rows"], code[key]["cols"]
    f.write_text(json.dumps(code))
    assert invoke(capsys, ["certify", "--code", str(f)]) == full


@pytest.mark.parametrize("word", [{"entries": 5}, {"entries": [5, 6]},
                                  {"entries": [[0] * 6] * 4, "erased": 5},
                                  {"entries": [[0] * 6] * 4, "erased": [[None, 0]]},
                                  {"entries": [[0] * 6] * 4, "erased": [[0, 0, 0]]},
                                  {"entries": [[0] * 6] * 4, "erased": [[False, True]]},
                                  # a codeword but for its boolean, which equals the 1 meant
                                  {"entries": [[True, None, 5, 0, 0, 0], [6, 6, 2, 0, 0, 0],
                                               [0] * 6, [0] * 6]}])
def test_malformed_word_file_is_usage_error(tmp_path, capsys, word):
    (tmp_path / "code.json").write_text(json.dumps(_geometric_code(4, 1).to_dict()))
    (tmp_path / "word.json").write_text(json.dumps(word))
    status, out, err = invoke(capsys, ["decode", "--code", str(tmp_path / "code.json"),
                                       "--word", str(tmp_path / "word.json")])
    assert status == 2 and out == ""
    assert err.startswith("usage error: ")


def test_decode_command(tmp_path, capsys):
    s = FieldSpec(13)
    code = simple_code(s, 3, 5, 2, [1, 2, 3, 4, 5])
    w = encode(code, [1, 2, 3, 4, 5, 6])
    we = GridWord.of(w.entries, [(0, 0), (1, 0)])
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
    (tmp_path / "word.json").write_text(json.dumps(GridWord.of(w.entries, box.cells).to_dict()))
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
