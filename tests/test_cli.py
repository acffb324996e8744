import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import copcomp.analysis as analysis
import copcomp.cli as cli
import copcomp.complement as complement
import copcomp.cones as cones
import copcomp.zerostruct as zerostruct
from copcomp.cli import SCHEMA, main
from copcomp.cones import EXACT_COPOSITIVITY_LIMIT
from copcomp.paperlab import (SCENARIOS, build_extremal5, build_pp4z_j,
                               build_s4, scenario_names)
from copcomp.defeq import (DefiningSystem, RankCertificate, rank_certificate,
                           reconstruct_U)
from copcomp.symcore import Tolerances, svec, symmat_from_json, symmat_to_json


def _write(tmp_path, name, mat):
    path = tmp_path / name
    path.write_text(json.dumps(symmat_to_json(np.asarray(mat, dtype=float))))
    return str(path)


@pytest.fixture
def s4_files(tmp_path):
    data = build_s4()
    return (_write(tmp_path, "x.json", data["x"]),
            _write(tmp_path, "u.json", data["u"]))


def test_analyze_pair_ok(s4_files, capsys):
    rc = main(["analyze", *s4_files])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: OK" in out
    assert "m=6" in out and "rank 6/6" in out
    assert "j=PASS, jj=PASS, jjj=PASS" in out


def test_analyze_json_report(s4_files, capsys):
    rc = main(["analyze", *s4_files, "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == SCHEMA
    assert report["verdict"] == "OK"
    assert report["rank_certificate"]["full_rank"]
    assert report["rank_certificate"]["m_expected"] == 6
    assert sorted(map(tuple, report["zero_structure"]["supports"])) == [
        (1, 2), (2, 3)]


def test_analyze_x_only_empty_zero_set(tmp_path, capsys):
    path = _write(tmp_path, "eye.json", np.eye(3))
    rc = main(["analyze", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "EMPTY_ZERO_SET_U_MUST_BE_ZERO" in out


def test_analyze_x_only_zero_structure(s4_files, capsys):
    rc = main(["analyze", s4_files[0]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ZERO_STRUCTURE_ONLY" in out
    assert "tau(1)" in out and "block J(1)" in out


def test_analyze_non_copositive_exit_1(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", [[1.0, -2.0], [-2.0, 1.0]])
    rc = main(["analyze", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert "X_NOT_COPOSITIVE" in captured.out
    assert "witness" in captured.out


def test_analyze_decomposition_failure(tmp_path, s4_files, capsys):
    u_bad = _write(tmp_path, "ubad.json", np.eye(3))
    rc = main(["analyze", s4_files[0], u_bad])
    assert rc == 1
    assert "DECOMPOSITION_FAILURE" in capsys.readouterr().out


def test_analyze_missing_file_exit_2(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_invalid_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["analyze", str(path)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


# (p, entry (0, 0)) of a 3 x 3 SymMat file: a p that is not a JSON integer,
# or an entry that is not a JSON number a float can hold
_HOSTILE_SYMMATS = {
    "p-1e400": ("1e400", "1"),
    "p-string": ('"3"', "1"),
    "p-bool": ("true", "1"),
    "p-fraction": ("3.5", "1"),
    "entry-object": ("3", '{"a": 1}'),
    "entry-string": ("3", '"1.5"'),
    "entry-bool": ("3", "true"),
    "entry-huge-integer": ("3", "1" + "0" * 400),
}


@pytest.mark.parametrize("side", ["x", "u"])
@pytest.mark.parametrize("case", _HOSTILE_SYMMATS)
def test_analyze_malformed_symmat_exit_2(tmp_path, s4_files, capsys, case,
                                         side):
    p, entry = _HOSTILE_SYMMATS[case]
    path = tmp_path / "bad.json"
    path.write_text(f'{{"p": {p}, "rows": [[{entry}, 0, 0], [0, 1, 0], '
                    f'[0, 0, 1]]}}')
    files = [str(path)] if side == "x" else [s4_files[0], str(path)]
    rc = main(["analyze", *files])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("input error: ")


@pytest.mark.parametrize("doc", ["[]", "[[1.0]]", '"x"', "null",
                                 '{"rows": [[1.0]]}', '{"p": 1}'],
                         ids=["list", "nested-list", "string", "null", "no-p",
                              "no-rows"])
def test_analyze_malformed_symmat_document_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    rc = main(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("input error: malformed SymMat JSON: ")
    assert err.count("\n") == 1


def test_analyze_bad_tolerance_exit_2(s4_files, capsys):
    rc = main(["analyze", s4_files[0], "--zero-tol", "0"])
    assert rc == 2


def _forbid_work(monkeypatch, module, *names):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on bad input")

    for name in names:
        monkeypatch.setattr(module, name, no_work)


@pytest.mark.parametrize("argv", [
    ["scenario", "run", "s4", "--zero-tol", "2"],
    ["scenario", "run", "s4", "--psd-tol", "nan"],
    ["scenario", "run", "hildebrand", "--zero-tol", "1e-20"],
], ids=["zero-tol", "psd-tol", "zero-tol-below-floor"])
def test_bad_flag_exit_2_before_any_work(s4_files, capsys, monkeypatch, argv):
    _forbid_work(monkeypatch, cli, "run_scenario", "load_symmat")
    _forbid_work(monkeypatch, analysis, "is_copositive")
    rc = main([s4_files[0] if a == "X" else a for a in argv])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("input error: ") and "Traceback" not in err


@pytest.mark.parametrize("order", [4, 2])
def test_u_order_mismatch_exit_2_before_any_work(tmp_path, s4_files, capsys,
                                                 monkeypatch, order):
    # decompose_dual's tensordot used to raise "shape-mismatch for sum"
    _forbid_work(monkeypatch, analysis, "is_copositive", "compute_zero_structure",
                 "decompose_dual")
    u = _write(tmp_path, "u.json", np.eye(order))
    rc = main(["analyze", s4_files[0], u])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"input error: U has order {order}, X has order 3\n"


@pytest.mark.parametrize("flags", [["--verify-oracle"], ["--grid-depth", "48"]],
                         ids=["verify-oracle", "grid-depth"])
def test_grid_oracle_flags_are_gone(tmp_path, capsys, monkeypatch, flags):
    # at p = 12, depth 48 is 2.8e11 grid points; the exact sweep's
    # min_value already decides copositivity
    _forbid_work(monkeypatch, cli, "load_symmat")
    _forbid_work(monkeypatch, analysis, "is_copositive")
    x, _ = _padded_hildebrand(12)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", _write(tmp_path, "x.json", x), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("build, c", [(build_pp4z_j, 1e7),
                                      (build_s4, 12589254.11794166)],
                         ids=["pp4z-j", "s4"])
def test_analyze_scaled_u_ends_with_a_verdict(tmp_path, capsys, build, c):
    # W(s) at this scale is PSD only up to rounding above the absolute
    # psd_tol, which made positive_factorization raise
    data = build()
    rc = main(["analyze", _write(tmp_path, "x.json", data["x"]),
               _write(tmp_path, "u.json", c * data["u"]), "--json"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and "error" not in report
    assert report["verdict"] in ("OK", "RANK_DEFICIENT")
    assert rc == (0 if report["verdict"] == "OK" else 1)


def test_analyze_u_near_overflow_is_decomposition_failure(tmp_path, capsys):
    # the fit reads U / 2^e, so no norm overflows; the residual 1.4e285 is
    # rounding relative to 1e300 U, yet above the absolute slack
    data = build_s4()
    rc = main(["analyze", _write(tmp_path, "x.json", data["x"]),
               _write(tmp_path, "u.json", 1e300 * data["u"]), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1 and report["verdict"] == "DECOMPOSITION_FAILURE"
    residual = float(report["error"].split("residual ")[1].split(")")[0])
    assert np.isfinite(residual)


def test_analyze_nnls_failure_is_decomposition_failure(s4_files, capsys,
                                                       monkeypatch):
    def failing(a, b, **kwargs):
        raise RuntimeError("NNLS iteration limit reached")

    monkeypatch.setattr(complement, "nnls", failing)
    rc = main(["analyze", *s4_files, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1 and report["verdict"] == "DECOMPOSITION_FAILURE"
    assert report["error"] == "NNLS iteration limit reached"
    assert "zero_structure" in report and "decomposition" not in report


def test_analyze_assumptions_failure(s4_files, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("simplex pivot limit reached")

    monkeypatch.setattr(analysis, "check_assumptions", failing)
    rc = main(["analyze", *s4_files])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.endswith("error: simplex pivot limit reached\n"
                        "verdict: ASSUMPTIONS_FAILURE\n")


def test_one_parser_gives_each_call_its_own_flags(s4_files, capsys):
    # the parser is built once per process; no flag of one call leaks
    # into the next
    assert cli.build_parser() is cli.build_parser()
    x = s4_files[0]
    assert main(["analyze", x, "--zero-tol", "1e-8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerances"]["zero_tol"] == 1e-8
    assert main(["analyze", x]) == 0
    out = capsys.readouterr().out
    assert out.startswith("copcomp ") and "tolerances: zero=1e-09 " in out
    assert main(["analyze", x, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["zero_tol"] == 1e-9
    with pytest.raises(SystemExit) as exc:
        main(["analyze", x, "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["analyze", x, "--zero-tol", "0"]) == 2


def test_analyze_deterministic_reports(s4_files, capsys):
    main(["analyze", *s4_files, "--json"])
    first = capsys.readouterr().out
    main(["analyze", *s4_files, "--json"])
    second = capsys.readouterr().out
    assert first == second
    # re-analyzing the echoed inputs reproduces the same verdicts
    report = json.loads(first)
    assert report["inputs"]["x"]["rows"] == symmat_to_json(
        build_s4()["x"])["rows"]


def test_scenario_list(capsys):
    rc = main(["scenario", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("s4", "hildebrand", "pp4z-cond-ii"):
        assert name in out


def test_scenario_list_json(capsys):
    rc = main(["scenario", "list", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["schema"] == SCHEMA
    assert sorted(report["scenarios"]) == sorted(scenario_names())
    assert report["scenarios"]["s4"] == SCENARIOS["s4"].description


def test_scenario_run_pass(capsys):
    rc = main(["scenario", "run", "s4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out.replace("j FAIL", "")
    assert out.count("PASS") >= 10


def test_scenario_run_json(capsys):
    rc = main(["scenario", "run", "pp4z-j", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "pp4z-j"
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("case, code, verdict", [
    ("pair", 0, "OK"), ("x only", 0, "ZERO_STRUCTURE_ONLY"),
    ("x not copositive", 1, "X_NOT_COPOSITIVE"), ("scenario s4", 0, None)])
def test_json_output_is_one_line(tmp_path, s4_files, capsys, case, code, verdict):
    bad = _write(tmp_path, "bad.json", [[1.0, -2.0], [-2.0, 1.0]])
    argv = {"pair": ["analyze", *s4_files], "x only": ["analyze", s4_files[0]],
            "x not copositive": ["analyze", bad],
            "scenario s4": ["scenario", "run", "s4"]}[case]
    assert main([*argv, "--json"]) == code
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    report = json.loads(out)
    assert report["schema"] == SCHEMA and report.get("verdict") == verdict


def test_scenario_unknown_exit_2(capsys, monkeypatch):
    """An unknown name is refused in main, before any scenario runs."""
    monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("ran"))
    rc = main(["scenario", "run", "nope"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error: unknown scenario 'nope'")


@pytest.mark.parametrize("name, flag", [
    ("s4", "--zero-tol"), ("hildebrand", "--zero-tol"), ("pp3z-j", "--zero-tol"),
    ("pp3z-jjj", "--zero-tol"), ("hildebrand", "--psd-tol"),
    ("pp3z-j", "--psd-tol"), ("pp3z-jjj", "--psd-tol")])
def test_scenario_stage_error_exits_1(capsys, name, flag):
    """At tolerance 0.5 these scenarios find no zero vertex, so decompose_dual
    raises; the run ends in one stderr line, not a traceback."""
    rc = main(["scenario", "run", name, flag, "0.5"])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err == "scenario error: empty zero set admits only U = 0\n"


def test_scenario_run_requires_name(capsys):
    rc = main(["scenario", "run"])
    assert rc == 2


def test_scenario_list_refuses_a_name(capsys):
    rc = main(["scenario", "list", "s4"])
    assert rc == 2
    out = capsys.readouterr()
    assert "input error" in out.err and out.out == ""


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_analyze_non_finite_entry_exit_2(tmp_path, capsys, bad):
    x = build_s4()["x"].copy()
    x[0, 1] = x[1, 0] = bad
    rc = main(["analyze", _write(tmp_path, "x.json", x)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_analyze_huge_finite_entry_exit_2(tmp_path, capsys):
    # X + X' overflows to inf; unchecked, the batched SVD in is_copositive
    # does not return on such a matrix
    x = build_s4()["x"].copy()
    x[0, 0] = 1e308
    rc = main(["analyze", _write(tmp_path, "x.json", x)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_analyze_scaled_input_one_ulp_from_symmetric_is_not_input_error(tmp_path, capsys):
    # the s4 X times 1e6 with x12 one ulp off: asymmetry 1.164e-10, far
    # below the relative gate 1e-12 * max|x| = 2e-6
    x = 1e6 * build_s4()["x"]
    x[0, 1] = np.nextafter(x[0, 1], np.inf)
    rc = main(["analyze", _write(tmp_path, "x.json", x)])
    captured = capsys.readouterr()
    assert rc != 2, captured.err
    assert "input error" not in captured.err


def test_analyze_order_above_exact_limit_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "big.json", np.eye(EXACT_COPOSITIVITY_LIMIT + 1))
    rc = main(["analyze", path])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def _padded_hildebrand(p):
    data = build_extremal5()
    x, u = np.zeros((p, p)), np.zeros((p, p))
    x[:5, :5] = data["x"]
    u[:5, :5] = data["u"]
    return x, u


def _named_pair(pair):
    if pair == "s4":
        data = build_s4()
        return data["x"], data["u"]
    return _padded_hildebrand(8)


def test_analyze_sweeps_supports_once_without_face_lps(tmp_path, capsys,
                                                       monkeypatch):
    calls = {"is_copositive": 0, "_sweep": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    sweep = counting("is_copositive", cones.is_copositive)
    monkeypatch.setattr(analysis, "is_copositive", sweep)
    monkeypatch.setattr(zerostruct, "is_copositive", sweep)
    monkeypatch.setattr(cones, "_sweep", counting("_sweep", cones._sweep))
    x, u = _padded_hildebrand(8)
    main(["analyze", _write(tmp_path, "x.json", x),
          _write(tmp_path, "u.json", u), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["copositive"]["supports_checked"] == 2 ** 8 - 1
    # X = H(theta*) (+) 0_3 splits into H's component and three of order 1:
    # one face sweep per component, and no second sweep for the zero vertices
    assert calls == {"is_copositive": 1, "_sweep": 4}


@pytest.mark.parametrize("pair", ["s4", "hildebrand+0_3"])
def test_analyze_coefficients_positive_and_rebuild_components(
        tmp_path, capsys, pair):
    x, u = _named_pair(pair)
    main(["analyze", _write(tmp_path, "x.json", x),
          _write(tmp_path, "u.json", u), "--json"])
    report = json.loads(capsys.readouterr().out)
    vertices = np.asarray(report["zero_structure"]["vertices"])
    supports = report["zero_structure"]["supports"]
    dec = report["decomposition"]
    assert dec["coefficients"]
    for coeff, block, ps in zip(dec["coefficients"], dec["restricted"],
                                supports, strict=True):
        assert coeff and all(w > 0.0 for w in coeff.values())
        comp = complement.embed(block, [k - 1 for k in ps], len(x))
        rebuilt = np.zeros((len(x), len(x)))
        for combo, w in coeff.items():
            g = vertices[[int(j) - 1 for j in combo.split("+")]].sum(axis=0)
            rebuilt += w * np.outer(g, g)
        assert np.max(np.abs(rebuilt - np.asarray(comp))) <= 1e-12


def test_analyze_fits_the_face_of_u_without_hull_lps(tmp_path, capsys,
                                                     monkeypatch):
    # H(theta*) + 0_7: the seven e_k vertices of X sit on zero diagonal
    # entries of U, so each NNLS sees the 2^5 - 1 subsets of H's vertices.
    # Condition ii factors each block from the dual decomposition's
    # weights, so a pair costs the one NNLS of decompose_dual.
    columns = []

    def counting(a, b, **kwargs):
        columns.append(a.shape[1])
        return nnls(a, b, **kwargs)

    nnls = complement.nnls
    monkeypatch.setattr(complement, "nnls", counting)
    x, u = _padded_hildebrand(12)
    rc = main(["analyze", _write(tmp_path, "x.json", x),
               _write(tmp_path, "u.json", u), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1 and report["verdict"] == "RANK_DEFICIENT"
    assert len(report["zero_structure"]["vertices"]) == 12
    assert len(columns) == 1 and columns[0] <= 31
    assert not hasattr(zerostruct, "linprog")
    s4 = build_s4()
    for (x, u), cond_ii in ((_padded_hildebrand(8), "FAIL"),
                            ((s4["x"], s4["u"]), "PASS")):
        columns.clear()
        main(["analyze", _write(tmp_path, "x.json", x),
              _write(tmp_path, "u.json", u), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["assumptions"]["cond_ii"]["status"] == cond_ii
        assert len(columns) == 1


def _close_report(got, want, where=""):
    if isinstance(want, dict):
        assert set(got) == set(want), where
        for k in want:
            _close_report(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close_report(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


@pytest.mark.parametrize("x, copositive", [
    # a negative diagonal entry short-circuits the sweep
    ([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 3.0]],
     {"member": False, "min_value": -2.0, "argmin": [0.0, 1.0, 0.0],
      "witness": [0.0, 1.0, 0.0], "supports_checked": 0}),
    ([[1.0, -2.0], [-2.0, 1.0]],
     {"member": False, "min_value": -0.5, "argmin": [0.5, 0.5],
      "witness": [0.5, 0.5], "supports_checked": 3}),
], ids=["negative-diagonal", "sweep"])
def test_analyze_not_copositive_report(tmp_path, capsys, x, copositive):
    # the whole section, witness included; a member's report has no witness
    # (test_analyze_zero_block_component_report)
    rc = main(["analyze", _write(tmp_path, "x.json", x), "--json"])
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "X_NOT_COPOSITIVE"
    assert set(report) == {"schema", "version", "digest", "tolerances", "inputs",
                           "copositive", "verdict"}
    _close_report(report["copositive"], copositive)


def test_analyze_zero_block_component_report(tmp_path, capsys):
    # U = b b' on the s4 X: block (1) of the two-block structure gets the
    # zero component, whose positive factor is the empty p x 0 matrix
    data = build_s4()
    x, u = data["x"], np.outer(data["b"], data["b"])
    rc = main(["analyze", _write(tmp_path, "x.json", x),
               _write(tmp_path, "u.json", u), "--json"])
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    report = json.loads(out)
    assert report["digest"] == analysis._digest(x, u)
    r2 = np.sqrt(2.0)
    _close_report({k: v for k, v in report.items() if k != "digest"}, {
        "schema": SCHEMA, "version": "1.0.0",
        "tolerances": {"zero_tol": 1e-9, "rank_tol": 1e-9, "psd_tol": 1e-9},
        "inputs": {"x": symmat_to_json(x), "u": symmat_to_json(u)},
        "copositive": {"member": True, "min_value": 0.0,
                       "argmin": [0.5, 0.5, 0.0], "supports_checked": 7},
        "zero_structure": {
            "p": 3, "vertices": [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]],
            "contact_sets": [[2, 3], [1, 2]], "blocks": [[1], [2]],
            "supports": [[2, 3], [1, 2]], "basis": [[1], [2]],
            "overlapping_blocks": False},
        "decomposition": {
            "restricted": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]],
            "coefficients": [{}, {"2": 4.0}], "residual": 0.0},
        "assumptions": {
            "j": {"status": "FAIL", "certificate": {
                "blocks": [{"block": 1, "gamma": 1e-9, "range_ok": False,
                            "rank_w": 0, "rank_tau": 1},
                           {"block": 2, "gamma": 1.000000001,
                            "range_ok": True, "rank_w": 1, "rank_tau": 1}],
                "delta_strict": 1e-6}},
            "jj": {"status": "PASS",
                   "certificate": {"rank": 2, "expected": 2}},
            "jjj": {"status": "PASS", "certificate": {"offending": []}},
            "cond_i": {"status": "PASS", "certificate": {"unique": True}},
            "cond_ii": {"status": "PASS", "certificate": {"blocks": [
                {"block": 1, "factor": [[], []], "min_entry": None},
                {"block": 2, "factor": [[1.0], [1.0]], "min_entry": 1.0}]}},
            "cond_iii": {"status": "FAIL", "certificate": {"blocks": [
                {"block": 1, "x": ["PSD_BOUNDARY", 0.0],
                 "w": ["PSD_BOUNDARY", 0.0], "sum": ["PSD_BOUNDARY", 0.0]},
                {"block": 2, "x": ["PSD_BOUNDARY", 0.0],
                 "w": ["PSD_BOUNDARY", 0.0], "sum": ["PSD_INTERIOR", 2.0]}]}},
        },
        "rank_certificate": {"m_expected": 6, "rank_computed": 5,
                             "sigma_min_kept": 2.0, "sigma_max_dropped": 0.0,
                             "sigma_ratio": 0.0, "full_rank": False},
        "verdict": "RANK_DEFICIENT",
    })
    # the anchor the report no longer states: svec X, then svec W0(s)
    _close_report(_anchor_from_report(report).tolist(), [
        1.0, -r2, 2 * r2, 1.0, -r2, 1.0, 0.0, 0.0, 0.0, 1.0, r2, 1.0])


def _anchor_from_report(report):
    """z0 = (svec X, svec W0(1), ..., svec W0(n)), read from the report."""
    x = symmat_from_json(report["inputs"]["x"])
    blocks = report["decomposition"]["restricted"]
    return np.concatenate([svec(x)] + [svec(np.asarray(w)) for w in blocks])


@pytest.mark.parametrize("pair", ["s4", "hildebrand+0_3"])
def test_analyze_report_states_each_fact_once(tmp_path, capsys, pair):
    # the report is self-sufficient: the defining system, its anchor and
    # U itself follow from the sections it keeps
    x, u = _named_pair(pair)
    main(["analyze", _write(tmp_path, "x.json", x),
          _write(tmp_path, "u.json", u), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == SCHEMA == "copcomp/2"
    assert "system" not in report
    assert set(report["decomposition"]) == {"restricted", "coefficients",
                                            "residual"}
    # the stages return plain data: Analysis.to_json writes every section
    for cls in (cones.CopVerdict, zerostruct.ZeroStructure,
                complement.DualDecomposition, complement.Verdict,
                complement.AssumptionReport, DefiningSystem, RankCertificate):
        assert not hasattr(cls, "to_json"), cls
    zsj, dec = report["zero_structure"], report["decomposition"]
    supports = [tuple(k - 1 for k in ps) for ps in zsj["supports"]]
    system = DefiningSystem(p=zsj["p"], supports=supports)
    tol = Tolerances(**report["tolerances"])
    cert = rank_certificate(system, _anchor_from_report(report), tol)
    fields = {f.name for f in dataclasses.fields(RankCertificate)}
    assert set(report["rank_certificate"]) == fields | {"full_rank"}
    assert report["rank_certificate"] == {k: getattr(cert, k)
                                          for k in report["rank_certificate"]}
    # the report's W0(s) are the decomposition's, bit for bit, and placed
    # on their P*(s) they sum to U
    x_in = symmat_from_json(report["inputs"]["x"])
    u_in = symmat_from_json(report["inputs"]["u"])
    dd = complement.decompose_dual(u_in, zerostruct.compute_zero_structure(x_in, tol),
                                   tol)
    for w, ref in zip(dec["restricted"], dd.restricted, strict=True):
        assert np.array_equal(np.asarray(w), ref)
    assert np.max(np.abs(reconstruct_U(system, dd.restricted) - u_in)) <= tol.slack
    a = report["assumptions"]
    assert (a["jj"]["status"] == "PASS") == a["cond_i"]["certificate"]["unique"]


def test_module_entry_point_is_the_cli(capsys):
    # python -m copcomp.cli runs main and exits with its code
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert main(["scenario", "list"]) == 0
    listing = capsys.readouterr().out
    for argv, want in ((["scenario", "list"], (0, listing, "")),
                       (["scenario", "run", "nope"],
                        (2, "", "input error: unknown scenario 'nope'; known: "
                                f"{', '.join(SCENARIOS)}\n"))):
        proc = subprocess.run([sys.executable, "-m", "copcomp.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == want, argv


_IMPORT_PATH_SCRIPT = """
import contextlib
import io
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises
sys.path.insert(0, sys.argv[2])
x, u, missing = sys.argv[3:]
from copcomp.cli import main
from copcomp.paperlab import scenario_names
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["scenario", "list"]) == 0
    assert main(["analyze", x]) == 0
    assert main(["analyze", missing]) == 2
    assert main(["analyze", x, u]) == 0
    for name in scenario_names():
        assert main(["scenario", "run", name]) == 0, name
assert sys.modules.get("scipy") is None, "a copcomp run loaded scipy"
"""


def test_no_copcomp_run_imports_scipy(s4_files, tmp_path):
    # a fresh interpreter: this one has scipy loaded for the reference
    # solvers.  Both the LP and the NNLS run on numpy, so no command loads
    # scipy, and every one still works where importing it would fail.
    src = Path(cli.__file__).resolve().parents[1]
    for scipy in ("absent", "blocked"):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PATH_SCRIPT, scipy, str(src),
             *s4_files, str(tmp_path / "absent.json")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (scipy, proc.stderr)
