import json

import numpy as np
import pytest

import copcomp.cli as cli
import copcomp.complement as complement
import copcomp.cones as cones
import copcomp.zerostruct as zerostruct
from copcomp.cli import SCHEMA, main
from copcomp.cones import EXACT_COPOSITIVITY_LIMIT
from copcomp.paperlab import build_extremal5, build_s4
from copcomp.symcore import symmat_to_json


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
    assert report["system"]["m"] == 6
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


def test_analyze_bad_tolerance_exit_2(s4_files, capsys):
    rc = main(["analyze", s4_files[0], "--zero-tol", "0"])
    assert rc == 2


def test_analyze_oracle_flag(s4_files, capsys):
    rc = main(["analyze", s4_files[0], "--verify-oracle", "--grid-depth", "8"])
    assert rc == 0
    assert "oracle bound (depth 8)" in capsys.readouterr().out


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


def test_scenario_unknown_exit_2(capsys):
    rc = main(["scenario", "run", "nope"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_scenario_run_requires_name(capsys):
    rc = main(["scenario", "run"])
    assert rc == 2


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


def test_analyze_sweeps_supports_once_without_face_lps(tmp_path, capsys,
                                                       monkeypatch):
    calls = {"is_copositive": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    sweep = counting("is_copositive", cones.is_copositive)
    monkeypatch.setattr(cli, "is_copositive", sweep)
    monkeypatch.setattr(zerostruct, "is_copositive", sweep)
    x, u = _padded_hildebrand(8)
    main(["analyze", _write(tmp_path, "x.json", x),
          _write(tmp_path, "u.json", u), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["copositive"]["supports_checked"] == 2 ** 8 - 1
    assert calls == {"is_copositive": 1}


@pytest.mark.parametrize("pair", ["s4", "hildebrand+0_3"])
def test_analyze_coefficients_positive_and_rebuild_components(
        tmp_path, capsys, pair):
    if pair == "s4":
        data = build_s4()
        x, u = data["x"], data["u"]
    else:
        x, u = _padded_hildebrand(8)
    main(["analyze", _write(tmp_path, "x.json", x),
          _write(tmp_path, "u.json", u), "--json"])
    report = json.loads(capsys.readouterr().out)
    vertices = np.asarray(report["zero_structure"]["vertices"])
    dec = report["decomposition"]
    assert dec["coefficients"]
    for coeff, comp in zip(dec["coefficients"], dec["components"]):
        assert coeff and all(w > 0.0 for w in coeff.values())
        rebuilt = np.zeros((len(x), len(x)))
        for combo, w in coeff.items():
            g = vertices[[int(j) - 1 for j in combo.split("+")]].sum(axis=0)
            rebuilt += w * np.outer(g, g)
        assert np.max(np.abs(rebuilt - np.asarray(comp))) <= 1e-12


def test_analyze_fits_the_face_of_u_without_hull_lps(tmp_path, capsys,
                                                     monkeypatch):
    # H(theta*) + 0_7: the seven e_k vertices of X sit on zero diagonal
    # entries of U, so each NNLS sees the 2^5 - 1 subsets of H's vertices
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
    assert columns and max(columns) <= 31
    assert not hasattr(zerostruct, "linprog")


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
    assert report["digest"] == cli._digest(x, u)
    zero3 = [[0.0] * 3] * 3
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
            "components": [zero3, [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                   [0.0, 0.0, 0.0]]],
            "restricted": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]],
            "coefficients": [{}, {"2": 4.0}], "residual": 0.0,
            "unique": True},
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
        "system": {"p": 3, "supports": [[2, 3], [1, 2]], "p_star": 6,
                   "block_dims": [3, 3], "m": 6,
                   "anchor": [1.0, -r2, 2 * r2, 1.0, -r2, 1.0,
                              0.0, 0.0, 0.0, 1.0, r2, 1.0]},
        "rank_certificate": {"m_expected": 6, "rank_computed": 5,
                             "sigma_min_kept": 2.0, "sigma_max_dropped": 0.0,
                             "sigma_ratio": 0.0, "full_rank": False},
        "verdict": "RANK_DEFICIENT",
    })
