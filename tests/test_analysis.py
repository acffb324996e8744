import json

import numpy as np
import pytest

import copcomp.analysis as analysis
from copcomp import Analysis, analyze
from copcomp.cli import main
from copcomp.complement import ComplementError
from copcomp.cones import CopVerdict, OrderLimitError
from copcomp.paperlab import SCENARIOS, build_pp4z_j, build_s4, run_scenario
from copcomp.symcore import SymMatError, Tolerances, symmat_to_json
from copcomp.zerostruct import ZeroStructureError

BASE = {"schema", "version", "digest", "tolerances", "inputs", "copositive",
        "verdict"}
ZS = BASE | {"zero_structure"}
DD = ZS | {"decomposition"}
FULL = DD | {"assumptions", "rank_certificate"}


def _raising(exc):
    def stage(*args, **kwargs):
        raise exc
    return stage


def _s4():
    data = build_s4()
    return data["x"], data["u"]


def _pp4z_j():
    data = build_pp4z_j()
    return data["x"], data["u"]


def _not_copositive():
    return np.array([[1.0, -2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), None


# (verdict, inputs, stage patched to raise or None, report sections)
VERDICT_CASES = [
    ("OK", _s4, None, FULL),
    ("RANK_DEFICIENT", _pp4z_j, None, FULL),
    ("X_NOT_COPOSITIVE", _not_copositive, None, BASE),
    ("ZERO_STRUCTURE_FAILURE", _s4,
     ("compute_zero_structure", ZeroStructureError("no condition-c witness")),
     BASE | {"error"}),
    ("ZERO_STRUCTURE_ONLY", lambda: (build_s4()["x"], None), None, ZS),
    ("EMPTY_ZERO_SET_U_MUST_BE_ZERO", lambda: (np.eye(3), None), None, ZS),
    ("DECOMPOSITION_FAILURE", lambda: (build_s4()["x"], np.eye(3)), None,
     ZS | {"error"}),
    ("ASSUMPTIONS_FAILURE", _s4,
     ("check_assumptions", RuntimeError("simplex pivot limit reached")),
     DD | {"error"}),
]


@pytest.mark.parametrize("verdict, inputs, patch, sections", VERDICT_CASES,
                         ids=[c[0] for c in VERDICT_CASES])
def test_each_verdict_reports_the_stages_up_to_the_deciding_one(
        monkeypatch, verdict, inputs, patch, sections):
    if patch is not None:
        monkeypatch.setattr(analysis, patch[0], _raising(patch[1]))
    x, u = inputs()
    a = analyze(x, u)
    assert isinstance(a, Analysis) and a.verdict == verdict
    report = a.to_json()
    assert set(report) == sections
    assert report["verdict"] == verdict
    assert ("error" in report) == (a.error is not None)
    if patch is not None:
        assert a.error == str(patch[1])
    assert (a.system is None) == (a.rank is None) == ("rank_certificate" not in report)


def test_rank_stage_failure_is_an_assumptions_failure(monkeypatch):
    monkeypatch.setattr(analysis, "rank_certificate",
                        _raising(np.linalg.LinAlgError("SVD did not converge")))
    a = analyze(*_s4())
    assert a.verdict == "ASSUMPTIONS_FAILURE" and a.error == "SVD did not converge"
    assert set(a.to_json()) == DD | {"assumptions", "error"}


def test_to_json_is_the_cli_report(tmp_path, capsys):
    x, u = _s4()
    files = []
    for name, m in (("x.json", x), ("u.json", u)):
        (tmp_path / name).write_text(json.dumps(symmat_to_json(m)))
        files.append(str(tmp_path / name))
    assert main(["analyze", *files, "--json"]) == 0
    assert analyze(x, u).to_json() == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name, verdict", [
    ("s4", "OK"), ("hildebrand", "OK"), ("pp3z-j", "OK"), ("pp3z-jjj", "OK"),
    ("pp4z-j", "RANK_DEFICIENT"), ("pp4z-jjj", "OK"), ("pp4z-cond-ii", "OK")])
def test_scenario_anchor_verdicts(name, verdict):
    data = SCENARIOS[name].build()
    assert analyze(data["x"], data["u"]).verdict == verdict


@pytest.mark.parametrize("x, u, exc", [
    (np.eye(3), np.eye(4), SymMatError),
    (np.eye(3), np.eye(2), SymMatError),
    (np.eye(3), np.full((3, 3), np.nan), SymMatError),
    (np.ones((3, 2)), None, SymMatError),
], ids=["U order 4", "U order 2", "NaN U", "X not square"])
def test_bad_input_raises_before_any_work(monkeypatch, x, u, exc):
    monkeypatch.setattr(analysis, "is_copositive",
                        _raising(AssertionError("work started on bad input")))
    with pytest.raises(exc):
        analyze(x, u)


@pytest.mark.parametrize("delta", [0.0, 1e-10, 6e-9, 2e-8])
def test_near_null_face_verdict_does_not_depend_on_psd_tol(delta):
    # s4's faces {1, 2} and {2, 3} move off zero as delta grows; the sweep
    # decides each vertex and its contact set from one X tau, so the loose
    # psd_tol reads the default's verdict and never a zero structure failure
    x = build_s4()["x"] + delta * np.eye(3)
    verdicts = {analyze(x, None, Tolerances(psd_tol=p)).verdict for p in (1e-9, 1e-6)}
    assert len(verdicts) == 1 and "ZERO_STRUCTURE_FAILURE" not in verdicts


def test_order_above_the_exact_limit_raises():
    with pytest.raises(OrderLimitError,
                       match=r"^exact copositivity limited to p <= 12 \(got 13\)$"):
        analyze(np.eye(13))


def test_scenario_raises_the_message_of_the_stage_that_stopped(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "decompose_dual",
                        _raising(ComplementError("X . U exceeds tolerance")))
    with pytest.raises(ValueError, match=r"^X \. U exceeds tolerance$"):
        run_scenario("s4")
    assert main(["scenario", "run", "s4"]) == 1
    assert capsys.readouterr().err == "scenario error: X . U exceeds tolerance\n"


def test_scenario_on_a_non_copositive_anchor_raises(monkeypatch):
    def not_copositive(x, tol):
        t = np.eye(len(x))[0]
        return CopVerdict(False, -1.0, t, witness=t, supports_checked=2 ** len(x) - 1)

    monkeypatch.setattr(analysis, "is_copositive", not_copositive)
    with pytest.raises(ValueError, match=r"^matrix is not copositive \(min -1\.000e\+00\);"
                                         r" zero structure undefined$"):
        run_scenario("s4")
