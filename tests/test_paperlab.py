import numpy as np
import pytest

from copcomp.paperlab import (
    SCENARIOS,
    THETA_STAR,
    build_extremal5,
    check_theta_anchor,
    example_s4,
    extremal5_dual,
    extremal5_matrix,
    extremal5_vectors,
    extremal5_zeros,
    hildebrand,
    run_scenario,
    scenario_names,
    violation_scenarios,
)
from copcomp.symcore import Tolerances

TOL = Tolerances()

ALL_NAMES = ("s4", "hildebrand", "pp3z-j", "pp3z-jjj", "pp4z-j", "pp4z-jjj",
             "pp4z-cond-ii")


def test_registry_names():
    assert tuple(scenario_names()) == ALL_NAMES
    assert len(SCENARIOS) == 7


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scenario_all_expectations_pass(name):
    records = run_scenario(name, TOL)
    failures = [r for r in records if not r["passed"]]
    assert not failures, failures


def test_unknown_scenario():
    with pytest.raises(KeyError):
        run_scenario("no-such-scenario", TOL)


def test_anchors_are_complementary():
    for name in ALL_NAMES:
        data = SCENARIOS[name].build()
        comp = abs(float(np.tensordot(data["x"], data["u"])))
        assert comp <= 1e-10, name


def test_theta_validation():
    check_theta_anchor(THETA_STAR)
    with pytest.raises(ValueError):
        check_theta_anchor((np.pi / 5,) * 4)  # wrong length
    with pytest.raises(ValueError):
        check_theta_anchor((-0.1, 0.2, 0.3, 0.4, np.pi - 0.8))  # negative
    with pytest.raises(ValueError):
        check_theta_anchor((0.5,) * 5)  # does not sum to pi


def test_extremal5_zeros_are_zeros_for_generic_theta():
    # the tau(j, theta) annihilate H(theta) even off the sum-to-pi anchor
    rng = np.random.default_rng(20240825)
    for _ in range(10):
        theta = tuple(rng.uniform(0.2, 0.6, 5))
        h = extremal5_matrix(theta)
        for t in extremal5_zeros(theta):
            assert abs(t @ h @ t) <= 1e-10
            assert t.min() >= 0.0 and t.max() > 0.0
    # the rank-two identity, by contrast, needs the anchor constraint
    theta = (0.5, 0.5, 0.5, 0.5, 0.5)
    a, b = extremal5_vectors(theta)
    assert np.linalg.norm(extremal5_matrix(theta)
                          - np.outer(a, a) - np.outer(b, b)) > 1e-3


def test_extremal5_anchor_rank_two():
    data = build_extremal5()
    a, b = data["a"], data["b"]
    assert np.linalg.norm(data["x"] - np.outer(a, a) - np.outer(b, b)) <= 1e-12
    assert np.linalg.matrix_rank(data["x"], tol=1e-10) == 2


def test_extremal5_dual_is_sum_of_tau_outers():
    theta = THETA_STAR
    u = extremal5_dual(theta)
    manual = sum(np.outer(t, t) for t in extremal5_zeros(theta))
    assert np.allclose(u, manual)
    assert np.linalg.eigvalsh(u)[0] >= -1e-12


def test_alias_functions():
    assert example_s4() is SCENARIOS["s4"]
    assert hildebrand() is SCENARIOS["hildebrand"]
    assert [s.name for s in violation_scenarios()] == [
        "pp3z-j", "pp3z-jjj", "pp4z-j", "pp4z-jjj", "pp4z-cond-ii"]


def test_hildebrand_nondefault_anchor():
    theta = (0.7, 0.6, 0.5, 0.6, np.pi - 2.4)
    scenario = hildebrand(theta)
    records = scenario.expectations(TOL)
    failures = [r for r in records if not r["passed"]]
    assert not failures, failures
    with pytest.raises(ValueError):
        hildebrand((0.5,) * 5)


def test_scenario_json():
    obj = SCENARIOS["s4"].to_json()
    assert obj["name"] == "s4"
    assert "description" in obj


_EPS_PATH = ("eps=0.2", "eps=0.1", "eps=0.05")
_EPS_GRID = _EPS_PATH + ("eps=0.01",)
_H_PATH = [f"{e}: complementary, anticommutator fails, X not PSD"
           for e in _EPS_PATH]
_BACKWARD_PATH = [f"{e}: block equation holds, X(eps) not copositive"
                  for e in _EPS_GRID]

# Every scenario's check names, in report order.
EXPECTED_CHECKS = {
    "s4": [
        "vertices {(1/2,1/2,0),(0,1/2,1/2)}",
        "contact sets {1,2} and {2,3}",
        "two blocks with supports {1,2} and {2,3}",
        "components bb' and cc' (Frobenius <= 1e-10)",
        "assumption j PASS", "assumption jj PASS", "assumption jjj PASS",
        "assumption cond_i PASS", "assumption cond_ii PASS",
        "assumption cond_iii PASS",
        "system size m == 6",
        "anchor residual <= zero_tol",
        "Jacobian rank 6 with sigma ratio > 1e-9",
    ],
    "hildebrand": [
        "H == aa' + bb' (residual <= 1e-10)",
        "complementarity H . U <= 1e-10",
        "five vertices match normalized tau(j) to 1e-8",
        "single block with support {1,...,5}",
        "assumption j FAIL", "assumption jj PASS", "assumption jjj PASS",
        *_H_PATH,
    ],
    "pp3z-j": [
        "anchor assumption j FAIL",
        *_H_PATH,
        "forward verification reports equation failure along the path",
    ],
    "pp3z-jjj": [
        "single vertex (1/2,1/2,0)",
        "support {1,2}, contact set {1,2,3}",
        "assumption j PASS", "assumption jj PASS", "assumption jjj FAIL",
        *[f"{e}: complementary, block equation fails, third row of U nonzero"
          for e in _EPS_GRID],
    ],
    "pp4z-j": [
        "vertices e2, e3, e4",
        "single block with support {2,3,4}",
        "assumption j FAIL", "assumption jj PASS", "assumption jjj PASS",
        "condition i PASS", "condition ii PASS",
        *_BACKWARD_PATH,
    ],
    "pp4z-jjj": [
        "vertices e2, e3",
        "support {2,3}, contact sets {1,2,3}",
        "restricted block W(1) == [[2,1],[1,2]]",
        "assumption j PASS", "assumption jj PASS", "assumption jjj FAIL",
        *_BACKWARD_PATH,
    ],
    "pp4z-cond-ii": [
        "vertices e2, e3",
        "support {2,3}, contact sets {2,3}",
        "restricted block W(1) == identity",
        "assumption jj PASS", "assumption jjj PASS",
        "condition i PASS", "condition ii FAIL", "condition iii PASS",
        *[f"{e}: W(1,eps) not completely positive" for e in _EPS_GRID],
    ],
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scenario_checks_pinned_in_order(name):
    records = run_scenario(name, TOL)
    assert [(r["expectation"], r["passed"]) for r in records] == [
        (e, True) for e in EXPECTED_CHECKS[name]]


def test_hildebrand_nondefault_anchor_runs_the_same_checks():
    theta = (0.7, 0.6, 0.5, 0.6, np.pi - 2.4)
    records = hildebrand(theta).expectations(TOL)
    assert [(r["expectation"], r["passed"]) for r in records] == [
        (e, True) for e in EXPECTED_CHECKS["hildebrand"]]
    assert hildebrand(theta).build()["theta"] == theta
