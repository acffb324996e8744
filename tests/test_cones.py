import numpy as np
import pytest

from copcomp.cones import (
    EXACT_COPOSITIVITY_LIMIT,
    OrderLimitError,
    cp_membership,
    doubly_nonnegative,
    is_copositive,
    simplex_min_oracle,
)
from copcomp.symcore import Tolerances

TOL = Tolerances()
RNG = np.random.default_rng(20240818)


def test_identity_is_copositive():
    v = is_copositive(np.eye(4), TOL)
    assert v.member
    assert v.min_value >= 0.25 - 1e-12  # min over simplex of sum t_k^2


def test_negative_diagonal_short_circuit():
    x = np.diag([1.0, -0.5, 2.0])
    v = is_copositive(x, TOL)
    assert not v.member
    assert np.allclose(v.witness, [0.0, 1.0, 0.0])
    assert v.min_value == -0.5


def test_psd_plus_nonnegative_is_copositive():
    for _ in range(20):
        p = int(RNG.integers(2, 6))
        g = RNG.standard_normal((p, p))
        n = RNG.uniform(0.0, 1.0, (p, p))
        x = g @ g.T + 0.5 * (n + n.T)
        assert is_copositive(x, TOL).member


def test_horn_matrix_is_copositive_but_not_psd():
    # classic order-5 copositive matrix outside PSD + nonnegative
    h = np.array([
        [1, -1, 1, 1, -1],
        [-1, 1, -1, 1, 1],
        [1, -1, 1, -1, 1],
        [1, 1, -1, 1, -1],
        [-1, 1, 1, -1, 1],
    ], dtype=float)
    v = is_copositive(h, TOL)
    assert v.member
    assert abs(v.min_value) <= 1e-9  # boundary: zeros exist
    assert np.linalg.eigvalsh(h)[0] < -1e-6


def test_non_copositive_witness_certifies():
    x = np.array([[1.0, -2.0], [-2.0, 1.0]])
    v = is_copositive(x, TOL)
    assert not v.member
    assert v.witness is not None
    assert v.witness @ x @ v.witness < -TOL.zero_tol
    assert v.witness.min() >= 0 and np.isclose(v.witness.sum(), 1.0)


def test_order_limit():
    with pytest.raises(OrderLimitError):
        is_copositive(np.eye(EXACT_COPOSITIVITY_LIMIT + 1), TOL)


def test_oracle_matches_exact_minimum():
    for _ in range(15):
        p = int(RNG.integers(2, 6))
        a = RNG.standard_normal((p, p))
        x = 0.5 * (a + a.T)
        # lift the diagonal so the negative-diagonal short circuit (which
        # reports the diagonal value, not the simplex minimum) stays off
        x -= min(0.0, float(np.diag(x).min())) * np.eye(p)
        exact = is_copositive(x, TOL).min_value
        bound, arg = simplex_min_oracle(x, grid_depth=16)
        assert bound >= exact - 1e-9  # oracle is an upper bound
        assert bound <= exact + 1e-4  # and a tight one at this depth
        assert arg.min() >= -1e-12 and np.isclose(arg.sum(), 1.0)


def test_oracle_rejects_bad_depth():
    with pytest.raises(ValueError):
        simplex_min_oracle(np.eye(2), grid_depth=0)


def test_doubly_nonnegative():
    assert doubly_nonnegative(np.array([[2.0, 1.0], [1.0, 2.0]]), TOL)
    assert not doubly_nonnegative(np.array([[1.0, -0.5], [-0.5, 1.0]]), TOL)
    assert not doubly_nonnegative(np.array([[1.0, 2.0], [2.0, 1.0]]), TOL)


def test_cp_membership_member():
    gens = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])]
    u = 2.0 * np.outer(gens[0], gens[0]) + 0.5 * np.outer(gens[1], gens[1])
    cert = cp_membership(u, gens, TOL)
    assert cert.member
    assert cert.residual <= 1e-12
    assert np.allclose(cert.reconstruct(3), u, atol=1e-10)


def test_cp_membership_rejects_outside_span():
    gens = [np.array([1.0, 0.0])]
    u = np.eye(2)
    cert = cp_membership(u, gens, TOL)
    assert not cert.member
    assert cert.residual > 0.5


def test_cp_membership_validates_generators():
    with pytest.raises(ValueError):
        cp_membership(np.eye(2), [], TOL)
    with pytest.raises(ValueError):
        cp_membership(np.eye(2), [np.array([1.0, -1.0])], TOL)


def test_degenerate_face_minimum():
    # singular KKT face where the least-norm solution is infeasible but a
    # feasible minimizer with the same critical value exists
    x = np.array([[0.0, 0.0, 1.0],
                  [0.0, 0.0, 1.0],
                  [1.0, 1.0, 0.0]])
    v = is_copositive(x, TOL)
    assert v.member
    assert abs(v.min_value) <= 1e-9


def test_minimum_on_face_whose_larger_faces_are_infeasible():
    # the face {1,2,3,4} is rank deficient with an infeasible least-norm
    # KKT solution; the minimum 11/9 sits on the face {2,4}
    x = np.array([[3.0, 0.0, 3.0, 3.0],
                  [0.0, 3.0, 0.0, -1.0],
                  [3.0, 0.0, 3.0, 3.0],
                  [3.0, -1.0, 3.0, 4.0]])
    v = is_copositive(x, TOL)
    assert v.member
    assert abs(v.min_value - 11.0 / 9.0) <= 1e-12
    assert np.max(np.abs(v.argmin - [0.0, 5.0 / 9.0, 0.0, 4.0 / 9.0])) <= 1e-12
