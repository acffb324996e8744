import itertools

import numpy as np
import pytest

from copcomp.cli import main
from copcomp.cones import (
    EXACT_COPOSITIVITY_LIMIT,
    OrderLimitError,
    _simplex_project,
    cp_membership,
    doubly_nonnegative,
    is_copositive,
    simplex_min_oracle,
)
from copcomp.paperlab import build_extremal5
from copcomp.symcore import Tolerances, save_symmat, symmetrize

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


def _oracle_reference(x, grid_depth):
    """simplex_min_oracle with each grid point built in a Python loop and
    scored in batches of 4096, followed by the same refinement."""
    x = symmetrize(x)
    p = x.shape[0]
    best_val = np.inf
    best_t = None
    batch = []
    for comp in itertools.combinations(range(grid_depth + p - 1), p - 1):
        prev = -1
        t = np.empty(p)
        bounds = comp + (grid_depth + p - 1,)
        for i, c in enumerate(bounds):
            t[i] = c - prev - 1
            prev = c
        batch.append(t / grid_depth)
        if len(batch) == 4096:
            tb = np.asarray(batch)
            vals = np.einsum("ij,jk,ik->i", tb, x, tb)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best_t = float(vals[i]), tb[i]
            batch = []
    if batch:
        tb = np.asarray(batch)
        vals = np.einsum("ij,jk,ik->i", tb, x, tb)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_t = float(vals[i]), tb[i]
    t = best_t.copy()
    lip = max(1.0, 2.0 * float(np.linalg.norm(x, 2)))
    for _ in range(500):
        d = _simplex_project(t - (2.0 * x @ t) / lip) - t
        if np.linalg.norm(d, ord=np.inf) < 1e-14:
            break
        neg = d < -1e-15
        alpha_max = float(np.min(-t[neg] / d[neg])) if np.any(neg) else 1.0
        c2 = float(d @ x @ d)
        c1 = 2.0 * float(t @ x @ d)
        if c2 > 0.0:
            alpha = min(alpha_max, max(0.0, -c1 / (2.0 * c2)))
        else:
            alpha = alpha_max if c1 + c2 * alpha_max < 0.0 else 0.0
        if alpha == 0.0:
            break
        t = np.clip(t + alpha * d, 0.0, None)
        t /= t.sum()
    val = float(t @ x @ t)
    if val < best_val:
        best_val, best_t = val, t
    return best_val, best_t


def _oracle_cases():
    rng = np.random.default_rng(20261018)
    for p in range(1, 7):
        a = rng.standard_normal((p, p))
        for depth in range(1, 9):
            yield a + a.T, depth
    h = np.zeros((8, 8))
    h[:5, :5] = build_extremal5()["x"]
    yield h, 6  # tied minimizers on the zero set
    a = rng.standard_normal((8, 8))
    yield a + a.T, 8  # 6,435 grid points: more than one batch


def test_oracle_matches_the_per_point_grid_loop_bit_for_bit():
    for x, depth in _oracle_cases():
        val, arg = simplex_min_oracle(x, depth)
        ref_val, ref_arg = _oracle_reference(x, depth)
        assert val == ref_val, (x.shape, depth)
        assert arg.tobytes() == ref_arg.tobytes(), (x.shape, depth)


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


SCALES = (2.0 ** -20, 1e4, 1e8)


def _generic_matrices(n, seed):
    """Seeded symmetric matrices X = A + mu * J (J all ones, so every value
    t'Xt on the simplex moves by mu) with a positive diagonal: Gaussian A
    shifted so that the simplex minimum lands anywhere in [-0.5, 0.5], both
    signs and indefinite, plus PSD-plus-nonnegative and small-integer ones."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        p = int(rng.integers(2, 7))
        if i % 3 == 2:
            a = rng.integers(-3, 4, (p, p)).astype(float)
            a = a + a.T
            np.fill_diagonal(a, rng.integers(1, 4, p))
            out.append(a)
            continue
        if i % 3 == 1:
            g = rng.standard_normal((p, p))
            n_ = rng.uniform(0.0, 1.0, (p, p))
            out.append(g @ g.T / p + 0.5 * (n_ + n_.T))
            continue
        a = rng.standard_normal((p, p))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, np.abs(np.diag(a)) + 0.1)
        shift = rng.uniform(-0.5, 0.5) - is_copositive(a, TOL).min_value
        out.append(a + shift * np.ones((p, p)))
    return out


def test_scaled_order_two_counterexample():
    x = 1e8 * np.array([[1.0, -2.0], [-2.0, 1.0]])
    v = is_copositive(x, TOL)
    assert not v.member
    assert v.min_value == pytest.approx(-5e7, rel=1e-12)
    assert np.allclose(v.witness, [0.5, 0.5])


def test_scaled_order_two_counterexample_cli_exit_1(tmp_path, capsys):
    path = tmp_path / "x.json"
    save_symmat(path, 1e8 * np.array([[1.0, -2.0], [-2.0, 1.0]]))
    rc = main(["analyze", str(path)])
    assert rc == 1
    assert "X_NOT_COPOSITIVE" in capsys.readouterr().out


def test_min_value_scales_with_x():
    # the KKT matrices are built at unit scale, so the face solutions (and
    # with them min_value and member) do not depend on the scale of X,
    # apart from the absolute zero_tol in the member threshold
    for x in _generic_matrices(150, 7001):
        ref = is_copositive(x, TOL)
        for c in SCALES:
            v = is_copositive(c * x, TOL)
            assert abs(v.min_value - c * ref.min_value) <= 1e-9 * abs(c * ref.min_value), (x, c)
            if abs(c * ref.min_value) > TOL.slack:
                assert v.member == ref.member, (x, c)


def _kaplan_copositive(x):
    """Kaplan (LAA 313, 2000): X is copositive iff no principal submatrix
    has an eigenvector v > 0 whose eigenvalue is negative."""
    p = x.shape[0]
    for size in range(1, p + 1):
        idx = np.array(list(itertools.combinations(range(p), size)))
        lam, vec = np.linalg.eigh(x[idx[:, :, None], idx[:, None, :]])
        positive = np.all(vec > 0.0, axis=1) | np.all(vec < 0.0, axis=1)
        if np.any(positive & (lam < 0.0)):
            return False
    return True


def test_member_agrees_with_kaplan_criterion_at_every_scale():
    cases = [x for x in _generic_matrices(400, 7002)
             if abs(is_copositive(x, TOL).min_value) >= 1e-6 * np.max(np.abs(x))]
    assert len(cases) >= 300
    kinds = set()
    for x in cases:
        for c in (1.0,) + SCALES:
            want = _kaplan_copositive(c * x)
            assert is_copositive(c * x, TOL).member == want, (x, c)
            kinds.add(want)
    assert kinds == {True, False}
