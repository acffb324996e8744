import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from copcomp.cli import main
from copcomp.complement import cp_membership
from copcomp.cones import (
    EXACT_COPOSITIVITY_LIMIT,
    OrderLimitError,
    _sweep,
    doubly_nonnegative,
    is_copositive,
    unit_scale,
)
from copcomp.paperlab import build_extremal5
from copcomp.symcore import Tolerances, save_symmat, symmetrize
from copcomp.zerostruct import compute_zero_structure
from oracles import simplex_min_oracle

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


def test_negative_diagonal_min_value_is_the_diagonal_entry():
    # the short circuit stops at the least diagonal entry, an upper bound on
    # the simplex minimum that the grid oracle undercuts here
    rng = np.random.default_rng(0)
    for _ in range(7):
        a = rng.standard_normal((4, 4))
    x = 0.5 * (a + a.T)
    v = is_copositive(x, TOL)
    assert v.supports_checked == 0 and not v.member
    assert v.min_value == np.min(np.diag(x))
    assert v.min_value == pytest.approx(-0.713, abs=1e-3)
    bound, _ = simplex_min_oracle(x, grid_depth=24)
    assert bound == pytest.approx(-0.846, abs=1e-3)
    assert bound < v.min_value - 0.1


def test_doubly_nonnegative():
    assert doubly_nonnegative(np.array([[2.0, 1.0], [1.0, 2.0]]), TOL)
    assert not doubly_nonnegative(np.array([[1.0, -0.5], [-0.5, 1.0]]), TOL)
    assert not doubly_nonnegative(np.array([[1.0, 2.0], [2.0, 1.0]]), TOL)


@pytest.mark.parametrize("c", [1e-300, 1e-12, 1e-6, 1.0, 1e4, 1e8, 1e12, 1e300])
def test_doubly_nonnegative_is_scale_invariant(c):
    """Both gates are relative to max|U|: roundoff in lambda_min of a large
    U keeps it DNN, and an entry at -1e-3 max|U| never is, however small U."""
    g0, g1 = np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])
    u = c * (2.0 * np.outer(g0, g0) + 0.5 * np.outer(g1, g1))
    assert doubly_nonnegative(u, TOL)
    bad = u.copy()
    bad[0, 2] = bad[2, 0] = -1e-3 * np.max(np.abs(u))
    assert not doubly_nonnegative(bad, TOL)


def test_cp_membership_member():
    gens = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])]
    u = 2.0 * np.outer(gens[0], gens[0]) + 0.5 * np.outer(gens[1], gens[1])
    cert = cp_membership(u, gens, TOL)
    assert cert.member
    assert cert.residual <= 1e-12
    assert [f.name for f in dataclasses.fields(cert)] == [
        "member", "residual", "doubly_nonnegative"]


def test_cp_membership_rejects_outside_span():
    # order 5 is past the DNN rule, so only the fit decides
    cert = cp_membership(np.eye(5), [np.eye(5)[0]], TOL)
    assert not cert.member and cert.doubly_nonnegative
    assert cert.residual == pytest.approx(2.0)


def test_cp_membership_takes_a_dnn_u_of_order_at_most_four():
    # DNN equals CP at order <= 4, whatever the generators span
    cert = cp_membership(np.eye(2), [np.eye(2)[0]], TOL)
    assert cert.member and cert.doubly_nonnegative
    assert cert.residual == pytest.approx(1.0)


def test_cp_membership_fits_a_huge_u_without_overflow():
    # the fit reads U / 2^e, so 1e300 U overflows no norm or product
    gens = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0])]
    cert = cp_membership(1e300 * np.outer(gens[0], gens[0]), gens, TOL)
    assert cert.member
    assert np.isfinite(cert.residual) and cert.residual <= TOL.zero_tol


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


SCALES = (2.0 ** -100, 2.0 ** -20, 1e4, 1e8, 2.0 ** 40, 1e10, 1e12)


def test_unit_scale_divides_by_the_nearest_power_of_two():
    # max|X| in [2^-1/2, 2^1/2) leaves X as it is; 2^e is the nearest power
    # of two on the log scale, and the zero matrix keeps e = 0
    for amax, e in ((1.0, 0), (1.4, 0), (0.71, 0), (1.5, 1), (0.7, -1),
                    (3e-31, -101), (1e12, 40), (0.0, 0)):
        x = np.array([[amax, -0.5 * amax], [-0.5 * amax, 0.25 * amax]])
        xs, got = unit_scale(x)
        assert got == e, amax
        assert np.array_equal(xs, x / 2.0 ** e)


@pytest.mark.parametrize("x, vertex", [
    # x_11 = 1e-10 is within psd_tol, but (X e_1)_2 = -1e-6
    ([[1e-10, -1e-6], [-1e-6, 1.0]], [1.0 - 1e-6, 1e-6]),
    # t = (1/2, 1/2, 0) is a zero of the face {1, 2}, but (X t)_3 = -1e-6
    ([[1.0, -1.0, -1e-6], [-1.0, 1.0, -1e-6], [-1e-6, -1e-6, 1.0]],
     [0.5 - 5e-7, 0.5 - 5e-7, 1e-6]),
], ids=["diagonal", "face"])
def test_zeros_meet_the_kkt_sign_rule(x, vertex):
    # a candidate with X t below -zero_tol on some entry is no zero, and
    # the sweep's zeros are the zero vertices as they are
    x = np.array(x)
    zeros = is_copositive(x, TOL).zeros
    vertices = compute_zero_structure(x, TOL).vertices
    assert len(zeros) == len(vertices) == 1
    assert np.array_equal(zeros[0], vertices[0])
    assert np.allclose(zeros[0], vertex, rtol=0.0, atol=1e-9)


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


def test_member_floor_scales_with_x():
    # the floor is -zero_tol times the power of two nearest max|X|: a tiny
    # non-copositive X is caught, and the roundoff minimum of H(theta*)
    # times 1e8 stays inside the floor
    v = is_copositive(1e-300 * np.array([[1.0, -2.0], [-2.0, 1.0]]), TOL)
    assert v.member is False and v.min_value == -5e-301
    assert np.allclose(v.witness, [0.5, 0.5])
    v = is_copositive(1e-300 * np.diag([1.0, -1e-5]), TOL)
    assert v.member is False and v.supports_checked == 0
    v = is_copositive(1e8 * build_extremal5()["x"], TOL)
    assert v.member is True and -1e-8 < v.min_value < -TOL.zero_tol
    json.dumps(v.to_json())


def test_min_value_scales_with_x():
    # the KKT matrices are built at unit scale, so the face solutions (and
    # with them min_value and member) do not depend on the scale of X,
    # apart from the member floor rounding max|X| to a power of two
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


def _direct_sums(n, seed):
    """Seeded block-diagonal X of 2-3 components of order 1-4 (p <= 12),
    each PSD, PSD plus nonnegative, indefinite with a shifted diagonal or
    rank one, under a seeded index permutation."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        blocks = []
        for kind in rng.integers(0, 4, int(rng.integers(2, 4))):
            k = int(rng.integers(1, 5))
            g = rng.standard_normal((k, k))
            if kind == 0:
                b = g @ g.T / k
            elif kind == 1:
                b = g @ g.T / k + rng.uniform(0.0, 1.0, (k, k))
            elif kind == 2:
                b = g + g.T
                np.fill_diagonal(b, np.abs(np.diag(b)) + rng.uniform(0.0, 1.0, k))
            else:
                b = np.outer(g[0], g[0])
            blocks.append(symmetrize(b))
        p = sum(len(b) for b in blocks)
        x, lo = np.zeros((p, p)), 0
        for b in blocks:
            x[lo:lo + len(b), lo:lo + len(b)] = b
            lo += len(b)
        perm = rng.permutation(p)
        yield x[np.ix_(perm, perm)]


def test_direct_sum_sweep_matches_the_whole_matrix_sweep():
    # _sweep over all of X / 2^e as one component also solves the faces
    # that meet two components; sweeping each on its own must give the same
    # verdict, zeros and contact sets, in coordinate order, and the same
    # minimum to rounding
    kinds = set()
    for x in _direct_sums(120, 7003):
        v = is_copositive(x, TOL)
        xs, e = unit_scale(x)
        val, _, zeros, contacts = _sweep(xs, np.arange(len(xs)), TOL)
        whole = sorted(zip(zeros, contacts), key=lambda zm: tuple(np.round(zm[0], 12)))
        assert v.member == (val >= -TOL.zero_tol), x
        assert v.supports_checked == 2 ** len(x) - 1
        assert len(v.zeros) == len(v.contact_sets) == len(whole), x
        for z, m, (wz, wm) in zip(v.zeros, v.contact_sets, whole):
            assert z.tobytes() == wz.tobytes(), x
            assert m == tuple(np.flatnonzero(wm).tolist()), x
        assert abs(v.min_value - math.ldexp(val, e)) <= math.ldexp(1e-12, e), x
        t = v.argmin
        assert t.min() >= 0.0 and abs(t.sum() - 1.0) <= 1e-12, x
        assert abs(t @ xs @ t - math.ldexp(v.min_value, -e)) <= 1e-12, x
        kinds.add((v.member, bool(v.zeros), v.min_value > 0.0))
    assert {k[0] for k in kinds} == {k[1] for k in kinds} == {k[2] for k in kinds} == {True, False}


def _psd_plus_n_with_zero_rows(n, seed):
    """Seeded PSD + nonnegative X with zeros: G G' with G orthogonal to a
    nonnegative v, plus a sparse nonnegative N that vanishes on supp(v),
    of order 3-7, padded by 1-3 zero rows, under a seeded permutation."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        q = int(rng.integers(3, 8))
        v = rng.uniform(0.2, 1.0, q) * (rng.random(q) < 0.7)
        v[int(rng.integers(q))] = 1.0
        g = rng.standard_normal((q, int(rng.integers(1, q))))
        g -= np.outer(v, v @ g) / (v @ v)
        nn = rng.uniform(0.0, 1.0, (q, q)) * (rng.random((q, q)) < 0.3)
        nn[np.ix_(v > 0.0, v > 0.0)] = 0.0
        p = q + int(rng.integers(1, 4))
        x = np.zeros((p, p))
        x[:q, :q] = g @ g.T + nn + nn.T
        perm = rng.permutation(p)
        yield x[np.ix_(perm, perm)]


def _permuted_hildebrand_plus_zeros():
    rng = np.random.default_rng(7011)
    for p in range(8, 13):
        x = np.zeros((p, p))
        x[:5, :5] = build_extremal5()["x"]
        perm = rng.permutation(p)
        yield x[np.ix_(perm, perm)]


@pytest.mark.parametrize("tol", [Tolerances(), Tolerances(1e-6, 1e-6, 1e-6),
                                 Tolerances(0.5, 0.5, 0.5)],
                         ids=["default", "1e-6", "0.5"])
def test_sweep_zeros_have_exact_supports_and_whole_contact_sets(tol):
    # the invariant that lets a support be read as the nonzero entries:
    # every zero is exactly 0.0 off its face and above zero_tol on it, the
    # face lies in one component of X, and its contact set holds every
    # index outside that component, where X and so X t are exactly 0.0
    found = across = 0
    for x in [*_permuted_hildebrand_plus_zeros(), *_psd_plus_n_with_zero_rows(30, 7012)]:
        _, label = connected_components(x != 0.0, directed=False)
        v = is_copositive(x, tol)
        assert v.member
        for z, m in zip(v.zeros, v.contact_sets, strict=True):
            face = np.flatnonzero(z)
            assert np.all((z == 0.0) | (z > tol.zero_tol)), z
            assert len(set(label[face])) == 1, z
            outside = np.flatnonzero(label != label[face[0]])
            assert set(outside.tolist()) <= set(m), (z, m)
            found += 1
            across += len(outside) > 0
    assert found >= 60 and across >= 60


def test_direct_sum_of_a_diagonal_is_exact():
    # min of sum t_k^2 d_k over the simplex: 1 / sum(1/d_k) at t ~ 1/d
    v = is_copositive(np.diag([1.0, 2.0, 4.0]), TOL)
    assert v.member and v.zeros == []
    assert v.min_value == 4.0 / 7.0
    assert np.array_equal(v.argmin, np.array([4.0, 2.0, 1.0]) / 7.0)
