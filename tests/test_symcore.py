import json

import numpy as np
import pytest

from copcomp.symcore import (
    NOT_PSD,
    PSD_BOUNDARY,
    PSD_INTERIOR,
    SymMatError,
    Tolerances,
    check_symmetric,
    kernel_basis,
    psd_status,
    rank_of_set,
    rank_of_vectors,
    smat,
    svec,
    svec_dim,
    svec_pairs,
    sym_kron,
    symmat_from_json,
    symmat_to_json,
    symmetrize,
)

RNG = np.random.default_rng(20240817)


def random_sym(p, rng=RNG):
    a = rng.standard_normal((p, p))
    return 0.5 * (a + a.T)


def test_tolerances_validation():
    Tolerances()  # defaults valid
    with pytest.raises(ValueError):
        Tolerances(zero_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(rank_tol=1.5)
    with pytest.raises(ValueError):
        Tolerances(psd_tol=-1e-9)


def test_check_symmetric_rejects_asymmetry():
    a = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
    with pytest.raises(SymMatError):
        check_symmetric(a)
    # within the 1e-12 gate it symmetrizes
    b = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    out = check_symmetric(b)
    assert np.allclose(out, out.T)


def test_svec_pairs_order():
    assert svec_pairs(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert svec_dim(5) == 15


def test_svec_smat_roundtrip():
    for p in (1, 2, 3, 5, 7):
        f = random_sym(p)
        v = svec(f)
        assert v.shape == (svec_dim(p),)
        assert np.allclose(smat(v, p), f, atol=1e-14)


def _svec_loop(f):
    out = np.empty(svec_dim(f.shape[0]))
    for idx, (k, l) in enumerate(svec_pairs(f.shape[0])):
        out[idx] = f[l, k] if k == l else np.sqrt(2.0) * f[l, k]
    return out


def _smat_loop(v, p):
    f = np.zeros((p, p))
    for idx, (k, l) in enumerate(svec_pairs(p)):
        if k == l:
            f[k, k] = v[idx]
        else:
            f[l, k] = f[k, l] = v[idx] / np.sqrt(2.0)
    return f


def _sym_kron_loop(m, n):
    p = m.shape[0]
    out = np.empty((svec_dim(p), svec_dim(p)))
    for idx, (k, l) in enumerate(svec_pairs(p)):
        u = np.zeros((p, p))
        u[k, l] = u[l, k] = 1.0 if k == l else 1.0 / np.sqrt(2.0)
        out[:, idx] = _svec_loop(0.5 * (n @ u @ m.T + m @ u @ n.T))
    return out


def test_svec_smat_sym_kron_match_the_pair_loop_bit_for_bit():
    # reference: one svec_pairs entry at a time; svec reads the lower
    # triangle, so an unsymmetric input must give the same bits too
    rng = np.random.default_rng(20240823)
    for p in range(1, 13):
        for _ in range(10):
            a = rng.standard_normal((p, p))
            for f in (a, a + a.T):
                assert np.array_equal(svec(f), _svec_loop(f))
            v = rng.standard_normal(svec_dim(p))
            assert np.array_equal(smat(v, p), _smat_loop(v, p))
        m, n = random_sym(p, rng), random_sym(p, rng)
        assert np.array_equal(sym_kron(m, n), _sym_kron_loop(m, n))


def test_svec_is_isometric():
    for p in (2, 3, 4):
        a, b = random_sym(p), random_sym(p)
        assert np.isclose(svec(a) @ svec(b), np.trace(a @ b), atol=1e-12)


def test_sym_kron_anticommutator_identity():
    # (X (x)_s E) svec(U) == svec(XU + UX) / 2
    for p in (2, 3, 4, 5):
        x, u = random_sym(p), random_sym(p)
        lhs = sym_kron(x, np.eye(p)) @ svec(u)
        rhs = 0.5 * svec(x @ u + u @ x)
        assert np.linalg.norm(lhs - rhs, np.inf) <= 1e-12


def test_sym_kron_identity_is_identity():
    for p in (2, 3, 4):
        assert np.allclose(sym_kron(np.eye(p), np.eye(p)), np.eye(svec_dim(p)))


def test_psd_status():
    tol = Tolerances()
    assert psd_status(np.eye(2), tol)[0] == PSD_INTERIOR
    assert psd_status(np.diag([1.0, 0.0]), tol)[0] == PSD_BOUNDARY
    assert psd_status(np.diag([1.0, -1.0]), tol)[0] == NOT_PSD


def test_rank_utilities():
    tol = Tolerances()
    assert rank_of_vectors([], tol) == 0
    assert rank_of_vectors([np.array([1.0, 1.0]), np.array([2.0, 2.0])], tol) == 1
    mats = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    assert rank_of_set(mats, tol) == 2
    assert rank_of_set(mats + [mats[0] + mats[1]], tol) == 2


def test_kernel_basis():
    tol = Tolerances()
    x = np.diag([1.0, 0.0, 2.0])
    basis = kernel_basis(x, tol)
    assert len(basis) == 1
    assert np.allclose(np.abs(basis[0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_json_roundtrip(tmp_path):
    f = random_sym(3)
    obj = symmat_to_json(f)
    assert obj["p"] == 3
    back = symmat_from_json(json.loads(json.dumps(obj)))
    assert np.allclose(back, f, atol=1e-15)
    with pytest.raises(SymMatError):
        symmat_from_json({"p": 2, "rows": [[1.0, 0.0]]})


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(SymMatError):
        symmetrize(np.zeros((2, 3)))
