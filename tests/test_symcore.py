import dataclasses
import json

import numpy as np
import pytest

from copcomp.paperlab import build_s4
from copcomp.symcore import (
    NOT_PSD,
    PSD_BOUNDARY,
    PSD_INTERIOR,
    SymMatError,
    Tolerances,
    check_symmetric,
    kernel_basis,
    null_eigenvalues,
    numerical_rank,
    outer_columns,
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


def test_slack_is_ten_zero_tol_and_not_an_option():
    assert Tolerances().slack == 10 * 1e-9
    assert Tolerances(zero_tol=3e-7).slack == 10 * 3e-7
    assert "slack" not in {f.name for f in dataclasses.fields(Tolerances)}


def test_check_symmetric_rejects_asymmetry():
    a = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
    with pytest.raises(SymMatError):
        check_symmetric(a)
    # within the 1e-12 gate it symmetrizes
    b = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    out = check_symmetric(b)
    assert np.allclose(out, out.T)


def test_check_symmetric_gate_is_relative_to_the_entries():
    # the s4 X times 1e6 with x12 moved by one ulp: |x12 - x21| = 1.164e-10
    x = 1e6 * build_s4()["x"]
    x[0, 1] = np.nextafter(x[0, 1], np.inf)
    out = symmat_from_json(symmat_to_json(x))
    assert np.array_equal(out, out.T)
    # the gate scales with max|a|: 1e-6 off at 1e6 scale is still refused
    x[0, 1] += 1e-6 * 1e6
    with pytest.raises(SymMatError, match="exceeds 2.000e-06"):
        check_symmetric(x)


def test_svec_pairs_order():
    assert svec_pairs(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert svec_dim(5) == 15


def test_svec_pairs_match_the_pair_loop():
    for p in range(13):
        pairs = svec_pairs(p)
        assert pairs == [(k, l) for k in range(p) for l in range(k, p)]
        assert all(type(k) is int and type(l) is int for k, l in pairs)


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


def _null_scalar(lam, tol):
    # reference: kernel_basis's former rule on one spectrum
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    return np.abs(lam) <= tol.psd_tol * scale


def _null_batched(lam, tol):
    # reference: the zero-vertex sweep's former rule, one spectrum per row
    scale = np.maximum(1.0, np.max(np.abs(lam), axis=1, keepdims=True))
    return np.abs(lam) <= tol.psd_tol * scale


def test_null_eigenvalues_match_the_inline_rules():
    rng = np.random.default_rng(20261019)
    tol = Tolerances(psd_tol=1e-6)
    spectra = [np.zeros(0), np.zeros(4), np.array([-1e-6, 1e-6, 2.0]),
               np.array([1e-6, 1e-6 * (1 + 1e-12), 0.5])]
    for _ in range(50):
        lam = rng.standard_normal(int(rng.integers(1, 7)))
        lam *= 10.0 ** rng.uniform(-8, 3)
        lam[rng.random(lam.size) < 0.3] *= 1e-7
        spectra.append(lam)
    for lam in spectra:
        assert np.array_equal(null_eigenvalues(lam, tol), _null_scalar(lam, tol))
    for m, k in ((0, 3), (1, 1), (7, 4), (30, 6)):
        lam = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-8, 3, (m, 1))
        lam[rng.random((m, k)) < 0.3] *= 1e-6
        if m:
            lam[0] = 0.0
        assert np.array_equal(null_eigenvalues(lam, tol), _null_batched(lam, tol))


def _rank_of_vectors_rule(sv, tol):
    # reference: rank_of_vectors's former inline rule
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol.rank_tol * sv[0]))


def _rank_certificate_rule(sv, tol):
    # reference: rank_certificate's former inline rule (sv nonempty)
    return int(np.sum(sv > tol.rank_tol * sv[0])) if sv[0] > 0 else 0


def test_numerical_rank_matches_the_inline_rules():
    rng = np.random.default_rng(20261020)
    tol = Tolerances(rank_tol=1e-6)
    cases = [np.zeros(0), np.zeros(3), np.array([1.0, 1e-6, 1e-6 * (1 - 1e-12)])]
    for _ in range(50):
        a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        a[:, 0] *= 10.0 ** rng.uniform(-9, 0)
        cases.append(np.linalg.svd(a, compute_uv=False))
    for sv in cases:
        assert numerical_rank(sv, tol) == _rank_of_vectors_rule(sv, tol)
        if sv.size:
            assert numerical_rank(sv, tol) == _rank_certificate_rule(sv, tol)


def test_outer_columns_match_column_stack_bit_for_bit():
    rng = np.random.default_rng(20261021)
    for p, n in ((1, 1), (3, 1), (3, 6), (5, 31), (12, 7)):
        gens = [rng.random(p) * 10.0 ** rng.uniform(-3, 3) for _ in range(n)]
        ref = np.column_stack([np.outer(g, g).ravel() for g in gens])
        for form in (gens, np.array(gens)):
            cols = outer_columns(form)
            assert cols.flags["C_CONTIGUOUS"]
            assert np.array_equal(cols, ref)


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


@pytest.mark.filterwarnings("error")
def test_symmat_from_json_rejects_entries_that_overflow_when_symmetrized():
    rows = [[1e308, -1.0], [-1.0, 1.0]]
    with pytest.raises(SymMatError, match="overflow"):
        symmat_from_json({"p": 2, "rows": rows})
    rows[0][0] = 8e307  # 2 * 8e307 is still finite
    assert symmat_from_json({"p": 2, "rows": rows})[0, 0] == 8e307


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
def test_symmetrize_rejects_non_finite_and_overflowing_entries(bad):
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    a[0, 0] = bad
    with pytest.raises(SymMatError):
        symmetrize(a)
    a[0, 0] = 8e307  # 2 * 8e307 is still finite
    assert symmetrize(a)[0, 0] == 8e307


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(SymMatError):
        symmetrize(np.zeros((2, 3)))
