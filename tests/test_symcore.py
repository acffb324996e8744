import dataclasses
import json

import numpy as np
import pytest

from copcomp.cones import is_copositive
from copcomp.paperlab import build_extremal5, build_s4
from copcomp.symcore import (
    NOT_PSD,
    PSD_BOUNDARY,
    PSD_INTERIOR,
    SymMatError,
    Tolerances,
    check_symmetric,
    kernel_basis,
    linprog,
    nnls,
    null_eigenvalues,
    numerical_rank,
    outer_columns,
    psd_status,
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


@pytest.mark.parametrize("name", ["zero_tol", "rank_tol", "psd_tol"])
def test_tolerances_floor_is_four_eps(name):
    # below 4 eps the unit-scale zero tests decide on rounding
    Tolerances(**{name: 2.0 ** -50})
    with pytest.raises(ValueError, match=r"must be in \[2\^-50, 1\)"):
        Tolerances(**{name: 2.0 ** -51})


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


@pytest.mark.parametrize("k", [-80, 0, 66])
def test_check_symmetric_gate_does_not_depend_on_scale(k):
    # the gate is tol * max|a| at every scale: 2^k a loads exactly when a
    # does, and the zero matrix loads
    cases = [([[0.0, 1e-20], [2e-20, 0.0]], False),
             ([[1.0, 2.0], [2.0 + 1e-6, 1.0]], False),
             ([[1.0, 2.0], [2.0 + 1e-13, 1.0]], True),
             (np.zeros((2, 2)), True)]
    for a, loads in cases:
        a = np.ldexp(np.asarray(a), k)
        if loads:
            assert np.array_equal(check_symmetric(a), symmetrize(a))
        else:
            with pytest.raises(SymMatError, match="asymmetry"):
                check_symmetric(a)


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
    assert rank_of_vectors([svec(m) for m in mats], tol) == 2
    assert rank_of_vectors([svec(m) for m in mats + [mats[0] + mats[1]]], tol) == 2


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
        ref = np.column_stack([svec(np.outer(g, g)) for g in gens])
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


@pytest.mark.parametrize("p, entry", [
    (float("inf"), 1.0), ("2", 1.0), (True, 1.0), (2.5, 1.0), (2.0, 1.0),
    (2, {"a": 1}), (2, "1.5"), (2, True), (2, None), (2, [1.0]), (2, 10 ** 400),
], ids=["p-inf", "p-string", "p-bool", "p-fraction", "p-float", "entry-object",
        "entry-string", "entry-bool", "entry-null", "entry-list",
        "entry-huge-integer"])
def test_symmat_from_json_requires_an_integer_p_and_number_entries(p, entry):
    with pytest.raises(SymMatError):
        symmat_from_json({"p": p, "rows": [[entry, 0.0], [0.0, 1.0]]})


def test_symmat_from_json_takes_integer_entries_and_refuses_ragged_rows():
    assert symmat_from_json({"p": 2, "rows": [[1, 0], [0, 2]]}).tolist() == [
        [1.0, 0.0], [0.0, 2.0]]
    with pytest.raises(SymMatError):
        symmat_from_json({"p": 2, "rows": [[1.0, 0.0], [0.0]]})


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


def test_one_door_to_each_numpy_solver():
    # the bench tracer and the tests wrap complement.nnls/linprog; every
    # CP fit, the dual decomposition's and the backward check's, goes
    # through complement.face_nnls, and cones fits nothing.  Both are
    # in-repo: nnls returns (x, residual) as scipy's did, linprog the
    # optimal x itself rather than scipy's OptimizeResult.
    import copcomp.complement as complement
    import copcomp.cones as cones
    import copcomp.symcore as symcore

    assert complement.nnls is symcore.nnls and not hasattr(cones, "nnls")
    assert complement.linprog is symcore.linprog
    x, rnorm = symcore.nnls([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [2.0, 1.0, 1.0])
    assert x.tolist() == pytest.approx([1.5, 1.0], abs=1e-15)
    assert rnorm == pytest.approx(np.sqrt(0.5), abs=1e-15)
    x = symcore.linprog([-1.0], [[1.0]], [2.0])
    assert isinstance(x, np.ndarray) and x.tolist() == [2.0]


def _subset_family(vectors):
    """svec(g g') over the subset sums g of all the vectors (rows)."""
    n = len(vectors)
    gens = [sum(vectors[k] for k in range(n) if mask >> k & 1)
            for mask in range(1, 2 ** n)]
    return outer_columns(gens)


def _nnls_corpus():
    """(name, a, b): random full-rank systems, the subset-sum families of
    H(theta*) (rank 6, 31 columns) and H(theta*) + 0_3 (255 columns) with
    targets in and outside their cones, and the edge cases."""
    rng = np.random.default_rng(20261020)
    for m, n in ((12, 5), (20, 20), (8, 15), (40, 25)):
        for k in range(3):
            a = rng.standard_normal((m, n))
            yield f"random{m}x{n}-{k}", a, rng.standard_normal(m)
    h = build_extremal5()
    taus = is_copositive(h["x"], Tolerances()).zeros
    a5 = _subset_family(np.asarray(taus))
    pad = [np.pad(t, (0, 3)) for t in taus] + list(np.eye(8)[5:])
    a8 = _subset_family(np.asarray(pad))
    u8 = np.zeros((8, 8))
    u8[:5, :5] = h["u"]
    yield "hildebrand-u", a5, svec(h["u"])
    yield "padded-u", a8, svec(u8)
    for k in range(4):
        for name, a in (("hildebrand", a5), ("padded", a8)):
            inside = a @ (rng.random(a.shape[1]) * (rng.random(a.shape[1]) < 0.3))
            yield f"{name}-cone-{k}", a, inside
            yield f"{name}-off-{k}", a, inside + 0.1 * rng.standard_normal(len(inside))
    a = rng.random((10, 6))
    yield "zero-target", a, np.zeros(10)
    a[:, 2] = 0.0
    yield "zero-column", a, a @ rng.random(6)
    yield "outside", a, -rng.random(10)


def test_nnls_matches_scipys_residual_with_kkt_on_every_corpus_system():
    from scipy.optimize import nnls as scipy_nnls

    cases = 0
    for name, a, b in _nnls_corpus():
        x, rnorm = nnls(a, b)
        assert x.shape == (a.shape[1],) and np.all(x >= 0.0), name
        assert np.all(x[~a.any(axis=0)] == 0.0), name
        r = b - a @ x
        assert rnorm == np.linalg.norm(r), name
        # KKT: the gradient a'(b - a x) is <= 0 everywhere and 0 where x > 0,
        # to rounding on the unit columns
        grad = (a.T @ r) / np.maximum(np.linalg.norm(a, axis=0), 1e-300)
        bound = 1e-12 * max(1.0, np.linalg.norm(b))
        assert np.all(grad <= bound), (name, grad.max())
        assert np.all(np.abs(grad[x > 0.0]) <= bound), name
        _, ref = scipy_nnls(a, b)
        assert abs(rnorm - ref) <= 1e-12 * max(1.0, np.linalg.norm(b)), name
        cases += 1
    assert cases == 33


def test_linprog_ends_beales_cycling_example_at_its_optimum():
    # Beale (1955): Dantzig's rule with lowest-index ties cycles through six
    # degenerate bases at the origin; the optimum is x = (1, 0, 1, 0), -5/4
    c = np.array([-0.75, 20.0, -0.5, 6.0])
    a = np.array([[0.25, -8.0, -1.0, 9.0],
                  [0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0]])
    x = linprog(c, a, [0.0, 0.0, 1.0])
    assert x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-15)
    assert c @ x == pytest.approx(-1.25, abs=1e-15)


def test_linprog_infeasible_unbounded_and_empty():
    # x1 + x2 <= -1 has no x >= 0; -x1 <= 0 lets x1 grow without bound
    assert linprog([1.0, 1.0], [[1.0, 1.0]], [-1.0]) is None
    with pytest.raises(ValueError, match="unbounded"):
        linprog([-1.0, 0.0], [[-1.0, 1.0]], [0.0])
    # rows that every x >= 0 meets leave an empty tableau
    assert linprog([1.0, 2.0], [[-1.0, 0.0]], [3.0]).tolist() == [0.0, 0.0]


def test_linprog_meets_equality_pairs_to_rounding():
    # a <= b and -a <= -b pin a x = b: the answer is feasible to rounding
    a = RNG.random((6, 9))
    b = a @ RNG.random(9)
    x = linprog(-np.ones(9), np.vstack([a, -a]), np.concatenate([b, -b]))
    assert np.max(np.abs(a @ x - b)) <= 1e-13 * np.max(b)
    assert np.all(x >= 0.0)
