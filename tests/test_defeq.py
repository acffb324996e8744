import itertools

import numpy as np
import pytest

import copcomp.complement as complement
import copcomp.defeq as defeq
from copcomp.complement import decompose_dual, face_nnls
from copcomp.cones import doubly_nonnegative
from copcomp.defeq import (
    NO_CONVERGENCE,
    build_system,
    jacobian,
    rank_certificate,
    reconstruct_U,
    residual,
    solve_local,
    verify_backward,
    verify_forward,
)
from copcomp.paperlab import (
    SCENARIOS,
    build_extremal5,
    build_pp3z_jjj,
    build_s4,
    extremal5_path,
    pp3z_jjj_path,
    pp4z_cond_ii_path,
    pp4z_j_path,
    pp4z_jjj_path,
)
from copcomp.symcore import (
    NOT_PSD,
    PSD_INTERIOR,
    Tolerances,
    psd_status,
    svec,
    svec_dim,
    sym_kron,
)
from copcomp.zerostruct import compute_zero_structure

TOL = Tolerances()
RNG = np.random.default_rng(20240823)


def _anchor(name):
    data = SCENARIOS[name].build()
    zs = compute_zero_structure(data["x"], TOL)
    dd = decompose_dual(data["u"], zs, TOL)
    return data, zs, dd, build_system(zs, dd)


def test_worked_example_layout():
    _, _, _, sys = _anchor("s4")
    assert sys.p_star == 6
    assert sys.m == 6
    assert sys.size == 12
    assert sys.block_dims == [3, 3]
    # supports {2, 3} and {1, 2}; svec(X) holds x11, x21, x31, x22, x32, x33
    assert [xi.tolist() for xi in sys.x_index] == [[3, 4, 5], [0, 1, 3]]
    assert sys.w_slice == [slice(6, 9), slice(9, 12)]


def test_extremal5_layout():
    _, _, _, sys = _anchor("hildebrand")
    assert sys.p_star == 15
    assert sys.m == 15
    assert sys.size == 30
    assert [xi.tolist() for xi in sys.x_index] == [list(range(15))]
    assert sys.w_slice == [slice(15, 30)]


def test_empty_system():
    zs = compute_zero_structure(np.eye(3), TOL)
    dd = decompose_dual(np.zeros((3, 3)), zs, TOL)
    sys = build_system(zs, dd)
    assert sys.m == 0
    assert sys.x_index == [] and sys.w_slice == []
    assert residual(sys, sys.anchor).size == 0
    cert = rank_certificate(sys, sys.anchor, TOL)
    assert cert.full_rank and cert.m_expected == 0
    assert np.linalg.norm(reconstruct_U(sys, [])) == 0.0


def test_anchor_residual_vanishes():
    for name in ("s4", "hildebrand", "pp3z-jjj", "pp4z-j", "pp4z-jjj",
                 "pp4z-cond-ii"):
        _, _, _, sys = _anchor(name)
        r = residual(sys, sys.anchor)
        assert np.linalg.norm(r, np.inf) <= TOL.zero_tol, name


def test_residual_zero_w_is_zero():
    _, _, _, sys = _anchor("s4")
    x, ws = sys.split(sys.anchor)
    z = sys.pack(x, [np.zeros_like(w) for w in ws])
    assert np.linalg.norm(residual(sys, z)) == 0.0


def test_residual_single_entry_bump():
    # bumping w11(1) by 1 adds svec(X(1) dW + dW X(1)) with dW = e1 e1'
    data, zs, dd, sys = _anchor("s4")
    x, ws = sys.split(sys.anchor)
    ws_bumped = [w.copy() for w in ws]
    ws_bumped[0][0, 0] += 1.0
    delta = residual(sys, sys.pack(x, ws_bumped)) - residual(sys, sys.anchor)
    x1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    dw = np.zeros((2, 2))
    dw[0, 0] = 1.0
    expect = np.concatenate([svec(x1 @ dw + dw @ x1), np.zeros(3)])
    assert np.linalg.norm(delta - expect, np.inf) <= 1e-12


def test_residual_is_bilinear():
    _, _, _, sys = _anchor("s4")
    x, ws = sys.split(sys.anchor)
    r = residual(sys, sys.anchor)
    for alpha in (0.5, 2.0, -3.0):
        r_x = residual(sys, sys.pack(alpha * x, ws))
        r_w = residual(sys, sys.pack(x, [alpha * w for w in ws]))
        assert np.linalg.norm(r_x - alpha * r, np.inf) <= 1e-12
        assert np.linalg.norm(r_w - alpha * r, np.inf) <= 1e-12


def test_reconstruct_overlapping_entries_add():
    data, zs, dd, sys = _anchor("s4")
    ones = np.ones((2, 2))
    u = reconstruct_U(sys, [ones, ones])
    # center entry shared by both supports: w22(1) + w22(2) = 2
    assert u[1, 1] == 2.0
    assert np.allclose(u, build_s4()["u"])


def _fd_jacobian(sys, z, h=1e-6):
    m = residual(sys, z).size
    out = np.zeros((m, z.size))
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        out[:, k] = (residual(sys, zp) - residual(sys, zm)) / (2.0 * h)
    return out


def test_jacobian_matches_finite_differences():
    for name in ("s4", "hildebrand", "pp3z-jjj", "pp4z-jjj"):
        _, _, _, sys = _anchor(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(5):
            z = sys.anchor + 0.1 * rng.standard_normal(sys.size)
            jac = jacobian(sys, z)
            fd = _fd_jacobian(sys, z)
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(jac - fd).max() / scale <= 1e-6, name


def _jacobian_loop(sys, z):
    # reference: a dict from each svec pair of X to its column, and one
    # column copy per pair of each block's support
    def pairs(p):
        return [(k, l) for k in range(p) for l in range(k, p)]

    x, ws = sys.split(z)
    full_pairs = {pair: idx for idx, pair in enumerate(pairs(sys.p))}
    jac = np.zeros((sys.m, sys.size))
    row = 0
    for w, ps, sl, d in zip(ws, sys.supports, sys.w_slice, sys.block_dims):
        idx = np.asarray(ps)
        k_block = 2.0 * sym_kron(w, np.eye(len(ps)))
        l_block = 2.0 * sym_kron(x[np.ix_(ps, ps)], np.eye(len(ps)))
        for col_local, (a, b) in enumerate(pairs(len(ps))):
            col_global = full_pairs[(int(idx[a]), int(idx[b]))]
            jac[row: row + d, col_global] = k_block[:, col_local]
        jac[row: row + d, sl] = l_block
        row += d
    return jac


def _bit_for_bit_points(seed):
    """(system, z): the anchor and 5 random z of every scenario's system
    and of H(theta*) + 0_3's."""
    rng = np.random.default_rng(seed)
    data = build_extremal5()
    x8, u8 = np.zeros((8, 8)), np.zeros((8, 8))
    x8[:5, :5], u8[:5, :5] = data["x"], data["u"]
    zs8 = compute_zero_structure(x8, TOL)
    anchors = [_anchor(name)[3] for name in SCENARIOS]
    anchors.append(build_system(zs8, decompose_dual(u8, zs8, TOL)))
    for sys in anchors:
        for z in [sys.anchor] + [rng.standard_normal(sys.size) for _ in range(5)]:
            yield sys, z


def test_jacobian_matches_the_pair_dict_scatter_bit_for_bit():
    for sys, z in _bit_for_bit_points(20261018):
        assert np.array_equal(jacobian(sys, z), _jacobian_loop(sys, z))


def test_residual_matches_the_restricted_full_x_bit_for_bit():
    # reference: the full X from split, each X(s) cut out of it by np.ix_
    for sys, z in _bit_for_bit_points(20261019):
        x, ws = sys.split(z)
        ref = [svec(x[np.ix_(ps, ps)] @ w + w @ x[np.ix_(ps, ps)])
               for w, ps in zip(ws, sys.supports)]
        assert np.array_equal(residual(sys, z), np.concatenate(ref))


def test_jacobian_zero_point_is_zero():
    _, _, _, sys = _anchor("s4")
    assert np.linalg.norm(jacobian(sys, np.zeros(sys.size))) == 0.0


def test_jacobian_w_block_is_two_identity_for_unit_w():
    # single block, support = P, W = E, X = 0: the X-columns are
    # 2*(E kron_s E) = 2I and the W-columns vanish
    data, zs, dd, sys = _anchor("pp4z-j")
    x = np.zeros((4, 4))
    ws = [np.eye(3)]
    jac = jacobian(sys, sys.pack(x, ws))
    cols = [k for k, (a, b) in enumerate(
        [(i, j) for i in range(4) for j in range(i, 4)]) if a >= 1 and b >= 1]
    left = jac[:, cols]
    assert np.allclose(left, 2.0 * np.eye(svec_dim(3)), atol=1e-12)
    assert np.linalg.norm(jac[:, sys.p_star:]) == 0.0


def test_rank_certificate_worked_example():
    _, _, _, sys = _anchor("s4")
    cert = rank_certificate(sys, sys.anchor, TOL)
    assert cert.full_rank
    assert cert.rank_computed == 6
    assert cert.sigma_ratio > 1e-9


def test_rank_deficient_when_w_zero_and_x_singular():
    data, zs, dd, sys = _anchor("s4")
    x, ws = sys.split(sys.anchor)
    z = sys.pack(x, [np.zeros_like(w) for w in ws])
    jac = jacobian(sys, z)
    sv = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.sum(sv > TOL.rank_tol * sv[0]))
    assert rank < sys.m  # each restricted X(s) is singular


def test_solve_local_at_anchor():
    data, zs, dd, sys = _anchor("s4")
    ws = solve_local(sys, data["x"], TOL)
    assert not (isinstance(ws, tuple) and ws[0] == NO_CONVERGENCE)
    z = sys.pack(data["x"], ws)
    assert np.linalg.norm(residual(sys, z), np.inf) <= 1e-12


def test_solve_local_free_entry_direction():
    # x13 is outside both supports: perturbing it keeps the anchor W
    data, zs, dd, sys = _anchor("s4")
    x = data["x"].copy()
    x[0, 2] += 1e-3
    x[2, 0] += 1e-3
    ws = solve_local(sys, x, TOL)
    _, ws0 = sys.split(sys.anchor)
    for w, w0 in zip(ws, ws0):
        assert np.linalg.norm(w - w0) <= 1e-9


def _fixed_point_anchors():
    s4, h = build_s4(), build_extremal5()
    x8, u8 = np.zeros((8, 8)), np.zeros((8, 8))
    x8[:5, :5], u8[:5, :5] = h["x"], h["u"]
    for x0, u0 in ((s4["x"], s4["u"]), (h["x"], h["u"]), (x8, u8)):
        zs = compute_zero_structure(x0, TOL)
        yield x0, build_system(zs, decompose_dual(u0, zs, TOL))


def test_solve_local_halves_the_anchor_w_to_its_fixed_point():
    # J_W svec(W) = r(X, W), so each damped step halves W and r: solve_local
    # returns 2^-k W0 with k the first count that brings 2^-k max|r(X, W0)|
    # to zero_tol
    rng = np.random.default_rng(20261018)
    checked = 0
    for x0, sys in _fixed_point_anchors():
        _, ws0 = sys.split(sys.anchor)
        p = x0.shape[0]
        for _ in range(4):
            e = rng.standard_normal((p, p))
            e = 0.5 * (e + e.T)
            for eps in (1e-2, 1e-3, 1e-4):
                x = x0 + eps * e
                r0 = np.max(np.abs(residual(sys, sys.pack(x, ws0))))
                k = 0
                while np.ldexp(r0, -k) > TOL.zero_tol:
                    k += 1
                ws = solve_local(sys, x, TOL)
                assert isinstance(ws, list) and 0 < k <= 50
                for w, w0 in zip(ws, ws0):
                    ref = np.ldexp(w0, -k)
                    assert np.max(np.abs(w - ref)) <= 1e-6 * np.max(np.abs(ref))
                checked += 1
    assert checked == 36


def _solve_local_rebuilding_jacobian(sys, x):
    """solve_local as it was with the Jacobian rebuilt at every step."""
    _, ws0 = sys.split(sys.anchor)
    z = sys.pack(x, ws0)
    for _ in range(50):
        r = residual(sys, z)
        if np.linalg.norm(r, ord=np.inf) <= TOL.zero_tol:
            return sys.split(z)[1]
        jw = jacobian(sys, z)[:, sys.p_star:]
        z[sys.p_star:] -= 0.5 * np.linalg.lstsq(jw, r, rcond=None)[0]
    return None


def test_solve_local_builds_the_jacobian_once(monkeypatch):
    # J_W depends on the frozen X alone: one Jacobian per call, and the
    # same W(s) bit for bit as rebuilding it at every step
    calls = []

    def counted(sys, z):
        calls.append(1)
        return jacobian(sys, z)

    monkeypatch.setattr(defeq, "jacobian", counted)
    rng = np.random.default_rng(20261019)
    solved = 0
    for x0, sys in _fixed_point_anchors():
        p = x0.shape[0]
        e = rng.standard_normal((p, p))
        for x in (x0, x0 + 1e-3 * (e + e.T), np.eye(p)):
            calls.clear()
            ws = solve_local(sys, x, TOL)
            assert isinstance(ws, list) and len(calls) == 1
            ref = _solve_local_rebuilding_jacobian(sys, x)
            assert all(np.array_equal(w, r) for w, r in zip(ws, ref))
            solved += 1
    assert solved == 9


def test_solve_local_reports_no_convergence_past_50_halvings():
    # max|r(X, W0)| = 2.8e6 needs 52 halvings to reach zero_tol, past the 50
    # allowed: the residual returned is that of 2^-50 W0; at 1e3 it needs 42
    data, zs, dd, sys = _anchor("s4")
    e = np.zeros((3, 3))
    e[0, 1] = e[1, 0] = 1.0
    _, ws0 = sys.split(sys.anchor)
    x = data["x"] + 1e6 * e
    r0 = np.max(np.abs(residual(sys, sys.pack(x, ws0))))
    out = solve_local(sys, x, TOL)
    assert isinstance(out, tuple) and out[0] == NO_CONVERGENCE
    assert out[1] > TOL.zero_tol
    assert out[1] == pytest.approx(np.ldexp(r0, -50), rel=1e-6)
    assert isinstance(solve_local(sys, data["x"] + 1e3 * e, TOL), list)


def test_solve_local_identity_forces_zero_w():
    data, zs, dd, sys = _anchor("s4")
    ws = solve_local(sys, np.eye(3), TOL)
    for w in ws:
        assert np.linalg.norm(w) <= 1e-9
    assert np.linalg.norm(reconstruct_U(sys, ws)) <= 1e-9


def test_verify_forward_constant_path():
    data, zs, dd, sys = _anchor("s4")
    reports = verify_forward([data["x"]] * 2, [data["u"]] * 2, zs, dd, TOL)
    assert all(r["anticommutator_ok"] and r["reconstruction_ok"]
               for r in reports)


def test_verify_forward_rejects_non_complementary():
    data, zs, dd, sys = _anchor("s4")
    with pytest.raises(ValueError):
        verify_forward([data["x"]], [np.eye(3)], zs, dd, TOL)


def test_verify_forward_extremal5_path_fails():
    data, zs, dd, sys = _anchor("hildebrand")
    path = [extremal5_path(data["theta"], eps) for eps in (0.2, 0.1, 0.05)]
    reports = verify_forward([p[0] for p in path], [p[1] for p in path],
                             zs, dd, TOL)
    assert all(not (r["anticommutator_ok"] and r["reconstruction_ok"])
               for r in reports)


def test_verify_forward_jjj_violation_path_fails():
    data, zs, dd, sys = _anchor("pp3z-jjj")
    path = [pp3z_jjj_path(eps) for eps in (0.2, 0.1)]
    reports = verify_forward([p[0] for p in path], [p[1] for p in path],
                             zs, dd, TOL)
    assert all(not (r["anticommutator_ok"] and r["reconstruction_ok"])
               for r in reports)


def test_verify_backward_constant_path():
    data, zs, dd, sys = _anchor("s4")
    _, ws0 = sys.split(sys.anchor)
    reports = verify_backward([data["x"]] * 2, [ws0] * 2, zs, dd, TOL)
    for r in reports:
        assert r["copositive"]
        assert r["complementarity_ok"]
        assert all(w["in_cp"] for w in r["w_blocks"])


@pytest.mark.parametrize("p", [5, 8])
def test_verify_backward_takes_every_subset_sum_anchor(p):
    # U = g g' for each of the 31 nonempty subset sums g of H(theta*)'s
    # zeros, in H(theta*) and in H(theta*) + 0_3: decompose_dual fits U
    # over the subset sums, and the backward check reads the same fit
    x = np.zeros((p, p))
    x[:5, :5] = build_extremal5()["x"]
    zs = compute_zero_structure(x, TOL)
    h_zeros = [j for j, v in enumerate(zs.vertices) if np.count_nonzero(v[:5]) > 1]
    assert len(h_zeros) == 5
    in_cp = []
    for r in range(1, 6):
        for combo in itertools.combinations(h_zeros, r):
            g = np.sum([zs.vertices[j] for j in combo], axis=0)
            dd = decompose_dual(np.outer(g, g), zs, TOL)
            [rep] = verify_backward([x], [dd.restricted], zs, dd, TOL)
            in_cp.append(all(w["in_cp"] for w in rep["w_blocks"]))
    assert len(in_cp) == 31 and all(in_cp)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_verifiers_refuse_a_path_point_of_the_wrong_order(n):
    # pp4z-j has p = 4; a point of another order is refused with both orders
    # named, not misread by a reshape that happens to divide
    data, zs, dd, sys = _anchor("pp4z-j")
    _, ws0 = sys.split(sys.anchor)
    with pytest.raises(ValueError, match=f"{n}.*4|4.*{n}"):
        verify_forward([np.eye(n)], [np.zeros((n, n))], zs, dd, TOL)
    with pytest.raises(ValueError, match=f"{n}.*4|4.*{n}"):
        verify_backward([np.eye(n)], [ws0], zs, dd, TOL)


def test_pack_refuses_an_x_of_the_wrong_order():
    data, zs, dd, sys = _anchor("s4")
    _, ws = sys.split(sys.anchor)
    with pytest.raises(ValueError, match="order 4.*order 3"):
        sys.pack(np.eye(4), ws)


def test_verify_backward_flags_non_copositive_x():
    for path_fn, name in ((pp4z_j_path, "pp4z-j"), (pp4z_jjj_path, "pp4z-jjj")):
        data, zs, dd, sys = _anchor(name)
        x_eps, w_eps = path_fn(0.1)
        reports = verify_backward([x_eps], [[w_eps]], zs, dd, TOL)
        assert not reports[0]["copositive"]
        assert reports[0]["copositivity_witness"] is not None


def _w_block_reference(w, gens, order, tol):
    # reference: the face fit, the DNN rule for small blocks, and the
    # doubly-nonnegative test again for the record
    _, _, fit = face_nnls(gens, [range(len(gens))], w)
    dnn = doubly_nonnegative(w, tol)
    return {"in_cp": fit <= tol.zero_tol or (order <= 4 and dnn),
            "nnls_residual": fit, "doubly_nonnegative": dnn}


def test_verify_backward_tests_each_block_doubly_nonnegative_once(monkeypatch):
    cases = [("pp4z-cond-ii", pp4z_cond_ii_path), ("pp4z-j", pp4z_j_path),
             ("pp4z-jjj", pp4z_jjj_path)]
    expected, points = [], []
    for name, path in cases:
        data, zs, dd, sys = _anchor(name)
        _, ws0 = sys.split(sys.anchor)
        xs = [data["x"]] + [path(eps)[0] for eps in (0.2, 0.1)]
        wss = [ws0] + [[path(eps)[1]] for eps in (0.2, 0.1)]
        points.append((xs, wss, zs, dd))
        for ws in wss:
            expected.append([
                {"block": s + 1,
                 **_w_block_reference(w, zs.block_vectors(s), len(sys.supports[s]), TOL)}
                for s, w in enumerate(ws)])
    calls = []

    def counted(u, tol):
        calls.append(1)
        return doubly_nonnegative(u, tol)

    monkeypatch.setattr(complement, "doubly_nonnegative", counted)
    got = [r["w_blocks"] for xs, wss, zs, dd in points
           for r in verify_backward(xs, wss, zs, dd, TOL)]
    assert got == expected
    assert any(not b["in_cp"] for blocks in got for b in blocks)
    assert len(calls) == sum(len(blocks) for blocks in got)


def test_verify_backward_rejects_equation_violation():
    data, zs, dd, sys = _anchor("s4")
    _, ws0 = sys.split(sys.anchor)
    bad = [w + np.eye(2) for w in ws0]
    with pytest.raises(ValueError):
        verify_backward([np.eye(3)], [bad], zs, dd, TOL)


def test_verify_forward_refuses_paths_of_unequal_length():
    data, zs, dd, sys = _anchor("s4")
    with pytest.raises(ValueError):
        verify_forward([data["x"]] * 3, [data["u"]], zs, dd, TOL)


def test_verify_backward_refuses_paths_of_unequal_length():
    data, zs, dd, sys = _anchor("s4")
    _, ws0 = sys.split(sys.anchor)
    with pytest.raises(ValueError):
        verify_backward([data["x"]] * 2, [ws0], zs, dd, TOL)


def test_pack_refuses_an_extra_w_block():
    data, zs, dd, sys = _anchor("s4")
    x, ws = sys.split(sys.anchor)
    with pytest.raises(ValueError):
        sys.pack(x, ws + [np.eye(2)])


def test_reconstruct_refuses_an_extra_w_block():
    data, zs, dd, sys = _anchor("s4")
    _, ws = sys.split(sys.anchor)
    with pytest.raises(ValueError):
        reconstruct_U(sys, ws + [np.eye(2)])


def test_check_p23101_constructed_pairs():
    # the appendix lemma: an anticommuting pair with positive definite sum
    # is a PSD pair with product 0
    pairs = [(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
             (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones((2, 2)))]
    for x, u in pairs:
        assert np.linalg.norm(u @ x + x @ u) <= TOL.slack
        assert psd_status(x + u, TOL)[0] == PSD_INTERIOR
        assert psd_status(x, TOL)[0] != NOT_PSD
        assert psd_status(u, TOL)[0] != NOT_PSD
        assert np.linalg.norm(u @ x) <= 1e-9


def test_ppa1_statement_a():
    # X, W PSD with WX=0 and Y symmetric with XY+YX=0 (common eigenbasis):
    # Z = YW + WY satisfies XZ = 0
    rng = np.random.default_rng(20240824)
    for _ in range(50):
        p = int(rng.integers(2, 7))
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        mask = rng.random(p) < 0.5
        if mask.all():
            mask[0] = False
        xvals = np.where(mask, rng.uniform(0.5, 2.0, p), 0.0)
        wvals = np.where(~mask, rng.uniform(0.5, 2.0, p), 0.0)
        x = q @ np.diag(xvals) @ q.T
        w = q @ np.diag(wvals) @ q.T
        ybar = rng.standard_normal((p, p))
        ybar = 0.5 * (ybar + ybar.T)
        # XY + YX = 0 forces Y to live on the kernel eigenblock of X
        ybar[np.ix_(mask, ~mask)] = 0.0
        ybar[np.ix_(mask, mask)] = 0.0
        ybar[np.ix_(~mask, mask)] = 0.0
        y = q @ ybar @ q.T
        assert np.linalg.norm(x @ y + y @ x) <= 1e-9
        z = y @ w + w @ y
        assert np.linalg.norm(x @ z) <= 1e-9


def test_trace_identity_reconstruct():
    data, zs, dd, sys = _anchor("s4")
    x, ws = sys.split(sys.anchor)
    lhs = float(np.tensordot(x, reconstruct_U(sys, ws)))
    rhs = sum(float(np.tensordot(x[np.ix_(ps, ps)], w))
              for ps, w in zip([np.array(p) for p in sys.supports], ws))
    assert np.isclose(lhs, rhs, atol=1e-12)
