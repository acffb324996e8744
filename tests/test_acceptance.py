"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPTANCE CRITERION n ...: PASS/FAIL`` line directly to the terminal.
"""

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog

from copcomp.complement import (FAIL, PASS, check_assumptions, cp_membership,
                                decompose_dual, embed)
from copcomp.cones import doubly_nonnegative, is_copositive
from copcomp.defeq import (
    NO_CONVERGENCE,
    build_system,
    jacobian,
    rank_certificate,
    reconstruct_U,
    residual,
    solve_local,
    verify_backward,
)
from copcomp.paperlab import (
    EPS_PATH,
    THETA_STAR,
    build_extremal5,
    build_pp3z_jjj,
    build_pp4z_cond_ii,
    build_pp4z_j,
    build_pp4z_jjj,
    build_s4,
    extremal5_path,
    run_scenario,
)
from copcomp.symcore import (NOT_PSD, PSD_INTERIOR, Tolerances, psd_status, svec,
                             sym_kron)
from copcomp.zerostruct import compute_zero_structure
from oracles import simplex_min_oracle

TOL = Tolerances()


@pytest.fixture
def announce(capfd):
    def _announce(number, label, passed):
        with capfd.disabled():
            verdict = "PASS" if passed else "FAIL"
            print(f"\nACCEPTANCE CRITERION {number} ({label}): {verdict}")
    return _announce


def _run(announce, number, label, body):
    try:
        body()
    except BaseException:
        announce(number, label, False)
        raise
    announce(number, label, True)


# ---------------------------------------------------------------------------
# criterion 1: worked example reproduction


def test_criterion_1_worked_example(announce):
    def body():
        data = build_s4()
        zs = compute_zero_structure(data["x"], TOL)
        found = sorted(tuple(np.round(v, 12)) for v in zs.vertices)
        assert np.allclose(found, [(0.0, 0.5, 0.5), (0.5, 0.5, 0.0)],
                           atol=1e-9)
        assert sorted(zs.contact_sets) == [(0, 1), (1, 2)]
        assert len(zs.blocks) == 2
        assert sorted(zs.supports) == [(0, 1), (1, 2)]
        dd = decompose_dual(data["u"], zs, TOL)
        by_support = {ps: embed(w, ps, 3) for ps, w in zip(zs.supports, dd.restricted)}
        assert np.linalg.norm(by_support[(0, 1)]
                              - np.outer(data["b"], data["b"])) <= 1e-10
        assert np.linalg.norm(by_support[(1, 2)]
                              - np.outer(data["c"], data["c"])) <= 1e-10
        rep = check_assumptions(zs, dd, TOL)
        assert rep.j.status == rep.jj.status == rep.jjj.status == PASS
        sys = build_system(zs, dd)
        assert sys.m == 6
        cert = rank_certificate(sys, sys.anchor, TOL)
        assert cert.rank_computed == 6 and cert.sigma_ratio > 1e-9
        assert all(r["passed"] for r in run_scenario("s4", TOL))

    _run(announce, 1, "worked example, p=3, two blocks", body)


# ---------------------------------------------------------------------------
# criterion 2: order-5 Hildebrand family at the anchor angles


def test_criterion_2_extremal_family(announce):
    def body():
        data = build_extremal5(THETA_STAR)
        x, u, a, b = data["x"], data["u"], data["a"], data["b"]
        assert np.linalg.norm(x - np.outer(a, a) - np.outer(b, b)) <= 1e-10
        assert abs(float(np.tensordot(x, u))) <= 1e-10
        zs = compute_zero_structure(x, TOL)
        taus = [t / t.sum() for t in data["taus"]]
        assert len(zs.vertices) == 5
        for t in taus:
            assert min(np.linalg.norm(t - v, np.inf)
                       for v in zs.vertices) <= 1e-8
        assert len(zs.blocks) == 1
        dd = decompose_dual(u, zs, TOL)
        rep = check_assumptions(zs, dd, TOL)
        assert rep.j.status == FAIL
        assert rep.jj.status == PASS and rep.jjj.status == PASS
        for eps in EPS_PATH:
            x_eps, u_eps = extremal5_path(THETA_STAR, eps)
            assert abs(float(np.tensordot(x_eps, u_eps))) <= 1e-10
            assert np.linalg.norm(x_eps @ u_eps + u_eps @ x_eps) > 1e-3
            assert np.linalg.eigvalsh(x_eps)[0] < -1e-6
        assert all(r["passed"] for r in run_scenario("hildebrand", TOL))

    _run(announce, 2, "order-5 Hildebrand family at the anchor (PSD, rank 2)", body)


# ---------------------------------------------------------------------------
# criterion 3: violation scenarios 2-5


def test_criterion_3_violation_scenarios(announce):
    def body():
        for name in ("pp3z-j", "pp3z-jjj", "pp4z-j", "pp4z-jjj",
                     "pp4z-cond-ii"):
            records = run_scenario(name, TOL)
            bad = [r for r in records if not r["passed"]]
            assert not bad, (name, bad)
        # the three headline failures at eps = 0.1, checked directly
        data = build_pp3z_jjj()
        zs = compute_zero_structure(data["x"], TOL)
        dd = decompose_dual(data["u"], zs, TOL)
        rep = check_assumptions(zs, dd, TOL)
        assert rep.jjj.status == FAIL
        assert zs.contact_sets[0] != zs.supports[0]
        from copcomp.paperlab import pp4z_j_path, pp4z_jjj_path, \
            pp4z_cond_ii_path
        for path in (pp4z_j_path, pp4z_jjj_path):
            x_eps, _ = path(0.1)
            verdict = is_copositive(x_eps, TOL)
            assert not verdict.member and verdict.witness is not None
        data = build_pp4z_cond_ii()
        zs = compute_zero_structure(data["x"], TOL)
        idx = np.asarray(zs.supports[0])
        gens = [zs.vertices[j][idx] for j in zs.blocks[0]]
        _, w_eps = pp4z_cond_ii_path(0.1)
        assert not cp_membership(w_eps, gens, TOL).member
        assert not doubly_nonnegative(w_eps, TOL)

    _run(announce, 3, "violation scenarios 2-5", body)


# ---------------------------------------------------------------------------
# criterion 4: property suite


def _anchor_system(builder):
    data = builder()
    zs = compute_zero_structure(data["x"], TOL)
    dd = decompose_dual(data["u"], zs, TOL)
    return build_system(zs, dd)


def _fd_jacobian(sys, z, h=1e-6):
    m = residual(sys, z).size
    out = np.zeros((m, z.size))
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        out[:, k] = (residual(sys, zp) - residual(sys, zm)) / (2.0 * h)
    return out


def _structured_instance(rng):
    p = int(rng.integers(2, 6))
    size = int(rng.integers(2, p + 1))
    support = rng.choice(p, size=size, replace=False)
    t_star = np.zeros(p)
    t_star[support] = rng.uniform(0.2, 1.0, size)
    t_star /= t_star.sum()
    a = rng.standard_normal(p)
    a -= (a @ t_star) / (t_star @ t_star) * t_star
    n = rng.uniform(0.2, 1.0, (p, p))
    n = 0.5 * (n + n.T)
    n[np.ix_(support, support)] = 0.0
    return np.outer(a, a) + n, t_star


def _hull_distance(t, vertices):
    p = len(t)
    n = len(vertices)
    v = np.column_stack(vertices)
    a_ub = np.block([[v, -np.ones((p, 1))], [-v, -np.ones((p, 1))]])
    b_ub = np.concatenate([t, -t])
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    res = linprog(np.concatenate([np.zeros(n), [1.0]]),
                  A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * n + [(0.0, None)], method="highs")
    assert res.success
    return res.fun


def test_criterion_4_property_suite(announce):
    def body():
        # (a) anticommutator identity of the symmetric Kronecker product
        rng = np.random.default_rng(20240901)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            x = rng.standard_normal((p, p))
            x = 0.5 * (x + x.T)
            u = rng.standard_normal((p, p))
            u = 0.5 * (u + u.T)
            err = np.linalg.norm(
                sym_kron(x, np.eye(p)) @ svec(u) - 0.5 * svec(x @ u + u @ x),
                np.inf)
            assert err <= 1e-10

        # (b) Jacobian vs central finite differences, 20 points per anchor
        for builder in (build_s4, build_extremal5, build_pp3z_jjj,
                        build_pp4z_j, build_pp4z_jjj, build_pp4z_cond_ii):
            sys = _anchor_system(builder)
            for _ in range(20):
                z = sys.anchor + 0.1 * rng.standard_normal(sys.size)
                jac = jacobian(sys, z)
                fd = _fd_jacobian(sys, z)
                scale = max(1.0, np.abs(jac).max())
                assert np.abs(jac - fd).max() / scale <= 1e-6

        # (c) zero-vertex oracle agreement on structured matrices
        rng_c = np.random.default_rng(20240902)
        for _ in range(50):
            x, _ = _structured_instance(rng_c)
            vertices = is_copositive(x, TOL).zeros
            assert vertices
            _, arg = simplex_min_oracle(x, grid_depth=12)
            assert _hull_distance(arg, vertices) <= 1e-4

        # (d) executable appendix checks on constructed instances
        rng_d = np.random.default_rng(20240903)
        for _ in range(50):
            p = int(rng_d.integers(2, 7))
            q, _ = np.linalg.qr(rng_d.standard_normal((p, p)))
            mask = rng_d.random(p) < 0.5
            xvals = np.where(mask, rng_d.uniform(0.5, 2.0, p), 0.0)
            uvals = np.where(~mask, rng_d.uniform(0.5, 2.0, p), 0.0)
            x = q @ np.diag(xvals) @ q.T
            u = q @ np.diag(uvals) @ q.T
            # an anticommuting pair with positive definite sum (the lemma's
            # hypotheses) is a PSD pair with product 0
            assert np.linalg.norm(u @ x + x @ u) <= TOL.slack
            assert psd_status(x + u, TOL)[0] == PSD_INTERIOR
            assert psd_status(x, TOL)[0] != NOT_PSD
            assert psd_status(u, TOL)[0] != NOT_PSD
            assert np.linalg.norm(u @ x) <= 1e-9
        for _ in range(50):
            p = int(rng_d.integers(2, 7))
            q, _ = np.linalg.qr(rng_d.standard_normal((p, p)))
            mask = rng_d.random(p) < 0.5
            if mask.all():
                mask[0] = False
            xvals = np.where(mask, rng_d.uniform(0.5, 2.0, p), 0.0)
            wvals = np.where(~mask, rng_d.uniform(0.5, 2.0, p), 0.0)
            x = q @ np.diag(xvals) @ q.T
            w = q @ np.diag(wvals) @ q.T
            ybar = rng_d.standard_normal((p, p))
            ybar = 0.5 * (ybar + ybar.T)
            ybar[np.ix_(mask, ~mask)] = 0.0
            ybar[np.ix_(mask, mask)] = 0.0
            ybar[np.ix_(~mask, mask)] = 0.0
            y = q @ ybar @ q.T
            assert np.linalg.norm(x @ y + y @ x) <= 1e-9
            z = y @ w + w @ y
            assert np.linalg.norm(x @ z) <= 1e-9

        # (e) kernel-span agreement for PSD with a positive kernel member
        rng_e = np.random.default_rng(20240904)
        for _ in range(20):
            p = int(rng_e.integers(2, 6))
            k = int(rng_e.integers(1, p))
            cols = [rng_e.uniform(0.2, 1.0, p)]
            cols += [rng_e.standard_normal(p) for _ in range(k - 1)]
            q, _ = np.linalg.qr(np.column_stack(cols))
            x = np.eye(p) - q @ q.T
            vertices = is_copositive(x, TOL).zeros
            assert vertices
            vt = np.column_stack(vertices)
            uu, ss, _ = np.linalg.svd(vt, full_matrices=False)
            vq = uu[:, ss > 1e-10 * ss[0]]
            kq = null_space(x, rcond=TOL.psd_tol)
            assert np.linalg.norm(kq - vq @ (vq.T @ kq)) <= 1e-8
            assert np.linalg.norm(vq - kq @ (kq.T @ vq)) <= 1e-8

    _run(announce, 4, "property suite a-e", body)


# ---------------------------------------------------------------------------
# criterion 5: local round trip at the worked-example anchor


def _perturbed_anchor(rng, x0):
    """A feasible perturbation of the anchor: re-factor X = a(d)a(d)' + N(d)
    so each restricted block stays singular PSD, scaled into radius 1e-3."""
    d = rng.uniform(-1.0, 1.0, 3)
    scale = 2.5e-4
    for _ in range(10):
        a = np.array([1.0 + scale * d[0], -1.0, 1.0 + scale * d[1]])
        n = np.zeros((3, 3))
        n[0, 2] = n[2, 0] = 1.0 + scale * abs(d[2])
        x = np.outer(a, a) + n
        if np.linalg.norm(x - x0) <= 1e-3:
            return x
        scale *= 0.5
    raise AssertionError("could not scale the perturbation into radius 1e-3")


def test_criterion_5_round_trip(announce):
    def body():
        data = build_s4()
        zs = compute_zero_structure(data["x"], TOL)
        dd = decompose_dual(data["u"], zs, TOL)
        sys = build_system(zs, dd)
        rng = np.random.default_rng(20240905)
        for _ in range(20):
            x_pert = _perturbed_anchor(rng, data["x"])
            ws = solve_local(sys, x_pert, TOL)
            assert not (isinstance(ws, tuple) and ws[0] == NO_CONVERGENCE)
            z = sys.pack(x_pert, ws)
            assert np.linalg.norm(residual(sys, z), np.inf) <= 1e-9
            reports = verify_backward([x_pert], [ws], zs, dd, TOL)
            rec = reports[0]
            assert rec["copositive"]
            assert rec["complementarity"] <= 1e-9
            # the reconstructed pair is genuinely complementary
            u_pert = reconstruct_U(sys, ws)
            assert abs(float(np.tensordot(x_pert, u_pert))) <= 1e-9

    _run(announce, 5, "local round trip at the worked-example anchor", body)
