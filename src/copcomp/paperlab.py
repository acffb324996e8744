"""Worked examples and counterexamples as executable scenarios.

Each scenario packages an anchor pair (and, where relevant, a parametric
path) together with its expected analysis outcomes; ``run_scenario``
evaluates every expectation and reports pass/fail records.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cones import cp_membership, doubly_nonnegative, is_copositive
from .complement import (
    FAIL,
    PASS,
    check_assumptions,
    decompose_dual,
)
from .defeq import build_system, rank_certificate, residual, verify_forward
from .symcore import Tolerances, psd_status, symmetrize
from .zerostruct import compute_zero_structure

THETA_STAR = (np.pi / 5,) * 5
EPS_GRID = (0.2, 0.1, 0.05, 0.01)
EPS_PATH = (0.2, 0.1, 0.05)


@dataclass
class Scenario:
    name: str
    description: str
    build: callable
    expectations: callable  # (tol) -> list of check records

    def to_json(self) -> dict:
        return {"name": self.name, "description": self.description}


def _check(name: str, passed, detail: str = "") -> dict:
    return {"expectation": name, "passed": bool(passed), "detail": detail}


def _statuses(rep, **expected) -> list[dict]:
    """One check per verdict in keyword order: ``j=FAIL`` checks
    "assumption j FAIL", ``cond_ii=PASS`` checks "condition ii PASS"."""
    out = []
    for name, want in expected.items():
        label = (f"condition {name.removeprefix('cond_')}"
                 if name.startswith("cond_") else f"assumption {name}")
        got = getattr(rep, name).status
        out.append(_check(f"{label} {want}", got == want, got))
    return out


def _match_vertex_sets(found, expected, atol: float) -> bool:
    """Greedy one-to-one matching of two vertex lists in the max norm."""
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for v in found:
        hit = next((k for k, e in enumerate(remaining)
                    if np.linalg.norm(v - e, ord=np.inf) <= atol), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def _pipeline(x, u, tol):
    zs = compute_zero_structure(x, tol)
    dd = decompose_dual(u, zs, tol)
    report = check_assumptions(x, u, zs, dd, tol)
    sys = build_system(zs, dd)
    cert = rank_certificate(sys, sys.anchor, tol)
    return zs, dd, report, sys, cert


def _support_sets(zs) -> set:
    return {tuple(k + 1 for k in ps) for ps in zs.supports}


def _contact_sets(zs) -> set:
    return {tuple(k + 1 for k in m) for m in zs.contact_sets}


# ---------------------------------------------------------------------------
# worked example, p = 3, two blocks


def build_s4() -> dict:
    a = np.array([1.0, -1.0, 1.0])
    b = np.array([1.0, 1.0, 0.0])
    c = np.array([0.0, 1.0, 1.0])
    x = np.array([[1.0, -1.0, 2.0],
                  [-1.0, 1.0, -1.0],
                  [2.0, -1.0, 1.0]])
    u = np.outer(b, b) + np.outer(c, c)
    return {"a": a, "b": b, "c": c, "x": x, "u": u}


def _s4_expectations(tol: Tolerances) -> list[dict]:
    data = build_s4()
    x, u, b, c = data["x"], data["u"], data["b"], data["c"]
    zs, dd, rep, sys, cert = _pipeline(x, u, tol)
    out = [
        _check("vertices {(1/2,1/2,0),(0,1/2,1/2)}",
               _match_vertex_sets(zs.vertices,
                                  [np.array([0.5, 0.5, 0.0]),
                                   np.array([0.0, 0.5, 0.5])], 1e-9),
               f"found {[np.round(v, 6).tolist() for v in zs.vertices]}"),
        _check("contact sets {1,2} and {2,3}",
               _contact_sets(zs) == {(1, 2), (2, 3)},
               f"found {sorted(_contact_sets(zs))}"),
        _check("two blocks with supports {1,2} and {2,3}",
               len(zs.blocks) == 2 and _support_sets(zs) == {(1, 2), (2, 3)},
               f"supports {sorted(_support_sets(zs))}"),
    ]
    by_support = {tuple(k + 1 for k in ps): comp
                  for ps, comp in zip(zs.supports, dd.components)}
    comp_ok = (
        (1, 2) in by_support and (2, 3) in by_support
        and np.linalg.norm(by_support[(1, 2)] - np.outer(b, b)) <= 1e-10
        and np.linalg.norm(by_support[(2, 3)] - np.outer(c, c)) <= 1e-10
    )
    out.append(_check("components bb' and cc' (Frobenius <= 1e-10)", comp_ok))
    for name in ("j", "jj", "jjj", "cond_i", "cond_ii", "cond_iii"):
        out.append(_check(f"assumption {name} PASS",
                          getattr(rep, name).status == PASS,
                          getattr(rep, name).status))
    out.append(_check("system size m == 6", sys.m == 6, f"m={sys.m}"))
    out.append(_check("anchor residual <= zero_tol",
                      float(np.linalg.norm(residual(sys, sys.anchor), np.inf))
                      <= tol.zero_tol))
    out.append(_check("Jacobian rank 6 with sigma ratio > 1e-9",
                      cert.full_rank and cert.sigma_ratio > 1e-9,
                      f"rank={cert.rank_computed}, ratio={cert.sigma_ratio:.3e}"))
    return out


# ---------------------------------------------------------------------------
# extremal order-5 family H(theta)


def extremal5_matrix(theta) -> np.ndarray:
    """The order-5 extremal copositive matrix H(theta)."""
    t1, t2, t3, t4, t5 = _check_theta_entries(theta)
    c = np.cos
    h = np.array([
        [1.0, -c(t4), c(t4 + t5), c(t2 + t3), -c(t3)],
        [-c(t4), 1.0, -c(t5), c(t1 + t5), c(t4 + t3)],
        [c(t4 + t5), -c(t5), 1.0, -c(t1), c(t1 + t2)],
        [c(t3 + t2), c(t1 + t5), -c(t1), 1.0, -c(t2)],
        [-c(t3), c(t3 + t4), c(t1 + t2), -c(t2), 1.0],
    ])
    return symmetrize(h)


def extremal5_vectors(theta):
    """The rank-two factors a(theta), b(theta) with H = aa' + bb' when
    the angles sum to pi."""
    t1, t2, t4, t5 = (theta[0], theta[1], theta[3], theta[4])
    a = np.array([np.cos(t4 + t5), -np.cos(t5), 1.0,
                  -np.cos(t1), np.cos(t1 + t2)])
    b = np.array([np.sin(t4 + t5), -np.sin(t5), 0.0,
                  np.sin(t1), -np.sin(t1 + t2)])
    return a, b


def extremal5_zeros(theta) -> list[np.ndarray]:
    """The five (unnormalized) zeros tau(j, theta) of H(theta)."""
    t1, t2, t3, t4, t5 = _check_theta_entries(theta)
    s = np.sin
    return [
        np.array([s(t5), s(t4 + t5), s(t4), 0.0, 0.0]),
        np.array([0.0, s(t1), s(t1 + t5), s(t5), 0.0]),
        np.array([0.0, 0.0, s(t2), s(t1 + t2), s(t1)]),
        np.array([s(t2), 0.0, 0.0, s(t3), s(t3 + t2)]),
        np.array([s(t4 + t3), s(t3), 0.0, 0.0, s(t4)]),
    ]


def extremal5_dual(theta) -> np.ndarray:
    """U(theta) = sum_j tau(j, theta) tau(j, theta)'."""
    u = np.zeros((5, 5))
    for t in extremal5_zeros(theta):
        u += np.outer(t, t)
    return u


def _check_theta_entries(theta):
    theta = tuple(float(v) for v in theta)
    if len(theta) != 5:
        raise ValueError(f"theta must have 5 entries, got {len(theta)}")
    if any(not (0.0 < v < np.pi) for v in theta):
        raise ValueError("theta entries must lie in (0, pi)")
    return theta


def check_theta_anchor(theta):
    """Validate an anchor parameter: positive entries summing to pi."""
    theta = _check_theta_entries(theta)
    if abs(sum(theta) - np.pi) > 1e-12:
        raise ValueError(f"theta entries must sum to pi, got {sum(theta):.12f}")
    return theta


def build_extremal5(theta=THETA_STAR) -> dict:
    theta = check_theta_anchor(theta)
    a, b = extremal5_vectors(theta)
    return {
        "theta": theta,
        "x": extremal5_matrix(theta),
        "u": extremal5_dual(theta),
        "a": a,
        "b": b,
        "taus": extremal5_zeros(theta),
    }


def extremal5_path(theta, eps):
    """The perturbed pair at theta(eps) = (theta_1 - eps, theta_2, ...)."""
    theta_eps = (theta[0] - eps,) + tuple(theta[1:])
    return extremal5_matrix(theta_eps), extremal5_dual(theta_eps)


def _extremal5_path_checks(data, tol: Tolerances) -> list[dict]:
    out = []
    for eps in EPS_PATH:
        x_eps, u_eps = extremal5_path(data["theta"], eps)
        comp = abs(float(np.tensordot(x_eps, u_eps)))
        anti = float(np.linalg.norm(x_eps @ u_eps + u_eps @ x_eps))
        lam_min = psd_status(x_eps, tol)[1]
        out.append(_check(
            f"eps={eps}: complementary, anticommutator fails, X not PSD",
            comp <= 1e-10 and anti > 1e-3 and lam_min < -1e-6,
            f"X.U={comp:.2e}, |XU+UX|={anti:.2e}, lam_min={lam_min:.2e}"))
    return out


def _extremal5_expectations(tol: Tolerances, theta=THETA_STAR) -> list[dict]:
    data = build_extremal5(theta)
    x, u, a, b = data["x"], data["u"], data["a"], data["b"]
    zs, dd, rep, sys, cert = _pipeline(x, u, tol)
    taus_norm = [t / np.sum(t) for t in data["taus"]]
    return [
        _check("H == aa' + bb' (residual <= 1e-10)",
               np.linalg.norm(x - np.outer(a, a) - np.outer(b, b)) <= 1e-10),
        _check("complementarity H . U <= 1e-10",
               abs(float(np.tensordot(x, u))) <= 1e-10),
        _check("five vertices match normalized tau(j) to 1e-8",
               _match_vertex_sets(zs.vertices, taus_norm, 1e-8),
               f"found {len(zs.vertices)} vertices"),
        _check("single block with support {1,...,5}",
               len(zs.blocks) == 1 and _support_sets(zs) == {(1, 2, 3, 4, 5)}),
        *_statuses(rep, j=FAIL, jj=PASS, jjj=PASS),
    ] + _extremal5_path_checks(data, tol)


def _pp3z_j_expectations(tol: Tolerances) -> list[dict]:
    """The forward theorem loses its conclusion when only strict
    complementarity fails: same family, path-focused expectations."""
    data = build_extremal5()
    zs = compute_zero_structure(data["x"], tol)
    dd = decompose_dual(data["u"], zs, tol)
    rep = check_assumptions(data["x"], data["u"], zs, dd, tol)
    out = [_check("anchor assumption j FAIL", rep.j.status == FAIL, rep.j.status)]
    out.extend(_extremal5_path_checks(data, tol))
    path = [extremal5_path(data["theta"], eps) for eps in EPS_PATH]
    reports = verify_forward([p[0] for p in path], [p[1] for p in path],
                             zs, dd, tol)
    out.append(_check(
        "forward verification reports equation failure along the path",
        all(not (r["anticommutator_ok"] and r["reconstruction_ok"])
            for r in reports)))
    return out


# ---------------------------------------------------------------------------
# forward counterexample: contact sets exceed the block support (p = 3)


def build_pp3z_jjj() -> dict:
    a = np.array([1.0, -1.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    t = np.array([1.0, 1.0, 0.0])
    return {
        "x": np.outer(a, a) + np.outer(b, b),
        "u": np.outer(t, t),
        "tau": t,
    }


def pp3z_jjj_path(eps):
    a = np.array([1.0, -1.0, eps])
    b = np.array([0.0, -eps, 1.0])
    t = np.array([1.0 - eps ** 2, 1.0, eps])
    return np.outer(a, a) + np.outer(b, b), np.outer(t, t)


def _pp3z_jjj_expectations(tol: Tolerances) -> list[dict]:
    data = build_pp3z_jjj()
    zs, dd, rep, sys, cert = _pipeline(data["x"], data["u"], tol)
    out = [
        _check("single vertex (1/2,1/2,0)",
               _match_vertex_sets(zs.vertices, [np.array([0.5, 0.5, 0.0])], 1e-9)),
        _check("support {1,2}, contact set {1,2,3}",
               _support_sets(zs) == {(1, 2)} and _contact_sets(zs) == {(1, 2, 3)},
               f"supports {sorted(_support_sets(zs))}, "
               f"contacts {sorted(_contact_sets(zs))}"),
        *_statuses(rep, j=PASS, jj=PASS, jjj=FAIL),
    ]
    for eps in EPS_GRID:
        x_eps, u_eps = pp3z_jjj_path(eps)
        comp = abs(float(np.tensordot(x_eps, u_eps)))
        x1 = x_eps[np.ix_([0, 1], [0, 1])]
        w1 = u_eps[np.ix_([0, 1], [0, 1])]
        anti = float(np.linalg.norm(x1 @ w1 + w1 @ x1))
        u_row3 = np.min(np.abs(u_eps[2, :]))
        out.append(_check(
            f"eps={eps}: complementary, block equation fails, third row of U nonzero",
            comp <= 1e-10 and anti > eps ** 2 / 2 and u_row3 > 1e-9,
            f"X.U={comp:.2e}, |X(1)W+WX(1)|={anti:.2e}, min|U_3q|={u_row3:.2e}"))
    return out


# ---------------------------------------------------------------------------
# backward counterexample: strict complementarity fails (p = 4)


def _backward_path_checks(path, block, tol: Tolerances) -> list[dict]:
    """Along a backward counterexample path (eps -> (X(eps), W(eps))) the
    block equation on ``block`` holds while X(eps) is not copositive."""
    out = []
    for eps in EPS_GRID:
        x_eps, w_eps = path(eps)
        x1 = x_eps[np.ix_(block, block)]
        anti = float(np.linalg.norm(x1 @ w_eps + w_eps @ x1))
        verdict = is_copositive(x_eps, tol)
        out.append(_check(
            f"eps={eps}: block equation holds, X(eps) not copositive",
            anti <= tol.zero_tol and not verdict.member
            and verdict.witness is not None,
            f"|X(1)W+WX(1)|={anti:.2e}, min={verdict.min_value:.2e}"))
    return out


def build_pp4z_j() -> dict:
    x = np.zeros((4, 4))
    x[0, :] = 1.0
    x[:, 0] = 1.0
    t = np.array([0.0, 1.0, 1.0, 1.0])
    return {"x": x, "u": np.outer(t, t)}


def pp4z_j_path(eps):
    x = np.array([[1.0, 1.0, 1.0, 1.0],
                  [1.0, 0.0, -eps, eps],
                  [1.0, -eps, 0.0, eps],
                  [1.0, eps, eps, -2.0 * eps]])
    w = np.ones((3, 3))
    return x, w


def _pp4z_j_expectations(tol: Tolerances) -> list[dict]:
    data = build_pp4z_j()
    zs, dd, rep, sys, cert = _pipeline(data["x"], data["u"], tol)
    e = np.eye(4)
    return [
        _check("vertices e2, e3, e4",
               _match_vertex_sets(zs.vertices, [e[1], e[2], e[3]], 1e-9)),
        _check("single block with support {2,3,4}",
               len(zs.blocks) == 1 and _support_sets(zs) == {(2, 3, 4)}),
        *_statuses(rep, j=FAIL, jj=PASS, jjj=PASS, cond_i=PASS, cond_ii=PASS),
    ] + _backward_path_checks(pp4z_j_path, [1, 2, 3], tol)


# ---------------------------------------------------------------------------
# backward counterexample: contact sets exceed the block support (p = 3)


def build_pp4z_jjj() -> dict:
    x = np.diag([1.0, 0.0, 0.0])
    e = np.eye(3)
    u = (np.outer(e[1], e[1]) + np.outer(e[2], e[2])
         + np.outer(e[1] + e[2], e[1] + e[2]))
    return {"x": x, "u": u}


def pp4z_jjj_path(eps):
    x = np.array([[1.0, -eps, 0.0],
                  [-eps, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])
    w = np.array([[2.0, 1.0], [1.0, 2.0]])
    return x, w


def _pp4z_jjj_expectations(tol: Tolerances) -> list[dict]:
    data = build_pp4z_jjj()
    zs, dd, rep, sys, cert = _pipeline(data["x"], data["u"], tol)
    e = np.eye(3)
    return [
        _check("vertices e2, e3",
               _match_vertex_sets(zs.vertices, [e[1], e[2]], 1e-9)),
        _check("support {2,3}, contact sets {1,2,3}",
               _support_sets(zs) == {(2, 3)} and _contact_sets(zs) == {(1, 2, 3)}),
        _check("restricted block W(1) == [[2,1],[1,2]]",
               np.linalg.norm(dd.restricted[0]
                              - np.array([[2.0, 1.0], [1.0, 2.0]])) <= 1e-10),
        *_statuses(rep, j=PASS, jj=PASS, jjj=FAIL),
    ] + _backward_path_checks(pp4z_jjj_path, [1, 2], tol)


# ---------------------------------------------------------------------------
# backward counterexample: no strictly positive factorization (p = 3)


def build_pp4z_cond_ii() -> dict:
    x = np.array([[1.0, 1.0, 1.0],
                  [1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0]])
    u = np.diag([0.0, 1.0, 1.0])
    return {"x": x, "u": u}


def pp4z_cond_ii_path(eps):
    x = build_pp4z_cond_ii()["x"]
    w = np.array([[1.0, -eps], [-eps, 1.0]])
    return x, w


def _pp4z_cond_ii_expectations(tol: Tolerances) -> list[dict]:
    data = build_pp4z_cond_ii()
    zs, dd, rep, sys, cert = _pipeline(data["x"], data["u"], tol)
    e = np.eye(3)
    out = [
        _check("vertices e2, e3",
               _match_vertex_sets(zs.vertices, [e[1], e[2]], 1e-9)),
        _check("support {2,3}, contact sets {2,3}",
               _support_sets(zs) == {(2, 3)} and _contact_sets(zs) == {(2, 3)}),
        _check("restricted block W(1) == identity",
               np.linalg.norm(dd.restricted[0] - np.eye(2)) <= 1e-10),
        *_statuses(rep, jj=PASS, jjj=PASS, cond_i=PASS, cond_ii=FAIL,
                   cond_iii=PASS),
    ]
    gens = zs.block_vectors(0)
    for eps in EPS_GRID:
        _, w_eps = pp4z_cond_ii_path(eps)
        cert_w = cp_membership(w_eps, gens, tol)
        dnn = doubly_nonnegative(w_eps, tol)
        out.append(_check(
            f"eps={eps}: W(1,eps) not completely positive",
            not cert_w.member and not dnn,
            f"nnls residual={cert_w.residual:.2e}, dnn={dnn}"))
    return out


# ---------------------------------------------------------------------------
# registry


SCENARIOS = {
    "s4": Scenario(
        "s4",
        "worked example: p=3, two blocks, all assumptions hold, full rank",
        build_s4, _s4_expectations),
    "hildebrand": Scenario(
        "hildebrand",
        "order-5 extremal family H(theta): strict complementarity fails",
        build_extremal5, _extremal5_expectations),
    "pp3z-j": Scenario(
        "pp3z-j",
        "forward theorem counterexample: only strict complementarity fails",
        build_extremal5, _pp3z_j_expectations),
    "pp3z-jjj": Scenario(
        "pp3z-jjj",
        "forward theorem counterexample: contact set exceeds block support",
        build_pp3z_jjj, _pp3z_jjj_expectations),
    "pp4z-j": Scenario(
        "pp4z-j",
        "backward theorem counterexample: strict complementarity fails",
        build_pp4z_j, _pp4z_j_expectations),
    "pp4z-jjj": Scenario(
        "pp4z-jjj",
        "backward theorem counterexample: contact set exceeds block support",
        build_pp4z_jjj, _pp4z_jjj_expectations),
    "pp4z-cond-ii": Scenario(
        "pp4z-cond-ii",
        "backward theorem counterexample: no strictly positive factorization",
        build_pp4z_cond_ii, _pp4z_cond_ii_expectations),
}


def example_s4() -> Scenario:
    return SCENARIOS["s4"]


def hildebrand(theta=THETA_STAR) -> Scenario:
    """The order-5 extremal-family scenario; validates the anchor angles."""
    check_theta_anchor(theta)
    if tuple(theta) != THETA_STAR:
        return Scenario(
            "hildebrand",
            SCENARIOS["hildebrand"].description,
            functools.partial(build_extremal5, theta),
            functools.partial(_extremal5_expectations, theta=theta))
    return SCENARIOS["hildebrand"]


def violation_scenarios() -> list[Scenario]:
    return [SCENARIOS[n] for n in
            ("pp3z-j", "pp3z-jjj", "pp4z-j", "pp4z-jjj", "pp4z-cond-ii")]


def scenario_names() -> list[str]:
    return list(SCENARIOS)


def run_scenario(name: str, tol: Tolerances = Tolerances()) -> list[dict]:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
    return SCENARIOS[name].expectations(tol)
