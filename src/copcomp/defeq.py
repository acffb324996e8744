"""The system of defining equations for the complementarity set.

Variable layout z = (svec(X), svec(W(s)), s in S), the bi-linear residual
of the per-block anticommutator equations, the linear reconstruction of U
from the W(s), the Jacobian in closed form with full-row-rank
certification, a local W-solver for perturbed X, and the forward/backward
path verifiers plus executable appendix checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import cp_membership, doubly_nonnegative, is_copositive
from .complement import FAIL, DualDecomposition, embed, face_nnls, restrict
from .symcore import (
    PSD_INTERIOR,
    Tolerances,
    numerical_rank,
    psd_status,
    smat,
    svec,
    svec_dim,
    svec_subindex,
    sym_kron,
    symmetrize,
)
from .zerostruct import ZeroStructure, pair_index_set, pair_sums


@dataclass
class DefiningSystem:
    p: int
    supports: list  # P_*(s) as sorted tuples, ascending s
    anchor: np.ndarray  # z0

    @property
    def p_star(self) -> int:
        return svec_dim(self.p)

    @property
    def block_dims(self) -> list[int]:
        return [svec_dim(len(ps)) for ps in self.supports]

    @property
    def m(self) -> int:
        return sum(self.block_dims)

    @property
    def size(self) -> int:
        return self.p_star + self.m

    def offsets(self) -> list[int]:
        """Start offset of svec(W(s)) inside z for each block."""
        out = []
        pos = self.p_star
        for d in self.block_dims:
            out.append(pos)
            pos += d
        return out

    def split(self, z: np.ndarray):
        """(X, [W(s)]) from a layout vector."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.size,):
            raise ValueError(f"z length {z.shape} does not match layout {self.size}")
        x = smat(z[: self.p_star], self.p)
        ws = []
        for off, ps, d in zip(self.offsets(), self.supports, self.block_dims):
            ws.append(smat(z[off: off + d], len(ps)))
        return x, ws

    def pack(self, x: np.ndarray, ws: list) -> np.ndarray:
        parts = [svec(symmetrize(x))]
        for w, ps in zip(ws, self.supports):
            w = symmetrize(w)
            if w.shape[0] != len(ps):
                raise ValueError("W block order does not match its support")
            parts.append(svec(w))
        return np.concatenate(parts) if parts else np.zeros(0)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "supports": [[k + 1 for k in ps] for ps in self.supports],
            "p_star": self.p_star,
            "block_dims": self.block_dims,
            "m": self.m,
            "anchor": self.anchor.tolist(),
        }


@dataclass
class RankCertificate:
    m_expected: int
    rank_computed: int
    sigma_min_kept: float
    sigma_max_dropped: float
    sigma_ratio: float

    @property
    def full_rank(self) -> bool:
        return self.rank_computed == self.m_expected

    def to_json(self) -> dict:
        return {
            "m_expected": self.m_expected,
            "rank_computed": self.rank_computed,
            "sigma_min_kept": self.sigma_min_kept,
            "sigma_max_dropped": self.sigma_max_dropped,
            "sigma_ratio": self.sigma_ratio,
            "full_rank": self.full_rank,
        }


def build_system(zs: ZeroStructure, dd: DualDecomposition) -> DefiningSystem:
    """Layout and anchor z0 from a zero structure and dual decomposition."""
    sys = DefiningSystem(p=zs.p, supports=list(zs.supports), anchor=np.zeros(0))
    sys.anchor = sys.pack(zs.x, dd.restricted)
    return sys


def residual(sys: DefiningSystem, z: np.ndarray) -> np.ndarray:
    """Stacked svec of the per-block anticommutators A(X,s)W(s) + W(s)A(X,s)."""
    x, ws = sys.split(z)
    parts = []
    for w, ps in zip(ws, sys.supports):
        xs = restrict(x, ps)
        parts.append(svec(xs @ w + w @ xs))
    return np.concatenate(parts) if parts else np.zeros(0)


def reconstruct_U(sys: DefiningSystem, ws: list) -> np.ndarray:
    """U = sum_s B(W(s), s); overlapping support entries add."""
    u = np.zeros((sys.p, sys.p))
    for w, ps in zip(ws, sys.supports):
        u += embed(w, ps, sys.p)
    return u


def jacobian(sys: DefiningSystem, z: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of the residual at z.

    Block row s: 2 * (W(s) (x)_s E) columns scattered to the V(P_*(s))
    positions of svec(X), and 2 * (X(s) (x)_s E) on the block's own
    svec(W(s)) columns.  The factor 2 makes the matrix agree with finite
    differences of the residual.
    """
    x, ws = sys.split(z)
    jac = np.zeros((sys.m, sys.size))
    row = 0
    for w, ps, off, d in zip(ws, sys.supports, sys.offsets(), sys.block_dims):
        xs = restrict(x, ps)
        cols = svec_subindex(sys.p, ps)
        jac[row: row + d, cols] = 2.0 * sym_kron(w, np.eye(len(ps)))
        jac[row: row + d, off: off + d] = 2.0 * sym_kron(xs, np.eye(len(ps)))
        row += d
    return jac


def rank_certificate(sys: DefiningSystem, z0: np.ndarray,
                     tol: Tolerances = Tolerances()) -> RankCertificate:
    """Singular-value rank of the Jacobian at the anchor."""
    if sys.m == 0:
        return RankCertificate(0, 0, 0.0, 0.0, 1.0)
    jac = jacobian(sys, z0)
    sv = np.linalg.svd(jac, compute_uv=False)
    rank = numerical_rank(sv, tol)
    kept = float(sv[rank - 1]) if rank else 0.0
    dropped = float(sv[rank]) if rank < len(sv) else 0.0
    ratio = float(sv[min(sys.m, len(sv)) - 1] / sv[0]) if sv[0] > 0 else 0.0
    return RankCertificate(sys.m, rank, kept, dropped, ratio)


NO_CONVERGENCE = "NO_CONVERGENCE"


def solve_local(sys: DefiningSystem, x_perturbed: np.ndarray,
                tol: Tolerances = Tolerances()):
    """Damped Gauss-Newton on the W variables with X frozen.

    The residual is linear in W for fixed X, so this is a guarded linear
    least-squares iteration initialized at the anchor W(s).  Returns the
    W(s) list, or (NO_CONVERGENCE, final_residual).
    """
    x_perturbed = symmetrize(x_perturbed)
    _, ws0 = sys.split(sys.anchor)
    z = sys.pack(x_perturbed, ws0)
    p_star = sys.p_star
    for _ in range(50):
        r = residual(sys, z)
        if r.size == 0 or np.linalg.norm(r, ord=np.inf) <= tol.zero_tol:
            _, ws = sys.split(z)
            return ws
        jw = jacobian(sys, z)[:, p_star:]
        step, _, _, _ = np.linalg.lstsq(jw, r, rcond=None)
        z[p_star:] -= 0.5 * step
    r = residual(sys, z)
    if np.linalg.norm(r, ord=np.inf) <= tol.zero_tol:
        _, ws = sys.split(z)
        return ws
    return NO_CONVERGENCE, float(np.linalg.norm(r, ord=np.inf))


def verify_forward(x_path: list, u_path: list, zs: ZeroStructure,
                   dd: DualDecomposition, tol: Tolerances = Tolerances()) -> list[dict]:
    """Check the forward conclusions along a complementary path.

    Per path point: group U(eps) over the anchor block generators as
    :func:`decompose_dual` does, form W(s, eps), and test the
    anticommutator equations and the linear reconstruction.  Reports one
    record per point.
    """
    sys = build_system(zs, dd)
    reports = []
    for k, (x_eps, u_eps) in enumerate(zip(x_path, u_path)):
        x_eps = symmetrize(x_eps)
        u_eps = symmetrize(u_eps)
        comp = abs(float(np.tensordot(x_eps, u_eps)))
        if comp > tol.slack:
            raise ValueError(
                f"path point {k} is not complementary (X . U = {comp:.3e})")
        comps, _, fit_residual = face_nnls(zs.vertices, zs.blocks, u_eps)
        ws = [restrict(c, ps) for c, ps in zip(comps, sys.supports)]
        z = sys.pack(x_eps, ws)
        r = residual(sys, z)
        anti = float(np.linalg.norm(r, ord=np.inf)) if r.size else 0.0
        recon = float(np.linalg.norm(reconstruct_U(sys, ws) - u_eps))
        reports.append({
            "index": k,
            "complementarity": comp,
            "anticommutator": anti,
            "reconstruction": recon,
            "fit_residual": fit_residual,
            "anticommutator_ok": anti <= tol.zero_tol,
            "reconstruction_ok": recon <= tol.slack,
        })
    return reports


def verify_backward(x_path: list, w_paths: list, zs: ZeroStructure,
                    dd: DualDecomposition, tol: Tolerances = Tolerances()) -> list[dict]:
    """Check the backward conclusions along paths satisfying the equations.

    Per path point: copositivity of X(eps), CP membership of each
    W(s, eps) over the block generators (doubly-nonnegative for small
    blocks), and complementarity of the reconstructed pair.
    """
    sys = build_system(zs, dd)
    reports = []
    for k, (x_eps, ws) in enumerate(zip(x_path, w_paths)):
        x_eps = symmetrize(x_eps)
        z = sys.pack(x_eps, ws)
        r = residual(sys, z)
        anti = float(np.linalg.norm(r, ord=np.inf)) if r.size else 0.0
        if anti > tol.slack:
            raise ValueError(
                f"path point {k} violates the anticommutator equations "
                f"({anti:.3e}); backward verification inapplicable")
        cop = is_copositive(x_eps, tol)
        w_verdicts = []
        for s, w in enumerate(ws):
            gens = zs.block_vectors(s)
            cert = cp_membership(w, gens, tol) if gens else None
            dnn = doubly_nonnegative(w, tol) if cert is None else cert.doubly_nonnegative
            # doubly nonnegative is completely positive for order <= 4
            in_cp = ((cert is not None and cert.member)
                     or (len(sys.supports[s]) <= 4 and dnn))
            w_verdicts.append({
                "block": s + 1,
                "in_cp": in_cp,
                "nnls_residual": None if cert is None else cert.residual,
                "doubly_nonnegative": dnn,
            })
        u_eps = reconstruct_U(sys, ws)
        comp = abs(float(np.tensordot(x_eps, u_eps)))
        reports.append({
            "index": k,
            "copositive": cop.member,
            "copositivity_witness": None if cop.member else cop.witness,
            "w_blocks": w_verdicts,
            "complementarity": comp,
            "complementarity_ok": comp <= tol.slack,
        })
    return reports


NOT_APPLICABLE = "NOT_APPLICABLE"


def check_p23101(x: np.ndarray, u: np.ndarray, tol: Tolerances = Tolerances()):
    """Executable check: anticommuting pair with interior-PSD sum is a PSD
    pair with vanishing product."""
    x = symmetrize(x)
    u = symmetrize(u)
    if np.linalg.norm(u @ x + x @ u) > tol.slack:
        return NOT_APPLICABLE
    verdict, _ = psd_status(x + u, tol)
    if verdict != PSD_INTERIOR:
        return NOT_APPLICABLE
    x_psd = psd_status(x, tol)[0] != "NOT_PSD"
    u_psd = psd_status(u, tol)[0] != "NOT_PSD"
    product_zero = bool(np.linalg.norm(u @ x) <= tol.slack)
    return {"x_psd": x_psd, "u_psd": u_psd, "product_zero": product_zero}


def express_in_pair_basis(z_mat: np.ndarray, tau_basis: list,
                          tol: Tolerances = Tolerances()):
    """Least-squares coefficients of Z over the pair outer products
    (tau(i)+tau(j))(tau(i)+tau(j))', (i, j) in V(J_b); FAIL if Z is not
    in their span."""
    if not tau_basis:
        raise ValueError("pair basis must be nonempty")
    z_mat = symmetrize(z_mat)
    pairs = pair_index_set(range(len(tau_basis)))
    cols = np.column_stack([svec(np.outer(g, g))
                            for g in pair_sums(tau_basis, range(len(tau_basis)))])
    beta, _, _, _ = np.linalg.lstsq(cols, svec(z_mat), rcond=None)
    if np.linalg.norm(cols @ beta - svec(z_mat)) > max(tol.zero_tol, 1e-9):
        return FAIL
    return {pair: float(b) for pair, b in zip(pairs, beta)}
