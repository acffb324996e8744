"""The system of defining equations for the complementarity set.

Variable layout z = (svec(X), svec(W(s)), s in S), computed once per
system, the bi-linear residual of the per-block anticommutator equations,
the linear reconstruction of U from the W(s), the Jacobian in closed form
with full-row-rank certification, a local W-solver for perturbed X, and
the forward/backward path verifiers plus the executable appendix check
that an anticommuting pair with positive definite sum has product 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import is_copositive
from .complement import DualDecomposition, cp_membership, embed, face_nnls
from .symcore import (
    NOT_PSD,
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
from .zerostruct import ZeroStructure


@dataclass
class DefiningSystem:
    """Layout of z, computed once: ``p_star`` = len svec(X), ``block_dims``
    the len svec(W(s)), ``m`` their sum and ``size`` = len z.  Per block,
    ``x_index`` holds where svec(X(s)) sits in svec(X), X(s) the principal
    submatrix on P_*(s), and ``w_slice`` where svec(W(s)) sits in z; less
    p_star, it gives the block's rows of the residual and the Jacobian."""

    p: int
    supports: list  # P_*(s) as sorted tuples, ascending s
    anchor: np.ndarray | None = None  # z0, set by build_system
    p_star: int = field(init=False)
    block_dims: list = field(init=False)
    m: int = field(init=False)
    size: int = field(init=False)
    x_index: list = field(init=False)
    w_slice: list = field(init=False)

    def __post_init__(self):
        self.p_star = svec_dim(self.p)
        self.block_dims = [svec_dim(len(ps)) for ps in self.supports]
        self.m = sum(self.block_dims)
        self.size = self.p_star + self.m
        self.x_index = [svec_subindex(self.p, ps) for ps in self.supports]
        ends = np.cumsum([self.p_star] + self.block_dims).tolist()
        self.w_slice = [slice(a, b) for a, b in zip(ends, ends[1:])]

    def _checked(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.size,):
            raise ValueError(f"z length {z.shape} does not match layout {self.size}")
        return z

    def split(self, z: np.ndarray):
        """(X, [W(s)]) from a layout vector."""
        z = self._checked(z)
        ws = [smat(z[sl], len(ps)) for sl, ps in zip(self.w_slice, self.supports)]
        return smat(z[: self.p_star], self.p), ws

    def blocks(self, z: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(X(s), W(s)) per block, each read by smat straight from z."""
        z = self._checked(z)
        return [(smat(z[xi], len(ps)), smat(z[sl], len(ps)))
                for xi, sl, ps in zip(self.x_index, self.w_slice, self.supports)]

    def pack(self, x: np.ndarray, ws: list) -> np.ndarray:
        x = symmetrize(x)
        if x.shape[0] != self.p:
            raise ValueError(f"X of order {x.shape[0]} does not match the layout's "
                             f"order {self.p}")
        parts = [svec(x)]
        for w, ps in zip(ws, self.supports, strict=True):
            w = symmetrize(w)
            if w.shape[0] != len(ps):
                raise ValueError("W block order does not match its support")
            parts.append(svec(w))
        return np.concatenate(parts)

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
    sys = DefiningSystem(p=zs.p, supports=list(zs.supports))
    sys.anchor = sys.pack(zs.x, dd.restricted)
    return sys


def residual(sys: DefiningSystem, z: np.ndarray) -> np.ndarray:
    """Stacked svec of the per-block anticommutators A(X,s)W(s) + W(s)A(X,s)."""
    parts = [svec(xs @ w + w @ xs) for xs, w in sys.blocks(z)]
    return np.concatenate(parts) if parts else np.zeros(0)


def reconstruct_U(sys: DefiningSystem, ws: list) -> np.ndarray:
    """U = sum_s B(W(s), s); overlapping support entries add."""
    u = np.zeros((sys.p, sys.p))
    for w, ps in zip(ws, sys.supports, strict=True):
        u += embed(w, ps, sys.p)
    return u


def jacobian(sys: DefiningSystem, z: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of the residual at z.

    Block row s: 2 * (W(s) (x)_s E) on the svec(X) columns ``x_index[s]``,
    and 2 * (X(s) (x)_s E) on the block's own svec(W(s)) columns
    ``w_slice[s]``.  The factor 2 makes the matrix agree with finite
    differences of the residual.
    """
    jac = np.zeros((sys.m, sys.size))
    for (xs, w), xi, sl in zip(sys.blocks(z), sys.x_index, sys.w_slice):
        rows = slice(sl.start - sys.p_star, sl.stop - sys.p_star)
        eye = np.eye(len(xs))
        jac[rows, xi] = 2.0 * sym_kron(w, eye)
        jac[rows, sl] = 2.0 * sym_kron(xs, eye)
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
    least-squares iteration initialized at the anchor W(s), and its W
    columns J_W of the Jacobian, which depend on X alone, are built once.
    Returns the W(s) list, or (NO_CONVERGENCE, final_residual).  As
    r(X, W) = J_W svec(W) is homogeneous in W, when J_W has full column
    rank (at a generic X near the anchor) each damped step halves W: the
    result is 2^-k W0(s), k the first count with 2^-k max|r(X, W0)| <=
    zero_tol (0 at the anchor X), and NO_CONVERGENCE past k = 50.
    """
    x_perturbed = symmetrize(x_perturbed)
    _, ws0 = sys.split(sys.anchor)
    z = sys.pack(x_perturbed, ws0)
    p_star = sys.p_star
    jw = jacobian(sys, z)[:, p_star:]
    # 51 residuals, each tested once; a step follows each of the first 50
    for k in range(51):
        r = residual(sys, z)
        if r.size == 0 or np.linalg.norm(r, ord=np.inf) <= tol.zero_tol:
            _, ws = sys.split(z)
            return ws
        if k < 50:
            step, _, _, _ = np.linalg.lstsq(jw, r, rcond=None)
            z[p_star:] -= 0.5 * step
    return NO_CONVERGENCE, float(np.linalg.norm(r, ord=np.inf))


def _path_point(sys: DefiningSystem, x: np.ndarray, ws: list):
    """max |residual| of the defining equations at (X, W(s)), and the U
    that the W(s) reconstruct."""
    r = residual(sys, sys.pack(x, ws))
    anti = float(np.linalg.norm(r, ord=np.inf)) if r.size else 0.0
    return anti, reconstruct_U(sys, ws)


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
    for k, (x_eps, u_eps) in enumerate(zip(x_path, u_path, strict=True)):
        x_eps = symmetrize(x_eps)
        u_eps = symmetrize(u_eps)
        comp = abs(float(np.tensordot(x_eps, u_eps)))
        if comp > tol.slack:
            raise ValueError(
                f"path point {k} is not complementary (X . U = {comp:.3e})")
        ws, _, fit_residual = face_nnls(zs.vertices, zs.blocks, u_eps)
        anti, u_fit = _path_point(sys, x_eps, ws)
        recon = float(np.linalg.norm(u_fit - u_eps))
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
    W(s, eps) over the block generators (:func:`complement.cp_membership`),
    and complementarity of the reconstructed pair.
    """
    sys = build_system(zs, dd)
    reports = []
    for k, (x_eps, ws) in enumerate(zip(x_path, w_paths, strict=True)):
        x_eps = symmetrize(x_eps)
        anti, u_eps = _path_point(sys, x_eps, ws)
        if anti > tol.slack:
            raise ValueError(
                f"path point {k} violates the anticommutator equations "
                f"({anti:.3e}); backward verification inapplicable")
        cop = is_copositive(x_eps, tol)
        w_verdicts = []
        for s, w in enumerate(ws):
            cert = cp_membership(w, zs.block_vectors(s), tol)
            w_verdicts.append({
                "block": s + 1,
                "in_cp": cert.member,
                "nnls_residual": cert.residual,
                "doubly_nonnegative": cert.doubly_nonnegative,
            })
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
    x_psd = psd_status(x, tol)[0] != NOT_PSD
    u_psd = psd_status(u, tol)[0] != NOT_PSD
    product_zero = bool(np.linalg.norm(u @ x) <= tol.slack)
    return {"x_psd": x_psd, "u_psd": u_psd, "product_zero": product_zero}

