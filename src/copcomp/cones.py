"""Membership tests for the copositive and completely positive cones.

The copositivity test is exact at desk scale: it enumerates KKT supports
of the quadratic t' X t over the standard simplex.  A barycentric grid
oracle provides an independent cross-check, and CP membership is decided
relative to a supplied finite generator set by nonnegative least squares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .symcore import Tolerances, symmetrize

EXACT_COPOSITIVITY_LIMIT = 12

NOT_IN_SPAN = "NOT_IN_SPAN"


class OrderLimitError(ValueError):
    """Exact copositivity path refused; use simplex_min_oracle instead."""


@dataclass
class CopVerdict:
    member: bool
    min_value: float
    argmin: np.ndarray
    # non-membership: witness simplex vector; membership: per-support facts
    witness: np.ndarray | None = None
    supports_checked: int = 0

    def to_json(self) -> dict:
        out = {
            "member": self.member,
            "min_value": self.min_value,
            "argmin": self.argmin.tolist(),
            "supports_checked": self.supports_checked,
        }
        if self.witness is not None:
            out["witness"] = self.witness.tolist()
        return out


@dataclass
class CpCertificate:
    status: str  # "MEMBER" or NOT_IN_SPAN
    generators: list = field(default_factory=list)
    weights: np.ndarray | None = None
    residual: float = 0.0
    doubly_nonnegative: bool | None = None

    @property
    def member(self) -> bool:
        return self.status == "MEMBER"

    def reconstruct(self, p: int) -> np.ndarray:
        u = np.zeros((p, p))
        if self.weights is not None:
            for w, g in zip(self.weights, self.generators):
                u += w * np.outer(g, g)
        return u

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "generators": [np.asarray(g).tolist() for g in self.generators],
            "weights": None if self.weights is None else self.weights.tolist(),
            "residual": self.residual,
            "doubly_nonnegative": self.doubly_nonnegative,
        }


def principal_blocks(x: np.ndarray, size: int):
    """Every support of the given size, in itertools order, as an (m, size)
    index array, with the stacked principal submatrices X_I, (m, size, size)."""
    supports = np.array(list(itertools.combinations(range(x.shape[0]), size)))
    return supports, x[supports[:, :, None], supports[:, None, :]]


def is_copositive(x: np.ndarray, tol: Tolerances = Tolerances()) -> CopVerdict:
    """Exact combinatorial copositivity decision for small orders.

    Minimizes t'Xt over the simplex by enumerating KKT supports; member
    iff the minimum is >= -zero_tol.  A negative diagonal entry short
    circuits with a coordinate-vector witness.

    On each face I the KKT system 2 X_I t = lam * 1, sum(t) = 1 is solved
    by minimum-norm least squares (all faces of one size in one batched
    SVD, with lstsq's cutoff eps * (k + 1) * sigma_max); a consistent
    solution that is nonnegative within zero_tol is a candidate of value
    t'Xt.  A rank-deficient face whose least-squares solution is not
    nonnegative needs no search of its KKT solution set: lam/2 = t'X_I t
    is the same at every KKT point, and a feasible one can be moved along
    the kernel to a vertex of the feasible polytope, which lies on a
    smaller face.  Repeating the step ends on a face whose KKT system has
    a single, strictly positive solution, which that face's least-squares
    solve already records with the same value, so no feasibility LP on
    the larger face could lower the minimum.

    ``argmin`` is the first minimizer in support order (by size, then
    lexicographic).  When minimizers tie, rounding can decide which one
    is reported; ``min_value`` is unaffected.
    """
    x = symmetrize(x)
    p = x.shape[0]
    if p > EXACT_COPOSITIVITY_LIMIT:
        raise OrderLimitError(
            f"exact copositivity limited to p <= {EXACT_COPOSITIVITY_LIMIT} "
            f"(got {p}); use simplex_min_oracle for an upper bound"
        )
    diag = np.diag(x)
    k = int(np.argmin(diag))
    best_val = float(diag[k])
    best_t = np.zeros(p)
    best_t[k] = 1.0
    if best_val < -tol.zero_tol:
        return CopVerdict(member=False, min_value=best_val, argmin=best_t,
                          witness=best_t, supports_checked=0)

    checked = p  # the size-1 faces are the diagonal
    for size in range(2, p + 1):
        supports, xi = principal_blocks(x, size)
        checked += len(supports)
        a = np.zeros((len(supports), size + 1, size + 1))
        a[:, :size, :size] = 2.0 * xi
        a[:, :size, size] = -1.0
        a[:, size, :size] = 1.0
        u, sig, vt = np.linalg.svd(a)
        cutoff = np.finfo(float).eps * (size + 1) * sig[:, :1]
        # b = e_last, so U'b is the last row of U
        coef = np.divide(u[:, size, :], sig, out=np.zeros_like(sig),
                         where=sig > cutoff)
        sol = np.einsum("mij,mi->mj", vt, coef)
        resid = np.einsum("mij,mj->mi", a, sol)
        resid[:, size] -= 1.0
        ti = sol[:, :size]
        ok = ((np.max(np.abs(resid), axis=1) <= 1e-8)
              & (np.min(ti, axis=1) >= -tol.zero_tol))
        ti = np.clip(ti, 0.0, None)
        s = ti.sum(axis=1)
        ok &= s > 0.0
        if not ok.any():
            continue
        ti = ti[ok] / s[ok, None]
        vals = np.einsum("mi,mij,mj->m", ti, xi[ok], ti)
        m = int(np.argmin(vals))
        if vals[m] < best_val:
            best_val = float(vals[m])
            best_t = np.zeros(p)
            best_t[supports[ok][m]] = ti[m]
    member = best_val >= -tol.zero_tol
    witness = None if member else best_t
    return CopVerdict(member=member, min_value=best_val, argmin=best_t,
                      witness=witness, supports_checked=checked)


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the standard simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def simplex_min_oracle(x: np.ndarray, grid_depth: int) -> tuple[float, np.ndarray]:
    """Upper bound on min t'Xt over the simplex.

    Barycentric grid of mesh 1/grid_depth followed by projected-gradient
    refinement from the best grid point.
    """
    if grid_depth < 1:
        raise ValueError("grid_depth must be >= 1")
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

    # local refinement: projected gradient with exact line search (the
    # objective is quadratic along any segment, so the best step is
    # closed-form; this stays fast in flat valleys where a fixed
    # 1/Lipschitz step crawls)
    t = best_t.copy()
    lip = max(1.0, 2.0 * float(np.linalg.norm(x, 2)))
    for _ in range(500):
        d = _simplex_project(t - (2.0 * x @ t) / lip) - t
        if np.linalg.norm(d, ord=np.inf) < 1e-14:
            break
        # sum(d) == 0, so feasibility along d is limited only by t >= 0
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


def doubly_nonnegative(u: np.ndarray, tol: Tolerances) -> bool:
    """Necessary CP test: entrywise nonnegative and PSD (exact CP for p <= 4)."""
    u = symmetrize(u)
    if u.size and np.min(u) < -tol.zero_tol:
        return False
    lam = np.linalg.eigvalsh(u) if u.size else np.array([0.0])
    return bool(lam[0] >= -tol.psd_tol)


def cp_membership(u: np.ndarray, generators, tol: Tolerances = Tolerances()) -> CpCertificate:
    """CP membership relative to a finite nonnegative generator set.

    Solves min ||sum_i a_i g_i g_i' - U||_F over a >= 0 (Lawson-Hanson
    active set via scipy); certificate when the residual is <= zero_tol.
    The doubly-nonnegative necessary test is reported alongside.
    """
    u = symmetrize(u)
    p = u.shape[0]
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("generator set must be nonempty")
    for g in gens:
        if g.shape != (p,):
            raise ValueError(f"generator dimension {g.shape} does not match p={p}")
        if np.min(g) < -tol.zero_tol:
            raise ValueError("generators must be entrywise nonnegative")
    dnn = doubly_nonnegative(u, tol)
    a = np.column_stack([np.outer(g, g).ravel() for g in gens])
    w, _ = nnls(a, u.ravel())
    resid = float(np.linalg.norm(a @ w - u.ravel()))
    if resid <= tol.zero_tol:
        return CpCertificate("MEMBER", gens, w, resid, dnn)
    return CpCertificate(NOT_IN_SPAN, gens, None, resid, dnn)
