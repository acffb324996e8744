"""Membership tests for the copositive and completely positive cones.

The copositivity test is exact at desk scale: it enumerates KKT supports
of the quadratic t' X t over the standard simplex.  A barycentric grid
oracle provides an independent cross-check, and CP membership is decided
relative to a supplied finite generator set by nonnegative least squares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .symcore import NOT_PSD, Tolerances, outer_columns, psd_status, symmetrize

EXACT_COPOSITIVITY_LIMIT = 12


class OrderLimitError(ValueError):
    """Exact copositivity path refused; use simplex_min_oracle instead."""


@dataclass
class CopVerdict:
    member: bool
    min_value: float
    argmin: np.ndarray
    # simplex vector with t'Xt < -zero_tol; None for a member
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
    member: bool  # U lies in the cone of the generators' outer products
    generators: list = field(default_factory=list)
    weights: np.ndarray | None = None  # None when not a member
    residual: float = 0.0
    doubly_nonnegative: bool | None = None

    def reconstruct(self, p: int) -> np.ndarray:
        u = np.zeros((p, p))
        if self.weights is not None:
            for w, g in zip(self.weights, self.generators):
                u += w * np.outer(g, g)
        return u


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

    A face I is solved only when its KKT system 2 X_I t = lam * 1,
    sum(t) = 1 has a unique solution: its bordered matrix has full
    numerical rank (smallest singular value above lstsq's cutoff
    eps * (k + 1) * sigma_max, all faces of one size in one batched SVD),
    and the solution is read from the SVD by plain division.  A solution
    that is nonnegative within zero_tol is a candidate of value t'Xt,
    evaluated on X itself.  A rank-deficient face needs no solve: lam/2 =
    t'X_I t is the same at every KKT point, and a feasible one can be moved
    along the kernel to a vertex of the feasible polytope, which lies on a
    smaller face.  Repeating the step ends on a face whose KKT system has
    a single, strictly positive solution, so that face records the same
    value and no minimum is lost.

    The KKT matrices are built from X / 2^e, with 2^e the power of two
    nearest max|X|, so the rank test does not depend on the scale of X
    (scaling by a power of two is exact, and unit-scale X is not scaled).

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

    amax = float(np.max(np.abs(x)))
    e = round(math.log2(amax)) if amax > 0.0 else 0
    checked = p  # the size-1 faces are the diagonal
    for size in range(2, p + 1):
        supports, xi = principal_blocks(x, size)
        checked += len(supports)
        a = np.zeros((len(supports), size + 1, size + 1))
        a[:, :size, :size] = np.ldexp(xi, 1 - e)
        a[:, :size, size] = -1.0
        a[:, size, :size] = 1.0
        u, sig, vt = np.linalg.svd(a)
        full = sig[:, -1] > np.finfo(float).eps * (size + 1) * sig[:, 0]
        # b = e_last, so U'b is the last row of U
        sol = np.einsum("mij,mi->mj", vt[full], u[full, size, :] / sig[full])
        ok = np.min(sol[:, :size], axis=1) >= -tol.zero_tol
        if not ok.any():
            continue
        ti = np.clip(sol[ok, :size], 0.0, None)
        ti /= ti.sum(axis=1, keepdims=True)
        vals = np.einsum("mi,mij,mj->m", ti, xi[full][ok], ti)
        m = int(np.argmin(vals))
        if vals[m] < best_val:
            best_val = float(vals[m])
            best_t = np.zeros(p)
            best_t[supports[full][ok][m]] = ti[m]
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
    # stars and bars: p - 1 bar positions among grid_depth + p - 1 slots;
    # the gaps between consecutive bars are the grid point's counts
    slots = grid_depth + p - 1
    bars = itertools.combinations(range(slots), p - 1)
    best_val = np.inf
    best_t = None
    while chunk := list(itertools.islice(bars, 4096)):
        pos = np.array(chunk, dtype=int)
        tb = (np.diff(pos, axis=1, prepend=-1, append=slots) - 1) / grid_depth
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
    return psd_status(u, tol)[0] != NOT_PSD


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
    a = outer_columns(gens)
    w, _ = nnls(a, u.ravel())
    resid = float(np.linalg.norm(a @ w - u.ravel()))
    member = resid <= tol.zero_tol
    return CpCertificate(member, gens, w if member else None, resid, dnn)
