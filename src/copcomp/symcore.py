"""Symmetric-matrix primitives: svec/smat, symmetric Kronecker product,
spectral and rank utilities with explicit tolerances, the two solvers the
package needs, both on numpy alone (Lawson-Hanson nonnegative least
squares and a dense simplex for small linear programs), and the SymMat
JSON of matrix files, which the analyze report's inputs share.

All routines operate on dense symmetric numpy arrays in float64.  The svec
convention scales off-diagonal entries by sqrt(2) so that
``dot(svec(A), svec(B)) == trace(A @ B)``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields

import numpy as np

SQRT2 = np.sqrt(2.0)

# A SymMat file loads when its asymmetry is at most SYM_TOL * max|a|.
SYM_TOL = 1e-12

# Simplex thresholds: pivot elements up to LP_PIVOT_TOL * max|a_ub| count as
# zero, as do right-hand sides and reduced costs up to LP_ZERO_TOL times the
# largest |b_ub| and |c|.  Bland's rule ends every run in exact arithmetic;
# the pivot cap only stops one that rounding error keeps going.
LP_PIVOT_TOL = 1e-9
LP_ZERO_TOL = 1e-13
LP_MAX_PIVOTS_PER_ROW = 50

# NNLS stops when no gradient entry on a unit column exceeds
# NNLS_GRAD_TOL * max(m, n) * ||b||, the rounding level of the residual;
# the cap on columns entering only stops a run that rounding keeps going.
NNLS_GRAD_TOL = 10 * np.finfo(float).eps
NNLS_MAX_STEPS_PER_COLUMN = 3

NOT_PSD = "NOT_PSD"
PSD_BOUNDARY = "PSD_BOUNDARY"
PSD_INTERIOR = "PSD_INTERIOR"


class SymMatError(ValueError):
    """Raised for malformed symmetric-matrix inputs."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every verdict-producing routine.

    zero_tol : entry / residual zero threshold
    rank_tol : relative singular-value cutoff
    psd_tol  : eigenvalue threshold for PSD classification
    """

    zero_tol: float = 1e-9
    rank_tol: float = 1e-9
    psd_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            # below 4 eps = 2^-50 the unit-scale zero tests decide on rounding
            if not (2.0 ** -50 <= v < 1.0):
                raise ValueError(f"{f.name} must be in [2^-50, 1), got {v}")

    @property
    def slack(self) -> float:
        """Looser zero threshold (10 zero_tol) for verifying derived facts."""
        return 10 * self.zero_tol


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part of ``a`` as a float64 array; SymMatError
    when it has a NaN or infinite entry (from the input or an overflow)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SymMatError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 0.5 * (a + a.T)
    if not np.all(np.isfinite(sym)):
        raise SymMatError("matrix has a non-finite entry or overflows when symmetrized")
    return sym


def check_symmetric(a) -> np.ndarray:
    """Symmetrize ``a`` if its asymmetry is at most SYM_TOL * max|a|, a
    bound that scales with ``a``, so c a loads exactly when ``a`` does."""
    sym = symmetrize(a)
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    bound = SYM_TOL * np.max(np.abs(a), initial=0.0)
    if asym > bound:
        raise SymMatError(f"matrix asymmetry {asym:.3e} exceeds {bound:.3e}")
    return sym


def svec_pairs(p: int) -> list[tuple[int, int]]:
    """Index pairs (k, l), k <= l, in svec component order (0-based).

    Component for pair (k, l) is F[l, k]: column-major lower triangle,
    matching the order (F11, sqrt2*F21, ..., sqrt2*Fp1, F22, ...).
    """
    k, l, _ = _svec_index(p)
    return list(zip(k.tolist(), l.tolist()))


def svec_dim(p: int) -> int:
    return p * (p + 1) // 2


@functools.lru_cache(maxsize=32)
def _svec_index(p: int):
    """The svec order: index arrays (k, l), k <= l, and the sqrt(2) scale
    of each component, shared by every caller and therefore read-only."""
    k, l = np.triu_indices(p)
    idx = (k, l, np.where(k == l, 1.0, SQRT2))
    for a in idx:
        a.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=32)
def _svec_position(p: int) -> np.ndarray:
    """Read-only (p, p) matrix of svec positions: pair (k, l) at [k, l] and [l, k]."""
    k, l, _ = _svec_index(p)
    pos = np.empty((p, p), dtype=int)
    pos[k, l] = pos[l, k] = np.arange(len(k))
    pos.setflags(write=False)
    return pos


def svec_subindex(p: int, support) -> np.ndarray:
    """Positions in an order-p svec of the svec coordinates of the
    principal submatrix on the ascending index tuple ``support``."""
    k, l, _ = _svec_index(len(support))
    idx = np.asarray(support, dtype=int)
    return _svec_position(p)[idx[k], idx[l]]


def svec(f: np.ndarray) -> np.ndarray:
    """Vectorize a symmetric matrix with sqrt(2)-scaled off-diagonals."""
    f = np.asarray(f, dtype=float)
    k, l, scale = _svec_index(f.shape[0])
    return f[l, k] * scale


def smat(v: np.ndarray, p: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    n = svec_dim(p)
    if v.shape != (n,):
        raise SymMatError(f"svec length {v.shape} does not match p={p} (need {n})")
    k, l, scale = _svec_index(p)
    f = np.zeros((p, p))
    f[l, k] = f[k, l] = v / scale
    return f


def sym_kron(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Symmetric Kronecker product acting on svec coordinates.

    Defined by (M (x)_s N) svec(U) = svec(N U M^T + M U N^T) / 2; with
    N the identity this gives svec(M U + U M) / 2.
    """
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    p = m.shape[0]
    if n.shape != (p, p):
        raise SymMatError(f"order mismatch: {m.shape} vs {n.shape}")
    dim = svec_dim(p)
    out = np.empty((dim, dim))
    for idx, (k, l) in enumerate(svec_pairs(p)):
        u = np.zeros((p, p))
        if k == l:
            u[k, k] = 1.0
        else:
            u[k, l] = u[l, k] = 1.0 / SQRT2
        out[:, idx] = svec(0.5 * (n @ u @ m.T + m @ u @ n.T))
    return out


def psd_status(f: np.ndarray, tol: Tolerances) -> tuple[str, float]:
    """Classify ``f`` by its smallest eigenvalue.

    Returns (verdict, lambda_min) with verdict one of NOT_PSD,
    PSD_BOUNDARY, PSD_INTERIOR; ``f`` is PSD within tolerance iff not NOT_PSD.
    """
    lam = np.linalg.eigvalsh(symmetrize(f))
    lam_min = float(lam[0]) if lam.size else 0.0
    if lam_min < -tol.psd_tol:
        return NOT_PSD, lam_min
    if lam_min > tol.psd_tol:
        return PSD_INTERIOR, lam_min
    return PSD_BOUNDARY, lam_min


def rank_of_vectors(vecs, tol: Tolerances) -> int:
    """Numerical rank of a collection of vectors (rows)."""
    vecs = [np.asarray(v, dtype=float) for v in vecs]
    if not vecs:
        return 0
    return numerical_rank(np.linalg.svd(np.vstack(vecs), compute_uv=False), tol)


def numerical_rank(sv: np.ndarray, tol: Tolerances) -> int:
    """Count of the (descending) singular values above rank_tol * sv[0]."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol.rank_tol * sv[0]))


def outer_columns(gens) -> np.ndarray:
    """C-contiguous (p(p+1)/2, n) matrix whose columns are svec(g g'), g the
    rows of gens, bit for bit: <Y, g g'> is svec(Y) . column."""
    gt = np.ascontiguousarray(np.asarray(gens, dtype=float).T)
    k, l, scale = _svec_index(gt.shape[0])
    return gt[l] * gt[k] * scale[:, None]


def nnls(a, b):
    """Minimize ||a x - b|| over x >= 0; returns (x, ||a x - b||).

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23), run on the unit columns a_j / ||a_j||: the minimizers
    correspond, and unit columns take far fewer exchanges on the
    subset-sum families this package fits.  Each passive set is solved by
    least squares on its own columns, and the x returned is exactly that
    solution, rescaled, so every weight it holds is positive.  A column
    enters only while its gradient entry exceeds the rounding level and
    its weight in the new solve comes out positive; otherwise rounding
    would let it enter and leave forever.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    norms = np.linalg.norm(a, axis=0)
    scale = np.where(norms > 0.0, norms, 1.0)
    q = a / scale
    tol = NNLS_GRAD_TOL * max(m, n) * np.linalg.norm(b)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = q.T @ b
    steps = 0
    while True:
        w[passive] = -np.inf
        j = w.argmax() if n else 0
        if not n or w[j] <= tol:
            x /= scale
            return x, float(np.linalg.norm(a @ x - b))
        passive[j] = True
        s = _passive_solve(q, b, passive)
        if s[j] <= 0.0:  # column j does not lower the residual after all
            passive[j] = False
            w[j] = -np.inf
            continue
        steps += 1
        if steps > NNLS_MAX_STEPS_PER_COLUMN * n:
            raise RuntimeError("NNLS iteration limit reached")
        while s[passive].min() <= 0.0:
            # step from x toward s until the first passive weight hits 0
            neg = (passive & (s <= 0.0)).nonzero()[0]
            ratios = x[neg] / (x[neg] - s[neg])
            k = ratios.argmin()
            x += ratios[k] * (s - x)
            x[neg[k]] = 0.0
            passive &= x > 0.0
            s = _passive_solve(q, b, passive)
        x = s
        w = q.T @ (b - q @ x)


def _passive_solve(q, b, passive) -> np.ndarray:
    """Least-squares weights on the passive columns of q, zero elsewhere."""
    s = np.zeros(q.shape[1])
    s[passive] = np.linalg.lstsq(q[:, passive], b, rcond=None)[0]
    return s


def linprog(c, a_ub, b_ub):
    """Minimize c'x subject to a_ub x <= b_ub and x >= 0.

    A two-phase simplex on the dense condensed tableau, whose columns are
    the nonbasic variables only.  It prices by Dantzig's rule and takes
    Bland's rule for any pivot that would not move, so it cannot cycle.
    The answer is recomputed from the final basis by one linear solve on
    the original rows, so it meets them to rounding error.  Returns the
    optimal x, or None when no x >= 0 is feasible; raises ValueError when
    the objective is unbounded below.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    # a row with a_i <= 0 <= b_i holds for every x >= 0
    keep = ~(np.all(a <= 0.0, axis=1) & (b >= 0.0))
    a, b = a[keep], b[keep]
    m, n = a.shape
    piv = LP_PIVOT_TOL * np.max(np.abs(a), initial=0.0)
    zero = LP_ZERO_TOL * np.max(np.abs(b), initial=0.0)
    # Variables are labelled x_j = j, the slack of row i = n + i and the
    # artificial of row i = n + m + i.  A row with b_i < 0 is negated; its
    # artificial starts basic and its slack, with coefficient -1, nonbasic.
    neg = np.flatnonzero(b < 0.0)
    sign = np.where(b < 0.0, -1.0, 1.0)
    basis = n + np.arange(m)
    basis[neg] += m
    nonbasic = np.concatenate([np.arange(n), n + neg])
    t = np.zeros((m + 1, nonbasic.size + 1))
    t[:m, :n] = sign[:, None] * a
    t[neg, n + np.arange(neg.size)] = -1.0
    t[:m, -1] = np.abs(b)

    cost = np.zeros(n + 2 * m)  # by label
    cost[n + m:] = 1.0
    _simplex(t, basis, nonbasic, cost, piv, zero, LP_ZERO_TOL)
    if -t[m, -1] > zero:
        return None
    # [a_ub I] has full row rank, so an artificial still basic (at level
    # zero) always has a nonzero entry to pivot out on
    real = nonbasic < n + m
    for r in np.flatnonzero(basis >= n + m):
        e = int(np.argmax(np.where(real, np.abs(t[r, :-1]), -1.0)))
        _pivot(t, basis, nonbasic, r, e)
        real[e] = False
    t = t[:, np.append(np.flatnonzero(nonbasic < n + m), -1)]
    nonbasic = nonbasic[nonbasic < n + m]

    cost[:] = 0.0
    cost[:n] = c
    if not _simplex(t, basis, nonbasic, cost, piv, zero,
                    LP_ZERO_TOL * np.max(np.abs(c), initial=0.0)):
        raise ValueError("the linear program is unbounded")
    # the basic x solve the rows whose slack is nonbasic, that is, tight
    x = np.zeros(n)
    cols = basis[basis < n]
    if cols.size:
        tight = nonbasic[nonbasic >= n] - n
        x[cols] = np.maximum(np.linalg.solve(a[np.ix_(tight, cols)], b[tight]), 0.0)
    return x


def _pivot(t, basis, nonbasic, r, e) -> None:
    """Exchange basic variable ``basis[r]`` with nonbasic ``nonbasic[e]``."""
    col = t[:, e].copy()
    t[:, e] = 0.0
    t[r, e] = 1.0
    t[r] /= col[r]
    col[r] = 0.0
    t -= col[:, None] * t[r]
    basis[r], nonbasic[e] = nonbasic[e], basis[r]


def _ratio_test(col, rhs, basis, piv):
    """Row of the minimum ratio rhs / col over the entries col > piv, the
    one of lowest basic label among exact ties; None when there is none.
    A near tie is no tie: leaving on it would make the basic variable of
    the smaller ratio negative."""
    rows = (col > piv).nonzero()[0]
    if rows.size == 0:
        return None
    ratios = rhs[rows].clip(0.0) / col[rows]
    tied = rows[ratios == ratios.min()]
    return tied[basis[tied].argmin()]


def _simplex(t, basis, nonbasic, cost, piv, zero, rc_tol) -> bool:
    """Pivot the condensed tableau ``t`` (objective in the last row,
    right-hand side in the last column) to minimize ``cost`` over the
    variables' labels.  Returns False when a column with negative reduced
    cost has no pivot row, that is, when the objective is unbounded."""
    t[-1] = np.append(cost[nonbasic], 0.0) - cost[basis] @ t[:-1]
    rhs = t[:-1, -1]
    for _ in range(LP_MAX_PIVOTS_PER_ROW * t.shape[0]):
        rc = t[-1, :-1]
        e = rc.argmin()
        if rc[e] >= -rc_tol:
            return True
        r = _ratio_test(t[:-1, e], rhs, basis, piv)
        if r is None:
            return False
        if rhs[r] <= zero:
            # a pivot that would not move: Bland's rule, the entering and
            # (among tied rows) the leaving variable of lowest label
            cand = (rc < -rc_tol).nonzero()[0]
            e = cand[nonbasic[cand].argmin()]
            r = _ratio_test(t[:-1, e], rhs, basis, piv)
            if r is None:
                return False
        _pivot(t, basis, nonbasic, r, e)
    raise RuntimeError("simplex pivot limit reached")


def symmat_to_json(f: np.ndarray) -> dict:
    f = np.asarray(f, dtype=float)
    return {"p": int(f.shape[0]), "rows": f.tolist()}


def symmat_from_json(obj: dict) -> np.ndarray:
    """The matrix of ``{"p": p, "rows": [[...], ...]}``: p a JSON integer
    and every entry a JSON number (a bool or a string is neither)."""
    try:
        p, rows = obj["p"], obj["rows"]
    except (KeyError, TypeError) as exc:
        raise SymMatError(f"malformed SymMat JSON: {exc}") from exc
    if isinstance(p, bool) or not isinstance(p, int):
        raise SymMatError(f"p must be an integer, got {p!r}")
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for r in rows for v in r)):
        raise SymMatError("rows must be a list of lists of numbers")
    try:
        a = np.asarray(rows, dtype=float)
    except (OverflowError, ValueError) as exc:  # a huge integer, ragged rows
        raise SymMatError(f"malformed rows: {exc}") from exc
    if a.shape != (p, p):
        raise SymMatError(f"rows shape {a.shape} does not match p={p}")
    return check_symmetric(a)


def load_symmat(path) -> np.ndarray:
    with open(path) as fh:
        return symmat_from_json(json.load(fh))


def save_symmat(path, f: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump(symmat_to_json(f), fh, indent=2)
