"""Symmetric-matrix primitives: svec/smat, symmetric Kronecker product,
spectral and rank utilities with explicit tolerances, and the one door to
scipy's NNLS and LP solvers.

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
            if not (0.0 < v < 1.0):
                raise ValueError(f"{f.name} must be in (0, 1), got {v}")

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


def check_symmetric(a, tol: float = 1e-12) -> np.ndarray:
    """Symmetrize ``a`` if its asymmetry is at most tol * max(1, max|a|)."""
    sym = symmetrize(a)
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    bound = tol * np.max(np.abs(a), initial=1.0)
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


def null_eigenvalues(lam: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Zero-eigenvalue mask, |lam| <= psd_tol * max(1, max |lam|), per last axis."""
    lam = np.abs(lam)
    return lam <= tol.psd_tol * np.max(lam, axis=-1, keepdims=True, initial=1.0)


def outer_columns(gens) -> np.ndarray:
    """C-contiguous (p^2, n) matrix whose columns are vec(g g'), g the rows of gens."""
    gt = np.ascontiguousarray(np.asarray(gens, dtype=float).T)
    p, n = gt.shape
    return (gt[:, None, :] * gt[None, :, :]).reshape(p * p, n)


def nnls(a, b):
    """scipy's NNLS, imported at the first fit: loading scipy.optimize
    takes most of copcomp's start-up time, and the steps that run on numpy
    alone should not pay for it."""
    from scipy.optimize import nnls as solve
    return solve(a, b)


def linprog(*args, **kwargs):
    """scipy's linprog, imported at the first call (see :func:`nnls`)."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def rank_of_set(mats, tol: Tolerances) -> int:
    """Rank of a set of symmetric matrices via their stacked svec vectors."""
    mats = list(mats)
    if not mats:
        return 0
    p = np.asarray(mats[0]).shape[0]
    for m in mats:
        if np.asarray(m).shape != (p, p):
            raise SymMatError("rank_of_set requires matrices of equal order")
    return rank_of_vectors([svec(np.asarray(m, dtype=float)) for m in mats], tol)


def kernel_basis(f: np.ndarray, tol: Tolerances) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of a symmetric matrix."""
    lam, vecs = np.linalg.eigh(symmetrize(f))
    keep = null_eigenvalues(lam, tol)
    return [vecs[:, i].copy() for i in np.nonzero(keep)[0]]


def symmat_to_json(f: np.ndarray) -> dict:
    f = np.asarray(f, dtype=float)
    return {"p": int(f.shape[0]), "rows": f.tolist()}


def symmat_from_json(obj: dict) -> np.ndarray:
    try:
        p = int(obj["p"])
        rows = obj["rows"]
    except (KeyError, TypeError) as exc:
        raise SymMatError(f"malformed SymMat JSON: {exc}") from exc
    a = np.asarray(rows, dtype=float)
    if a.shape != (p, p):
        raise SymMatError(f"rows shape {a.shape} does not match p={p}")
    return check_symmetric(a, tol=1e-12)


def load_symmat(path) -> np.ndarray:
    with open(path) as fh:
        return symmat_from_json(json.load(fh))


def save_symmat(path, f: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump(symmat_to_json(f), fh, indent=2)
