"""Membership tests for the copositive cone, and the doubly-nonnegative
necessary test for the completely positive one.

The copositivity test is exact at desk scale: it enumerates KKT supports
of the quadratic t' X t over the standard simplex.  CP membership relative
to a finite generator set is fitted in :mod:`complement`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .symcore import SymMatError, Tolerances, psd_status, symmetrize

EXACT_COPOSITIVITY_LIMIT = 12
FACE_CHUNK = 128


class OrderLimitError(ValueError):
    """Exact copositivity path refused: X is above EXACT_COPOSITIVITY_LIMIT."""


@dataclass
class CopVerdict:
    member: bool
    # min t'Xt over the simplex; on the negative-diagonal short circuit the
    # least diagonal entry instead, an upper bound on that minimum
    min_value: float
    argmin: np.ndarray
    # simplex vector with t'Xt below the member floor; None for a member
    witness: np.ndarray | None = None
    # supports decided, not faces solved: 2^p - 1, or 0 on a negative diagonal
    supports_checked: int = 0
    zeros: list = field(default_factory=list)  # zero vertices
    contact_sets: list = field(default_factory=list)  # 0-based, one per zero


def unit_scale(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(X / 2^e, e), 2^e the power of two nearest max|X|, read off the
    exponent bits (e = 0 for X = 0): the one copy of X every zero-structure
    test reads.  Dividing is exact, so 2^k X has the same copy, with e + k."""
    e = math.frexp(math.sqrt(0.5) * float(np.max(np.abs(x), initial=0.0)))[1]
    return np.ldexp(x, -e), e


def _components(x: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the graph with an edge i-j
    wherever x_ij != 0.0, each ascending, in order of their least index.
    Squaring the reach matrix doubles the path length it covers."""
    p = x.shape[0]
    reach = (x != 0.0) | np.eye(p, dtype=bool)
    for _ in range((p - 1).bit_length()):
        reach = reach @ reach
    comps, seen = [], np.zeros(p, dtype=bool)
    for i in range(p):
        if not seen[i]:
            comps.append(np.flatnonzero(reach[i]))
            seen |= reach[i]
    return comps


def _sweep(x: np.ndarray, comp: np.ndarray,
           tol: Tolerances) -> tuple[float, np.ndarray, list, list]:
    """(min t'Xt over the simplex vectors supported in the component comp,
    the first minimizer in support order, the zeros, their contact sets as
    boolean masks), all of order p, solving every face of X within comp;
    see :func:`is_copositive`."""
    p = x.shape[0]
    diag = np.diag(x)[comp]
    k = comp[int(np.argmin(diag))]
    best_val = float(x[k, k])
    best_t = np.zeros(p)
    best_t[k] = 1.0
    cols = x[comp]  # row k of the symmetric X is X e_k
    contact = np.abs(cols) <= tol.zero_tol
    single = (np.abs(diag) <= min(tol.psd_tol, tol.zero_tol)) & (np.min(cols, axis=1) >= -tol.zero_tol)
    zeros, contacts = list(np.eye(p)[comp][single]), list(contact[single])
    for size in range(2, len(comp) + 1):
        faces = itertools.combinations(comp.tolist(), size)
        # FACE_CHUNK supports at a time, drawn lazily, cap the memory of the
        # supports and the SVD at O(FACE_CHUNK), not C(p, size): 12,870 at p = 16
        while chunk := list(itertools.islice(faces, FACE_CHUNK)):
            supports = np.array(chunk)
            xi = x[supports[:, :, None], supports[:, None, :]]
            a = np.zeros((len(supports), size + 1, size + 1))
            a[:, :size, :size] = 2.0 * xi
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
            rows = np.zeros((len(ti), p))
            np.put_along_axis(rows, supports[full][ok], ti, axis=1)
            s = 0.5 * sig[full][ok]  # those of [[X_I, 1/2], [1/2', 0]]
            delta = tol.psd_tol * np.maximum(1.0, s[:, 0])
            ray = vals / np.einsum("mi,mi->m", ti, ti)
            xt = rows @ x
            contact = np.abs(xt) <= tol.zero_tol
            vertex = ((np.min(ti, axis=1) > tol.zero_tol)
                      & np.take_along_axis(contact, supports[full][ok], axis=1).all(axis=1)
                      & (np.min(xt, axis=1) >= -tol.zero_tol)
                      & (np.abs(ray) <= delta) & (s[:, -1] > delta))
            zeros.extend(rows[vertex])
            contacts.extend(contact[vertex])
            m = int(np.argmin(vals))
            if vals[m] < best_val:
                best_val, best_t = float(vals[m]), rows[m].copy()
    return best_val, best_t, zeros, contacts


def is_copositive(x: np.ndarray, tol: Tolerances = Tolerances()) -> CopVerdict:
    """Exact combinatorial copositivity decision for small orders.

    Every test below reads X / 2^e of :func:`unit_scale`, so 2^k X gets
    the verdict, ``argmin``, ``zeros`` and ``contact_sets`` of X and 2^k
    times its ``min_value``, the one output mapped back to the units of X.
    Minimizes t'Xt over the simplex by enumerating KKT supports; member
    iff the minimum is >= -zero_tol.  A diagonal entry under that floor
    short circuits with a coordinate-vector witness; ``min_value`` then
    holds that diagonal entry, an upper bound on the simplex minimum, not
    the minimum itself.

    X is first split into the connected components of the graph with an
    edge i-j wherever x_ij != 0.0; the split needs no tolerance, so it
    commutes with index permutation and positive scaling.  A block-diagonal
    X is copositive iff every block is (Hiriart-Urruty & Seeger, SIAM
    Review 52, 2010), and the faces within one component are swept as
    below, in X's own coordinates: each support is a combination of the
    component's indices, generated FACE_CHUNK at a time, so the sweep's
    memory does not grow with C(p, k).  The components' minima m_k
    combine exactly: t = sum a_k t_k gives t'Xt = sum a_k^2 t_k'X t_k,
    so the minimum is min_k m_k when that is <= 0, attained at that
    component's minimizer, and otherwise 1 / sum_k (1/m_k), attained at
    sum_k s_k t_k with s_k proportional to 1/m_k.  No face is lost: a
    face I meeting two components has X_I = X_I1 (+) X_I2, its value
    sum a_k^2 q_k is never below that minimum, and it yields no zero,
    since a zero has lam = 0, so t would vanish on a nonsingular part, and
    with both parts singular X_I has two null eigenvalues.
    ``supports_checked`` counts the 2^p - 1 supports so decided, not the
    faces solved.

    A face I is solved only when its KKT system 2 X_I t = lam * 1,
    sum(t) = 1 has a unique solution: its bordered matrix has full
    numerical rank (smallest singular value above lstsq's cutoff
    eps * (k + 1) * sigma_max, up to FACE_CHUNK faces in one batched SVD),
    and the solution is read from the SVD by plain division.  A solution
    that is nonnegative within zero_tol is a candidate of value t'Xt.  A
    rank-deficient face needs no solve: lam/2 = t'X_I t is the same at
    every KKT point, and a feasible one can be moved along the kernel to a
    vertex of the feasible polytope, which lies on a smaller face.
    Repeating the step ends on a face whose KKT system has a single,
    strictly positive solution, so that face records the same value and no
    minimum is lost.

    A solved face's t goes to ``zeros`` when it is strictly positive (above
    zero_tol), (Xt)_k is within zero_tol of 0 for k in I and >= -zero_tol
    for every k, and X_I has exactly one eigenvalue within delta = psd_tol
    * max(1, sigma_max) of 0, sigma_max, sigma_min the extreme singular
    values of the symmetric [[X_I, 1/2], [1/2', 0]].  The Rayleigh quotient
    t'X_I t / t't <= delta shows one; sigma_min > delta shows there is no
    second, as the eigenvalues of X_I interlace those of that matrix, whose
    moduli are its singular values.  With a second, t would be an inner point of an edge of the zero set.
    The zero rule bounds |t'Xt| = |sum_I t_k (Xt)_k| by zero_tol.  e_k goes
    to ``zeros`` when |x_kk| <= min(psd_tol, zero_tol) and column k of X is
    >= -zero_tol.  The same numbers give each zero's contact set
    M = {k : |(Xt)_k| <= zero_tol} in ``contact_sets``, so supp(t) lies in
    M, as does every index outside t's component, where X is exactly 0.0
    and so is Xt.  Off its face a zero is exactly 0.0, so its support is
    read exactly, without a tolerance.
    ``zeros`` and ``contact_sets`` are ordered by the zeros' coordinates
    rounded to 12 decimals.

    Within a component, ``argmin`` is the first minimizer in support order
    (by size, then lexicographic); among components tied at a minimum <= 0
    it is that of the one with the least index.  When minimizers tie,
    rounding can decide which one is reported; ``min_value`` is unaffected.
    """
    x = symmetrize(x)
    p = x.shape[0]
    if p > EXACT_COPOSITIVITY_LIMIT:
        raise OrderLimitError(
            f"exact copositivity limited to p <= {EXACT_COPOSITIVITY_LIMIT} (got {p})"
        )
    if p == 0:
        raise SymMatError("copositivity needs a matrix of order p >= 1, got order 0")
    x, e = unit_scale(x)
    diag = np.diag(x)
    k = int(np.argmin(diag))
    if diag[k] < -tol.zero_tol:
        t = np.zeros(p)
        t[k] = 1.0
        return CopVerdict(member=False, min_value=math.ldexp(float(diag[k]), e),
                          argmin=t, witness=t, supports_checked=0)

    mins, args, zeros = [], [], []
    for c in _components(x):
        val, t, zs, ms = _sweep(x, c, tol)
        mins.append(val)
        args.append(t)
        zeros.extend(zip(zs, (tuple(np.flatnonzero(m).tolist()) for m in ms)))
    zeros.sort(key=lambda zm: tuple(np.round(zm[0], 12)))
    i = int(np.argmin(mins))
    if len(mins) == 1 or mins[i] <= 0.0:
        best_val, best_t = mins[i], args[i]
    else:
        w = 1.0 / np.array(mins)
        best_val, best_t = float(1.0 / w.sum()), (w / w.sum()) @ np.array(args)
    member = best_val >= -tol.zero_tol
    witness = None if member else best_t
    return CopVerdict(member=member, min_value=math.ldexp(best_val, e), argmin=best_t,
                      witness=witness, supports_checked=2 ** p - 1,
                      zeros=[z for z, _ in zeros], contact_sets=[m for _, m in zeros])


def doubly_nonnegative(u: np.ndarray, tol: Tolerances) -> bool:
    """Necessary CP test: entrywise nonnegative and PSD (exact CP for p <= 4),
    min(U) and lambda_min(U) gated by zero_tol and psd_tol times max|U|, so
    both gates scale with U."""
    u = symmetrize(u)
    scale = np.max(np.abs(u), initial=0.0)
    return bool(np.min(u, initial=0.0) >= -tol.zero_tol * scale
                and psd_status(u, tol)[1] >= -tol.psd_tol * scale)
