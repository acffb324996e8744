"""Barycentric grid oracle for min t'Xt over the standard simplex: an
independent reference the tests compare ``copcomp.cones.is_copositive``
against.  It shares no code with the exact support sweep, and its value is
an upper bound on the simplex minimum at every grid depth."""

import itertools

import numpy as np

from copcomp.symcore import symmetrize


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
