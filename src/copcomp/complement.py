"""Analysis of a complementary pair (X0, U0).

Restriction/embedding between full and block coordinates, the dual
decomposition of U0 over the zero structure of X0, the three
non-degeneracy assumption checkers, the derived conditions i)-iii),
positive factorization of the restricted blocks, and factorization
alignment by orthogonal transforms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, nnls

from .symcore import (
    PSD_INTERIOR,
    NOT_PSD,
    Tolerances,
    outer_columns,
    psd_status,
    rank_of_set,
    rank_of_vectors,
    symmetrize,
)
from .zerostruct import ZeroStructure, pair_sums

PASS = "PASS"
FAIL = "FAIL"
UNKNOWN = "UNKNOWN"

# strictness margin for the vertex-pair representation behind Assumption j)
DELTA_STRICT = 1e-6


class ComplementError(ValueError):
    """Raised when inputs are not a complementary pair within tolerance."""


@dataclass
class Verdict:
    status: str
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def conv(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, dict):
                return {str(k): conv(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            return v

        return {"status": self.status, "certificate": conv(self.certificate)}


@dataclass
class DualDecomposition:
    """Component matrices U0(s) realizing U0 = sum_s U0(s) over the blocks."""

    components: list  # full p x p matrices, supported on P_*(s) x P_*(s)
    restricted: list  # W0(s) of order p(s)
    coefficients: list  # per block: {vertex subset: positive NNLS weight}
    residual: float
    basis_rank: int  # rank of the basis-pair family (Assumption jj's)
    basis_pairs: int  # its size; the grouping is unique iff they agree

    @property
    def unique(self) -> bool:
        return self.basis_rank == self.basis_pairs

    def total(self) -> np.ndarray:
        p = self.components[0].shape[0] if self.components else 0
        out = np.zeros((p, p))
        for c in self.components:
            out += c
        return out

    def to_json(self) -> dict:
        return {
            "components": [c.tolist() for c in self.components],
            "restricted": [w.tolist() for w in self.restricted],
            "coefficients": [
                {"+".join(str(j + 1) for j in combo): float(w)
                 for combo, w in coeff.items()}
                for coeff in self.coefficients
            ],
            "residual": self.residual,
            "unique": self.unique,
        }


@dataclass
class AssumptionReport:
    j: Verdict
    jj: Verdict
    jjj: Verdict
    cond_i: Verdict
    cond_ii: Verdict
    cond_iii: Verdict

    def to_json(self) -> dict:
        return {name: getattr(self, name).to_json()
                for name in ("j", "jj", "jjj", "cond_i", "cond_ii", "cond_iii")}


def restrict(x: np.ndarray, support) -> np.ndarray:
    """Principal submatrix on the block support (ascending order kept)."""
    idx = np.asarray(sorted(support))
    return np.asarray(x, dtype=float)[np.ix_(idx, idx)]


def embed(w: np.ndarray, support, p: int) -> np.ndarray:
    """Place an order-p(s) matrix on P_*(s) x P_*(s) inside a zero p x p matrix."""
    idx = np.asarray(sorted(support))
    w = np.asarray(w, dtype=float)
    if w.shape != (len(idx), len(idx)):
        raise ValueError(f"order mismatch: {w.shape} vs support size {len(idx)}")
    out = np.zeros((p, p))
    out[np.ix_(idx, idx)] = w
    return out


def _subset_columns(vectors, groups):
    """Subset-sum generators of each group of vectors, and their NNLS matrix.

    ``groups`` lists index tuples into ``vectors``.  For every group s and
    every nonempty subset combo of it, in itertools order (by size, then
    lexicographic), returns the label (s, combo), the subset sum g as a row
    of ``gens`` and vec(g g') as a column of the C-contiguous (p^2, n)
    matrix ``cols``.  Sums are added left to right, the order of
    ``np.sum(..., axis=0)``.

    For the blocks of a zero structure every subset sum lies in
    cone T_a(s, X0), so these are legitimate generators of F(s).  The
    family contains the vertex-pair sums used by the strict-complementarity
    test but also reaches components such as a rank-one
    (tau(1)+...+tau(n)) outer product that no conic combination of pair
    outers can produce.
    """
    vectors = np.asarray(vectors, dtype=float)
    labels, sums = [], [np.zeros((0, vectors.shape[1]))]
    for s, members in enumerate(groups):
        members = sorted(members)
        for r in range(1, len(members) + 1):
            combos = list(itertools.combinations(members, r))
            idx = np.array(combos)
            g = vectors[idx[:, 0]]
            for c in range(1, r):
                g = g + vectors[idx[:, c]]
            labels += [(s, combo) for combo in combos]
            sums.append(g)
    gens = np.vstack(sums)
    return labels, gens, outer_columns(gens)


def face_nnls(vectors, groups, target):
    """NNLS of ``target`` over the subset-sum generators of each group
    (:func:`_subset_columns`), restricted to the face of the target.

    Generators are nonnegative, so a g g' positive where the target is
    exactly 0.0 cannot carry weight in an exact fit: it gets weight 0 and
    stays out of the NNLS, whose kept columns keep their order.  A vector
    whose own outer product meets such a zero leaves its group before the
    subsets are built.  No tolerance is involved, so the rule commutes
    with index permutation and with positive or scalar scaling.  Returns
    per group the sum w g g' and the positive weights {combo: w}, and the
    residual ||fit - target||_F.
    """
    target = np.asarray(target, dtype=float)
    vectors = np.asarray(vectors, dtype=float).reshape(-1, len(target))
    zero, pos = target == 0.0, vectors > 0.0
    groups = [[j for j in sorted(g) if not zero[np.ix_(pos[j], pos[j])].any()]
              for g in groups]
    labels, gens, cols = _subset_columns(vectors, groups)
    keep = ~np.any(cols[zero.ravel()] > 0.0, axis=0)
    weights = np.zeros(len(labels))
    if keep.any():
        weights[keep], _ = nnls(np.ascontiguousarray(cols[:, keep]), target.ravel())
    components = [np.zeros(target.shape) for _ in groups]
    coefficients = [dict() for _ in groups]
    for weight, (s, combo), g in zip(weights, labels, gens):
        if weight == 0.0:
            continue  # NNLS leaves most subset weights at exactly zero
        components[s] += weight * np.outer(g, g)
        coefficients[s][combo] = float(weight)
    return components, coefficients, float(np.linalg.norm(cols @ weights - target.ravel()))


def _basis_pair_rank(zs: ZeroStructure, tol: Tolerances) -> tuple[int, int]:
    """Rank and size of the basis-pair family {(tau(i)+tau(j))(tau(i)+tau(j))'
    : i <= j in J_b(s)}, whose independence is Assumption jj."""
    mats = [np.outer(g, g) for jb in zs.basis for g in pair_sums(zs.vertices, jb)]
    return rank_of_set(mats, tol), len(mats)


def decompose_dual(u: np.ndarray, zs: ZeroStructure, tol: Tolerances = Tolerances()) -> DualDecomposition:
    """Nonnegative least squares of U over the pooled subset-sum
    generators on the face of U (:func:`face_nnls`: a generator with
    g g' > 0 where U is exactly 0 gets weight 0), grouped by block into
    the components U0(s).  Uniqueness of the grouping follows from
    independence of the basis-pair generators, so the decomposition
    carries the rank of that family, which Assumption jj reports as well;
    without it the components are one representative, which can depend
    on the index order."""
    u = symmetrize(u)
    if abs(float(np.tensordot(zs.x, u))) > tol.slack:
        raise ComplementError("X . U exceeds tolerance; pair is not complementary")
    if not zs.blocks:
        if np.linalg.norm(u) > tol.zero_tol:
            raise ComplementError("empty zero set admits only U = 0")
        return DualDecomposition([], [], [], 0.0, 0, 0)
    components, coefficients, residual = face_nnls(zs.vertices, zs.blocks, u)
    if residual > tol.slack:
        raise ComplementError(
            f"U is not representable over the zero-set generators "
            f"(residual {residual:.3e}); not complementary to X in CP"
        )
    restricted = [restrict(components[s], zs.supports[s]) for s in range(len(zs.blocks))]
    return DualDecomposition(components, restricted, coefficients, residual,
                             *_basis_pair_rank(zs, tol))


def _strictness_lp(w_restricted: np.ndarray, bars: list[np.ndarray], slack: float):
    """max gamma s.t. sum a_ij bar bar' ~ W, a >= gamma >= 0.

    Equality is relaxed entrywise by ``slack`` to absorb the NNLS residual
    of the decomposition that produced W.
    """
    m = len(bars)
    cols = outer_columns(bars)
    nrow = cols.shape[0]
    # variables: a_1..a_m, gamma
    c = np.zeros(m + 1)
    c[m] = -1.0
    a_ub = np.zeros((2 * nrow + m, m + 1))
    b_ub = np.zeros(2 * nrow + m)
    a_ub[:nrow, :m] = cols
    b_ub[:nrow] = w_restricted.ravel() + slack
    a_ub[nrow:2 * nrow, :m] = -cols
    b_ub[nrow:2 * nrow] = -(w_restricted.ravel() - slack)
    a_ub[2 * nrow:, :m] = -np.eye(m)
    a_ub[2 * nrow:, m] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0.0, None)] * m + [(0.0, None)],
                  method="highs")
    if not res.success:
        return None
    return float(-res.fun)


def check_assumption_j(zs: ZeroStructure, dd: DualDecomposition, tol: Tolerances = Tolerances()) -> Verdict:
    """Strict-complementarity check through the finite-generator form.

    Per block, maximize the smallest pair weight in a representation of
    W0(s) over the vertex-pair generators.  PASS when every block admits
    weights >= DELTA_STRICT.  FAIL on a robust obstruction: either the
    range of W0(s) differs from span{tau_*(j)} or the strictness LP is
    pinned at zero.  Borderline optima are reported UNKNOWN.
    """
    per_block = []
    status = PASS
    for s, block in enumerate(zs.blocks):
        taus = zs.block_vectors(s)
        w0 = dd.restricted[s]
        # necessary range condition: range(W0(s)) inside and onto span{tau_*}
        rank_tau = rank_of_vectors(taus, tol)
        rank_w = rank_of_vectors(list(w0), tol) if np.linalg.norm(w0) > 0 else 0
        rank_joint = rank_of_vectors(taus + list(w0), tol)
        range_ok = (rank_w == rank_tau) and (rank_joint == rank_tau)
        bars = pair_sums(taus, range(len(block)))
        slack = max(10 * dd.residual, tol.zero_tol)
        gamma = _strictness_lp(w0, bars, slack)
        entry = {
            "block": s + 1,
            "gamma": gamma,
            "range_ok": range_ok,
            "rank_w": rank_w,
            "rank_tau": rank_tau,
        }
        per_block.append(entry)
        if gamma is not None and gamma >= DELTA_STRICT:
            continue
        if not range_ok or gamma is None or gamma <= 10 * slack:
            # robust obstruction: rank mismatch, infeasibility, or
            # strictness pinned at zero over the vertex-pair family
            status = FAIL
        elif status == PASS:
            status = UNKNOWN
    return Verdict(status, {"blocks": per_block, "delta_strict": DELTA_STRICT})


def check_assumption_jj(dd: DualDecomposition) -> Verdict:
    """Linear independence of the basis-pair rank-one matrices."""
    status = PASS if dd.unique else FAIL
    return Verdict(status, {"rank": dd.basis_rank, "expected": dd.basis_pairs})


def check_assumption_jjj(zs: ZeroStructure) -> Verdict:
    """Exact set comparison M(j) == P_*(s) for every block member."""
    offending = []
    for s, block in enumerate(zs.blocks):
        target = set(zs.supports[s])
        for j in block:
            if set(zs.contact_sets[j]) != target:
                offending.append({
                    "block": s + 1,
                    "vertex": j + 1,
                    "contact_set": [k + 1 for k in zs.contact_sets[j]],
                    "support": [k + 1 for k in zs.supports[s]],
                })
    status = PASS if not offending else FAIL
    return Verdict(status, {"offending": offending})


def positive_factorization(w: np.ndarray, taus_restricted: list,
                           tol: Tolerances = Tolerances()):
    """Strictly positive factor M with M M' == W, or None when unavailable.

    Follows the theta-shift construction: decompose W over the restricted
    subset-sum generators, then form columns sqrt(mu_k(theta)) *
    (b_k + theta t_hat) for a decreasing theta grid; the first theta
    giving all-positive weights and columns with a small product residual
    is accepted.
    """
    w = symmetrize(w)
    if psd_status(w, tol)[0] == NOT_PSD:
        raise ValueError("W must be PSD for positive factorization")
    taus = np.asarray(taus_restricted, dtype=float)
    _, [alpha], residual = face_nnls(taus, [range(len(taus))], w)
    if residual > tol.slack:
        return None
    # drop numerically-inactive generators; the product check below bounds
    # the total truncation error
    cutoff = tol.zero_tol * max(1.0, max(alpha.values(), default=0.0))
    bst = [np.sqrt(a) * np.sum(taus[list(combo)], axis=0)
           for combo, a in alpha.items() if a > cutoff]
    if not bst:
        return None if np.linalg.norm(w) > tol.zero_tol else np.zeros((w.shape[0], 0))
    t_hat = np.sum(bst, axis=0)
    gamma = len(bst)
    target = np.outer(t_hat, t_hat).ravel()
    for theta in (0.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        shifted = [b + theta * t_hat for b in bst]
        if theta > 0.0:
            shift_cols = outer_columns(shifted)
            beta, _, _, _ = np.linalg.lstsq(shift_cols, target, rcond=None)
            if np.linalg.norm(shift_cols @ beta - target) > 1e-8:
                continue
            mu = 1.0 - (2.0 * theta + theta ** 2 * gamma) * beta
        else:
            mu = np.ones(gamma)
        if np.min(mu) <= 0.0:
            continue
        m = np.column_stack([np.sqrt(mu[k]) * shifted[k] for k in range(gamma)])
        if m.size and np.min(m) <= 0.0:
            continue
        if np.linalg.norm(m @ m.T - w) <= tol.slack:
            return m
    return None


def check_conditions(zs: ZeroStructure, dd: DualDecomposition,
                     tol: Tolerances = Tolerances()):
    """Conditions i)-iii): uniqueness, positive factorization, PSD structure."""
    cond_i = Verdict(PASS if dd.unique else FAIL, {"unique": dd.unique})

    factor_info = []
    status_ii = PASS
    for s in range(len(zs.blocks)):
        m = positive_factorization(dd.restricted[s], zs.block_vectors(s), tol)
        if m is None:
            status_ii = FAIL
            factor_info.append({"block": s + 1, "factor": None})
        else:
            factor_info.append({"block": s + 1, "factor": m,
                                "min_entry": float(np.min(m)) if m.size else None})
    cond_ii = Verdict(status_ii, {"blocks": factor_info})

    status_iii = PASS
    iii_info = []
    for s in range(len(zs.blocks)):
        xs = restrict(zs.x, zs.supports[s])
        ws = dd.restricted[s]
        vx, lx = psd_status(xs, tol)
        vw, lw = psd_status(ws, tol)
        vs, ls = psd_status(xs + ws, tol)
        ok = vx != NOT_PSD and vw != NOT_PSD and vs == PSD_INTERIOR
        if not ok:
            status_iii = FAIL
        iii_info.append({"block": s + 1, "x": (vx, lx), "w": (vw, lw),
                         "sum": (vs, ls)})
    cond_iii = Verdict(status_iii, {"blocks": iii_info})
    return cond_i, cond_ii, cond_iii


def check_assumptions(x: np.ndarray, u: np.ndarray, zs: ZeroStructure,
                      dd: DualDecomposition, tol: Tolerances = Tolerances()) -> AssumptionReport:
    x = symmetrize(x)
    u = symmetrize(u)
    if abs(float(np.tensordot(x, u))) > tol.slack:
        raise ComplementError("pair is not complementary within tolerance")
    jjj = check_assumption_jjj(zs)
    jj = check_assumption_jj(dd)
    j = check_assumption_j(zs, dd, tol)
    cond_i, cond_ii, cond_iii = check_conditions(zs, dd, tol)
    return AssumptionReport(j=j, jj=jj, jjj=jjj,
                            cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii)


def align_factorizations(b: np.ndarray, m: np.ndarray, tol: Tolerances = Tolerances()):
    """Orthogonal Omega with B Omega == M given B B' == M M'.

    Widths are equalized by splitting the first column of the narrower
    factor into equal-norm copies; Omega is the polar factor of B' M.
    Returns (Omega, B_padded, M_padded) or None when the precondition
    fails.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if b.shape[0] != m.shape[0]:
        raise ValueError("factor row dimensions differ")
    if np.linalg.norm(b @ b.T - m @ m.T) > max(tol.zero_tol, 1e-9):
        return None

    def widen(f: np.ndarray, width: int) -> np.ndarray:
        extra = width - f.shape[1]
        if extra <= 0:
            return f
        first = f[:, [0]] / np.sqrt(extra + 1)
        return np.hstack([np.repeat(first, extra + 1, axis=1), f[:, 1:]])

    width = max(b.shape[1], m.shape[1])
    b = widen(b, width)
    m = widen(m, width)
    uu, _, vt = np.linalg.svd(b.T @ m)
    omega = uu @ vt
    if np.linalg.norm(b @ omega - m) > 1e-8:
        return None
    return omega, b, m
