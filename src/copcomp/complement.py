"""Analysis of a complementary pair (X0, U0).

The embedding of block coordinates into full ones, the one
completely-positive test (a nonnegative least-squares fit over subset
sums of generators, shared by the dual decomposition of U0 into the
blocks W0(s) on the supports P_*(s) of the zero structure of X0 and by
the path checks), the three non-degeneracy assumption checkers, the
derived conditions i)-iii), and positive factorization of the blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cones import doubly_nonnegative, unit_scale
from .symcore import (
    PSD_INTERIOR,
    NOT_PSD,
    Tolerances,
    linprog,
    nnls,
    outer_columns,
    psd_status,
    rank_of_vectors,
    svec,
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


@dataclass
class DualDecomposition:
    """Blocks W0(s) on the supports P_*(s) realizing
    U0 = sum_s embed(W0(s), P_*(s), p), with the fit that produced them."""

    restricted: list  # W0(s) of order p(s)
    coefficients: list  # per block: {vertex subset: positive NNLS weight}
    residual: float


@dataclass
class AssumptionReport:
    j: Verdict
    jj: Verdict
    jjj: Verdict
    cond_i: Verdict
    cond_ii: Verdict
    cond_iii: Verdict


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
    of ``gens`` and svec(g g') as a column of ``cols`` (``outer_columns``).
    Sums are added left to right, the order of ``np.sum(..., axis=0)``.

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
    with index permutation and with positive or scalar scaling.  The fit
    reads target / 2^e (:func:`unit_scale`), so no norm in it overflows,
    and maps its weights and residual back exactly.  Returns per group the
    sum w g g' on the group's support, the ascending union of its vectors'
    nonzero entries read before any vector leaves it (for a block, P_*(s)),
    and the positive weights {combo: w}, and the residual ||fit - target||_F,
    the norm of the svec fit (an isometry).
    """
    target = np.asarray(target, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if vectors.size and vectors.shape[-1] != len(target):
        raise ValueError(f"vectors of length {vectors.shape[-1]} do not match "
                         f"a target of order {len(target)}")
    vectors = vectors.reshape(-1, len(target))
    supports = [np.flatnonzero(np.any(vectors[sorted(g)] != 0.0, axis=0))
                for g in groups]
    zero, pos = target == 0.0, vectors > 0.0
    groups = [[j for j in sorted(g) if not zero[np.ix_(pos[j], pos[j])].any()]
              for g in groups]
    labels, gens, cols = _subset_columns(vectors, groups)
    scaled, e = unit_scale(target)
    b = svec(scaled)
    keep = ~np.any(cols[b == 0.0] > 0.0, axis=0)
    weights = np.zeros(len(labels))
    if keep.any():
        weights[keep], _ = nnls(np.ascontiguousarray(cols[:, keep]), b)
    residual = float(np.ldexp(np.linalg.norm(cols @ weights - b), e))
    weights = np.ldexp(weights, e)
    blocks = [np.zeros((len(ps), len(ps))) for ps in supports]
    coefficients = [dict() for _ in groups]
    for weight, (s, combo), g in zip(weights, labels, gens):
        if weight == 0.0:
            continue  # NNLS leaves most subset weights at exactly zero
        h = g[supports[s]]
        blocks[s] += weight * np.outer(h, h)
        coefficients[s][combo] = float(weight)
    return blocks, coefficients, residual


@dataclass
class CpCertificate:
    member: bool  # face fit within zero_tol, or DNN at order <= 4
    residual: float  # of the face fit
    doubly_nonnegative: bool


def cp_membership(u: np.ndarray, generators, tol: Tolerances = Tolerances()) -> CpCertificate:
    """The package's completely-positive test of U on the face that a
    finite nonnegative generator set spans.

    U is a member when the fit of :func:`face_nnls` over the generators'
    subset sums, the family :func:`decompose_dual` fits, leaves a residual
    <= zero_tol, or when U has order <= 4 and is doubly nonnegative: there
    DNN equals CP (Maxfield & Minc, 1962).  The doubly-nonnegative test is
    reported alongside.
    """
    u = symmetrize(u)
    gens = np.asarray(generators, dtype=float)
    if not gens.size:
        raise ValueError("generator set must be nonempty")
    if np.min(gens) < -tol.zero_tol:
        raise ValueError("generators must be entrywise nonnegative")
    _, _, residual = face_nnls(gens, [range(len(gens))], u)
    dnn = doubly_nonnegative(u, tol)
    return CpCertificate(residual <= tol.zero_tol or (len(u) <= 4 and dnn), residual, dnn)


def decompose_dual(u: np.ndarray, zs: ZeroStructure, tol: Tolerances = Tolerances()) -> DualDecomposition:
    """Nonnegative least squares of U over the pooled subset-sum
    generators on the face of U (:func:`face_nnls`: a generator with
    g g' > 0 where U is exactly 0 gets weight 0), grouped by block into
    the W0(s) on the supports P_*(s)."""
    u = symmetrize(u)
    if abs(float(np.tensordot(zs.x, u))) > tol.slack:
        raise ComplementError("X . U exceeds tolerance; pair is not complementary")
    if not zs.blocks:
        if np.linalg.norm(u) > tol.zero_tol:
            raise ComplementError("empty zero set admits only U = 0")
        return DualDecomposition([], [], 0.0)
    restricted, coefficients, residual = face_nnls(zs.vertices, zs.blocks, u)
    if residual > tol.slack:
        raise ComplementError(
            f"U is not representable over the zero-set generators "
            f"(residual {residual:.3e}); not complementary to X in CP"
        )
    return DualDecomposition(restricted, coefficients, residual)


def _strictness_lp(w_restricted: np.ndarray, bars: list[np.ndarray], slack: float):
    """max gamma s.t. sum a_ij bar bar' ~ W, a >= gamma >= 0.

    Equality is relaxed entrywise by ``slack`` to absorb the NNLS residual
    of the decomposition that produced W.  The LP is posed over
    a = gamma 1 + b with b >= 0 on svec(W) +- svec(slack 1): one scaled
    row per entry i <= j, so the feasible set is the same.
    """
    m = len(bars)
    cols = outer_columns(bars)
    # variables: b_1..b_m, gamma
    a = np.hstack([cols, cols.sum(axis=1, keepdims=True)])
    w, band = svec(w_restricted), svec(np.full(w_restricted.shape, slack))
    c = np.zeros(m + 1)
    c[m] = -1.0
    x = linprog(c, np.vstack([a, -a]), np.concatenate([w + band, band - w]))
    return None if x is None else float(x[m])


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


def positive_factorization(w: np.ndarray, taus, weights: dict,
                           tol: Tolerances = Tolerances()):
    """Strictly positive factor M with M M' == W, or None when unavailable.

    Follows the theta-shift construction from a decomposition W =
    sum alpha g g' over subset sums g of the rows of ``taus``, given as
    ``weights`` {index tuple into taus: alpha} (the dual decomposition's
    ``coefficients``): form columns sqrt(mu_k(theta)) * (b_k + theta t_hat)
    for a decreasing theta grid; the first theta giving all-positive
    weights and columns with a small product residual is accepted.
    """
    w = symmetrize(w)
    # relative to max|W|, as in check_symmetric: a W summed from nonnegative
    # weights is PSD up to rounding that grows with its scale
    bound = tol.psd_tol * max(1.0, np.max(np.abs(w), initial=0.0))
    if psd_status(w, tol)[1] < -bound:
        raise ValueError("W must be PSD for positive factorization")
    taus = np.asarray(taus, dtype=float)
    # drop numerically-inactive generators; the product check below bounds
    # the total truncation error
    cutoff = tol.zero_tol * max(1.0, max(weights.values(), default=0.0))
    bst = [np.sqrt(a) * np.sum(taus[list(combo)], axis=0)
           for combo, a in weights.items() if a > cutoff]
    if not bst:
        return None if np.linalg.norm(w) > tol.zero_tol else np.zeros((w.shape[0], 0))
    t_hat = np.sum(bst, axis=0)
    gamma = len(bst)
    target = outer_columns([t_hat])[:, 0]
    for theta in (0.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        shifted = [b + theta * t_hat for b in bst]
        if theta > 0.0:
            shift_cols = outer_columns(shifted)
            beta, _, _, _ = np.linalg.lstsq(shift_cols, target, rcond=None)
            if np.linalg.norm(shift_cols @ beta - target) > tol.slack:
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
    """Conditions ii) and iii): positive factorization, PSD structure."""
    factor_info = []
    status_ii = PASS
    for s, support in enumerate(zs.supports):
        taus = np.asarray(zs.vertices)[:, list(support)]  # keyed as dd's weights
        m = positive_factorization(dd.restricted[s], taus, dd.coefficients[s], tol)
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
        ps = zs.supports[s]
        xs = zs.x[np.ix_(ps, ps)]
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
    return cond_ii, cond_iii


def check_assumptions(zs: ZeroStructure, dd: DualDecomposition,
                      tol: Tolerances = Tolerances()) -> AssumptionReport:
    """Assumptions j)-jjj) and conditions i)-iii); decompose_dual gated the pair.

    Assumption jj) and condition i) read one rank, that of the basis-pair
    family {(tau(i)+tau(j))(tau(i)+tau(j))' : i <= j in J_b(s)}, a fact of
    X's zero structure alone.  Uniqueness of the grouping of U into the
    W0(s) follows from independence of that family; without it the W0(s)
    are one representative, which can depend on the index order.
    """
    jjj = check_assumption_jjj(zs)
    gens = [g for jb in zs.basis for g in pair_sums(zs.vertices, jb)]
    rank = rank_of_vectors(outer_columns(gens).T, tol)
    unique = rank == len(gens)
    jj = Verdict(PASS if unique else FAIL, {"rank": rank, "expected": len(gens)})
    j = check_assumption_j(zs, dd, tol)
    cond_i = Verdict(PASS if unique else FAIL, {"unique": unique})
    cond_ii, cond_iii = check_conditions(zs, dd, tol)
    return AssumptionReport(j=j, jj=jj, jjj=jjj,
                            cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii)

