import itertools

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog

from copcomp.cones import is_copositive, unit_scale
from copcomp.paperlab import (
    THETA_STAR,
    build_extremal5,
    build_pp3z_jjj,
    build_pp4z_cond_ii,
    build_pp4z_j,
    build_pp4z_jjj,
    build_s4,
    extremal5_matrix,
)
from copcomp.symcore import SymMatError, Tolerances
from copcomp.zerostruct import (
    ZeroStructureError,
    basis_subset,
    compute_zero_structure,
    pair_index_set,
    pair_sums,
    partition_blocks,
)
from oracles import simplex_min_oracle

TOL = Tolerances()
RNG = np.random.default_rng(20240819)


def test_pair_index_set():
    assert pair_index_set([2, 0]) == [(0, 0), (0, 2), (2, 2)]
    assert len(pair_index_set(range(4))) == 10


def test_pair_sums_match_the_pair_loop_bit_for_bit():
    rng = np.random.default_rng(20261022)
    vectors = list(rng.random((6, 5)))
    for indices in ([], [3], [4, 0, 2], range(6)):
        ref = [vectors[a] + vectors[b] for a, b in pair_index_set(indices)]
        got = pair_sums(vectors, indices)
        assert len(got) == len(ref)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [1e308, np.nan], ids=["1e308", "nan"])
@pytest.mark.parametrize("entry_point", [is_copositive, compute_zero_structure])
def test_entry_points_reject_non_finite_symmetrization(entry_point, entry):
    # unchecked, X + X' overflows to inf and the batched SVD of the
    # copositivity sweep does not return
    x = build_s4()["x"].copy()
    x[0, 0] = entry
    with pytest.raises(SymMatError):
        entry_point(x, TOL)
    x[0, 0] = 8e307  # 2 * 8e307 is still finite
    entry_point(x, TOL)


@pytest.mark.parametrize("entry_point", [is_copositive, compute_zero_structure])
def test_entry_points_reject_order_zero(entry_point):
    with pytest.raises(SymMatError, match="order 0"):
        entry_point(np.zeros((0, 0)), TOL)


def test_zero_vertices_reject_a_verdict_of_another_order():
    verdict = is_copositive(np.eye(2), TOL)
    with pytest.raises(ValueError, match="order 2 for x of order 3"):
        compute_zero_structure(np.eye(3), TOL, verdict)


def test_identity_has_empty_zero_set():
    zs = compute_zero_structure(np.eye(3), TOL)
    assert zs.vertices == [] and zs.blocks == []


def test_rejects_non_copositive():
    with pytest.raises(ZeroStructureError):
        compute_zero_structure(np.array([[1.0, -2.0], [-2.0, 1.0]]), TOL)


def test_worked_example_structure():
    data = build_s4()
    zs = compute_zero_structure(data["x"], TOL)
    found = sorted(tuple(np.round(v, 9)) for v in zs.vertices)
    assert found == [(0.0, 0.5, 0.5), (0.5, 0.5, 0.0)]
    assert sorted(zs.contact_sets) == [(0, 1), (1, 2)]
    assert len(zs.blocks) == 2
    assert sorted(zs.supports) == [(0, 1), (1, 2)]
    assert all(len(b) == 1 for b in zs.basis)
    assert not zs.overlapping_blocks


def test_contact_set_of_zero_matrix_is_everything():
    zs = compute_zero_structure(np.zeros((3, 3)), TOL)
    assert len(zs.vertices) == 3
    assert zs.contact_sets == [(0, 1, 2)] * 3


def test_extremal5_vertices_and_blocks():
    data = build_extremal5()
    zs = compute_zero_structure(data["x"], TOL)
    assert len(zs.vertices) == 5
    taus = [t / t.sum() for t in data["taus"]]
    for t in taus:
        assert min(np.linalg.norm(t - v, np.inf) for v in zs.vertices) <= 1e-8
    assert zs.blocks == [(0, 1, 2, 3, 4)]
    assert zs.supports == [(0, 1, 2, 3, 4)]
    assert len(zs.basis[0]) == 3  # numerical rank of the five vertices


SCALES = [2.0 ** -100, 2.0 ** -20, 1e-8, 1e4, 1e8, 2.0 ** 40, 1e10, 1e12]


@pytest.mark.parametrize("c", SCALES)
def test_scaled_hildebrand_keeps_its_five_zero_vertices(c):
    # the sweep's zero and sign rules read X / 2^e: at c = 1e8 roundoff
    # puts min(c X tau) near -3e-8, past the bound -zero_tol = -1e-9 on
    # c X itself, and at c = 1e12 |t'(c X)t| reaches 5e-5
    x = build_extremal5()["x"]
    ref = is_copositive(x, TOL).zeros
    got = is_copositive(c * x, TOL).zeros
    assert len(ref) == len(got) == 5
    for t, r in zip(got, ref):
        assert np.max(np.abs(t - r)) <= 1e-12


@pytest.mark.parametrize("c", SCALES)
def test_scaled_hildebrand_keeps_its_contact_sets_and_blocks(c):
    # the contact rule |(X tau)_k| <= zero_tol reads X / 2^e as the sweep's
    # sign rule does: at c = 1e8, (c X tau)_k on supp(tau) is -1.3e-8 to
    # -3.4e-8 from roundoff alone, and at c = 1e10 tau'(c X)tau is 3.3e-7
    x = build_extremal5()["x"]
    ref = compute_zero_structure(x, TOL)
    got = compute_zero_structure(c * x, TOL)
    assert got.contact_sets == ref.contact_sets
    assert got.blocks == ref.blocks and got.supports == ref.supports


@pytest.mark.parametrize("c", SCALES)
def test_scaled_s4_keeps_its_zero_structure(c):
    x = build_s4()["x"]
    ref = compute_zero_structure(x, TOL)
    got = compute_zero_structure(c * x, TOL)
    assert len(got.vertices) == len(ref.vertices) == 2
    for t, r in zip(got.vertices, ref.vertices):
        assert np.max(np.abs(t - r)) <= 1e-12
    assert got.contact_sets == ref.contact_sets
    assert got.blocks == ref.blocks and got.supports == ref.supports


def test_vertices_satisfy_kkt():
    for builder in (build_s4, build_extremal5):
        x = builder()["x"]
        for v in is_copositive(x, TOL).zeros:
            assert abs(v @ x @ v) <= TOL.zero_tol
            assert np.min(x @ v) >= -10 * TOL.zero_tol
            assert np.isclose(v.sum(), 1.0) and v.min() >= 0.0


def test_blocks_are_maximal_and_condition_b():
    data = build_s4()
    zs = compute_zero_structure(data["x"], TOL)
    supp = [set(np.flatnonzero(v).tolist()) for v in zs.vertices]
    contact = [set(m) for m in zs.contact_sets]
    for s, block in enumerate(zs.blocks):
        union = set().union(*[supp[j] for j in block])
        for i in block:
            assert union <= contact[i]
        # adding any outside vertex breaks condition b)
        for extra in set(range(len(zs.vertices))) - set(block):
            bigger = set(block) | {extra}
            union2 = set().union(*[supp[j] for j in bigger])
            assert any(not (union2 <= contact[i]) for i in bigger)


def test_condition_c_witnesses_recorded():
    """s4's two blocks are separated as condition c) asks: each i0 in one
    block and not the other has a j0 only in the other, and a k0 in
    supp(tau(i0)) outside M(j0)."""
    zs = compute_zero_structure(build_s4()["x"], TOL)
    assert len(zs.blocks) == 2
    for a, b in itertools.permutations(map(set, zs.blocks)):
        for i0 in a - b:
            assert any(set(np.flatnonzero(zs.vertices[i0]).tolist()) - set(zs.contact_sets[j0])
                       for j0 in b - a)


def test_partition_blocks_single_vertex():
    v = [np.array([0.5, 0.5, 0.0])]
    assert partition_blocks(v, [(0, 1, 2)]) == ([(0,)], [(0, 1)])


def test_partition_blocks_raises_on_condition_c():
    """e1 and e2 are incompatible (supp e2 is not in M(e1) = {1}), but
    supp e1 lies in M(e2) = {1, 2}: no witness separates {e1} from {e2}."""
    e = np.eye(2)
    with pytest.raises(ZeroStructureError, match="condition-c"):
        partition_blocks([e[0], e[1]], [(0,), (0, 1)])


def _maximal_compatible_sets(supp, contact):
    """Reference blocks by brute force: the inclusion-maximal vertex sets
    whose union of supports lies in each member's contact set."""
    n = len(supp)
    ok = [set(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)
          if all(set().union(*(supp[j] for j in c)) <= contact[i] for i in c)]
    return sorted(tuple(sorted(c)) for c in ok if not any(c < d for d in ok))


def _condition_c_holds(blocks, supp, contact):
    return all(any(supp[i0] - contact[j0] for j0 in set(b) - set(a))
               for a in blocks for b in blocks for i0 in set(a) - set(b))


def test_partition_blocks_cover_and_condition_b_by_construction():
    """On random supports and contact sets with supp(tau(j)) in M(j), the
    blocks are the maximal sets that satisfy b) and cover every vertex
    (condition a); partition_blocks raises exactly when c) fails."""
    rng = np.random.default_rng(20261019)
    checked = several = 0
    for _ in range(300):
        p, n = int(rng.integers(2, 6)), int(rng.integers(1, 7))
        vertices, contact_sets = [], []
        for _ in range(n):
            s = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
            v = np.zeros(p)
            v[s] = rng.random(len(s)) + 0.1
            vertices.append(v / v.sum())
            extra = np.flatnonzero(rng.random(p) < 0.5)
            contact_sets.append(tuple(sorted(set(s) | set(extra))))
        supp = [set(np.flatnonzero(v).tolist()) for v in vertices]
        contact = [set(m) for m in contact_sets]
        reference = _maximal_compatible_sets(supp, contact)
        if not _condition_c_holds(reference, supp, contact):
            with pytest.raises(ZeroStructureError):
                partition_blocks(vertices, contact_sets)
            continue
        blocks, supports = partition_blocks(vertices, contact_sets)
        assert blocks == reference
        assert set().union(*map(set, blocks)) == set(range(n))
        for block, ps in zip(blocks, supports, strict=True):
            assert set(ps) == set().union(*(supp[j] for j in block))
            assert all(set(ps) <= contact[i] for i in block)
        checked += 1
        several += len(blocks) > 1
    assert checked >= 50 and several >= 10


def test_basis_subset_drops_dependent_vertices():
    v = [np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.5, 0.0]),
         np.array([0.0, 0.5, 0.5])]
    assert basis_subset(v, [0, 1, 2], TOL) == (0, 2)
    with pytest.raises(ZeroStructureError):
        basis_subset(v, [], TOL)


def _structured_instance(rng):
    """X = aa' + N with a prescribed zero t*: a _|_ t*, N nonnegative and
    vanishing on the support block of t*."""
    p = int(rng.integers(2, 6))
    size = int(rng.integers(2, p + 1))
    support = rng.choice(p, size=size, replace=False)
    t_star = np.zeros(p)
    t_star[support] = rng.uniform(0.2, 1.0, size)
    t_star /= t_star.sum()
    a = rng.standard_normal(p)
    a -= (a @ t_star) / (t_star @ t_star) * t_star  # orthogonal to t*
    n = rng.uniform(0.2, 1.0, (p, p))
    n = 0.5 * (n + n.T)
    n[np.ix_(support, support)] = 0.0
    return np.outer(a, a) + n, t_star


def _hull_distance(t, vertices):
    """Minimal l_inf distance from t to conv(vertices), by LP."""
    p = len(t)
    n = len(vertices)
    v = np.column_stack(vertices)
    # variables: lambda (n), d; |t - V lam| <= d, sum lam = 1, lam >= 0
    a_ub = np.block([[v, -np.ones((p, 1))], [-v, -np.ones((p, 1))]])
    b_ub = np.concatenate([t, -t])
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    res = linprog(np.concatenate([np.zeros(n), [1.0]]),
                  A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * n + [(0.0, None)], method="highs")
    assert res.success
    return res.fun


def test_oracle_agreement_on_structured_matrices():
    rng = np.random.default_rng(20240820)
    for _ in range(50):
        x, t_star = _structured_instance(rng)
        vertices = is_copositive(x, TOL).zeros
        assert vertices, "prescribed zero guarantees a nonempty zero set"
        for v in vertices:
            assert abs(v @ x @ v) <= 10 * TOL.zero_tol
        _, arg = simplex_min_oracle(x, grid_depth=12)
        assert _hull_distance(arg, vertices) <= 1e-4


def test_kernel_span_property():
    # PSD matrices with a strictly positive kernel vector: the zero-set
    # vertices span the kernel (mutual projection residuals <= 1e-8)
    rng = np.random.default_rng(20240821)
    for _ in range(20):
        p = int(rng.integers(2, 6))
        k = int(rng.integers(1, p))
        cols = [rng.uniform(0.2, 1.0, p)]  # strictly positive kernel member
        cols += [rng.standard_normal(p) for _ in range(k - 1)]
        q, _ = np.linalg.qr(np.column_stack(cols))
        x = np.eye(p) - q @ q.T
        vertices = is_copositive(x, TOL).zeros
        assert vertices
        vt = np.column_stack(vertices)
        uu, ss, _ = np.linalg.svd(vt, full_matrices=False)
        vq = uu[:, ss > 1e-10 * ss[0]]
        kq = null_space(x, rcond=TOL.psd_tol)
        assert np.linalg.norm(kq - vq @ (vq.T @ kq)) <= 1e-8
        assert np.linalg.norm(vq - kq @ (kq.T @ vq)) <= 1e-8


def test_to_json_uses_one_based_indices():
    zs = compute_zero_structure(build_s4()["x"], TOL)
    obj = zs.to_json()
    assert sorted(map(tuple, obj["supports"])) == [(1, 2), (2, 3)]
    assert sorted(map(tuple, obj["contact_sets"])) == [(1, 2), (2, 3)]
    assert obj["p"] == 3


@pytest.mark.parametrize("build", [build_extremal5, build_s4],
                         ids=["hildebrand", "s4"])
def test_zero_structure_reuses_verdict(build):
    x = build()["x"]
    verdict = is_copositive(x, TOL)
    given = compute_zero_structure(x, TOL, verdict)
    fresh = compute_zero_structure(x, TOL)
    assert given.to_json() == fresh.to_json()


def test_zero_structure_rejects_non_member_verdict():
    bad = np.array([[1.0, -2.0], [-2.0, 1.0]])
    verdict = is_copositive(bad, TOL)
    assert not verdict.member
    with pytest.raises(ZeroStructureError):
        compute_zero_structure(bad, TOL, verdict)


def _padded(x, k):
    p = x.shape[0]
    out = np.zeros((p + k, p + k))
    out[:p, :p] = x
    return out


@pytest.mark.parametrize("name", ["s4", "hildebrand", "hildebrand+0_3"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweeps_are_permutation_equivariant(name, seed):
    x = {"s4": build_s4()["x"], "hildebrand": build_extremal5()["x"],
         "hildebrand+0_3": _padded(build_extremal5()["x"], 3)}[name]
    perm = np.random.default_rng(seed).permutation(x.shape[0])
    v0 = is_copositive(x, TOL)
    v = is_copositive(x[np.ix_(perm, perm)], TOL)
    assert v.member == v0.member
    assert v.supports_checked == v0.supports_checked
    assert abs(v.min_value - v0.min_value) <= 1e-12
    expected = v0.zeros
    back = []
    for t in v.zeros:
        b = np.zeros_like(t)
        b[perm] = t
        back.append(b)
    back.sort(key=lambda t: tuple(np.round(t, 12)))
    # the KKT solves of a permuted submatrix round differently, so the
    # coordinates agree to 1e-12 and the supports exactly
    assert len(back) == len(expected)
    for b, t in zip(back, expected):
        assert np.array_equal(np.flatnonzero(b), np.flatnonzero(t))
        assert np.max(np.abs(b - t)) <= 1e-12


def _hull_lp_feasible(t, others):
    """t in conv(others), by an equality-constrained feasibility LP."""
    a_eq = np.vstack([np.column_stack(others), np.ones(len(others))])
    res = linprog(np.zeros(len(others)), A_eq=a_eq,
                  b_eq=np.concatenate([t, [1.0]]),
                  bounds=[(0.0, None)] * len(others), method="highs")
    return bool(res.success)


def _psd_with_positive_kernel(rng, p):
    """Low-rank PSD whose kernel holds a few sparse nonnegative vectors."""
    kernel = []
    for _ in range(int(rng.integers(1, 4))):
        v = np.zeros(p)
        support = rng.choice(p, size=int(rng.integers(1, p)), replace=False)
        v[support] = rng.uniform(0.2, 1.0, support.size)
        kernel.append(v)
    q, _ = np.linalg.qr(np.column_stack(kernel))
    b = rng.standard_normal((p, int(rng.integers(1, p))))
    b -= q @ (q.T @ b)
    return b @ b.T


def _copositive_corpus():
    """Seeded copositive matrices with zeros: low-rank PSD, PSD plus sparse
    nonnegative, small-integer, random-theta Hildebrand padded and permuted,
    the six scenario X's, and three with near-null faces."""
    rng = np.random.default_rng(20240824)
    out = [build()["x"] for build in (build_s4, build_extremal5,
                                      build_pp3z_jjj, build_pp4z_j,
                                      build_pp4z_jjj, build_pp4z_cond_ii)]
    for _ in range(50):
        out.append(_psd_with_positive_kernel(rng, int(rng.integers(3, 8))))
    for _ in range(50):
        x = _psd_with_positive_kernel(rng, int(rng.integers(3, 8)))
        n = rng.uniform(0.0, 1.0, x.shape) * (rng.random(x.shape) < 0.2)
        out.append(x + n + n.T)
    while len(out) < 156:
        a = rng.integers(-1, 3, (5, 5))
        x = np.triu(a) + np.triu(a, 1).T
        if is_copositive(x, TOL).member:
            out.append(x.astype(float))
    for _ in range(25):
        theta = rng.dirichlet(np.ones(5)) * np.pi
        p = int(rng.integers(5, 9))
        x = _padded(extremal5_matrix(theta), p - 5)
        perm = rng.permutation(p)
        out.append(x[np.ix_(perm, perm)])
    # X_{123} has eigenvalues (eps, eps, 2 + eps): below psd_tol its KKT point
    # (1/3, 1/3, 1/3) lies on the edge from (1/2, 1/2, 0) to e3 and is no
    # vertex; at eps = 5e-9 no eigenvalue is null and there are no vertices
    for eps in (1e-11, 1e-10, 5e-9):
        out.append(np.array([[1 + eps, -1, 0], [-1, 1 + eps, 0], [0, 0, eps]]))
    return out


def _kernel_scan_vertices(x, tol):
    """Reference zero vertices by a second sweep: the supports I whose
    X_I has a one-dimensional kernel (one stacked ``eigh`` per size) with a
    strictly positive generator t, |(X t)_k| <= zero_tol on I and
    X t >= -zero_tol, all read on X over the power of two nearest max|X|."""
    p = x.shape[0]
    amax = np.max(np.abs(x))
    x = x / 2.0 ** round(np.log2(amax)) if amax > 0.0 else x
    out = []
    for size in range(1, p + 1):
        supports = np.array(list(itertools.combinations(range(p), size)))
        xi = x[supports[:, :, None], supports[:, None, :]]
        lam, vecs = np.linalg.eigh(xi)
        null = np.abs(lam) <= tol.psd_tol * np.abs(lam).max(axis=1, keepdims=True, initial=1.0)
        for m in np.nonzero(np.count_nonzero(null, axis=1) == 1)[0]:
            v = vecs[m][:, np.argmax(null[m])]
            v = -v if v.sum() < 0 else v
            if np.min(v) <= tol.zero_tol:
                continue
            t = np.zeros(p)
            t[supports[m]] = v / v.sum()
            xt = x @ t
            if (np.max(np.abs(xt[supports[m]])) <= tol.zero_tol
                    and np.min(xt) >= -tol.zero_tol):
                out.append(t)
    out.sort(key=lambda v: tuple(np.round(v, 12)))
    return out


def test_zero_vertices_are_hull_vertices():
    # independent oracles for the vertex argument in compute_zero_structure:
    # the kernel scan finds the same vertices, and no returned vertex lies
    # in the convex hull of the others; the sweep keeps no other point.
    # Each contact set holds supp(tau) and is read from X tau on X / 2^e
    lps = 0
    for x in _copositive_corpus():
        verdict = is_copositive(x, TOL)
        assert verdict.member
        vertices = compute_zero_structure(x, TOL, verdict).vertices
        assert len(verdict.zeros) == len(vertices) == len(verdict.contact_sets)
        ref = _kernel_scan_vertices(x, TOL)
        assert len(vertices) == len(ref)
        for t, r in zip(vertices, ref):
            assert np.max(np.abs(t - r)) <= 1e-12
        xs, _ = unit_scale(x)
        for t, m in zip(vertices, verdict.contact_sets):
            assert set(np.flatnonzero(t).tolist()) <= set(m)
            assert m == tuple(np.flatnonzero(np.abs(xs @ t) <= TOL.zero_tol).tolist())
        for i, t in enumerate(vertices):
            others = vertices[:i] + vertices[i + 1:]
            if others:
                lps += 1
                assert not _hull_lp_feasible(t, others)
    assert lps >= 400


def test_numerically_zero_block_has_one_zero_vertex():
    # a corpus matrix: max|X| = 2e-31, and x_11, x_22 > 0 rule out e1 and
    # e2 at any scale, so only e3 is a zero vertex
    x = 1.9721522630525295e-31 * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                           [0.0, 0.0, 0.0]])
    vertices = is_copositive(x, TOL).zeros
    assert len(vertices) == 1 and np.array_equal(vertices[0], [0.0, 0.0, 1.0])


def test_power_of_two_scaling_is_exact():
    # X and 2^k X share one unit-scale copy, so every zero-structure
    # output is bit-identical and min_value moves by exactly 2^k
    pd = np.array([[1.0, 0.5], [0.5, 1.0]])
    matrices = [build_extremal5()["x"], build_s4()["x"], pd] + _copositive_corpus()
    for x in matrices:
        v0 = is_copositive(x, TOL)
        zs0 = compute_zero_structure(x, TOL, v0)
        for k in (-100, -20, 20, 40, 100):
            xk = np.ldexp(x, k)
            v = is_copositive(xk, TOL)
            assert v.member == v0.member
            assert v.min_value == np.ldexp(v0.min_value, k)
            assert np.array_equal(v.argmin, v0.argmin)
            assert len(v.zeros) == len(v0.zeros)
            assert all(np.array_equal(a, b) for a, b in zip(v.zeros, v0.zeros))
            zs = compute_zero_structure(xk, TOL, v)
            assert len(zs.vertices) == len(zs0.vertices)
            assert all(np.array_equal(a, b) for a, b in zip(zs.vertices, zs0.vertices))
            assert zs.contact_sets == zs0.contact_sets and zs.blocks == zs0.blocks
            assert zs.supports == zs0.supports and zs.basis == zs0.basis
    # positive definite at every scale: no zeros, not even at 2^-100
    assert is_copositive(np.ldexp(pd, -100), TOL).zeros == []
    assert compute_zero_structure(np.ldexp(pd, -100), TOL).vertices == []
