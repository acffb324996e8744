import numpy as np
import pytest
from scipy.optimize import linprog

from copcomp.cones import is_copositive
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
    compute_contact_set,
    compute_zero_structure,
    enumerate_zero_vertices,
    pair_index_set,
    pair_sums,
    partition_blocks,
    support_of,
)

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


def test_identity_has_empty_zero_set():
    assert enumerate_zero_vertices(np.eye(3), TOL) == []
    zs = compute_zero_structure(np.eye(3), TOL)
    assert zs.vertices == [] and zs.blocks == []


def test_rejects_non_copositive():
    with pytest.raises(ZeroStructureError):
        enumerate_zero_vertices(np.array([[1.0, -2.0], [-2.0, 1.0]]), TOL)


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


def test_contact_set_requires_a_zero():
    x = np.eye(3)
    with pytest.raises(ZeroStructureError):
        compute_contact_set(x, np.array([1.0, 0.0, 0.0]), TOL)


def test_contact_set_of_zero_matrix_is_everything():
    assert compute_contact_set(np.zeros((3, 3)),
                               np.array([0.5, 0.5, 0.0]), TOL) == (0, 1, 2)


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


def test_vertices_satisfy_kkt():
    for builder in (build_s4, build_extremal5):
        x = builder()["x"]
        for v in enumerate_zero_vertices(x, TOL):
            assert abs(v @ x @ v) <= TOL.zero_tol
            assert np.min(x @ v) >= -10 * TOL.zero_tol
            assert np.isclose(v.sum(), 1.0) and v.min() >= 0.0


def test_blocks_are_maximal_and_condition_b():
    data = build_s4()
    zs = compute_zero_structure(data["x"], TOL)
    supp = [set(support_of(v, TOL)) for v in zs.vertices]
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
    data = build_s4()
    zs = compute_zero_structure(data["x"], TOL)
    assert zs.cond_c_witnesses  # two blocks -> separation witnesses exist
    for (a, b, i0), (i, j0, k0) in zs.cond_c_witnesses.items():
        assert i == i0
        assert k0 in support_of(zs.vertices[i0], TOL)
        assert k0 not in zs.contact_sets[j0]


def test_partition_blocks_single_vertex():
    v = [np.array([0.5, 0.5, 0.0])]
    blocks, witnesses = partition_blocks(v, [(0, 1, 2)], TOL)
    assert blocks == [(0,)]
    assert witnesses == {}


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
    from copcomp.cones import simplex_min_oracle

    rng = np.random.default_rng(20240820)
    for _ in range(50):
        x, t_star = _structured_instance(rng)
        vertices = enumerate_zero_vertices(x, TOL)
        assert vertices, "prescribed zero guarantees a nonempty zero set"
        for v in vertices:
            assert abs(v @ x @ v) <= 10 * TOL.zero_tol
        _, arg = simplex_min_oracle(x, grid_depth=12)
        assert _hull_distance(arg, vertices) <= 1e-4


def test_kernel_span_property():
    # PSD matrices with a strictly positive kernel vector: the zero-set
    # vertices span the kernel (mutual projection residuals <= 1e-8)
    from copcomp.symcore import kernel_basis

    rng = np.random.default_rng(20240821)
    for _ in range(20):
        p = int(rng.integers(2, 6))
        k = int(rng.integers(1, p))
        cols = [rng.uniform(0.2, 1.0, p)]  # strictly positive kernel member
        cols += [rng.standard_normal(p) for _ in range(k - 1)]
        q, _ = np.linalg.qr(np.column_stack(cols))
        x = np.eye(p) - q @ q.T
        vertices = enumerate_zero_vertices(x, TOL)
        assert vertices
        vt = np.column_stack(vertices)
        uu, ss, _ = np.linalg.svd(vt, full_matrices=False)
        vq = uu[:, ss > 1e-10 * ss[0]]
        kq = np.column_stack(kernel_basis(x, TOL))
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
    assert given.cond_c_witnesses == fresh.cond_c_witnesses


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
    expected = enumerate_zero_vertices(x, TOL, v0)
    back = []
    for t in enumerate_zero_vertices(x[np.ix_(perm, perm)], TOL, v):
        b = np.zeros_like(t)
        b[perm] = t
        back.append(b)
    back.sort(key=lambda t: tuple(np.round(t, 12)))
    # the eigenvectors of a permuted submatrix round differently, so the
    # coordinates agree to 1e-12 and the supports exactly
    assert len(back) == len(expected)
    for b, t in zip(back, expected):
        assert support_of(b, TOL) == support_of(t, TOL)
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
    and the six scenario X's."""
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
    return out


def test_zero_vertices_are_hull_vertices():
    # independent oracle for the vertex argument in enumerate_zero_vertices:
    # no returned vertex lies in the convex hull of the others
    lps = 0
    for x in _copositive_corpus():
        vertices = enumerate_zero_vertices(x, TOL)
        for i, t in enumerate(vertices):
            others = vertices[:i] + vertices[i + 1:]
            if others:
                lps += 1
                assert not _hull_lp_feasible(t, others)
    assert lps >= 400
