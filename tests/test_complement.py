import itertools

import numpy as np
import pytest

import copcomp.complement as complement
from copcomp.complement import (
    FAIL,
    PASS,
    UNKNOWN,
    ComplementError,
    DualDecomposition,
    _strictness_lp,
    _subset_columns,
    check_assumption_j,
    check_assumptions,
    decompose_dual,
    embed,
    face_nnls,
    positive_factorization,
)
from copcomp.paperlab import (
    SCENARIOS,
    build_extremal5,
    build_pp3z_jjj,
    build_pp4z_j,
    build_s4,
    run_scenario,
    scenario_names,
)
from scipy.optimize import linprog as scipy_linprog
from scipy.optimize import nnls

from copcomp.analysis import analyze
from copcomp.defeq import build_system, rank_certificate, reconstruct_U
from copcomp.symcore import Tolerances, svec
from copcomp.zerostruct import compute_zero_structure, pair_sums

TOL = Tolerances()
RNG = np.random.default_rng(20240822)


def _horn_pair():
    """The Horn matrix and U = sum_i (e_i + e_i+1)(e_i + e_i+1)', indices mod 5."""
    x = np.array([[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
                  [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]], dtype=float)
    e = np.eye(5)
    gs = [e[i] + e[(i + 1) % 5] for i in range(5)]
    return x, sum(np.outer(g, g) for g in gs)


def test_embed_roundtrip():
    w = RNG.standard_normal((3, 3))
    w = 0.5 * (w + w.T)
    support = (0, 2, 3)
    back = embed(w, support, 4)
    assert np.array_equal(back[np.ix_(support, support)], w)
    assert back[1, :].sum() == 0.0 and back[:, 1].sum() == 0.0


def test_embed_order_mismatch():
    with pytest.raises(ValueError):
        embed(np.eye(2), (0, 1, 2), 4)


def test_trace_identity():
    x = build_s4()["x"]
    w = RNG.standard_normal((2, 2))
    w = 0.5 * (w + w.T)
    support = (1, 2)
    assert np.isclose(float(np.tensordot(x, embed(w, support, 3))),
                      float(np.tensordot(x[np.ix_(support, support)], w)))


def test_decompose_worked_example():
    data = build_s4()
    zs = compute_zero_structure(data["x"], TOL)
    dd = decompose_dual(data["u"], zs, TOL)
    assert dd.residual <= 1e-12
    assert check_assumptions(zs, dd, TOL).cond_i.status == PASS
    # support condition: each W0(s) lives on P*(s) x P*(s) only
    assert [w.shape for w in dd.restricted] == [(2, 2), (2, 2)]
    components = {ps: embed(w, ps, 3) for ps, w in zip(zs.supports, dd.restricted)}
    assert np.allclose(sum(components.values()), data["u"], atol=1e-10)
    assert np.linalg.norm(components[(0, 1)]
                          - np.outer(data["b"], data["b"])) <= 1e-10
    assert np.linalg.norm(components[(1, 2)]
                          - np.outer(data["c"], data["c"])) <= 1e-10


def test_decompose_zero_dual():
    zs = compute_zero_structure(build_s4()["x"], TOL)
    dd = decompose_dual(np.zeros((3, 3)), zs, TOL)
    assert len(dd.restricted) == 2
    assert all(np.linalg.norm(w) <= 1e-12 for w in dd.restricted)


def test_decompose_rejects_non_complementary():
    zs = compute_zero_structure(build_s4()["x"], TOL)
    with pytest.raises(ComplementError):
        decompose_dual(np.eye(3), zs, TOL)


def test_decompose_empty_zero_set():
    zs = compute_zero_structure(np.eye(3), TOL)
    dd = decompose_dual(np.zeros((3, 3)), zs, TOL)
    assert dd == DualDecomposition([], [], 0.0)
    with pytest.raises(ComplementError):
        decompose_dual(np.ones((3, 3)) * 1e-3, zs, TOL)


def test_decompose_single_block_component_is_whole_dual():
    data = build_extremal5()
    zs = compute_zero_structure(data["x"], TOL)
    dd = decompose_dual(data["u"], zs, TOL)
    assert zs.supports == [(0, 1, 2, 3, 4)] and len(dd.restricted) == 1
    assert np.linalg.norm(dd.restricted[0] - data["u"]) <= 1e-8


def test_rank_one_component_beyond_pair_generators():
    # U = (e2+e3+e4)(e2+e3+e4)': representable only with the full subset sum
    data = build_pp4z_j()
    zs = compute_zero_structure(data["x"], TOL)
    dd = decompose_dual(data["u"], zs, TOL)
    assert dd.residual <= 1e-10
    assert np.allclose(dd.restricted[0], np.ones((3, 3)), atol=1e-10)
    combo = max(dd.coefficients[0], key=dd.coefficients[0].get)
    assert len(combo) == 3


def test_subset_columns_match_per_subset_loop():
    # reference: one np.sum and one np.outer per subset, as columns
    vectors = RNG.random((7, 6))
    groups = [(0, 2, 3, 5), (1, 4, 6), (6,)]
    labels, gens, cols = _subset_columns(vectors, groups)
    ref_labels, ref_gens = [], []
    for s, members in enumerate(groups):
        for r in range(1, len(members) + 1):
            for combo in itertools.combinations(members, r):
                ref_labels.append((s, combo))
                ref_gens.append(np.sum([vectors[j] for j in combo], axis=0))
    ref_cols = np.column_stack([svec(np.outer(g, g)) for g in ref_gens])
    assert labels == ref_labels
    assert np.array_equal(gens, np.array(ref_gens))
    assert np.array_equal(cols, ref_cols)
    assert cols.flags["C_CONTIGUOUS"]


def test_jj_and_cond_i_share_one_rank():
    # one rank of X's zero structure decides both, whatever U is: the
    # basis-pair family is independent at s4 and dependent at Horn, whose
    # blocks share vertices
    s4 = build_s4()
    seen = set()
    for x, u in [(s4["x"], s4["u"]), (s4["x"], np.zeros((3, 3))), _horn_pair()]:
        zs = compute_zero_structure(x, TOL)
        rep = check_assumptions(zs, decompose_dual(u, zs, TOL), TOL)
        gens = [g for jb in zs.basis for g in pair_sums(zs.vertices, jb)]
        rank = np.linalg.matrix_rank(np.column_stack([svec(np.outer(g, g))
                                                      for g in gens]))
        unique = bool(rank == len(gens))
        assert rep.jj.certificate == {"rank": rank, "expected": len(gens)}
        assert rep.cond_i.certificate == {"unique": unique}
        assert rep.jj.status == rep.cond_i.status == (PASS if unique else FAIL)
        seen.add(unique)
    assert seen == {True, False}


def test_assumption_report_worked_example():
    data = build_s4()
    zs = compute_zero_structure(data["x"], TOL)
    dd = decompose_dual(data["u"], zs, TOL)
    rep = check_assumptions(zs, dd, TOL)
    for name in ("j", "jj", "jjj", "cond_i", "cond_ii", "cond_iii"):
        assert getattr(rep, name).status == PASS, name
    # positive pair-generator weights certify strict complementarity
    assert all(b["gamma"] >= 1e-6 for b in rep.j.certificate["blocks"])


def test_assumption_j_fails_without_range_condition():
    data = build_pp4z_j()
    zs = compute_zero_structure(data["x"], TOL)
    dd = decompose_dual(data["u"], zs, TOL)
    rep = check_assumptions(zs, dd, TOL)
    assert rep.j.status == FAIL
    blk = rep.j.certificate["blocks"][0]
    assert blk["rank_w"] == 1 and blk["rank_tau"] == 3


def test_assumption_jjj_certificate_names_offenders():
    data = build_pp3z_jjj()
    zs = compute_zero_structure(data["x"], TOL)
    dd = decompose_dual(data["u"], zs, TOL)
    rep = check_assumptions(zs, dd, TOL)
    assert rep.jjj.status == FAIL
    off = rep.jjj.certificate["offending"][0]
    assert off["contact_set"] == [1, 2, 3]
    assert off["support"] == [1, 2]


def test_positive_factorization_rank_one():
    w = np.array([[1.0, 1.0], [1.0, 1.0]])
    m = positive_factorization(w, [np.array([0.5, 0.5])], {(0,): 4.0}, TOL)
    assert m is not None
    assert np.min(m) > 0.0
    assert np.linalg.norm(m @ m.T - w) <= 1e-9


def test_positive_factorization_needs_theta_shift():
    w = np.array([[2.0, 1.0], [1.0, 2.0]])
    taus = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    # W = e1 e1' + e2 e2' + (e1 + e2)(e1 + e2)'
    m = positive_factorization(w, taus, {(0,): 1.0, (1,): 1.0, (0, 1): 1.0},
                               TOL)
    assert m is not None
    assert np.min(m) > 0.0
    assert np.linalg.norm(m @ m.T - w) <= 1e-9


def test_positive_factorization_unavailable_for_identity():
    taus = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert positive_factorization(np.eye(2), taus, {(0,): 1.0, (1,): 1.0},
                                  TOL) is None


def test_positive_factorization_rejects_indefinite():
    with pytest.raises(ValueError):
        positive_factorization(np.diag([1.0, -1.0]),
                               [np.array([0.5, 0.5])], {(0,): 4.0}, TOL)


def test_derived_conditions_follow_from_j_and_jj():
    # whenever j and jj PASS, conditions i-iii PASS (across the corpus)
    from copcomp.paperlab import SCENARIOS

    for name in ("s4", "pp3z-jjj", "pp4z-jjj"):
        data = SCENARIOS[name].build()
        zs = compute_zero_structure(data["x"], TOL)
        dd = decompose_dual(data["u"], zs, TOL)
        rep = check_assumptions(zs, dd, TOL)
        if rep.j.status == PASS and rep.jj.status == PASS:
            assert rep.cond_i.status == PASS
            assert rep.cond_ii.status == PASS
            assert rep.cond_iii.status == PASS


def _face_cases():
    """Complementary pairs: the scenario pairs and H(theta*) + 0_k,
    unpermuted and permuted."""
    rng = np.random.default_rng(20240825)
    cases = [(data["x"], data["u"])
             for data in (SCENARIOS[n].build() for n in SCENARIOS)]
    data = build_extremal5()
    for p in (6, 8, 10):
        x, u = np.zeros((p, p)), np.zeros((p, p))
        x[:5, :5], u[:5, :5] = data["x"], data["u"]
        perm = rng.permutation(p)
        cases += [(x, u), (x[np.ix_(perm, perm)], u[np.ix_(perm, perm)])]
    return cases


def _refit_factorization(w, taus, tol):
    """Reference for condition ii: refit W by NNLS over the block's own
    subset sums, gate on the fit's residual, then factor from those
    weights."""
    _, [alpha], residual = face_nnls(taus, [range(len(taus))], w)
    if residual > tol.slack:
        return None
    return positive_factorization(w, taus, alpha, tol)


def test_cond_ii_from_dual_weights_matches_a_refit():
    # the seven scenario pairs, H(theta*) + 0_{p-5} for p = 5..12 plain and
    # under two permutations, and s4 with U = bb'
    rng = np.random.default_rng(20240826)
    cases = [(data["x"], data["u"])
             for data in (SCENARIOS[n].build() for n in SCENARIOS)]
    data = build_extremal5()
    for p in range(5, 13):
        x, u = np.zeros((p, p)), np.zeros((p, p))
        x[:5, :5], u[:5, :5] = data["x"], data["u"]
        cases.append((x, u))
        for _ in range(2):
            perm = rng.permutation(p)
            cases.append((x[np.ix_(perm, perm)], u[np.ix_(perm, perm)]))
    s4 = build_s4()
    cases.append((s4["x"], np.outer(s4["b"], s4["b"])))
    statuses = set()
    for x, u in cases:
        zs = compute_zero_structure(x, TOL)
        dd = decompose_dual(u, zs, TOL)
        cond_ii = check_assumptions(zs, dd, TOL).cond_ii
        refs = [_refit_factorization(dd.restricted[s], zs.block_vectors(s), TOL)
                for s in range(len(zs.blocks))]
        assert cond_ii.status == (PASS if all(m is not None for m in refs)
                                  else FAIL)
        statuses.add(cond_ii.status)
        for ref, info in zip(refs, cond_ii.certificate["blocks"]):
            if ref is None:
                assert info["factor"] is None
            else:
                assert info["factor"].shape == ref.shape
                assert np.max(np.abs(info["factor"] - ref), initial=0.0) <= 1e-12
    assert len(cases) == 32 and statuses == {PASS, FAIL}


def test_face_nnls_prunes_to_zero_and_matches_full_nnls():
    compared = 0
    for x, u in _face_cases():
        zs = compute_zero_structure(x, TOL)
        blocks, coefficients, residual = face_nnls(zs.vertices, zs.blocks, u)
        labels, gens, cols = _subset_columns(zs.vertices, zs.blocks)
        # a column positive where U is exactly zero gets weight exactly 0
        pruned = np.any(cols[svec(u) == 0.0] > 0.0, axis=0)
        for (s, combo), cut in zip(labels, pruned):
            if cut:
                assert combo not in coefficients[s]
        assert all(w > 0.0 for c in coefficients for w in c.values())
        if check_assumptions(zs, decompose_dual(u, zs, TOL), TOL).cond_i.status != PASS:
            continue
        w, _ = nnls(cols, svec(u))
        full = [np.zeros_like(u) for _ in zs.blocks]
        for wt, (s, _), g in zip(w, labels, gens):
            full[s] += wt * np.outer(g, g)
        for b, ps, f in zip(blocks, zs.supports, full, strict=True):
            assert np.max(np.abs(embed(b, ps, len(u)) - f)) <= 1e-12
        assert abs(residual - np.linalg.norm(cols @ w - svec(u))) <= 1e-12
        compared += 1
    assert compared >= 10


def test_face_nnls_drops_vertices_on_zero_diagonal():
    # H(theta*) + 0_7: the seven e_k vertices sit where diag(U) is 0, so
    # only the 31 subsets of the five H vertices are fitted
    data = build_extremal5()
    x, u = np.zeros((12, 12)), np.zeros((12, 12))
    x[:5, :5], u[:5, :5] = data["x"], data["u"]
    zs = compute_zero_structure(x, TOL)
    assert len(zs.blocks) == 1 and len(zs.blocks[0]) == 12
    blocks, coefficients, residual = face_nnls(zs.vertices, zs.blocks, u)
    assert residual <= 1e-12
    used = set().union(*coefficients[0])
    assert all(np.all(zs.vertices[j][5:] == 0.0) for j in used)
    # the support is read before e6..e12 leave the block, so W0 stays 12 x 12
    assert np.max(np.abs(blocks[0] - u)) <= 1e-12


def test_face_nnls_of_zero_target_is_empty():
    taus = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
    blocks, coefficients, residual = face_nnls(taus, [(0, 1)], np.zeros((2, 2)))
    assert coefficients == [{}] and residual == 0.0
    assert np.array_equal(blocks[0], np.zeros((2, 2)))
    assert positive_factorization(np.zeros((2, 2)), taus, coefficients[0],
                                  TOL).shape == (2, 0)


def test_face_nnls_blocks_are_the_restricted_full_fit_bit_for_bit():
    # reference: the p x p sum w g g' over _subset_columns' labels and
    # generators, with the weights face_nnls returns, cut to P*(s); at the
    # three path-tracking anchors s4, H(theta*) and H(theta*) + 0_3, and at
    # Horn, whose blocks overlap
    s4, h = build_s4(), build_extremal5()
    for x, u in [(s4["x"], s4["u"]), (h["x"], h["u"]), _padded_hildebrand(8),
                 _horn_pair()]:
        zs = compute_zero_structure(x, TOL)
        blocks, coefficients, _ = face_nnls(zs.vertices, zs.blocks, u)
        labels, gens, _ = _subset_columns(zs.vertices, zs.blocks)
        full = [np.zeros_like(u) for _ in zs.blocks]
        for (s, combo), g in zip(labels, gens):
            if combo in coefficients[s]:
                full[s] += coefficients[s][combo] * np.outer(g, g)
        for w, ps, f in zip(blocks, zs.supports, full, strict=True):
            assert w.shape == (len(ps), len(ps))
            assert np.array_equal(w, f[np.ix_(ps, ps)])


def test_horn_pair_with_overlapping_blocks_end_to_end():
    # the five vertices (e_i + e_i+1)/2 form five blocks of two, each on
    # three indices; a vertex shared by two blocks gives two equal NNLS
    # columns, so which block carries its weight is left open
    x, u = _horn_pair()
    a = analyze(x, u, TOL)
    assert a.rank is not None  # every stage ran
    zs, dd = a.zero_structure, a.decomposition
    e = np.eye(5)
    found = sorted(tuple(v) for v in zs.vertices)
    assert found == sorted(tuple((e[i] + e[(i + 1) % 5]) / 2) for i in range(5))
    assert len(zs.blocks) == 5 and all(len(b) == 2 for b in zs.blocks)
    assert all(len(ps) == 3 for ps in zs.supports)
    assert zs.overlapping_blocks
    assert [w.shape for w in dd.restricted] == [(3, 3)] * 5
    assert dd.residual <= TOL.slack
    assert np.max(np.abs(reconstruct_U(a.system, dd.restricted) - u)) <= TOL.slack


def test_pairs_with_a_zero_block_component_do_not_raise():
    # U = sum over blocks of c g g' for random vertex-subset sums g, with
    # some blocks left at zero; an empty positive factor reports no entry
    rng = np.random.default_rng(1234)
    zero_blocks = 0
    for name in ("s4", "hildebrand", "pp3z-jjj", "pp4z-j", "pp4z-jjj",
                 "pp4z-cond-ii"):
        x = SCENARIOS[name].build()["x"]
        zs = compute_zero_structure(x, TOL)
        for _ in range(10):
            u = np.zeros_like(x)
            for block in zs.blocks:
                if rng.random() < 0.4:
                    continue
                for _ in range(int(rng.integers(1, 3))):
                    sub = [j for j in block if rng.random() < 0.6] or [block[0]]
                    g = np.sum([zs.vertices[j] for j in sub], axis=0)
                    u += rng.uniform(0.5, 2.0) * np.outer(g, g)
            dd = decompose_dual(u, zs, TOL)
            rep = check_assumptions(zs, dd, TOL)
            system = build_system(zs, dd)
            rank_certificate(system, system.anchor, TOL)
            for info in rep.cond_ii.certificate["blocks"]:
                m = info["factor"]
                if m is not None and m.size == 0:
                    zero_blocks += 1
                    assert info["min_entry"] is None
    assert zero_blocks >= 10


def _j(x, u):
    zs = compute_zero_structure(x, TOL)
    return check_assumption_j(zs, decompose_dual(u, zs, TOL), TOL)


def _gammas(verdict):
    return [b["gamma"] for b in verdict.certificate["blocks"]]


def _padded_hildebrand(p):
    data = build_extremal5()
    x, u = np.zeros((p, p)), np.zeros((p, p))
    x[:5, :5] = data["x"]
    u[:5, :5] = data["u"]
    return x, u


def test_strictness_gamma_at_hildebrand_is_the_exact_optimum_at_every_scale():
    # H(theta*)'s W0 needs a zero pair weight, so the slack 1e-9 alone lifts
    # gamma, to 1.5528e-9; the pair (cX, U/c) leaves that optimum in place
    data = build_extremal5()
    v = _j(data["x"], data["u"])
    assert v.status == FAIL
    assert _gammas(v) == [pytest.approx(1.5528e-9, abs=1e-12)]
    for c in (1e-4, 1e-2, 1e2, 1e4):
        vc = _j(c * data["x"], data["u"] / c)
        assert vc.status == FAIL
        assert _gammas(vc) == [pytest.approx(_gammas(v)[0], abs=1e-12)]


@pytest.mark.parametrize("p", range(6, 13))
def test_strictness_gamma_on_padded_hildebrand(p):
    # the p - 5 vertices e_k join H(theta*)'s block, and every pair weight
    # must fit the slack of the zero rows: gamma = 1e-9 / (p + 3)
    v = _j(*_padded_hildebrand(p))
    assert v.status == FAIL
    assert _gammas(v) == [pytest.approx(1e-9 / (p + 3), rel=1e-9)]


def test_j_under_positive_diagonal_scaling_of_hildebrand():
    # (DXD, D^-1 U D^-1) with D = exp(U(-3, 3)) from default_rng(0): j stays
    # FAIL except on draw 3, whose W0 admits gamma = 3.526e-7, between the
    # FAIL cutoff 10 slack and DELTA_STRICT
    data = build_extremal5()
    rng = np.random.default_rng(0)
    statuses = []
    for draw in range(1, 9):
        d = np.exp(rng.uniform(-3.0, 3.0, 5))
        v = _j(data["x"] * np.outer(d, d), data["u"] / np.outer(d, d))
        statuses.append(v.status)
        if draw == 3:
            assert _gammas(v) == [pytest.approx(3.526e-7, abs=1e-10)]
    assert statuses == [FAIL, FAIL, UNKNOWN, FAIL, FAIL, FAIL, FAIL, FAIL]


def _reference_lp(c, a_ub, b_ub):
    """scipy's HiGHS with feasibility tolerances 1e-10, or None when it
    finds the LP infeasible."""
    res = scipy_linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs",
                        options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    assert res.status in (0, 2), res.message
    return res if res.status == 0 else None


def _strictness_corpus(rng, n):
    """Seeded blocks (W, slack, pair sums): W a positive combination of the
    pair outer products (PASS), one with a zero weight (FAIL), or the outer
    product of a vector with entries of both signs (infeasible)."""
    for i in range(n):
        p = int(rng.integers(2, 8))
        k = int(rng.integers(1, p + 1))
        taus = rng.random((k, p)) * (rng.random((k, p)) < 0.7)
        taus[taus.sum(axis=1) == 0.0, 0] = 1.0
        taus /= taus.sum(axis=1, keepdims=True)
        bars = pair_sums(list(taus), range(k))
        if i % 3 == 2:
            g = rng.standard_normal(p)
            w = np.outer(g, g)
        else:
            a = rng.uniform(0.1, 1.0, len(bars))
            if i % 3 == 1:
                a[rng.integers(len(bars))] = 0.0
            w = sum(ai * np.outer(b, b) for ai, b in zip(a, bars))
        yield w, 1e-9, bars


def test_strictness_lp_against_a_tight_highs_reference(monkeypatch):
    # Every LP that the scenario runs and analyze on H(theta*) + 0_{p-5},
    # p = 8..12, build, plus a seeded corpus.  HiGHS's answer may break a
    # row by up to its tolerance, which buys it up to ~5e-10 of gamma on
    # this corpus, so the optimum is compared with HiGHS on the rows
    # tightened by that tolerance, whose answer is feasible for this LP.
    # HiGHS calls a few feasible corpus LPs infeasible; the answer found
    # for those is checked for feasibility only.
    lps = []
    solve = complement.linprog

    def recording(c, a_ub, b_ub):
        lps.append((c, a_ub, b_ub))
        return solve(c, a_ub, b_ub)

    monkeypatch.setattr(complement, "linprog", recording)
    for name in scenario_names():
        run_scenario(name, TOL)
    for p in range(8, 13):
        _j(*_padded_hildebrand(p))
    assert len(lps) == 13
    gammas = [_strictness_lp(w, bars, slack) for w, slack, bars
              in _strictness_corpus(np.random.default_rng(20261018), 60)]
    assert len(lps) == 73
    assert sum(g is None for g in gammas) == 20
    assert sum(g is not None and g >= 1e-6 for g in gammas) >= 10
    assert sum(g is not None and g <= 1e-8 for g in gammas) >= 5
    compared = 0
    for c, a_ub, b_ub in lps:
        x = solve(c, a_ub, b_ub)
        if x is None:
            assert _reference_lp(c, a_ub, b_ub) is None
            continue
        assert np.all(x >= 0.0)
        scale = max(1.0, np.max(np.abs(b_ub)))
        assert np.max(a_ub @ x - b_ub) <= 1e-12 * scale
        ref = _reference_lp(c, a_ub, b_ub - 1e-10)
        if ref is not None:
            assert c @ x <= ref.fun + 1e-10
            compared += 1
    assert compared >= 50
