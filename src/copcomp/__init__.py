"""Complementarity-set analysis for the copositive cone.

Given a complementary pair (X, U) with X copositive and U completely
positive, the package enumerates the zero-set structure of X, decomposes
U over it, checks the non-degeneracy assumptions, assembles the system of
defining equations, and certifies that the system's Jacobian has full row
rank at the anchor.
"""

__version__ = "1.0.0"

from .symcore import (
    NOT_PSD,
    PSD_BOUNDARY,
    PSD_INTERIOR,
    SymMatError,
    Tolerances,
    kernel_basis,
    load_symmat,
    psd_status,
    rank_of_vectors,
    save_symmat,
    smat,
    svec,
    svec_dim,
    svec_pairs,
    sym_kron,
    symmat_from_json,
    symmat_to_json,
    symmetrize,
)
from .cones import (
    CopVerdict,
    OrderLimitError,
    doubly_nonnegative,
    is_copositive,
    simplex_min_oracle,
)
from .zerostruct import (
    ZeroStructure,
    ZeroStructureError,
    basis_subset,
    compute_contact_set,
    compute_zero_structure,
    enumerate_zero_vertices,
    pair_index_set,
    partition_blocks,
)
from .complement import (
    FAIL,
    PASS,
    UNKNOWN,
    AssumptionReport,
    ComplementError,
    CpCertificate,
    DualDecomposition,
    Verdict,
    align_factorizations,
    check_assumptions,
    cp_membership,
    decompose_dual,
    embed,
    positive_factorization,
    restrict,
)
from .defeq import (
    DefiningSystem,
    RankCertificate,
    build_system,
    check_p23101,
    express_in_pair_basis,
    jacobian,
    rank_certificate,
    reconstruct_U,
    residual,
    solve_local,
    verify_backward,
    verify_forward,
)
from .paperlab import (
    Scenario,
    build_extremal5,
    build_s4,
    extremal5_matrix,
    extremal5_dual,
    extremal5_zeros,
    run_scenario,
    scenario_names,
)
