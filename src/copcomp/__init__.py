"""Complementarity-set analysis for the copositive cone.

Given a complementary pair (X, U) with X copositive and U completely
positive, the package enumerates the zero-set structure of X, decomposes
U over it, checks the non-degeneracy assumptions, assembles the system of
defining equations, and certifies that the system's Jacobian has full row
rank at the anchor.  :func:`analyze` runs these stages in order on one
pair, and :meth:`Analysis.to_json` writes its report.
"""

__version__ = "1.0.0"

# every other public name is importable from its own module
from .symcore import (
    SymMatError,
    Tolerances,
    load_symmat,
    save_symmat,
    symmat_from_json,
    symmat_to_json,
)
from .cones import OrderLimitError, is_copositive
from .zerostruct import ZeroStructureError, compute_zero_structure
from .complement import (
    ComplementError,
    check_assumptions,
    cp_membership,
    decompose_dual,
)
from .defeq import (
    build_system,
    rank_certificate,
    reconstruct_U,
    solve_local,
    verify_backward,
    verify_forward,
)
from .analysis import Analysis, analyze
from .paperlab import run_scenario, scenario_names
