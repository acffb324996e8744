"""One complementary pair read end to end.

:func:`analyze` runs the stages in their one order: the copositivity
sweep of X, X's zero structure, U's dual decomposition over it, the
assumptions j)-jjj) with conditions i)-iii), and the rank of the defining
system at the anchor.  :meth:`Analysis.to_json` writes the ``copcomp/2``
report of ``copcomp analyze --json``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from . import __version__
from .complement import (AssumptionReport, DualDecomposition, check_assumptions,
                         decompose_dual)
from .cones import CopVerdict, is_copositive
from .defeq import DefiningSystem, RankCertificate, build_system, rank_certificate
from .symcore import SymMatError, Tolerances, symmat_to_json, symmetrize
from .zerostruct import ZeroStructure, compute_zero_structure

SCHEMA = "copcomp/2"
# analyze verdicts that exit 0; every other verdict exits 1
EXIT_0_VERDICTS = ("OK", "ZERO_STRUCTURE_ONLY", "EMPTY_ZERO_SET_U_MUST_BE_ZERO")


def _digest(*mats) -> str:
    h = hashlib.sha256()
    for m in mats:
        if m is not None:
            h.update(np.ascontiguousarray(m, dtype=float).tobytes())
    return h.hexdigest()[:16]


@dataclasses.dataclass
class Analysis:
    """The result of every stage :func:`analyze` reached, None past the
    stage that decided ``verdict``; ``error`` is that stage's message
    when it raised."""

    x: np.ndarray
    u: np.ndarray | None
    tol: Tolerances
    copositive: CopVerdict
    verdict: str | None = None
    error: str | None = None
    zero_structure: ZeroStructure | None = None
    decomposition: DualDecomposition | None = None
    assumptions: AssumptionReport | None = None
    system: DefiningSystem | None = None
    rank: RankCertificate | None = None

    def to_json(self) -> dict:
        """The ``copcomp/2`` report: inputs, tolerances, a digest of the
        inputs, one section per stage reached, the verdict and any error."""
        report = {
            "schema": SCHEMA,
            "version": __version__,
            "digest": _digest(self.x, self.u),
            "tolerances": dataclasses.asdict(self.tol),
            "inputs": {"x": symmat_to_json(self.x),
                       "u": None if self.u is None else symmat_to_json(self.u)},
            "copositive": self.copositive.to_json(),
        }
        for key, part in (("zero_structure", self.zero_structure),
                          ("decomposition", self.decomposition),
                          ("assumptions", self.assumptions),
                          ("rank_certificate", self.rank)):
            if part is not None:
                report[key] = part.to_json()
        report["verdict"] = self.verdict
        if self.error is not None:
            report["error"] = self.error
        return report


def analyze(x: np.ndarray, u: np.ndarray | None = None,
            tol: Tolerances = Tolerances()) -> Analysis:
    """Run every stage on the pair (X, U), or on X alone, and read the verdict.

    Bad input raises before any work: SymMatError for a matrix that is not
    square and finite or a U of another order than X, OrderLimitError for
    p > 12.  A ValueError or RuntimeError from a later stage
    (ZeroStructureError, ComplementError, the NNLS and simplex guards) ends
    the run with that stage's failure verdict and its message in ``error``.
    """
    x = symmetrize(x)
    u = None if u is None else symmetrize(u)
    if u is not None and len(u) != len(x):
        raise SymMatError(f"U has order {len(u)}, X has order {len(x)}")
    a = Analysis(x, u, tol, is_copositive(x, tol))
    if not a.copositive.member:
        a.verdict = "X_NOT_COPOSITIVE"
        return a
    stage = "ZERO_STRUCTURE_FAILURE"
    try:
        a.zero_structure = compute_zero_structure(x, tol, a.copositive)
        if u is None:
            a.verdict = ("EMPTY_ZERO_SET_U_MUST_BE_ZERO"
                         if not a.zero_structure.vertices else "ZERO_STRUCTURE_ONLY")
            return a
        stage = "DECOMPOSITION_FAILURE"
        a.decomposition = decompose_dual(u, a.zero_structure, tol)
        stage = "ASSUMPTIONS_FAILURE"
        a.assumptions = check_assumptions(a.zero_structure, a.decomposition, tol)
        a.system = build_system(a.zero_structure, a.decomposition)
        a.rank = rank_certificate(a.system, a.system.anchor, tol)
    except (ValueError, RuntimeError) as exc:
        a.verdict, a.error = stage, str(exc)
        return a
    a.verdict = "OK" if a.rank.full_rank else "RANK_DEFICIENT"
    return a
