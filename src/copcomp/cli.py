"""Command-line front end.

``copcomp analyze X.json [U.json]`` runs the full pipeline on a pair of
symmetric-matrix files; ``copcomp scenario run NAME`` replays a bundled
scenario; ``copcomp scenario list`` enumerates them.  Exit codes: 0 on
success, 1 on a structural failure (the analyze verdicts X_NOT_COPOSITIVE,
ZERO_STRUCTURE_FAILURE, DECOMPOSITION_FAILURE, ASSUMPTIONS_FAILURE and
RANK_DEFICIENT, a failed scenario expectation, or a stage of a scenario
run that raises), 2 on bad input, an unknown scenario name among it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .cones import is_copositive
from .complement import check_assumptions, decompose_dual
from .defeq import build_system, rank_certificate
from .paperlab import run_scenario, scenario_names, SCENARIOS
from .symcore import SymMatError, Tolerances, load_symmat, symmat_to_json
from .zerostruct import compute_zero_structure

SCHEMA = "copcomp/2"
# analyze verdicts that exit 0; every other verdict exits 1
EXIT_0_VERDICTS = ("OK", "ZERO_STRUCTURE_ONLY", "EMPTY_ZERO_SET_U_MUST_BE_ZERO")


def _digest(*mats) -> str:
    h = hashlib.sha256()
    for m in mats:
        if m is not None:
            h.update(np.ascontiguousarray(m, dtype=float).tobytes())
    return h.hexdigest()[:16]


def cmd_analyze(args, tol: Tolerances) -> int:
    # JSONDecodeError, SymMatError, OrderLimitError and LinAlgError are
    # all ValueErrors
    try:
        x = load_symmat(args.x)
        u = load_symmat(args.u) if args.u else None
        if u is not None and len(u) != len(x):
            raise SymMatError(f"U has order {len(u)}, X has order {len(x)}")
        verdict = is_copositive(x, tol)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    report = {
        "schema": SCHEMA,
        "version": __version__,
        "digest": _digest(x, u),
        "tolerances": dataclasses.asdict(tol),
        "inputs": {"x": symmat_to_json(x),
                   "u": None if u is None else symmat_to_json(u)},
        "copositive": verdict.to_json(),
    }
    if verdict.member:
        report.update(_stages(x, u, verdict, tol))
    else:
        report["verdict"] = "X_NOT_COPOSITIVE"
    _emit(report, args)
    return 0 if report["verdict"] in EXIT_0_VERDICTS else 1


def _stages(x, u, verdict, tol: Tolerances) -> dict:
    """Report sections of the stages after the copositivity sweep.

    A ValueError or RuntimeError from a stage (ZeroStructureError,
    ComplementError, the NNLS and simplex guards) ends the run with the
    failure verdict of that stage and its message in ``error``.
    """
    out = {}
    stage = "ZERO_STRUCTURE_FAILURE"
    try:
        zs = compute_zero_structure(x, tol, verdict)
        out["zero_structure"] = zs.to_json()
        if u is None:
            out["verdict"] = ("EMPTY_ZERO_SET_U_MUST_BE_ZERO"
                              if not zs.vertices else "ZERO_STRUCTURE_ONLY")
            return out
        stage = "DECOMPOSITION_FAILURE"
        dd = decompose_dual(u, zs, tol)
        out["decomposition"] = dd.to_json()
        stage = "ASSUMPTIONS_FAILURE"
        out["assumptions"] = check_assumptions(zs, dd, tol).to_json()
        system = build_system(zs, dd)
        cert = rank_certificate(system, system.anchor, tol)
    except (ValueError, RuntimeError) as exc:
        out["verdict"] = stage
        out["error"] = str(exc)
        return out
    out["rank_certificate"] = cert.to_json()
    out["verdict"] = "OK" if cert.full_rank else "RANK_DEFICIENT"
    return out


def _print_json(obj) -> None:
    """``obj`` as one compact line of JSON with sorted keys."""
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _emit(report: dict, args) -> None:
    if args.json:
        _print_json(report)
        return
    print(f"copcomp {report['version']} (schema {report['schema']}, "
          f"digest {report['digest']})")
    t = report["tolerances"]
    print(f"tolerances: zero={t['zero_tol']:g} rank={t['rank_tol']:g} "
          f"psd={t['psd_tol']:g}")
    cop = report["copositive"]
    print(f"copositive: {cop['member']} (simplex min {cop['min_value']:.3e})")
    if not cop["member"]:
        print(f"witness: {cop['witness']}")
    if "zero_structure" in report:
        zsj = report["zero_structure"]
        print(f"zero vertices: {len(zsj['vertices'])}")
        for k, (v, m) in enumerate(zip(zsj["vertices"], zsj["contact_sets"]), 1):
            print(f"  tau({k}) = {np.round(v, 6).tolist()}  M({k}) = {m}")
        for k, (b, ps) in enumerate(zip(zsj["blocks"], zsj["supports"]), 1):
            print(f"  block J({k}) = {b}  support P*({k}) = {ps}")
    if "assumptions" in report:
        a = report["assumptions"]
        line = ", ".join(f"{name}={a[name]['status']}"
                         for name in ("j", "jj", "jjj"))
        cond = ", ".join(f"{name}={a[name]['status']}"
                         for name in ("cond_i", "cond_ii", "cond_iii"))
        print(f"assumptions: {line}")
        print(f"conditions: {cond}")
    if "rank_certificate" in report:
        c = report["rank_certificate"]
        print(f"defining system: m={c['m_expected']}, "
              f"rank {c['rank_computed']}/{c['m_expected']} "
              f"(sigma ratio {c['sigma_ratio']:.3e})")
    if "error" in report:
        print(f"error: {report['error']}")
    print(f"verdict: {report['verdict']}")


def cmd_scenario(args, tol: Tolerances) -> int:
    if args.action == "list":
        for name in scenario_names():
            print(f"{name}: {SCENARIOS[name].description}")
        return 0
    try:
        records = run_scenario(args.name, tol)
    except (ValueError, RuntimeError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _print_json({"schema": SCHEMA, "scenario": args.name, "checks": records})
    else:
        for rec in records:
            mark = "PASS" if rec["passed"] else "FAIL"
            detail = f"  [{rec['detail']}]" if rec["detail"] else ""
            print(f"{mark}  {rec['expectation']}{detail}")
    return 0 if all(r["passed"] for r in records) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps
    no state between calls, so each call still gets its own namespace."""
    parser = argparse.ArgumentParser(
        prog="copcomp",
        description="complementarity analysis for the copositive cone")

    def add_common(p):
        for f in dataclasses.fields(Tolerances):
            p.add_argument(f"--{f.name.replace('_', '-')}", type=float,
                           default=f.default)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")

    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a pair of matrices")
    analyze.add_argument("x", help="path to the SymMat JSON for X")
    analyze.add_argument("u", nargs="?", default=None,
                         help="path to the SymMat JSON for U (optional)")
    add_common(analyze)
    analyze.set_defaults(func=cmd_analyze)

    scenario = sub.add_parser("scenario", help="run bundled scenarios")
    scenario.add_argument("action", choices=("run", "list"))
    scenario.add_argument("name", nargs="?", default=None)
    add_common(scenario)
    scenario.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    """Flag values are checked here, before any work is done."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scenario" and (args.action == "run") != bool(args.name):
            raise ValueError("scenario run requires a name" if args.action == "run"
                             else f"scenario list takes no name, got {args.name!r}")
        if args.command == "scenario" and args.name not in (None, *SCENARIOS):
            raise ValueError(f"unknown scenario {args.name!r}; "
                             f"known: {', '.join(SCENARIOS)}")
        tol = Tolerances(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(Tolerances)})
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return args.func(args, tol)


if __name__ == "__main__":
    sys.exit(main())
