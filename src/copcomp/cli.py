"""Command-line front end.

``copcomp analyze X.json [U.json]`` runs the full pipeline on a pair of
symmetric-matrix files; ``copcomp scenario run NAME`` replays a bundled
scenario; ``copcomp scenario list`` enumerates them.  Exit codes: 0 on
success, 1 on a structural failure (non-copositive X, decomposition
failure, failed scenario expectation), 2 on bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .cones import is_copositive, simplex_min_oracle
from .complement import ComplementError, check_assumptions, decompose_dual
from .defeq import build_system, rank_certificate
from .paperlab import run_scenario, scenario_names, SCENARIOS
from .symcore import Tolerances, load_symmat, symmat_to_json
from .zerostruct import ZeroStructureError, compute_zero_structure

SCHEMA = "copcomp/1"


def _digest(*mats) -> str:
    h = hashlib.sha256()
    for m in mats:
        if m is not None:
            h.update(np.ascontiguousarray(m, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _tolerances(args) -> Tolerances:
    return Tolerances(**{f.name: getattr(args, f.name)
                         for f in dataclasses.fields(Tolerances)})


def cmd_analyze(args) -> int:
    # JSONDecodeError, SymMatError, OrderLimitError and LinAlgError are
    # all ValueErrors
    try:
        x = load_symmat(args.x)
        u = load_symmat(args.u) if args.u else None
        tol = _tolerances(args)
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
    if args.verify_oracle:
        bound, arg = simplex_min_oracle(x, args.grid_depth)
        report["oracle"] = {"grid_depth": args.grid_depth,
                           "upper_bound": bound, "argmin": arg.tolist()}
    if not verdict.member:
        report["verdict"] = "X_NOT_COPOSITIVE"
        _emit(report, args)
        return 1

    try:
        zs = compute_zero_structure(x, tol, verdict)
    except ZeroStructureError as exc:
        report["verdict"] = "ZERO_STRUCTURE_FAILURE"
        report["error"] = str(exc)
        _emit(report, args)
        return 1
    report["zero_structure"] = zs.to_json()

    if u is None:
        report["verdict"] = ("EMPTY_ZERO_SET_U_MUST_BE_ZERO"
                            if not zs.vertices else "ZERO_STRUCTURE_ONLY")
        _emit(report, args)
        return 0

    try:
        dd = decompose_dual(u, zs, tol)
        rep = check_assumptions(x, u, zs, dd, tol)
    except ComplementError as exc:
        report["verdict"] = "DECOMPOSITION_FAILURE"
        report["error"] = str(exc)
        _emit(report, args)
        return 1
    report["decomposition"] = dd.to_json()
    report["assumptions"] = rep.to_json()

    system = build_system(zs, dd)
    cert = rank_certificate(system, system.anchor, tol)
    report["system"] = system.to_json()
    report["rank_certificate"] = cert.to_json()
    report["verdict"] = "OK" if cert.full_rank else "RANK_DEFICIENT"
    _emit(report, args)
    return 0 if cert.full_rank else 1


def _emit(report: dict, args) -> None:
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
        return
    print(f"copcomp {report['version']} (schema {report['schema']}, "
          f"digest {report['digest']})")
    t = report["tolerances"]
    print(f"tolerances: zero={t['zero_tol']:g} rank={t['rank_tol']:g} "
          f"psd={t['psd_tol']:g}")
    cop = report["copositive"]
    print(f"copositive: {cop['member']} (simplex min {cop['min_value']:.3e})")
    if "oracle" in report:
        o = report["oracle"]
        print(f"oracle bound (depth {o['grid_depth']}): {o['upper_bound']:.3e}")
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
        print(f"defining system: m={report['system']['m']}, "
              f"rank {c['rank_computed']}/{c['m_expected']} "
              f"(sigma ratio {c['sigma_ratio']:.3e})")
    if "error" in report:
        print(f"error: {report['error']}")
    print(f"verdict: {report['verdict']}")


def cmd_scenario(args) -> int:
    if args.action == "list":
        for name in scenario_names():
            print(f"{name}: {SCENARIOS[name].description}")
        return 0
    try:
        records = run_scenario(args.name, _tolerances(args))
    except KeyError as exc:
        print(f"input error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        json.dump({"schema": SCHEMA, "scenario": args.name,
                   "checks": records}, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for rec in records:
            mark = "PASS" if rec["passed"] else "FAIL"
            detail = f"  [{rec['detail']}]" if rec["detail"] else ""
            print(f"{mark}  {rec['expectation']}{detail}")
    return 0 if all(r["passed"] for r in records) else 1


def build_parser() -> argparse.ArgumentParser:
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
    analyze.add_argument("--grid-depth", type=int, default=12,
                         help="barycentric grid depth for the oracle")
    analyze.add_argument("--verify-oracle", action="store_true",
                         help="cross-check copositivity with the grid oracle")
    add_common(analyze)
    analyze.set_defaults(func=cmd_analyze)

    scenario = sub.add_parser("scenario", help="run bundled scenarios")
    scenario.add_argument("action", choices=("run", "list"))
    scenario.add_argument("name", nargs="?", default=None)
    add_common(scenario)
    scenario.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "scenario" and args.action == "run" and not args.name:
        print("input error: scenario run requires a name", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
