"""Command-line front end.

``copcomp analyze X.json [U.json]`` loads a pair of symmetric-matrix
files, runs :func:`copcomp.analysis.analyze` on it and prints its report
as text or JSON; ``copcomp scenario run NAME`` replays a bundled
scenario; ``copcomp scenario list`` enumerates them, with ``--json`` as
one line mapping each name to its description.  Exit codes: 0 on
success, 1 on a structural failure (the analyze verdicts X_NOT_COPOSITIVE,
ZERO_STRUCTURE_FAILURE, DECOMPOSITION_FAILURE, ASSUMPTIONS_FAILURE and
RANK_DEFICIENT, a failed scenario expectation, or a stage of a scenario
run that raises), 2 on bad input, an unknown scenario name among it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .analysis import EXIT_0_VERDICTS, SCHEMA, analyze
from .paperlab import run_scenario, scenario_names, SCENARIOS
from .symcore import Tolerances, load_symmat


def cmd_analyze(args, tol: Tolerances) -> int:
    # JSONDecodeError, SymMatError, OrderLimitError and LinAlgError are
    # all ValueErrors; analyze turns those of its later stages into verdicts
    try:
        x = load_symmat(args.x)
        u = load_symmat(args.u) if args.u else None
        result = analyze(x, u, tol)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit(result.to_json(), args)
    return 0 if result.verdict in EXIT_0_VERDICTS else 1


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
        scenarios = {name: SCENARIOS[name].description for name in scenario_names()}
        if args.json:
            _print_json({"schema": SCHEMA, "scenarios": scenarios})
        else:
            for name, description in scenarios.items():
                print(f"{name}: {description}")
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
