"""Inputs, items and reference checks for the four benchmark workloads.

An item is one unit of closed-loop work: a ``copcomp analyze`` or
``copcomp scenario run`` invocation made in-process through
``copcomp.cli.main`` on generated SymMat JSON files, or one path-tracking
call sequence on arrays.  Items are grouped in cycles, each holding every
kind of item in the workload once.

Inputs come from ``--seed``.  ``boundary`` permutes the
indices of its fixed matrices with a fresh seeded permutation per item,
so that no input repeats within a run, and results are compared with the
reference after mapping indices back.  ``interior`` and ``tracking`` draw
their random matrices from fixed generator pools whose outputs were
recorded in ``reference.json`` at the seed commit; the seed picks and
orders the pool members.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import copcomp.cli as cli
import copcomp.complement as complement
import copcomp.defeq as defeq
import copcomp.paperlab as paperlab
import copcomp.zerostruct as zerostruct
from copcomp.symcore import save_symmat

BOUNDARY_P = (8, 9, 10, 11, 12)
INTERIOR_P = 12
# More matrices than a run can analyze, so that no input repeats in a run.
INTERIOR_POOL = 96
TRACK_ANCHORS = ("s4", "h", "h0_3")
TRACK_POOL = 16
# Path items per anchor per cycle.  Two make 13 items with the scenarios, so
# the median falls inside the cluster of ~24 ms scenario runs instead of in
# the gap between the 13 ms and the 24 ms scenario kinds.
TRACK_PATHS = 2
TRACK_EPS = (1e-2, 1e-3, 1e-4)
# Cycles prepared per run, well over a run's worth at today's speed; a run
# that needs more wraps around.
CYCLES = {"boundary": 12, "interior": INTERIOR_POOL, "tracking": 150}

ASSUMPTIONS = ("j", "jj", "jjj", "cond_i", "cond_ii", "cond_iii")
REL_TOL = 1e-6
ABS_TOL = 1e-9  # zero_tol: values below it are noise around zero
VERTEX_TOL = 1e-8


@dataclass
class Item:
    kind: str  # key of the reference this item is checked against
    run: Callable[[], object]
    summarize: Callable[[object], dict]


# ---------------------------------------------------------------------------
# inputs


def _padded(m: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros((p, p))
    k = m.shape[0]
    out[:k, :k] = m
    return out


def _extremal():
    data = paperlab.build_extremal5()
    return data["x"], data["u"]


def interior_matrix(k: int) -> np.ndarray:
    """Pool member k: a PSD plus a nonnegative matrix, so copositive."""
    rng = np.random.default_rng((2, k))
    b = np.round(rng.standard_normal((INTERIOR_P, INTERIOR_P)), 6)
    n = np.round(rng.uniform(0.0, 1.0, (INTERIOR_P, INTERIOR_P)), 6)
    return b @ b.T / INTERIOR_P + 0.5 * (n + n.T)


def track_direction(anchor: str, k: int, p: int) -> np.ndarray:
    """Pool member k for an anchor: a symmetric perturbation direction."""
    rng = np.random.default_rng((4, TRACK_ANCHORS.index(anchor), k))
    e = np.round(rng.standard_normal((p, p)), 6)
    return 0.5 * (e + e.T)


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


def pool_digests() -> dict:
    out = {f"interior/{k}": digest(interior_matrix(k))
           for k in range(INTERIOR_POOL)}
    for anchor, (x0, _) in track_pairs().items():
        for k in range(TRACK_POOL):
            out[f"tracking/{anchor}/E{k}"] = digest(
                track_direction(anchor, k, x0.shape[0]))
    return out


def track_pairs() -> dict:
    s4 = paperlab.build_s4()
    h, hu = _extremal()
    return {"s4": (s4["x"], s4["u"]), "h": (h, hu),
            "h0_3": (_padded(h, 8), _padded(hu, 8))}


def build_anchor(x0: np.ndarray, u0: np.ndarray):
    zs = zerostruct.compute_zero_structure(x0)
    dd = complement.decompose_dual(u0, zs)
    return x0, zs, dd, defeq.build_system(zs, dd)


# ---------------------------------------------------------------------------
# items


def call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _analyze_item(kind, argv, perm):
    return Item(kind, lambda: call_cli(argv),
                lambda out: analyze_summary(out, perm))


def _write_pair(path: Path, mats: dict) -> dict:
    names = {}
    for tag, m in mats.items():
        f = path.with_name(f"{path.name}_{tag}.json")
        save_symmat(f, m)
        names[tag] = str(f)
    return names


def _permuted_analyze(kind, path: Path, rng, base: dict):
    p = next(iter(base.values())).shape[0]
    perm = rng.permutation(p)
    files = _write_pair(path, {t: m[np.ix_(perm, perm)] for t, m in base.items()})
    return _analyze_item(kind, ["analyze", files["x"], files["u"], "--json"],
                         perm)


def _track_item(anchor: str, k: int, built: dict):
    x0, zs, dd, system = built[anchor]
    e = track_direction(anchor, k, x0.shape[0])

    def run():
        xs, ws = [], []
        for eps in TRACK_EPS:
            x = x0 + eps * e
            w = defeq.solve_local(system, x)
            if isinstance(w, tuple):
                return {"no_convergence": w}
            xs.append(x)
            ws.append(w)
        us = [defeq.reconstruct_U(system, w) for w in ws]
        return {"xs": xs, "ws": ws,
                "forward": defeq.verify_forward(xs, us, zs, dd),
                "backward": defeq.verify_backward(xs, ws, zs, dd)}

    return Item(f"tracking/{anchor}/E{k}", run,
                lambda out: track_summary(out, system))


def _scenario_item(name: str):
    return Item(f"tracking/scenario/{name}",
                lambda: call_cli(["scenario", "run", name, "--json"]),
                scenario_summary)


def prepare(workload: str, seed: int, workdir: Path):
    """Write the workload's input files and build its items.

    Returns (cycles, warmup): a list of cycles, each a list of items, and
    the items run once untimed before measuring.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.glob("*.json"):
        old.unlink()
    rng = np.random.default_rng(seed)
    cycles = []
    if workload == "boundary":
        h, hu = _extremal()
        for c in range(CYCLES[workload]):
            cycles.append([
                _permuted_analyze(f"boundary/p{p}", workdir / f"c{c}_p{p}", rng,
                                  {"x": _padded(h, p), "u": _padded(hu, p)})
                for p in rng.permutation(BOUNDARY_P)])
        files = _write_pair(workdir / "warmup",
                            {"x": _padded(h, 8), "u": _padded(hu, 8)})
        warmup = [_analyze_item("boundary/p8", ["analyze", files["x"],
                                                files["u"], "--json"],
                                np.arange(8))]
    elif workload == "interior":
        for k in rng.permutation(INTERIOR_POOL):
            f = workdir / f"interior_{k}.json"
            save_symmat(f, interior_matrix(int(k)))
            cycles.append([_analyze_item(f"interior/{k}",
                                         ["analyze", str(f), "--json"],
                                         np.arange(INTERIOR_P))])
        warmup = cycles[-1]
    elif workload == "tracking":
        built = {a: build_anchor(x0, u0) for a, (x0, u0) in track_pairs().items()}
        names = paperlab.scenario_names()
        for _ in range(CYCLES[workload]):
            anchors = TRACK_ANCHORS * TRACK_PATHS
            picks = rng.integers(TRACK_POOL, size=len(anchors))
            items = [_scenario_item(n) for n in names]
            items += [_track_item(a, int(k), built)
                      for a, k in zip(anchors, picks)]
            cycles.append([items[i] for i in rng.permutation(len(items))])
        warmup = cycles[-1]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cycles, warmup


def reference_items(workdir: Path) -> list[Item]:
    """One unpermuted item per reference key, for recording the reference."""
    workdir.mkdir(parents=True, exist_ok=True)
    h, hu = _extremal()
    items = []
    for p in BOUNDARY_P:
        f = _write_pair(workdir / f"ref_boundary_{p}",
                        {"x": _padded(h, p), "u": _padded(hu, p)})
        items.append(_analyze_item(f"boundary/p{p}",
                                   ["analyze", f["x"], f["u"], "--json"],
                                   np.arange(p)))
    for k in range(INTERIOR_POOL):
        f = workdir / f"ref_interior_{k}.json"
        save_symmat(f, interior_matrix(k))
        items.append(_analyze_item(f"interior/{k}", ["analyze", str(f), "--json"],
                                   np.arange(INTERIOR_P)))
    items += [_scenario_item(n) for n in paperlab.scenario_names()]
    built = {a: build_anchor(x0, u0) for a, (x0, u0) in track_pairs().items()}
    for anchor in TRACK_ANCHORS:
        items += [_track_item(anchor, k, built) for k in range(TRACK_POOL)]
    return items


# ---------------------------------------------------------------------------
# summaries: the parts of an output that the reference pins


def analyze_summary(out, perm) -> dict:
    """Verdicts and structure of an ``analyze --json`` report, with every
    index set and vertex mapped back through the input permutation."""
    rc, stdout, stderr = out
    report = json.loads(stdout)
    perm = np.asarray(perm)

    def unperm(idx):  # 1-based index set of the permuted input
        return sorted(int(perm[k - 1]) + 1 for k in idx)

    s = {"exit": rc, "verdict": report["verdict"],
         "member": report["copositive"]["member"],
         "supports_checked": report["copositive"]["supports_checked"],
         "min_value": report["copositive"]["min_value"]}
    if "zero_structure" in report:
        zs = report["zero_structure"]
        verts = []
        for v in zs["vertices"]:
            t = np.zeros(len(v))
            t[perm] = v
            verts.append(t.tolist())
        s["vertices"] = verts
        s["contact_sets"] = [unperm(m) for m in zs["contact_sets"]]
        s["blocks"] = [sorted(j - 1 for j in b) for b in zs["blocks"]]
        s["supports"] = sorted(unperm(ps) for ps in zs["supports"])
    if "assumptions" in report:
        s["assumptions"] = {k: report["assumptions"][k]["status"]
                            for k in ASSUMPTIONS}
    if "rank_certificate" in report:
        c = report["rank_certificate"]
        s["rank"] = c["rank_computed"]
        s["m_expected"] = c["m_expected"]
        s["sigma_ratio"] = c["sigma_ratio"]
    return s


def scenario_summary(out) -> dict:
    rc, stdout, stderr = out
    checks = json.loads(stdout)["checks"]
    return {"exit": rc,
            "checks": [[c["expectation"], c["passed"]] for c in checks]}


def track_summary(out, system) -> dict:
    if "no_convergence" in out:
        return {"converged": False, "final_residual": out["no_convergence"][1]}
    residuals = []
    for x, w in zip(out["xs"], out["ws"]):
        r = defeq.residual(system, system.pack(x, w))
        residuals.append(float(np.linalg.norm(r, ord=np.inf)) if r.size else 0.0)
    return {
        "converged": True,
        "residuals": residuals,
        "forward": [[f["anticommutator_ok"], f["reconstruction_ok"]]
                    for f in out["forward"]],
        "backward": [[b["copositive"], [w["in_cp"] for w in b["w_blocks"]],
                      b["complementarity_ok"]] for b in out["backward"]],
    }


# ---------------------------------------------------------------------------
# comparison with the reference


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare_plain(got, ref, where: str, errors: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            errors.append(f"{where}: keys {sorted(got) if isinstance(got, dict) else got}"
                          f" != {sorted(ref)}")
            return
        for k in ref:
            _compare_plain(got[k], ref[k], f"{where}.{k}", errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{where}: {got} != {ref}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_plain(g, r, f"{where}[{i}]", errors)
    elif isinstance(ref, float) and not isinstance(got, bool):
        if not isinstance(got, (int, float)) or not _close(got, ref):
            errors.append(f"{where}: {got} != {ref}")
    elif got != ref or type(got) is not type(ref):
        errors.append(f"{where}: {got!r} != {ref!r}")


def _match_vertices(got: list, ref: list):
    """Index map got -> ref matching vertices within VERTEX_TOL, or None."""
    if len(got) != len(ref):
        return None
    free = list(range(len(ref)))
    mapping = []
    for v in got:
        hit = next((j for j in free if np.max(np.abs(np.subtract(v, ref[j])))
                    <= VERTEX_TOL), None)
        if hit is None:
            return None
        free.remove(hit)
        mapping.append(hit)
    return mapping


def compare(summary: dict, ref: dict) -> list[str]:
    """Differences between an item's summary and its reference."""
    errors: list[str] = []
    plain = {k: v for k, v in summary.items()
             if k not in ("vertices", "contact_sets", "blocks")}
    plain_ref = {k: v for k, v in ref.items()
                 if k not in ("vertices", "contact_sets", "blocks")}
    _compare_plain(plain, plain_ref, "", errors)
    if "vertices" in ref or "vertices" in summary:
        mapping = _match_vertices(summary.get("vertices", []),
                                  ref.get("vertices", []))
        if mapping is None:
            errors.append("vertex sets differ")
        else:
            for i, j in enumerate(mapping):
                if summary["contact_sets"][i] != ref["contact_sets"][j]:
                    errors.append(f"contact set of vertex {j + 1} differs")
            blocks = sorted(sorted(mapping[i] for i in b)
                            for b in summary["blocks"])
            if blocks != sorted(ref["blocks"]):
                errors.append(f"blocks {blocks} != {sorted(ref['blocks'])}")
    return errors
