"""Per-layer spans for the traced benchmark run, installed from outside.

The program is not modified.  The tracer replaces the module attributes
through which callers reach each layer: a copcomp function is replaced in
every copcomp module that holds a reference to it (``cones.is_copositive``
is also ``zerostruct.is_copositive`` and ``cli.is_copositive``), while a
scipy entry point is replaced only in the one module whose calls it stands
for (``cones.linprog`` is the copositivity face LP, ``zerostruct.linprog``
the convex-hull LP, ``complement.linprog`` the strictness LP).

Every call becomes a span ``[name, start, end, parent, item]`` kept in
memory; per-layer numbers are derived from the spans after the run, and
the spans can be written out as JSON lines.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

ZERO_TOL = 1e-9  # the default Tolerances().zero_tol, used by every item

MODULES = ("cli", "paperlab", "cones", "zerostruct", "complement", "defeq",
           "symcore")


def _columns(args, kwargs):
    a = args[0] if args else kwargs.get("A")
    return int(a.shape[1])


def _supports(tracer, args, kwargs, res):
    tracer.count("cones.supports_visited", res.supports_checked)


def _face_lp(tracer, args, kwargs, res):
    # gamma >= -zero_tol: the KKT solution set meets the face
    tracer.count("cones.face_lp.feasible",
                 bool(res.success and -res.fun >= -ZERO_TOL))


def _zero_structure(tracer, args, kwargs, res):
    tracer.count("zerostruct.vertices", len(res.vertices))
    tracer.count("zerostruct.max_block", max((len(b) for b in res.blocks),
                                             default=0))


def _nnls_columns(name):
    def hook(tracer, args, kwargs, res):
        tracer.count(name, _columns(args, kwargs))
    return hook


def _no_convergence(tracer, args, kwargs, res):
    tracer.count("defeq.solve_local.no_convergence",
                 isinstance(res, tuple) and res[0] == "NO_CONVERGENCE")


# (span name, module, attribute, patch every copcomp reference?, result hook)
TARGETS = (
    ("cli.main", "cli", "main", True, None),
    ("paperlab.run_scenario", "paperlab", "run_scenario", True, None),
    ("cones.is_copositive", "cones", "is_copositive", True, _supports),
    ("cones.face_lp", "cones", "linprog", False, _face_lp),
    ("cones.cp_membership", "cones", "cp_membership", True, None),
    ("zerostruct.compute_zero_structure", "zerostruct",
     "compute_zero_structure", True, _zero_structure),
    ("zerostruct.enumerate_zero_vertices", "zerostruct",
     "enumerate_zero_vertices", True, None),
    ("zerostruct.hull_lp", "zerostruct", "linprog", False, None),
    ("zerostruct.partition_blocks", "zerostruct", "partition_blocks", True,
     None),
    ("complement.decompose_dual", "complement", "decompose_dual", True, None),
    ("complement.nnls", "complement", "nnls", False,
     _nnls_columns("complement.nnls.columns")),
    ("complement.check_assumptions", "complement", "check_assumptions", True,
     None),
    ("complement.strictness_lp", "complement", "linprog", False, None),
    ("complement.positive_factorization", "complement",
     "positive_factorization", True, None),
    ("defeq.jacobian", "defeq", "jacobian", True, None),
    ("defeq.solve_local", "defeq", "solve_local", True, _no_convergence),
    ("defeq.rank_certificate", "defeq", "rank_certificate", True, None),
    ("defeq.verify_forward", "defeq", "verify_forward", True, None),
    ("defeq.verify_backward", "defeq", "verify_backward", True, None),
    ("defeq.nnls", "defeq", "nnls", False, _nnls_columns("defeq.nnls.columns")),
    ("symcore.sym_kron", "symcore", "sym_kron", True, None),
)


class Tracer:
    """Spans and counters for one traced phase of a run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counters: dict[str, list] = {}  # name -> [(item, value), ...]
        self.item = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def count(self, name: str, value) -> None:
        self.counters.setdefault(name, []).append((self.item, float(value)))

    def _wrap(self, name, fn, hook):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1,
                          self.item])
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(self, args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "copcomp" or n.startswith("copcomp.")]
        for name, mod_name, attr, everywhere, hook in TARGETS:
            home = importlib.import_module(f"copcomp.{mod_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, hook)
            holders = modules if everywhere else [home]
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is fn and (everywhere or key == attr):
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _self_times(spans):
    """Duration of each span minus the time its direct traced children took."""
    child = [0.0] * len(spans)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _inside(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, items) -> dict:
    """Per-layer metrics over the traced items, as per-item means.

    ``items`` is the collection of item ids to include; spans and counts of
    other items are ignored.  Call-level counters (vertices, max block,
    Jacobians per solve) are means per call of the owning function.
    """
    items = set(items)
    n = max(len(items), 1)
    spans = tracer.spans
    selfs = _self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    jac_in_solve = 0
    for idx, (name, start, end, parent, item) in enumerate(spans):
        if item not in items:
            continue
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + selfs[idx]
        if name == "defeq.jacobian" and _inside(spans, idx, "defeq.solve_local"):
            jac_in_solve += 1

    def total(name):
        return sum(v for item, v in tracer.counters.get(name, ()) if item in items)

    out = {}
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0) / n
        out[f"{name}.busy_s"] = busy.get(name, 0.0) / n
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    lp_calls = calls.get("cones.face_lp", 0)
    out["cones.face_lp.feasible_ratio"] = (
        total("cones.face_lp.feasible") / lp_calls if lp_calls else 0.0)
    out["cones.supports_visited"] = total("cones.supports_visited") / n
    zs_calls = calls.get("zerostruct.compute_zero_structure", 0)
    for key in ("zerostruct.vertices", "zerostruct.max_block"):
        out[key] = total(key) / zs_calls if zs_calls else 0.0
    for key in ("complement.nnls.columns", "defeq.nnls.columns",
                "defeq.solve_local.no_convergence"):
        out[key] = total(key) / n
    solves = calls.get("defeq.solve_local", 0)
    out["defeq.solve_local.jacobians_per_call"] = (
        jac_in_solve / solves if solves else 0.0)
    return out


def span_modules(tracer: Tracer) -> set:
    return {span[0].split(".", 1)[0] for span in tracer.spans}
