"""copcomp benchmark: three workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 bench/run.py --workload boundary --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload boundary --seed 1 --seconds 50 --trace 1
    python3 bench/run.py --seconds 50 # all three workloads, one line each
    python3 bench/run.py --smoke      # one item per workload, checks output
    python3 bench/run.py --record     # rewrite bench/reference.json

One client drives items in a closed loop in this process, single-threaded
(BLAS pinned to one thread).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it has the per-layer metrics instead,
taken from spans that ``tracer.py`` installs around each layer, plus the
tracing overhead measured against an untraced phase of the same run.
Every item's output is checked against ``reference.json``.
"""

import os

# Pin BLAS before numpy is imported, here and in the set-up children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
WORKLOADS = ("boundary", "interior", "tracking")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the printed tail
# No cycle starts that is expected to end after this, so a run ends < 180 s.
HARD_LIMIT_S = 160.0
SMOKE_KINDS = {"boundary": "boundary/p12", "interior": None,
               "tracking": "tracking/scenario/s4"}
# Per-item counts that the traced run must reproduce exactly.
KNOWN_COUNTS = {"boundary/p12": {"cones.is_copositive.calls": 2,
                                 "cones.supports_visited": 2 * 4095,
                                 "cones.face_lp.calls": 1270}}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or inputs drifted)."""


def load_program():
    """Import copcomp from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import copcomp.cli  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"cannot import copcomp from {src.name}/: {exc}") from exc
    if not Path(copcomp.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError("copcomp was imported from outside this checkout")
    global workloads, tracer
    import tracer
    import workloads


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()[0],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    """Fresh interpreter to ``import copcomp.cli`` done plus the workload's
    preparation, timed from spawn to the child's last clock reading
    (perf_counter is system-wide monotonic on Linux)."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def measure(cycles, start, seconds, deadline, trace=None, first_id=0):
    """Run whole cycles in a closed loop until ``seconds`` have passed.
    Whole cycles keep the mix of item kinds the same in every run, so the
    median falls on the same kind.  Returns (results, elapsed, next cycle);
    a result is (item, latency, output, exception)."""
    results = []
    c = start
    t0 = last = time.perf_counter()
    while True:
        for item in cycles[c % len(cycles)]:
            if trace is not None:
                trace.item = first_id + len(results)
            t = time.perf_counter()
            try:
                out, err = item.run(), None
            except (Exception, SystemExit) as exc:  # a raising item fails
                out, err = None, exc
            results.append((item, time.perf_counter() - t, out, err))
        c += 1
        now = time.perf_counter()
        elapsed, cycle_s, last = now - t0, now - last, now
        if elapsed >= seconds:
            break
        if now + cycle_s > deadline:  # another cycle would end too late
            break
    return results, elapsed, c


def failures(results, reference) -> list[tuple[str, str]]:
    out = []
    for item, _, output, err in results:
        if err is not None:
            out.append((item.kind, f"raised {err!r}"))
            continue
        try:
            errors = workloads.compare(item.summarize(output),
                                       reference["items"][item.kind])
        except Exception as exc:  # any unreadable output is a failed item
            errors = [f"unreadable output: {exc!r}"]
        if errors:
            out.append((item.kind, "; ".join(errors[:3])))
    return out


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond
    it: (value, percentile, n).  With too few samples, the maximum."""
    s = sorted(latencies)
    n = len(s)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return s[idx], 100.0 * (idx + 1) / n, n


def check_inputs(reference) -> None:
    recorded = reference["inputs"]
    for key, value in workloads.pool_digests().items():
        if recorded.get(key) != value:
            raise BenchError(f"generated input {key} differs from the one "
                             "recorded in reference.json")


def select(values: dict, specs: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def run(workload, seed, seconds, trace, spec, reference, smoke=False):
    """One benchmark run; returns (result line, details)."""
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    check_inputs(reference)
    setup = None
    if not trace:
        setup = setup_seconds(workload, seed, 1 if smoke else SETUP_REPEATS)
    workdir = WORK / workload
    cycles, warmup = workloads.prepare(workload, seed, workdir)
    if smoke:
        kind = SMOKE_KINDS[workload] or cycles[0][0].kind
        cycles = [[next(i for cy in cycles for i in cy if i.kind == kind)]]
    for item in warmup:
        item.run()

    details = {}
    if not trace:
        results, elapsed, _ = measure(cycles, 0, seconds, deadline)
        lat = [r[1] for r in results]
        values = {"setup_s": statistics.median(setup),
                  "items_per_s": len(results) / elapsed,
                  "latency_p50_s": statistics.median(lat),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        # Printed, not gated: see "End-to-end metrics" in README.md.
        tail_s, pct, n = tail(lat)
        print(f"# latency_tail_s = {tail_s:.6g} s at percentile {pct:.1f} "
              f"of n={n}; setup_s samples {[round(s, 4) for s in setup]}")
        specs = spec["end_to_end"]
    else:
        plain, plain_s, nxt = measure(cycles, 0, seconds / 2, deadline)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced, traced_s, _ = measure(cycles, nxt, seconds / 2, deadline,
                                          trace=tr, first_id=len(plain))
        finally:
            tr.uninstall()
        if tr.missing:
            print(f"# not traced (attribute gone): {', '.join(tr.missing)}")
        ids = range(len(plain), len(plain) + len(traced))
        values = tracer.layer_metrics(tr, ids)
        values["trace.items_per_s_delta"] = (len(traced) / traced_s
                                             - len(plain) / plain_s)
        by_kind = {}
        for i, (item, *_rest) in zip(ids, traced):
            by_kind.setdefault(item.kind, []).append(i)
        details["by_kind"] = {k: tracer.layer_metrics(tr, v)
                              for k, v in sorted(by_kind.items())}
        details["span_modules"] = tracer.span_modules(tr)
        tr.write(workdir / "spans.jsonl")
        with open(workdir / "by_kind.json", "w") as fh:
            json.dump(details["by_kind"], fh, indent=1, sort_keys=True)
        for k, m in details["by_kind"].items():
            print(f"# {k} x{len(by_kind[k])}: " + " ".join(
                f"{name}={m[name]:g}" for name in
                ("cones.is_copositive.calls", "cones.supports_visited",
                 "cones.face_lp.calls", "complement.nnls.columns",
                 "defeq.jacobian.calls")))
        results = plain + traced
        specs = spec["per_layer"]

    failed = failures(results, reference)
    for kind, why in failed[:10]:
        print(f"# FAILED {kind}: {why}")
    metrics = select(values, specs)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_frac = {len(failed) / len(results):.6g} "
          f"({len(failed)} of {len(results)} items)")
    result = {"correct": not failed, "attempted": len(results),
              "failed": len(failed), "metrics": metrics}
    return result, details


def smoke(spec, reference) -> int:
    """One item per workload, untraced and traced; checks every metric is
    printed with its unit, the spans cover all seven modules, and the
    known per-item counts hold."""
    problems = []
    modules = set()
    by_kind = {}
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run(workload, 0, 0, trace, spec, reference,
                                  smoke=True)
            print(json.dumps(result), flush=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} {key}: metrics {got} != {want}")
            if not result["correct"]:
                problems.append(f"{workload}: output differs from reference")
            modules |= details.get("span_modules", set())
            by_kind.update(details.get("by_kind", {}))
    for kind, counts in KNOWN_COUNTS.items():
        for name, value in counts.items():
            got_v = by_kind.get(kind, {}).get(name)
            if got_v != value:
                problems.append(f"{kind} {name} = {got_v}, expected {value}")
    missing = set(tracer.MODULES) - modules
    if missing:
        problems.append(f"spans miss modules: {sorted(missing)}")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def record() -> int:
    """Write reference.json from unpermuted inputs at the current commit."""
    import copcomp
    import numpy
    items = {}
    for item in workloads.reference_items(WORK / "record"):
        items[item.kind] = item.summarize(item.run())
        print(f"{item.kind}: {items[item.kind].get('verdict', '')}", flush=True)
    ref = {"meta": {"copcomp": copcomp.__version__,
                    "numpy": numpy.__version__,
                    "rel_tol": workloads.REL_TOL, "abs_tol": workloads.ABS_TOL},
           "inputs": workloads.pool_digests(), "items": items}
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child and not args.workload:
        ap.error("--setup-child needs --workload")
    correct = True
    try:
        load_program()
        if args.setup_child:
            workloads.prepare(args.workload, args.seed, WORK / args.workload)
            print(time.perf_counter())
            return 0
        if args.record:
            return record()
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        with open(BENCH / "reference.json") as fh:
            reference = json.load(fh)
        if args.smoke:
            return smoke(spec, reference)
        for workload in [args.workload] if args.workload else WORKLOADS:
            result, _ = run(workload, args.seed, args.seconds,
                            bool(args.trace), spec, reference)
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
