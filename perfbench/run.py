#!/usr/bin/env python3
"""swtorsion benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sw-genus --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Operations go through ``swtorsion.cli.main`` with stdout captured, one at a
time from one thread: a closed loop with one client.  ``--trace 0`` times
the loop and prints the end-to-end metrics, with times calibrated for the
machine's speed (see calibrate.py).  ``--trace 1`` follows each
untraced operation with a traced replay of its layer calls and prints the
per-layer metrics.  The last stdout line is the result object and the line
before it records the run environment.  Fixtures, results and spans are
written under ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, NamedTuple, Tuple

import calibrate
import tracing
from workloads import WORKLOADS, Op, check_pairs, computed_counts, make_ops, twin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

LAYERS = ["cli", "tqft", "sympower", "surface", "torsion", "series", "linalg",
          "intersection"]
# Set-up runs per benchmark run; setup_s is their median.
SETUP_REPEATS = 3
# Every run executes at least this many operations; their concatenated
# stdout is the run's digest.
DIGEST_OPS = 8
DIGESTS = json.loads((HERE / "digests.json").read_text())
DEFAULT_SEED = DIGESTS["seed"]
SMOKE_SECONDS = 0.2


class Sample(NamedTuple):
    """One untraced execution of operation ``k`` in the timed loop."""

    k: int
    rc: int
    out: str
    start: float
    seconds: float
    cpu: float


class Setup(NamedTuple):
    lib: SimpleNamespace
    fixtures: Dict[str, object]
    fixture_seconds: List[float]
    seconds: float


def import_swtorsion() -> SimpleNamespace:
    """Import the package afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "swtorsion" or m.startswith("swtorsion.")]:
        del sys.modules[name]
    importlib.import_module("swtorsion.cli")
    package = sys.modules["swtorsion"]
    if Path(package.__file__).resolve().parent != SRC / "swtorsion":
        raise ImportError(f"swtorsion imported from {package.__file__}")
    return SimpleNamespace(**{layer: sys.modules["swtorsion." + layer]
                              for layer in LAYERS})


def clear_caches() -> None:
    """Clear every ``cache_clear``-able attribute of the swtorsion modules."""
    for name, module in list(sys.modules.items()):
        if name == "swtorsion" or name.startswith("swtorsion."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def cache_counts(lib) -> Dict[str, int]:
    """Lookups of the Lambda(A) cache and the Sym^n basis caches so far."""
    def info(name):
        get = getattr(getattr(lib.sympower, name, None), "cache_info", None)
        return get() if get else None
    lam = info("_lambda_image")
    bases = [ci for ci in map(info, ("enumerate_basis", "basis_index")) if ci]
    return {"lambda_hits": lam.hits if lam else 0,
            "lambda_misses": lam.misses if lam else 0,
            "lambda_entries": lam.currsize if lam else 0,
            "basis_hits": sum(ci.hits for ci in bases),
            "basis_misses": sum(ci.misses for ci in bases)}


def setup(ops: List[Op], workdir: Path) -> Setup:
    """Import swtorsion, generate the workload's fixtures, write them."""
    t0 = time.perf_counter()
    lib = import_swtorsion()
    fixtures, fixture_s = {}, []
    for op in ops:
        if op.fixture_name in fixtures:
            continue
        t = time.perf_counter()
        P = lib.cli.generate_fixture(op.g, op.handles, op.words, op.word_seed)
        fixture_s.append(time.perf_counter() - t)
        lib.cli.write_presentation(P, str(workdir / op.fixture_name))
        fixtures[op.fixture_name] = P
    return Setup(lib, fixtures, fixture_s, time.perf_counter() - t0)


def execute(cli, argv: List[str]) -> Tuple[int, str]:
    """One CLI invocation in this process: (exit code, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue()


def failed_ops(lib, ops, fixtures, runs, workdir, inject_fault) -> set:
    """Indices of operations that failed; checked outside the timed loop.

    An operation fails on a nonzero exit, a failed output check, output
    that differs between its executions, or output that differs from a
    real ``python -m swtorsion.cli`` subprocess (tried on the fastest one).
    """
    first: Dict[int, Tuple[int, str]] = {}
    fastest: Dict[int, float] = {}
    bad = set()
    for r in runs:
        if first.setdefault(r.k, (r.rc, r.out)) != (r.rc, r.out):
            bad.add(r.k)
        fastest[r.k] = min(r.seconds, fastest.get(r.k, r.seconds))
    for k, (rc, out) in first.items():
        op = ops[k]
        try:
            pairs = check_pairs(lib, op, fixtures[op.fixture_name], rc, out)
        except (KeyError, IndexError, ValueError):
            traceback.print_exc()
            bad.add(k)
            continue
        if inject_fault and k == 0:
            pairs[0] = (pairs[0][0], "not " + pairs[0][1])
        if any(got != want for got, want in pairs):
            bad.add(k)
    k = min(fastest, key=fastest.get)
    proc = subprocess.run(
        [sys.executable, "-m", "swtorsion.cli",
         *ops[k].argv(str(workdir / ops[k].fixture_name))],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, timeout=120)
    if (proc.returncode, proc.stdout) != (first[k][0], first[k][1].encode()):
        bad.add(k)
    return bad


def run(name: str, seed: int, seconds: float, trace: bool,
        inject_fault: bool = False) -> Tuple[dict, dict]:
    """One benchmark run; returns (result object, environment record)."""
    cold = WORKLOADS[name].cold
    ops = make_ops(name, seed)
    # The warm workload never clears its caches, so its traced replay runs
    # on a twin fixture of the same shape instead of re-running the
    # untraced one on warm caches.
    replayed = ops if cold else [twin(op) for op in ops]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        fixture_ops = ops + replayed if trace and not cold else ops
        setups, setup_calibration = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            setup_calibration.append(calibrate.task_seconds())
            setups.append(setup(fixture_ops, workdir))
        setup_calibration.append(calibrate.task_seconds())
        lib, fixtures, fixture_s, _ = setups[-1]

        def path(op: Op) -> str:
            return str(workdir / op.fixture_name)

        tracer = tracing.Tracer()
        runs: List[Sample] = []
        records: List[dict] = []
        calibration: List[Tuple[float, float]] = []

        def plain(k: int) -> dict:
            """Untraced run; in a traced run, also its cache lookups."""
            if cold:
                clear_caches()
            before = cache_counts(lib) if trace else None
            c = time.process_time()
            s = time.perf_counter()
            rc, out = execute(lib.cli, ops[k].argv(path(ops[k])))
            runs.append(Sample(k, rc, out, s, time.perf_counter() - s,
                               time.process_time() - c))
            if not trace:
                return {}
            after = cache_counts(lib)
            return {"plain": runs[-1].seconds,
                    "cache": {key: after[key] - before[key] for key in after},
                    "lambda_entries": after["lambda_entries"]}

        def traced(i: int) -> dict:
            op = replayed[i % len(ops)]
            if cold:
                clear_caches()
            tracer.op = i
            first_span = len(tracer.spans)
            s = time.perf_counter()
            measured = tracing.replay(lib, tracer, op.command, path(op), op.arg)
            elapsed = time.perf_counter() - s - sum(
                sp.end - sp.start for sp in tracer.spans[first_span:] if sp.probe)
            counts = computed_counts(op, lambda G, m: lib.sympower.SymSpace(
                lib.surface.SurfaceModel(G), m).dim)
            return {"traced": elapsed, "counts": {**counts, **measured}}

        t0 = time.perf_counter()
        deadline = t0 + seconds
        i = 0
        while i < DIGEST_OPS or time.perf_counter() < deadline:
            k = i % len(ops)
            if not trace:
                now = time.perf_counter()
                if (not calibration
                        or now - calibration[-1][0] >= calibrate.INTERVAL):
                    calibration.append((now, calibrate.task_seconds()))
                plain(k)
            elif i % 2:
                # The traced and the untraced run alternate which goes first,
                # so an order effect does not land in the cli self time.
                records.append({**traced(i), **plain(k)})
            else:
                records.append({**plain(k), **traced(i)})
            i += 1
        wall = time.perf_counter() - t0
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        bad = failed_ops(lib, ops, fixtures, runs, workdir, inject_fault)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outputs = {r.k: r.out for r in reversed(runs)}
    digest = hashlib.sha256("".join(outputs[k] for k in range(DIGEST_OPS))
                            .encode()).hexdigest()
    recorded = DIGESTS["stdout_sha256"].get(name) if seed == DEFAULT_SEED else None
    if recorded is not None and recorded != digest:
        failed = len(runs)
    else:
        failed = sum(1 for r in runs if r.k in bad)
    attempted = len(runs)
    env = {"workload": name, "seed": seed, "seconds": seconds,
           "trace": int(trace), "cold": cold,
           "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "ops_attempted": attempted, "ops_failed": failed,
           "ops_distinct": len(outputs), "error_rate": failed / attempted,
           "loop_wall_s": wall, "setup_runs_s": [s.seconds for s in setups],
           "stdout_sha256": digest, "stdout_sha256_recorded": recorded}
    ok = attempted - failed
    if trace:
        metrics = layer_metrics(tracer, records, fixture_s)
        (OUT / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps(tracer.to_json()))
    else:
        metrics, raw = end_to_end_metrics(runs, calibration, setups,
                                          setup_calibration, ok, wall,
                                          peak_rss_mib)
        env.update(raw)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"environment": env, "result": result}, indent=1))
    return result, env


def end_to_end_metrics(runs, calibration, setups, setup_calibration, ok,
                       wall, peak_rss_mib
                       ) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """End-to-end metrics with calibrated times, and the raw figures."""
    attempted = len(runs)
    scale = calibrate.factors(calibration, [r.start for r in runs])
    times = [r.seconds * f for r, f in zip(runs, scale)]
    setup_s = statistics.median(s.seconds for s in setups)
    setup_scale = calibrate.REFERENCE / statistics.median(setup_calibration)
    metrics = {
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1000, "ms"),
        "cpu_ms_per_op": (sum(r.cpu * f for r, f in zip(runs, scale))
                          / attempted * 1000, "ms"),
        "setup_s": (setup_s * setup_scale, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "success_rate": (ok / attempted, "ratio"),
    }
    seconds = [r.seconds for r in runs]
    raw = {"raw_ops_per_s": ok / wall,
           "raw_op_p50_ms": statistics.median(seconds) * 1000,
           "raw_op_p90_ms": statistics.quantiles(seconds, n=10)[-1] * 1000,
           "raw_cpu_ms_per_op": sum(r.cpu for r in runs) / attempted * 1000,
           "raw_setup_s": setup_s,
           "calibration_runs": len(calibration),
           "calibration_median_ms":
               statistics.median(c[1] for c in calibration) * 1000}
    return metrics, raw


def layer_metrics(tracer, records, fixture_s) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, each a mean per traced operation unless noted."""
    per_op = tracing.span_times(tracer)
    n = len(records)

    def mean_ms(key):
        return sum(per_op.get(i, {}).get(key, 0.0) for i in range(n)) * 1000 / n

    def ratio(hits, misses):
        h = sum(r["cache"][hits] for r in records)
        total = h + sum(r["cache"][misses] for r in records)
        return h / total if total else 0.0

    def mean_count(key):
        return sum(r["counts"].get(key, 0) for r in records) / n

    out = {f"{name}_ms": (mean_ms(name), "ms") for name in tracing.SPANS}
    out["cli.self_ms"] = (sum(r["plain"] - per_op.get(i, {}).get("covered", 0.0)
                              for i, r in enumerate(records)) * 1000 / n, "ms")
    for layer in tracing.SELF_LAYERS:
        out[f"{layer}.self_ms"] = (mean_ms(f"{layer}.self"), "ms")
    out["sympower.lambda_cache_hit_ratio"] = (
        ratio("lambda_hits", "lambda_misses"), "ratio")
    out["sympower.basis_cache_hit_ratio"] = (
        ratio("basis_hits", "basis_misses"), "ratio")
    out["sympower.lambda_cache_entries"] = (
        max(r["lambda_entries"] for r in records), "count")
    for key in ("sympower.space_dim", "surface.principal_minors",
                "series.leibniz_products", "linalg.gram_inverse_ops"):
        out[key] = (mean_count(key), "computed-count")
    out["intersection.graph_terms"] = (
        mean_count("intersection.graph_terms"), "count")
    out["surface.fixture_ms"] = (statistics.mean(fixture_s) * 1000, "ms")
    out["trace.overhead_ratio"] = (sum(r["traced"] for r in records)
                                   / sum(r["plain"] for r in records), "ratio")
    out["trace.ops"] = (n, "count")
    return out


def smoke() -> int:
    """Quick self-test of the benchmark; returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, _ = run(name, DEFAULT_SEED, SMOKE_SECONDS, bool(trace))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {units} "
                                f"differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} "
                                f"of {result['attempted']} operations failed")
    result, _ = run("verify-sweep", DEFAULT_SEED, SMOKE_SECONDS, False,
                    inject_fault=True)
    if result["failed"] == 0 or result["metrics"]["success_rate"]["value"] >= 1:
        problems.append("an injected wrong expected value was not counted")
    other = DEFAULT_SEED + 1
    for name in WORKLOADS:
        if make_ops(name, other) == make_ops(name, DEFAULT_SEED):
            problems.append(f"{name}: seed {other} gives the same fixtures")
    result, _ = run("series-handles", other, SMOKE_SECONDS, False)
    if set(result["metrics"]) != set(wanted[0]) or not result["correct"]:
        problems.append(f"seed {other} changes the metrics or fails")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own quick self-test")
    args = parser.parse_args()
    if not (SRC / "swtorsion" / "__init__.py").is_file():
        print(f"error: no swtorsion package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
