"""Benchmark of the mvt solver and CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload picard_1d --seed 1 --seconds 25 --trace 0

Workloads: picard_1d, dense_support, torus_source, cli_queries (see
BENCHMARK.json for why each exists), or ``all`` to run the four in turn in
one process.  The mvt package is imported from ``src/`` of the checkout
with ``MVT_THREADS=1``; nothing is installed and no pool is started.

A run first measures set-up: SETUP_RUNS fresh interpreters each import mvt
and build the workload's inputs, and ``setup_s`` is the median time from
spawning one to its "ready" line.  Then the run repeats rounds of the
workload's operations for ``--seconds`` (at least MIN_ROUNDS rounds) and
checks every operation's output after its round, outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median round
time), ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates untraced
and traced rounds on identical inputs and reports the per-layer metrics of
the traced rounds (self times are medians, counts must repeat exactly),
plus ``trace_overhead_s``; the spans go to ``.bench_work/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("picard_1d", "dense_support", "torus_source", "cli_queries")
SETUP_RUNS = 5
MIN_ROUNDS = 3
SAFETY_S = 150.0  # stop starting rounds after this, whatever --seconds says
THREADS = "1"

METRIC_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "flow.advect.self_s": "s",
    "flow.advect.point_steps": "count",
    "velocity.field_calls": "count",
    "transport.pushforward_measure.calls": "count",
    "transport.pushforward_measure.atoms": "count",
    "transport.pushforward_measure.self_s": "s",
    "reactions.eval_reaction.calls": "count",
    "reactions.eval_reaction.self_s": "s",
    "measures.linear_combine.calls": "count",
    "measures.linear_combine.self_s": "s",
    "solver.self_s": "s",
    "solver.intervals": "count",
    "solver.picard_sweeps": "count",
    "solver.nodes": "count",
    "solver.choose_step.self_s": "s",
    "flow.lipschitz_bound.calls": "count",
    "flow.lipschitz_bound.self_s": "s",
    "velocity.rate_calls": "count",
    "measures.coalesce.calls": "count",
    "measures.coalesce.self_s": "s",
    "measures.coalesce.atoms_in": "count",
    "measures.coalesce.atoms_out": "count",
    "measures.coalesce.merge_ratio": "ratio",
    "flat_metric.chain1d.calls": "count",
    "flat_metric.chain1d.self_s": "s",
    "flat_metric.chain1d.atoms": "count",
    "flat_metric.lp.calls": "count",
    "flat_metric.lp.self_s": "s",
    "flat_metric.lp.atoms": "count",
    "flat_metric.lp.max_atoms": "count",
    "geometry.pairwise_distances.self_s": "s",
    "solver.max_atoms": "count",
    "solver.final_atoms": "count",
    "solver.fm_calls_per_node_sweep": "ratio",
    "flow.advect_with_logjac.self_s": "s",
    "flow.advect_with_logjac.point_steps": "count",
    "grids.interpolate.calls": "count",
    "grids.interpolate.self_s": "s",
    "grids.interpolate.points": "count",
    "cli.simulate.self_s": "s",
    "cli.metric.self_s": "s",
    "scenarios.self_s": "s",
    "scenarios.build_s": "s",
    "bench.self_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}


def _check_checkout() -> None:
    if not (SRC / "mvt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mvt sources at {SRC}; run from a checkout of the repository")


def _import_workloads():
    """Import mvt from the checkout's src/ with one BLAS/OpenMP thread."""
    os.environ["MVT_THREADS"] = THREADS
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import mvt
    import workloads
    if Path(mvt.__file__).resolve().parent != (SRC / "mvt").resolve():
        sys.exit(f"perfbench: imported mvt from {mvt.__file__}, not from {SRC}")
    return workloads


def _setup_only(name: str, seed: int) -> None:
    """Child mode: import, build the inputs, report ready."""
    workloads = _import_workloads()
    workloads.WORKLOADS[name](seed, WORK / name).setup()
    print("ready", flush=True)


def measure_setup(name: str, seed: int, runs: int = SETUP_RUNS) -> list[float]:
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    for _ in range(runs):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up of {name} failed (exit {code})")
        times.append(ready - start)
    return times


def run_round(workload, round_index: int, tracer=None) -> dict:
    """Run one round; gate each result afterwards.  Returns times and failures."""
    op_times: dict[str, float] = {}
    results = {}
    errors: dict[str, str] = {}
    for op, fn in workload.ops(round_index):
        start = time.perf_counter()
        try:
            results[op] = fn() if tracer is None else tracer.span("bench", fn)
        except Exception:  # a raising operation is a failed operation
            errors[op] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        op_times[op] = time.perf_counter() - start
    for op, result in results.items():
        try:
            workload.check(op, result)
        except Exception as exc:  # GateError, or a gate that cannot read the output
            errors[op] = f"{type(exc).__name__}: {exc}"
    return {"wall_s": sum(op_times.values()), "op_times": op_times, "errors": errors,
            "attempted": len(op_times)}


def _by_kind(op_times: dict[str, float]) -> dict[str, float]:
    """Round time per kind of operation (query indices stripped)."""
    kinds: dict[str, float] = {}
    for op, seconds in op_times.items():
        kind = op.rstrip("0123456789_")
        kinds[kind] = kinds.get(kind, 0.0) + seconds
    return kinds


def _per_layer(tracer) -> dict[str, float]:
    c = tracer.counts
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name.endswith(".self_s"):
            out[name] = tracer.self_ns.get(name[: -len(".self_s")], 0) / 1e9
        elif unit == "count":
            out[name] = int(c.get(name, 0))
    calls = c.get("measures.coalesce.calls", 0)
    out["measures.coalesce.merge_ratio"] = (
        c.get("measures.coalesce.merging_calls", 0) / calls if calls else 0.0)
    node_sweeps = c.get("solver.node_sweeps", 0)
    out["solver.fm_calls_per_node_sweep"] = (
        c.get("solver.picard_fm_calls", 0) / node_sweeps if node_sweeps else 0.0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns metrics, counts and a log of failures."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times = measure_setup(name, seed)
    workloads = _import_workloads()
    from tracer import Tracer, installed_wrappers

    workload = workloads.WORKLOADS[name](seed, work)
    tracer = Tracer(name) if trace else None
    if tracer is not None:
        tracer.install()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
        build_s = tracer.total_ns.get("scenarios", 0) / 1e9
    else:
        workload.setup()

    failures: list[str] = []
    attempted = failed = 0
    untraced: list[float] = []
    untraced_kinds: list[dict[str, float]] = []
    traced: list[float] = []
    layer_runs: list[dict[str, float]] = []
    started = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - started
        if rounds >= MIN_ROUNDS and elapsed >= seconds or elapsed >= SAFETY_S:
            break
        # Traced runs alternate untraced/traced rounds on the same inputs,
        # after one untraced warm-up round whose time is not used.
        if tracer is not None and rounds % 2 == 1:
            tracer.reset()
            tracer.round = rounds
            tracer.install()
            try:
                res = run_round(workload, 0, tracer)
            finally:
                tracer.uninstall()
            layers = _per_layer(tracer)
            layers["scenarios.build_s"] = build_s + tracer.total_ns.get("scenarios", 0) / 1e9
            layer_runs.append(layers)
            traced.append(res["wall_s"])
        else:
            stray = installed_wrappers()
            if stray:
                raise RuntimeError(f"untraced round with tracer wrappers bound: {stray}")
            res = run_round(workload, 0 if trace else rounds)
            if not (trace and rounds == 0):  # a traced run's first round warms up
                untraced.append(res["wall_s"])
                untraced_kinds.append(_by_kind(res["op_times"]))
        rounds += 1
        attempted += res["attempted"]
        failed += len(res["errors"])
        failures += [f"round {rounds}: {op}: {msg}" for op, msg in res["errors"].items()]

    correct = failed == 0
    metrics: dict[str, float] = {}
    if trace:
        for key, unit in PER_LAYER_UNITS.items():
            if key in ("traced_wall_s", "trace_overhead_s"):
                continue
            values = [layers[key] for layers in layer_runs]
            if unit == "count":
                if len(set(values)) != 1:
                    correct = False
                    failures.append(f"count {key} did not repeat: {values}")
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        metrics["traced_wall_s"] = statistics.median(traced)
        metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        span_file = work / "trace_spans.csv"
        n_spans = tracer.write_spans(span_file)
        print(f"perfbench: {n_spans} spans written to {span_file.relative_to(ROOT)}")
    else:
        metrics["wall_s"] = statistics.median(untraced)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"workload": name, "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "failures": failures, "rounds": rounds,
            "op_kind_s": {k: statistics.median(r[k] for r in untraced_kinds)
                          for k in untraced_kinds[0]},
            "setup_runs_s": setup_times, "round_wall_s": untraced}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mvt_threads": os.environ.get("MVT_THREADS"), "seed": seed,
            "machine": platform.machine(), "processes": 1}


def _report(result: dict) -> None:
    name = result["workload"]
    for line in result["failures"]:
        print(f"perfbench: {name}: FAILED {line}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"perfbench: {name}: {result['rounds']} rounds, attempted {result['attempted']}, "
          f"failed {result['failed']}, failed_frac {frac:.4g}")
    for key, value in result["op_kind_s"].items():
        print(f"  {name} op {key}: median {value:.4f} s per round")
    print(f"  {name} set-up runs: " + " ".join(f"{t:.3f}" for t in result["setup_runs_s"]))
    print(f"  {name} untraced rounds: " + " ".join(f"{t:.3f}" for t in result["round_wall_s"]))
    for key, value in result["metrics"].items():
        unit = METRIC_UNITS.get(key) or PER_LAYER_UNITS.get(key, "")
        print(f"  {name}.{key} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _check_checkout()
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    print(json.dumps({"env": environment(args.seed)}))
    for result in results:
        _report(result)
    units = dict(METRIC_UNITS, **PER_LAYER_UNITS)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for key, value in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
