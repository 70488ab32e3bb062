"""Self-test of the benchmark's own accounting (not part of the mvt suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that traced self times add up to the traced wall time, that no
tracer wrapper survives into an untraced round, and that a gate given a
wrong expected value counts exactly one failed operation.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
os.environ["MVT_THREADS"] = "1"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402


class _Tiny(workloads.Workload):
    """Two short solves that reach the chain DP, the LP and the density panels."""

    name = "tiny"

    def setup(self):
        self.scenarios = {
            "linear_mass": workloads._bundled("linear_mass", 0.02),
            "death_shear": workloads._bundled("death_shear", 0.05),
            "lp_rotation": workloads._bundled("lp_rotation", 0.05),
        }

    def check(self, op, traj):
        workloads.gate_reached(traj, op)


def test_traced_self_times_sum_to_traced_wall():
    workload = _Tiny(1, run.WORK / "selftest")
    workload.setup()
    tracer = Tracer("tiny")
    tracer.install()
    try:
        res = run.run_round(workload, 0, tracer)
    finally:
        tracer.uninstall()
    assert not res["errors"]
    layers = run._per_layer(tracer)
    summed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert abs(summed - res["wall_s"]) <= 0.02 * res["wall_s"] + 2e-3
    # every span name the tracer produced is reported as a per-layer self time
    reported = {k[: -len(".self_s")] for k in run.PER_LAYER_UNITS if k.endswith(".self_s")}
    assert set(tracer.span_names()) <= reported
    for route in ("flat_metric.chain1d", "flat_metric.lp", "grids.interpolate"):
        assert layers[f"{route}.calls"] > 0


def test_untraced_round_has_no_wrapper():
    import mvt.flat_metric
    import mvt.flow
    import mvt.solver
    import mvt.transport
    import mvt.velocity

    originals = (mvt.flow.advect, mvt.flat_metric.fm_norm,
                 mvt.velocity.VelocityField.__dict__["__call__"])
    tracer = Tracer("tiny")
    tracer.install()
    try:
        assert "mvt.transport.advect" in installed_wrappers()
        assert "mvt.solver.fm_norm" in installed_wrappers()
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert mvt.transport.advect is mvt.flow.advect is originals[0]
    assert mvt.solver.fm_norm is mvt.flat_metric.fm_norm is originals[1]
    assert mvt.velocity.VelocityField.__dict__["__call__"] is originals[2]
    workload = _Tiny(1, run.WORK / "selftest")
    workload.setup()
    res = run.run_round(workload, 0)
    assert not res["errors"] and installed_wrappers() == []


class _ShortLinearMass(workloads.Picard1D):
    def setup(self):
        self.scenarios = {"linear_mass": workloads._bundled("linear_mass", 0.02)}


class _WrongRate(_ShortLinearMass):
    LINEAR_C = 2.5  # the bundled linear_mass grows at rate 2


def test_wrong_expected_value_counts_one_failure():
    right, wrong = _ShortLinearMass(1, run.WORK), _WrongRate(1, run.WORK)
    right.setup()
    wrong.setup()
    assert not run.run_round(right, 0)["errors"]
    res = run.run_round(wrong, 0)
    assert res["attempted"] == 1
    assert list(res["errors"]) == ["linear_mass"]
