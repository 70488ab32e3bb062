"""Invariance checks: report plumbing and one cheap scenario per check.

The full bundled sweeps run in the acceptance module; these tests keep
to the cheapest scenario that still exercises each code path.
"""
import dataclasses

import numpy as np
import pytest

from mvt.harness import (
    CheckReport,
    SUITE_NAMES,
    check_continuous_dependence,
    check_lp_invariance,
    check_positivity,
    run_suite,
    weak_limit_experiment,
)
from mvt.measures import measure
from mvt.scenarios import ScenarioError, bundled_scenario


def test_report_summary_format():
    report = CheckReport(
        name="demo", passed=True, observed=[0.5], bound=[1.0], tolerance=1e-3, notes="n"
    )
    line = report.summary()
    assert line.startswith("demo: PASS")
    assert "worst_gap=" in line and "tol=" in line and line.endswith("| n")
    assert "FAIL" in CheckReport("d", False, [], [], 0.0, "x").summary()


def test_positivity_pure_transport():
    report = check_positivity(bundled_scenario("ring_rotation"))
    assert report.passed
    assert max(report.observed) == 0.0


def test_positivity_death_on_torus():
    report = check_positivity(bundled_scenario("source_torus"))
    assert report.passed


def test_positivity_rejects_signed_initial_data():
    base = bundled_scenario("source_torus")
    signed = measure([[0.25], [0.5]], [1.0, -0.5], base.domain)
    with pytest.raises(ScenarioError):
        check_positivity(dataclasses.replace(base, initial=signed))


def test_lp_invariance_contraction():
    report = check_lp_invariance(bundled_scenario("lp_contraction"))
    assert report.passed
    assert len(report.observed) == len(report.bound)
    # observed norms never exceed their windowed bound by the tolerance
    assert max(o - b for o, b in zip(report.observed, report.bound)) <= report.tolerance


def test_lp_invariance_needs_density():
    with pytest.raises(ScenarioError):
        check_lp_invariance(bundled_scenario("ring_rotation"))


def test_weak_limit_lsc_branch():
    sigma_star = 0.25
    # the liminf surrogate uses the last 5 entries; they need n large
    # enough that the O(1/n) norm slack sits under the 1e-3 tolerance
    ns = [1, 2, 5, 10, 1200, 1400, 1600, 1800, 2000]
    report = weak_limit_experiment(
        2.0, [sigma_star * (1.0 + 1.0 / n) for n in ns], sigma_star
    )
    assert report.passed
    assert report.name == "weak_limit_lsc"


def test_weak_limit_counterexample_branch():
    report = weak_limit_experiment(1.0, [1.0 / n for n in [1, 2, 5, 10, 50, 100]], 0.0)
    assert report.passed
    assert "counterexample" in report.name
    # signature: vanishing flat distance, exploding sup norm
    assert report.observed[0] <= 1e-2
    assert report.observed[1] >= 30.0


def test_dependence_identical_initial_data():
    scenario = bundled_scenario("linear_mass")
    report = check_continuous_dependence(scenario, scenario.initial, scenario.initial)
    assert report.passed
    assert max(report.observed) <= 10.0 * scenario.solver.picard_tol


def test_dependence_scaling_pair_tight():
    scenario = bundled_scenario("linear_mass")
    nu2 = measure(scenario.initial.points, 1.1 * np.asarray(scenario.initial.weights))
    report = check_continuous_dependence(scenario, scenario.initial, nu2)
    assert report.passed
    # linear dynamics scale exactly: ratio e^{ct} meets the bound with
    # omega = c, so the observed/bound gap stays within quadrature noise
    gaps = [o / b for o, b in zip(report.observed, report.bound)]
    assert max(gaps) <= 1.0 + 1e-3


def test_suite_names_and_unknown():
    assert SUITE_NAMES == ("positivity", "lp", "weaklimit", "dependence", "all")
    with pytest.raises(ScenarioError):
        run_suite("bogus")


def test_weaklimit_suite_wiring():
    reports = run_suite("weaklimit")
    assert len(reports) == 2
    assert all(r.passed for r in reports)
