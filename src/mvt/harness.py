"""Executable checks of the structural properties the solver relies on.

Each check computes its bound from certified constants (flow Lipschitz
and divergence integrals, reaction constants), never from the observed
data, and reports observations against that bound.  A failing report
falsifies either the implementation or the supplied constants; a passing
one corroborates, it does not prove.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .flat_metric import fm_distance
from .flow import lipschitz_bound
from .geometry import EUCLIDEAN
from .grids import gaussian_density, lp_norm, quantize
from .measures import dirac, measure, negative_part_tv, tv_norm
from .scenarios import Scenario, ScenarioError, bundled_scenario
from .solver import picard_step, solve_maximal
from .transport import lp_growth_factor


@dataclass
class CheckReport:
    """Outcome of one invariance check.

    ``observed`` and ``bound`` are aligned lists; the direction of the
    comparison is part of the check (norm checks are <=, signature
    checks may require >=) and is restated in ``notes``.
    """

    name: str
    passed: bool
    observed: list[float]
    bound: list[float]
    tolerance: float
    notes: str

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = ""
        if self.observed:
            gaps = [o - b for o, b in zip(self.observed, self.bound)]
            worst = f" worst_gap={max(gaps):.3e}"
        return f"{self.name}: {status}{worst} tol={self.tolerance:.3e} | {self.notes}"


# ---------------------------------------------------------------------------
# Positivity.
# ---------------------------------------------------------------------------

def check_positivity(scenario: Scenario) -> CheckReport:
    """Positive initial data must stay positive under auto dilation.

    Also runs a negative control: a few undilated Picard sweeps on one
    coarse-quadrature long interval, recording whether the plain
    operator's iterates dip negative (they may; the dilated integrand
    cannot, which is the point of the shift).
    """
    if not scenario.initial.is_positive():
        raise ScenarioError(f"scenario {scenario.name!r} has non-positive initial data")
    cfg = replace(scenario.solver, dilation_mode="auto")
    traj = solve_maximal(
        scenario.reaction,
        scenario.velocity,
        scenario.initial,
        scenario.t0,
        scenario.horizon,
        cfg,
    )
    worst = float(traj.neg_part_tv.max())
    tol = 1e-8 * tv_norm(scenario.initial)

    # Negative control: undilated sweeps on the full window, 3 nodes.
    span = scenario.horizon - scenario.t0
    curve = [scenario.initial] * 3
    dip = 0.0
    for _ in range(3):
        curve = picard_step(
            scenario.reaction, scenario.velocity, scenario.t0, span, curve
        )
        dip = max(dip, max(negative_part_tv(m) for m in curve))
    control = (
        f"undilated coarse control max negative part {dip:.3e}"
        if dip > 0
        else "undilated coarse control stayed positive"
    )
    return CheckReport(
        name=f"positivity[{scenario.name}]",
        passed=worst <= tol,
        observed=[worst],
        bound=[0.0],
        tolerance=tol,
        notes=f"max neg part over {len(traj.times)} nodes; {control}",
    )


# ---------------------------------------------------------------------------
# L^p propagation.
# ---------------------------------------------------------------------------

def check_lp_invariance(scenario: Scenario) -> CheckReport:
    """Density norms, in the density's own p, must stay under the windowed
    constructive bound.

    Within a window starting at t' the norm obeys
    ||phi_t||_p <= 2 * D^{v,p}(t', t) * ||phi_{t'}||_p, valid while the
    accumulated reaction contribution stays below ||phi_{t'}||_p; the
    window restarts (re-reading the observed norm) once that budget is
    spent.  Tolerance scales with the grid spacing, so refinement
    shrinks any violation.
    """
    if scenario.density is None:
        raise ScenarioError(f"scenario {scenario.name!r} tracks no density")
    u0 = scenario.density
    p = u0.p
    traj = solve_maximal(
        scenario.reaction,
        scenario.velocity,
        scenario.initial,
        scenario.t0,
        scenario.horizon,
        scenario.solver,
        initial_density=u0,
    )
    times = traj.times
    norms = traj.lp_norm
    spec = scenario.reaction
    n = len(times)
    bounds = np.empty(n)
    start = 0
    base = float(norms[0])
    bounds[0] = 2.0 * base
    budget = 0.0
    prev_rate = None
    for j in range(1, n):
        D = lp_growth_factor(scenario.velocity, float(times[start]), float(times[j]), p)
        rate = 0.0
        if spec.lp_bound is not None:
            rate = float(spec.lp_bound(p, 2.0 * D * base, float(times[start]), float(times[j])))
        if prev_rate is None:
            prev_rate = rate
        budget += 0.5 * (prev_rate + rate) * float(times[j] - times[j - 1])
        prev_rate = rate
        if budget > base and j < n - 1:
            # Reaction budget spent: restart the window at this node.
            start = j
            base = float(norms[j])
            budget = 0.0
            prev_rate = None
            bounds[j] = 2.0 * base
            continue
        bounds[j] = 2.0 * D * base
    tol = 0.5 * float(np.max(u0.cell_widths)) * float(np.max(norms))
    worst = float(np.max(norms - bounds))
    return CheckReport(
        name=f"lp_invariance[{scenario.name}]",
        passed=bool(np.all(norms <= bounds + tol)),
        observed=[float(x) for x in norms],
        bound=[float(x) for x in bounds],
        tolerance=tol,
        notes=(
            f"p={p}, {len(times)} nodes, worst observed-bound gap {worst:.3e}, "
            f"grid cells {u0.cells}"
        ),
    )


# ---------------------------------------------------------------------------
# Weak-limit lower semicontinuity and its p = 1 failure.
# ---------------------------------------------------------------------------

_WL_CELLS = 1024
_WL_BOX = 6.0


def weak_limit_experiment(
    p: float, sigma_sequence: list[float], target_sigma: float
) -> CheckReport:
    """Gaussian flat-norm limits and their density norms.

    For target_sigma > 0: the limit density norm must not exceed the
    liminf of the sequence norms (lower semicontinuity); liminf is
    replaced by the min over the last five terms.

    For target_sigma = 0 with p = 1 the same construction is the classic
    failure mode: the measures converge in flat norm to a point mass
    while the L^1-normalized densities blow up in sup norm; the check
    passes when that signature (flat distance small, sup norm large,
    mass concentrated) is reproduced.
    """
    if not sigma_sequence or any(s <= 0 for s in sigma_sequence):
        raise ValueError("sigma_sequence must be positive")
    if p < 1:
        raise ValueError("p must be at least 1")
    lo, hi = -_WL_BOX, _WL_BOX
    carriers = [
        gaussian_density([lo], [hi], _WL_CELLS, s, [0.0], 2.0) for s in sigma_sequence
    ]
    norms = [lp_norm(u, p) for u in carriers]
    particles = [quantize(u) for u in carriers]

    if target_sigma > 0:
        u_star = gaussian_density([lo], [hi], _WL_CELLS, target_sigma, [0.0], 2.0)
        mu_star = quantize(u_star)
        limit_norm = lp_norm(u_star, p)
        tail = norms[-5:] if len(norms) >= 5 else norms
        liminf = min(tail)
        fm_tail = fm_distance(particles[-1], mu_star)
        slack = limit_norm - liminf
        return CheckReport(
            name="weak_limit_lsc",
            passed=slack <= 1e-3,
            observed=[limit_norm],
            bound=[liminf],
            tolerance=1e-3,
            notes=(
                f"p={p}, sigma*={target_sigma}, limit norm {limit_norm:.6f} vs "
                f"liminf {liminf:.6f} (slack {slack:.2e}); final flat distance "
                f"to the limit {fm_tail:.3e}"
            ),
        )

    if p != 1:
        raise ValueError("the vanishing-sigma counterexample is stated for p = 1")
    delta0 = dirac([0.0], 1.0, EUCLIDEAN)
    fm_to_delta = fm_distance(particles[-1], delta0)
    sup_norm = lp_norm(carriers[-1], np.inf)
    eps = 3.0 * max(sigma_sequence[-5:] if len(sigma_sequence) >= 5 else sigma_sequence)
    last = particles[-1]
    inside = np.abs(last.points[:, 0]) <= eps
    concentration = float(np.sum(last.weights[inside]) / np.sum(last.weights))
    signature = fm_to_delta <= 1e-2 and sup_norm >= 30.0 and concentration >= 0.99
    return CheckReport(
        name="weak_limit_p1_counterexample",
        passed=signature,
        observed=[fm_to_delta, sup_norm, concentration],
        bound=[1e-2, 30.0, 0.99],
        tolerance=0.0,
        notes=(
            "directions: flat distance <= bound, sup norm >= bound, "
            f"concentration >= bound; L^1 mass stays 1 while sup norm "
            f"reaches {sup_norm:.1f} — no L^1 density survives the limit"
        ),
    )


# ---------------------------------------------------------------------------
# Continuous dependence on the initial datum.
# ---------------------------------------------------------------------------

def check_continuous_dependence(scenario: Scenario, nu1, nu2) -> CheckReport:
    """Flat-distance ratio of two solutions versus the Gronwall bound.

    bound(t) = L^v(t0, t) * exp(l_f(R) * L^v(t0, T) * (t - t0)), with R
    covering both trajectories' invariant balls.  Tolerance is a 10%
    multiplicative allowance for quadrature.
    """
    cfg = scenario.solver
    spec = scenario.reaction
    v = scenario.velocity
    t0, T = scenario.t0, scenario.horizon
    traj1 = solve_maximal(spec, v, nu1, t0, T, cfg)
    traj2 = solve_maximal(spec, v, nu2, t0, T, cfg)
    if len(traj1.times) != len(traj2.times) or not np.allclose(
        traj1.times, traj2.times, rtol=0, atol=1e-12
    ):
        raise ScenarioError(
            "trajectories landed on different time grids; set max_interval_tau"
        )
    d0 = fm_distance(nu1, nu2)
    times = traj1.times
    if d0 == 0.0:
        observed = [
            fm_distance(a, b) for a, b in zip(traj1.measures, traj2.measures)
        ]
        return CheckReport(
            name=f"dependence[{scenario.name}]",
            passed=all(x <= 10.0 * cfg.picard_tol for x in observed),
            observed=observed,
            bound=[0.0] * len(observed),
            tolerance=10.0 * cfg.picard_tol,
            notes="identical initial data; distances must vanish",
        )
    R = max(tv_norm(nu1), tv_norm(nu2)) + cfg.delta
    lf = float(spec.l_f(R))
    L_total = lipschitz_bound(v, t0, T)
    observed = []
    bounds = []
    for j, t in enumerate(times):
        d = fm_distance(traj1.measures[j], traj2.measures[j])
        observed.append(d / d0)
        Lt = lipschitz_bound(v, t0, float(t)) if t > t0 else 1.0
        bounds.append(Lt * math.exp(lf * L_total * (float(t) - t0)))
    ok = all(o <= b * 1.1 for o, b in zip(observed, bounds))
    worst = max(o / b for o, b in zip(observed, bounds))
    return CheckReport(
        name=f"dependence[{scenario.name}]",
        passed=ok,
        observed=observed,
        bound=bounds,
        tolerance=0.1,
        notes=(
            f"multiplicative tolerance; worst observed/bound ratio {worst:.4f} "
            f"over {len(times)} nodes; omega constant l_f(R)*L^v = {lf * L_total:.3f}"
        ),
    )


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

SUITE_NAMES = ("positivity", "lp", "weaklimit", "dependence", "all")


def _scaled(mu, factor: float):
    return measure(mu.points, factor * np.asarray(mu.weights), mu.domain)


def _dependence_pairs(seed: int):
    rng = np.random.default_rng(seed)
    lin = bundled_scenario("linear_mass")
    yield lin, lin.initial, _scaled(lin.initial, 1.1)

    ring = bundled_scenario("ring_rotation")
    jitter = rng.normal(0.0, 0.05, size=ring.initial.points.shape)
    nu2 = measure(ring.initial.points + jitter, ring.initial.weights, ring.domain)
    yield ring, ring.initial, nu2

    logi = bundled_scenario("logistic_drift")
    logi = replace(logi, solver=replace(logi.solver, max_interval_tau=0.05))
    yield logi, logi.initial, _scaled(logi.initial, 0.9)


def run_suite(name: str, seed: int = 42) -> list[CheckReport]:
    """Run one named verification suite over the bundled scenarios."""
    if name not in SUITE_NAMES:
        raise ScenarioError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    reports: list[CheckReport] = []
    if name in ("positivity", "all"):
        for sc_name in ("ring_rotation", "death_shear", "logistic_drift", "source_torus"):
            reports.append(check_positivity(bundled_scenario(sc_name)))
    if name in ("lp", "all"):
        for sc_name in ("lp_rotation", "lp_contraction", "lp_growth"):
            reports.append(check_lp_invariance(bundled_scenario(sc_name)))
    if name in ("weaklimit", "all"):
        ns = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1200, 1400, 1600, 1800, 2000]
        sigma_star = 0.25
        reports.append(
            weak_limit_experiment(
                2.0, [sigma_star * (1.0 + 1.0 / n) for n in ns], sigma_star
            )
        )
        reports.append(
            weak_limit_experiment(1.0, [1.0 / n for n in [1, 2, 5, 10, 20, 50, 100]], 0.0)
        )
    if name in ("dependence", "all"):
        for scenario, nu1, nu2 in _dependence_pairs(seed):
            reports.append(check_continuous_dependence(scenario, nu1, nu2))
    return reports
