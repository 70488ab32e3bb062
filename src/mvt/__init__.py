"""Measure-valued transport-reaction dynamics on R^d and the flat torus.

The package simulates curves of finite signed measures driven by
``d/dt mu_t + div(v_t mu_t) = f_t(mu_t)`` in mild form: particles are
pushed along the velocity flow while a reaction term feeds mass in or
out, with an optional L^p density co-evolved on a grid.  Distances
between measures use the flat (bounded-Lipschitz) norm.

Submodules group the moving parts: ``measures`` and ``flat_metric`` for
the state space, ``velocity``/``flow``/``transport`` for advection,
``reactions`` for the source terms, ``solver`` for the Picard
fixed-point machinery, ``grids`` for densities, ``scenarios`` for run
configuration, ``harness`` for the verification suites, and ``cli`` for
the command-line front end.

Attribute access is lazy (PEP 562): ``import mvt`` stays cheap and, in
particular, does not import numpy.  The CLI relies on this to cap the
BLAS/OpenMP thread pools from ``MVT_THREADS`` before any numerical
library starts up.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule.  Names resolve on first access.
_EXPORTS = {
    # geometry
    "EUCLIDEAN": "geometry",
    "TORUS": "geometry",
    "DOMAIN_KINDS": "geometry",
    # measures
    "MeasureError": "measures",
    "DiscreteSignedMeasure": "measures",
    "BoundedLipschitzFunction": "measures",
    "measure": "measures",
    "dirac": "measures",
    "empty_measure": "measures",
    "coalesce": "measures",
    "tv_norm": "measures",
    "negative_part_tv": "measures",
    "linear_combine": "measures",
    "multiply_by_function": "measures",
    "measure_to_csv": "measures",
    "measure_from_csv": "measures",
    "save_measure": "measures",
    "load_measure": "measures",
    # flat metric
    "FlatNormError": "flat_metric",
    "FlatNormResult": "flat_metric",
    "fm_norm": "flat_metric",
    "fm_distance": "flat_metric",
    "fm_norm_oracle": "flat_metric",
    # velocity fields and flows
    "FIELD_NAMES": "velocity",
    "VelocityField": "velocity",
    "zero_field": "velocity",
    "builtin_field": "velocity",
    "advect": "flow",
    "advect_with_logjac": "flow",
    "jacobian_det": "flow",
    "jacobian_band": "flow",
    "lipschitz_bound": "flow",
    # transport operators
    "pushforward_measure": "transport",
    "lp_growth_factor": "transport",
    "lp_transport_bound": "transport",
    # grids
    "GridError": "grids",
    "GridDensity": "grids",
    "grid_density": "grids",
    "with_values": "grids",
    "lp_norm": "grids",
    "quantize": "grids",
    "interpolate": "grids",
    "uniform_density": "grids",
    "gaussian_density": "grids",
    "density_to_csv": "grids",
    "density_from_csv": "grids",
    "save_density": "grids",
    "load_density": "grids",
    # reactions
    "REACTION_NAMES": "reactions",
    "ReactionContractError": "reactions",
    "ReactionSpec": "reactions",
    "eval_reaction": "reactions",
    "eval_density_reaction": "reactions",
    "builtin_reaction": "reactions",
    "AssumptionReport": "reactions",
    "verify_assumptions": "reactions",
    # solver
    "DILATION_MODES": "solver",
    "SolverError": "solver",
    "NonContractionError": "solver",
    "SolverConfig": "solver",
    "Trajectory": "solver",
    "choose_step": "solver",
    "picard_step": "solver",
    "solve_interval": "solver",
    "solve_maximal": "solver",
    # scenarios
    "ScenarioError": "scenarios",
    "Scenario": "scenarios",
    "OutputOptions": "scenarios",
    "INITIAL_KINDS": "scenarios",
    "initial_measure": "scenarios",
    "parse_scenario": "scenarios",
    "BUNDLED_SCENARIOS": "scenarios",
    "bundled_scenario": "scenarios",
    # harness
    "CheckReport": "harness",
    "SUITE_NAMES": "harness",
    "check_positivity": "harness",
    "check_lp_invariance": "harness",
    "weak_limit_experiment": "harness",
    "check_continuous_dependence": "harness",
    "run_suite": "harness",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
