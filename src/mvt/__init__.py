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

Import each name from its submodule, e.g. ``from mvt.solver import
solve_maximal``.  This file imports nothing, so ``import mvt`` loads no
numpy, and ``mvt.cli`` can still cap the BLAS/OpenMP thread pools from
``MVT_THREADS`` before any numerical library starts up.
"""

__version__ = "0.1.0"
