"""Seeded random generators and solver fault injection shared across the test modules."""
from __future__ import annotations

import numpy as np

from mvt import solver
from mvt.geometry import EUCLIDEAN, TORUS
from mvt.measures import BoundedLipschitzFunction, DiscreteSignedMeasure, measure


def random_signed(
    rng: np.random.Generator,
    n_atoms: int,
    dim: int,
    domain: str = EUCLIDEAN,
    span: float = 1.5,
    weight_scale: float = 2.0,
) -> DiscreteSignedMeasure:
    if domain == TORUS:
        pts = rng.uniform(0.0, 1.0, size=(n_atoms, dim))
    else:
        pts = rng.uniform(-span, span, size=(n_atoms, dim))
    wts = rng.uniform(-weight_scale, weight_scale, size=n_atoms)
    wts[np.abs(wts) < 1e-3] = 1e-3  # keep atoms away from the drop threshold
    return measure(pts, wts, domain)


def random_positive(
    rng: np.random.Generator,
    n_atoms: int,
    dim: int,
    domain: str = EUCLIDEAN,
    span: float = 1.5,
    weight_scale: float = 2.0,
) -> DiscreteSignedMeasure:
    if domain == TORUS:
        pts = rng.uniform(0.0, 1.0, size=(n_atoms, dim))
    else:
        pts = rng.uniform(-span, span, size=(n_atoms, dim))
    wts = rng.uniform(0.05, weight_scale, size=n_atoms)
    return measure(pts, wts, domain)


def random_sine_function(rng: np.random.Generator, dim: int) -> BoundedLipschitzFunction:
    """a*sin(b . x + phase) with certified sup and Lipschitz bounds."""
    a = float(rng.uniform(0.2, 2.0))
    b = rng.uniform(-2.0, 2.0, size=dim)
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return BoundedLipschitzFunction(
        evaluate=lambda pts, a=a, b=b, phase=phase: a * np.sin(pts @ b + phase),
        sup_bound=abs(a),
        lip_bound=abs(a) * float(np.linalg.norm(b)),
        name="sine",
    )


def fail_fixed_point_on_call(monkeypatch, n: int) -> None:
    """Make ``solver._fixed_point`` raise NonContractionError on its n-th call."""
    fixed_point = solver._fixed_point
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == n:
            raise solver.NonContractionError("forced failure", measured_ratio=0.9)
        return fixed_point(*args)

    monkeypatch.setattr(solver, "_fixed_point", failing)
