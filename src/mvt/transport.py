"""Push-forward transport of measures and densities along a flow.

Particle measures are transported by moving atom positions with the
flow map; weights never change, so total variation is preserved
exactly and positivity is manifest.  Densities are transported
semi-Lagrangially: each cell center is traced backward along the
characteristic, the initial density is interpolated at the foot, and
the value is scaled by the inverse Jacobian along the path.  The flow
map is the field's exact ``flow_map`` when it has one (every built-in
does), else RK4 at ``step_h``.
"""
from __future__ import annotations

import numpy as np

from .flow import advect, advect_with_logjac, default_step, simpson_integral
from .geometry import TORUS, wrap_torus
from .grids import GridDensity, interpolate
from .measures import DiscreteSignedMeasure, _readonly
from .velocity import VelocityField


def _exact_flow(v: VelocityField, s: float, t: float, x: np.ndarray, domain: str):
    """The field's exact flow map from s to t, wrapped on the torus."""
    image, logjac = v.flow_map(s, t, x)
    return (wrap_torus(image) if domain == TORUS else image), logjac


def pushforward_measure(
    v: VelocityField,
    s: float,
    t: float,
    mu: DiscreteSignedMeasure,
    step_h: float | None = None,
) -> DiscreteSignedMeasure:
    """Image measure under the flow map from s to t; weights untouched.

    The flow is injective, so distinct atoms stay distinct and no
    coalescing is needed; skipping it keeps the total variation exactly
    equal to that of the input.
    """
    if mu.num_atoms == 0:
        return mu
    if v.flow_map is not None:
        pts = _exact_flow(v, s, t, mu.points, mu.domain)[0]
    else:
        h = step_h if step_h is not None else default_step(t - s)
        pts = advect(v, s, t, mu.points, h, mu.domain)
    return DiscreteSignedMeasure(_readonly(pts), mu.weights, mu.domain)


def backward_characteristics(
    v: VelocityField,
    s: float,
    t: float,
    grid: GridDensity,
    step_h: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Feet at time s of the characteristics through the cell centers at t,
    and the inverse Jacobian factor of the forward flow at each foot."""
    if v.flow_map is not None:
        feet, logjac_back = _exact_flow(v, t, s, grid.center_points(), grid.domain)
    else:
        h = step_h if step_h is not None else default_step(t - s)
        feet, logjac_back = advect_with_logjac(v, t, s, grid.center_points(), h, grid.domain)
    # logjac_back integrates div v backward, which equals -log det of the
    # forward flow at the foot; the transported value is u0(foot)/det.
    return feet, np.exp(logjac_back)


def transported_values(u: GridDensity, feet: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Cell values of u pushed along the characteristics (feet, jac)."""
    return (interpolate(u, feet) * jac).reshape(u.values.shape)


def conjugate_exponent(p: float) -> float:
    if np.isinf(p):
        return 1.0
    if p <= 1.0:
        raise ValueError("p must lie in (1, inf]")
    return p / (p - 1.0)


def lp_growth_factor(v: VelocityField, s: float, t: float, p: float) -> float:
    """Certified factor D with ||u_t||_p <= D ||u_s||_p under pure transport.

    D = exp((1/q) * integral of ||(div v)^-||_inf), q conjugate to p.
    """
    if v.div_neg_rate is None:
        raise ValueError(f"field {v.name!r} lacks a negative-divergence rate bound")
    q = conjugate_exponent(p)
    neg = simpson_integral(v.div_neg_rate, s, t)
    return float(np.exp(neg / q))


def lp_transport_bound(v: VelocityField, s: float, t: float, u0_norm: float, p: float) -> float:
    """Upper bound on the L^p norm after transport from s to t."""
    return lp_growth_factor(v, s, t, p) * float(u0_norm)
