"""Characteristic flow maps driven by a velocity field.

Trajectories of dx/dt = v(t, x) are integrated with the classical
fourth-order Runge-Kutta scheme at a fixed step (the last step is
shortened to land exactly on the target time).  Integration backward in
time is supported and is used for semi-Lagrangian density transport.

Alongside positions the solver can carry the integral of div v along
each trajectory; its exponential is the Jacobian determinant of the
flow map, which stays positive because flows of Lipschitz fields are
orientation preserving.

These integrators are the reference for every field and the only flow
of a hand-built one; ``transport`` uses a built-in field's exact
``flow_map`` instead.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .geometry import EUCLIDEAN, TORUS, validate_domain, wrap_torus
from .velocity import VelocityField

_FD_STEP = 1e-5


def default_step(span: float) -> float:
    """Default RK4 step for an integration over ``span`` time units."""
    return max(min(1e-2, 1e-3 * abs(span)), 1e-12)


def _eval_field(v: VelocityField, t: float, x: np.ndarray, domain: str) -> np.ndarray:
    if domain == TORUS:
        return v(t, wrap_torus(x.copy()))
    return v(t, x)


def divergence_of(v: VelocityField, t: float, x: np.ndarray, domain: str) -> np.ndarray:
    """Analytic divergence when available, else central differences."""
    if v.divergence is not None:
        if domain == TORUS:
            return np.asarray(v.divergence(t, wrap_torus(x.copy())), dtype=float)
        return np.asarray(v.divergence(t, x), dtype=float)
    acc = np.zeros(x.shape[0])
    for k in range(x.shape[1]):
        shift = np.zeros(x.shape[1])
        shift[k] = _FD_STEP
        acc += (
            _eval_field(v, t, x + shift, domain)[:, k]
            - _eval_field(v, t, x - shift, domain)[:, k]
        ) / (2.0 * _FD_STEP)
    return acc


def _steps(t_from: float, t_to: float, step_h: float) -> list[float]:
    span = t_to - t_from
    if span == 0.0:
        return []
    if step_h <= 0.0:
        raise ValueError("step_h must be positive")
    direction = 1.0 if span > 0 else -1.0
    n_full = int(abs(span) // step_h)
    steps = [direction * step_h] * n_full
    remainder = span - direction * step_h * n_full
    if abs(remainder) > 1e-14 * max(1.0, abs(span)):
        steps.append(remainder)
    return steps


def _rk4(
    v: VelocityField,
    t_from: float,
    t_to: float,
    points: np.ndarray,
    step_h: float,
    domain: str,
    with_logjac: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The RK4 loop of ``advect``, integrating div v too only ``with_logjac``."""
    validate_domain(domain)
    x = np.array(points, dtype=float)
    logjac = np.zeros(x.shape[0]) if with_logjac else None
    if x.size == 0:
        return x, logjac
    t = t_from
    for dt in _steps(t_from, t_to, step_h):
        k1 = _eval_field(v, t, x, domain)
        x2 = x + 0.5 * dt * k1
        k2 = _eval_field(v, t + 0.5 * dt, x2, domain)
        x3 = x + 0.5 * dt * k2
        k3 = _eval_field(v, t + 0.5 * dt, x3, domain)
        x4 = x + dt * k3
        k4 = _eval_field(v, t + dt, x4, domain)
        if with_logjac:
            j1, j2, j3, j4 = (divergence_of(v, s, y, domain) for s, y in (
                (t, x), (t + 0.5 * dt, x2), (t + 0.5 * dt, x3), (t + dt, x4)))
            logjac = logjac + (dt / 6.0) * (j1 + 2.0 * j2 + 2.0 * j3 + j4)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if domain == TORUS:
            x = wrap_torus(x)
    return x, logjac


def advect(
    v: VelocityField,
    t_from: float,
    t_to: float,
    points: np.ndarray,
    step_h: float,
    domain: str = EUCLIDEAN,
) -> np.ndarray:
    """RK4 image of the points under the flow from t_from to t_to."""
    return _rk4(v, t_from, t_to, points, step_h, domain, False)[0]


def advect_with_logjac(
    v: VelocityField,
    t_from: float,
    t_to: float,
    points: np.ndarray,
    step_h: float,
    domain: str = EUCLIDEAN,
) -> tuple[np.ndarray, np.ndarray]:
    """Advect points and accumulate the integral of div v along each path.

    The returned second array is log det of the flow's Jacobian at each
    point (negated automatically when integrating backward, so that it
    is always the log-Jacobian of the map actually computed).
    """
    return _rk4(v, t_from, t_to, points, step_h, domain, True)


def simpson_integral(fn: Callable[[float], float], s: float, t: float, panels: int = 128) -> float:
    """Composite Simpson rule with an even number of panels."""
    if t == s:
        return 0.0
    if panels % 2:
        panels += 1
    grid = np.linspace(s, t, panels + 1)
    values = np.array([fn(float(tau)) for tau in grid])
    h = (t - s) / panels
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(weights, values))


def lipschitz_bound(v: VelocityField, s: float, t: float) -> float:
    """exp of the integral of the field's Lipschitz rate over [s, t]."""
    if t < s:
        raise ValueError("need s <= t")
    return float(np.exp(simpson_integral(v.lip_rate, s, t)))


def jacobian_band(v: VelocityField, s: float, t: float) -> tuple[float, float]:
    """Guaranteed enclosure [exp(-int neg), exp(+int pos)] for det of the flow."""
    if v.div_neg_rate is None or v.div_pos_rate is None:
        raise ValueError(f"field {v.name!r} lacks divergence rate bounds")
    neg = simpson_integral(v.div_neg_rate, s, t)
    pos = simpson_integral(v.div_pos_rate, s, t)
    return float(np.exp(-neg)), float(np.exp(pos))


def jacobian_det(v: VelocityField, s: float, t: float, x0: np.ndarray) -> float:
    """det of the Euclidean flow's Jacobian at x0, by RK4 at ``default_step``."""
    pt = np.atleast_1d(np.asarray(x0, dtype=float)).reshape(1, -1)
    _, logjac = advect_with_logjac(v, s, t, pt, default_step(t - s))
    return float(np.exp(logjac[0]))
