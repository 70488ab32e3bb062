"""Time-dependent velocity fields with certified bounds.

A field carries, besides its evaluation callable, analytic rate
functions of time: a sup-norm bound, a spatial Lipschitz bound and
bounds on the positive and negative parts of its divergence.  The
bounds are supplied with the field rather than estimated, because every
quantitative statement downstream (operator norms, Jacobian bands,
density estimates) consumes them as certificates.

The built-in families are ``zero``, ``constant``, ``linear``,
``rotation2d``, ``shear`` and ``time_oscillating``; see :func:`builtin_field` for the
parameter conventions.  Fields whose exact form is unbounded, such as
``linear``, ship with a working radius: the certified sup bound holds
on the ball of that radius, which the caller must choose to contain
the dynamics.

Every built-in also carries its exact flow map with the log-Jacobian,
which ``transport`` uses in place of RK4; fields built by hand have none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import validate_dim

FIELD_NAMES = ("zero", "constant", "linear", "rotation2d", "shear", "time_oscillating")

_DEFAULT_RADIUS = 10.0


@dataclass(frozen=True)
class VelocityField:
    """Velocity field t, (n, d) points -> (n, d) velocities, with bounds.

    ``flow_map(s, t, x)``, when set, is the exact flow from s to t and
    its log-Jacobian at each point, unwrapped on the torus.
    """

    eval: Callable[[float, np.ndarray], np.ndarray]
    sup_rate: Callable[[float], float]
    lip_rate: Callable[[float], float]
    dim: int
    divergence: Callable[[float, np.ndarray], np.ndarray] | None = None
    div_neg_rate: Callable[[float], float] | None = None
    div_pos_rate: Callable[[float], float] | None = None
    torus_compatible: bool = False
    name: str = ""
    flow_map: Callable[[float, float, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __call__(self, t: float, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(float(t), np.asarray(points, dtype=float)), dtype=float)

    def sup_bound(self, s: float, t: float) -> float:
        """Bound on ||v_tau||_inf over tau in [s, t] (max of sup_rate at 1025 times)."""
        grid = np.linspace(min(s, t), max(s, t), 1025)
        return float(max(self.sup_rate(float(tau)) for tau in grid))


def _translation(shift: Callable[[float, float], np.ndarray | float]):
    """Flow map x -> x + shift(s, t) of a spatially constant field."""
    return lambda s, t, x: (x + shift(s, t), np.zeros(x.shape[0]))


def zero_field(dim: int) -> VelocityField:
    validate_dim(dim)
    return VelocityField(
        eval=lambda t, x: np.zeros_like(x),
        sup_rate=lambda t: 0.0,
        lip_rate=lambda t: 0.0,
        dim=dim,
        divergence=lambda t, x: np.zeros(x.shape[0]),
        div_neg_rate=lambda t: 0.0,
        div_pos_rate=lambda t: 0.0,
        torus_compatible=True,
        name="zero",
        # RK4's image bit for bit: each step adds a zero with the sign of dt.
        flow_map=_translation(lambda s, t: math.copysign(0.0, t - s)),
    )


def builtin_field(name: str, params: list[float], dim: int) -> VelocityField:
    """Construct a built-in field.

    Parameter conventions (radius defaults to 10 where it appears; it
    only affects the certified sup bound, not the dynamics):

    * ``zero``: no parameters; v = 0.
    * ``constant``: components ``[c1, ..., cd]``.
    * ``linear``: ``[a]`` or ``[a, radius]``; v(x) = a * x.
    * ``rotation2d``: ``[omega]``, ``[omega, cx, cy]`` or
      ``[omega, cx, cy, radius]``; rigid rotation about the centre.
    * ``shear``: ``[a]`` or ``[a, radius]``; v(x, y) = (a * y, 0).
    * ``time_oscillating``: ``[amp, period, u1, ..., ud]``;
      v(t, x) = amp * sin(2 pi t / period) * u, spatially constant.
    """
    validate_dim(dim)
    params = [float(p) for p in params]
    if not np.all(np.isfinite(params)):
        raise ValueError(f"{name} field parameters must be finite")
    if name == "zero":
        if params:
            raise ValueError("zero field takes no parameters")
        return zero_field(dim)
    if name == "constant":
        if len(params) != dim:
            raise ValueError(f"constant field in dim {dim} needs {dim} components")
        c = np.array(params)
        speed = float(np.linalg.norm(c))
        return VelocityField(
            eval=lambda t, x: np.full(x.shape, c),
            sup_rate=lambda t: speed,
            lip_rate=lambda t: 0.0,
            dim=dim,
            divergence=lambda t, x: np.zeros(x.shape[0]),
            div_neg_rate=lambda t: 0.0,
            div_pos_rate=lambda t: 0.0,
            torus_compatible=True,
            name="constant",
            flow_map=_translation(lambda s, t: c * (t - s)),
        )
    if name == "linear":
        if len(params) not in (1, 2):
            raise ValueError("linear field takes [a] or [a, radius]")
        a = params[0]
        radius = params[1] if len(params) == 2 else _DEFAULT_RADIUS
        div_val = a * dim
        return VelocityField(
            eval=lambda t, x: a * x,
            sup_rate=lambda t: abs(a) * radius,
            lip_rate=lambda t: abs(a),
            dim=dim,
            divergence=lambda t, x: np.full(x.shape[0], div_val),
            div_neg_rate=lambda t: max(0.0, -div_val),
            div_pos_rate=lambda t: max(0.0, div_val),
            torus_compatible=False,
            name="linear",
            flow_map=lambda s, t, x: (
                x * math.exp(a * (t - s)), np.full(x.shape[0], div_val * (t - s))),
        )
    if name == "rotation2d":
        if dim != 2:
            raise ValueError("rotation2d requires dimension 2")
        if len(params) not in (1, 3, 4):
            raise ValueError("rotation2d takes [omega], [omega, cx, cy] or [omega, cx, cy, radius]")
        omega = params[0]
        center = np.array(params[1:3]) if len(params) >= 3 else np.zeros(2)
        radius = params[3] if len(params) == 4 else _DEFAULT_RADIUS

        def _eval(t: float, x: np.ndarray) -> np.ndarray:
            rel = x - center
            return omega * np.stack([-rel[:, 1], rel[:, 0]], axis=1)

        def _flow(s: float, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            cos, sin = math.cos(omega * (t - s)), math.sin(omega * (t - s))
            return center + (x - center) @ np.array([[cos, sin], [-sin, cos]]), np.zeros(x.shape[0])

        return VelocityField(
            eval=_eval,
            sup_rate=lambda t: abs(omega) * radius,
            lip_rate=lambda t: abs(omega),
            dim=2,
            divergence=lambda t, x: np.zeros(x.shape[0]),
            div_neg_rate=lambda t: 0.0,
            div_pos_rate=lambda t: 0.0,
            torus_compatible=False,
            name="rotation2d",
            flow_map=_flow,
        )
    if name == "shear":
        if dim != 2:
            raise ValueError("shear requires dimension 2")
        if len(params) not in (1, 2):
            raise ValueError("shear takes [a] or [a, radius]")
        a = params[0]
        radius = params[1] if len(params) == 2 else _DEFAULT_RADIUS

        def _eval(t: float, x: np.ndarray) -> np.ndarray:
            out = np.zeros_like(x)
            out[:, 0] = a * x[:, 1]
            return out

        return VelocityField(
            eval=_eval,
            sup_rate=lambda t: abs(a) * radius,
            lip_rate=lambda t: abs(a),
            dim=2,
            divergence=lambda t, x: np.zeros(x.shape[0]),
            div_neg_rate=lambda t: 0.0,
            div_pos_rate=lambda t: 0.0,
            torus_compatible=False,
            name="shear",
            # v is constant along its own paths: x moves by v(x) (t - s).
            flow_map=lambda s, t, x: (x + _eval(t, x) * (t - s), np.zeros(x.shape[0])),
        )
    if name == "time_oscillating":
        if len(params) != 2 + dim:
            raise ValueError(f"time_oscillating in dim {dim} takes [amp, period, u1..u{dim}]")
        amp, period = params[0], params[1]
        if period == 0.0:
            raise ValueError("time_oscillating period must be nonzero")
        u = np.array(params[2:])
        u_norm = float(np.linalg.norm(u))

        def _eval(t: float, x: np.ndarray) -> np.ndarray:
            scale = amp * np.sin(2.0 * np.pi * t / period)
            return np.full(x.shape, scale * u)

        return VelocityField(
            eval=_eval,
            # The envelope: a dense max of |sin| can miss its peak.
            sup_rate=lambda t: abs(amp) * u_norm,
            lip_rate=lambda t: 0.0,
            dim=dim,
            divergence=lambda t, x: np.zeros(x.shape[0]),
            div_neg_rate=lambda t: 0.0,
            div_pos_rate=lambda t: 0.0,
            torus_compatible=True,
            name="time_oscillating",
            flow_map=_translation(lambda s, t: u * (amp * period / (2.0 * np.pi) * (
                math.cos(2.0 * math.pi * s / period) - math.cos(2.0 * math.pi * t / period)))),
        )
    raise ValueError(f"unknown field name {name!r}; expected one of {FIELD_NAMES}")
