"""Structured reaction terms: production plus a scalar growth rate.

A reaction sends a measure mu to p_t(mu) + F_t(mu) * mu, where the
production p_t(mu) is a positive measure and F_t(mu) is a bounded
Lipschitz scalar rate.  Alongside the two callables a reaction carries
analytic certificates consumed by the solver:

``c_f(R)``
    total-variation bound on the reaction output over the TV ball of
    radius R,
``l_f(R)``
    Lipschitz constant of the reaction in the flat norm on that ball,
``c_pos(R, T)``
    bound on |F_t(mu)| over positive measures of mass at most R and
    times up to T; shifting by any c >= c_pos makes F + c nonnegative
    on that set, which is what the positivity-preserving solver needs,
``lp_bound(p, r, t0, t1)``
    for density-compatible reactions, a bound on the L^p norm of the
    reaction applied to densities with norm at most r.

The rate is one formula ``rate(t, mass)`` of the time and the total
mass, so it is constant in x.  It takes scalars, or arrays with one
entry per node (a scalar result broadcasts), and it scales atoms
(``eval_reaction``), a solver sweep's weight array, and a density's cell
values (``eval_density_reaction``, where the production enters as
``production_density``) through one rule, ``_rated``.

Certificates are trusted inputs, exactly like velocity-field bounds;
``verify_assumptions`` spot-checks them by sampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

from .grids import GridDensity, mass as density_mass, with_values
from .measures import (
    DiscreteSignedMeasure,
    _readonly,
    _scaled,
    empty_measure,
    linear_combine,
    measure,
    negative_part_tv,
    tv_norm,
)
from .flat_metric import fm_distance
from .transport import conjugate_exponent

REACTION_NAMES = (
    "zero",
    "linear_rate",
    "logistic",
    "death_rate",
    "dirac_source",
    "smoothed_source",
    "mass_rate",
)


class ReactionContractError(RuntimeError):
    """Raised when a reaction violates its structural contract."""


@dataclass(frozen=True)
class ReactionSpec:
    """Reaction term with analytic certificates (see module docstring)."""

    name: str
    c_f: Callable[[float], float]
    l_f: Callable[[float], float]
    c_pos: Callable[[float, float], float]
    production: Callable[[float, DiscreteSignedMeasure], DiscreteSignedMeasure] | None = None
    rate: Callable[[float | np.ndarray, float | np.ndarray], float | np.ndarray] | None = None
    lp_bound: Callable[[float, float, float, float], float] | None = None
    production_density: Callable[[float, GridDensity], GridDensity] | None = None


def _rated(rate: Callable, t, mass, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``measures._scaled`` of ``weights`` by ``rate(t, mass)``.

    Scalar t and mass rate a whole measure or density; arrays rate row k
    of a (nodes, atoms) weight array by entry k.  Empty weights come back
    without a rate call.
    """
    if not weights.size:
        return weights, np.zeros(weights.shape, dtype=bool)
    r = np.asarray(rate(t, mass), dtype=float)
    return _scaled(weights, r.reshape(r.shape + (1,) * (weights.ndim - r.ndim)))


def eval_reaction(
    spec: ReactionSpec, t: float, mu: DiscreteSignedMeasure
) -> DiscreteSignedMeasure:
    """Reaction output p_t(mu) + F_t(mu) * mu as a coalesced measure."""
    parts: list[DiscreteSignedMeasure] = []
    if spec.production is not None:
        prod = spec.production(t, mu)
        if negative_part_tv(prod) > 0.0:
            raise ReactionContractError(
                f"reaction {spec.name!r}: production returned a negative part"
            )
        parts.append(prod)
    if spec.rate is not None:
        wts, keep = _rated(spec.rate, t, mu.total_mass, mu.weights)
        parts.append(DiscreteSignedMeasure(
            _readonly(mu.points[keep]), _readonly(wts[keep]), mu.domain))
    if not parts:
        return empty_measure(mu.dim, mu.domain)
    if len(parts) == 1:
        return parts[0]
    return linear_combine(1.0, parts[0], 1.0, parts[1])


def eval_density_reaction(spec: ReactionSpec, t: float, u: GridDensity) -> GridDensity:
    """Density twin of ``eval_reaction``: production density plus F_t(u) * u.

    The rate reads the density's mass; no products are pruned on a grid.
    """
    parts: list[np.ndarray] = []
    if spec.production is not None:
        if spec.production_density is None:
            raise ReactionContractError(f"reaction {spec.name!r} has no production density")
        parts.append(spec.production_density(t, u).values)
    if spec.rate is not None:
        parts.append(_rated(spec.rate, t, density_mass(u), u.values)[0])
    if not parts:
        return with_values(u, np.zeros_like(u.values))
    return with_values(u, parts[0] if len(parts) == 1 else parts[0] + parts[1])


# ---------------------------------------------------------------------------
# Bump profile helpers for the smoothed source.
# ---------------------------------------------------------------------------

def _sphere_area(dim: int) -> float:
    return 2.0 * np.pi ** (dim / 2.0) / scipy.special.gamma(dim / 2.0)


def _bump_radial_moment(dim: int, power: float) -> float:
    """Integral over [0,1] of (1 - rho^2)^power * rho^(dim-1)."""
    return 0.5 * float(scipy.special.beta(dim / 2.0, power + 1.0))


def _bump_normalization(sigma: float, width: float, dim: int) -> float:
    """Peak value C so that C (1 - (r/w)^2)^3 integrates to sigma."""
    total = _sphere_area(dim) * width**dim * _bump_radial_moment(dim, 3.0)
    return sigma / total


def _bump_lp_norm(sigma: float, width: float, dim: int, p: float) -> float:
    peak = _bump_normalization(sigma, width, dim)
    if np.isinf(p):
        return peak
    integral = _sphere_area(dim) * width**dim * _bump_radial_moment(dim, 3.0 * p)
    return float(peak * integral ** (1.0 / p))


def _bump_values(points: np.ndarray, center: np.ndarray, sigma: float, width: float) -> np.ndarray:
    rel = (points - center) / width
    r2 = np.sum(rel * rel, axis=1)
    inside = np.clip(1.0 - r2, 0.0, None)
    return _bump_normalization(sigma, width, points.shape[1]) * inside**3


def _bump_atoms(center: np.ndarray, sigma: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic quantization of the bump to about 32 atoms."""
    dim = center.shape[0]
    per_axis = max(1, int(np.ceil(32 ** (1.0 / dim))))
    axes = [
        center[j] + width * ((np.arange(per_axis) + 0.5) / per_axis * 2.0 - 1.0)
        for j in range(dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = _bump_values(pts, center, sigma, width)
    keep = vals > 0.0
    pts, vals = pts[keep], vals[keep]
    weights = vals / np.sum(vals) * sigma if np.sum(vals) > 0 else vals
    return pts, weights


def builtin_reaction(
    name: str,
    params: list[float],
    *,
    domain_volume: float = 1.0,
) -> ReactionSpec:
    """Construct a built-in reaction.

    Parameter conventions:

    * ``zero``: no parameters.
    * ``linear_rate``: ``[c]``; growth at constant rate c.
    * ``logistic``: ``[r, K]``; rate r * (1 - mass / K).
    * ``death_rate``: ``[a]`` with a >= 0; rate -a.
    * ``dirac_source``: ``[sigma, x1, ..., xd]``; constant production
      sigma * delta at the given point, sigma >= 0.
    * ``smoothed_source``: ``[sigma, width, x1, ..., xd]``; production
      with a compactly supported bump profile of total mass sigma,
      quantized to about 32 atoms.
    * ``mass_rate``: ``[alpha]``; rate alpha * mass, quadratic mass
      growth of Riccati type.

    ``domain_volume`` feeds the density certificates of mass-coupled
    rates (logistic, mass_rate), which control total mass through the
    L^p norm via Hoelder on a finite-volume domain.
    """
    params = [float(p) for p in params]
    if not np.all(np.isfinite(params)):
        raise ValueError(f"{name} reaction parameters must be finite")
    if name == "zero":
        if params:
            raise ValueError("zero reaction takes no parameters")
        return ReactionSpec(
            name="zero",
            c_f=lambda R: 0.0,
            l_f=lambda R: 0.0,
            c_pos=lambda R, T: 0.0,
            lp_bound=lambda p, r, t0, t1: 0.0,
        )
    if name == "linear_rate":
        (c,) = params
        return ReactionSpec(
            name="linear_rate",
            c_f=lambda R: abs(c) * R,
            l_f=lambda R: abs(c),
            c_pos=lambda R, T: abs(c),
            rate=lambda t, m: c,
            lp_bound=lambda p, r, t0, t1: abs(c) * r,
        )
    if name == "logistic":
        r_rate, capacity = params
        if capacity <= 0:
            raise ValueError("logistic capacity must be positive")

        def _logistic_lp(p: float, r: float, t0: float, t1: float) -> float:
            # On a box of volume V, mass <= V^(1/q) * ||phi||_p by Hoelder.
            vol_factor = domain_volume ** (1.0 / conjugate_exponent(p))
            return abs(r_rate) * (1.0 + vol_factor * r / capacity) * r

        return ReactionSpec(
            name="logistic",
            c_f=lambda R: abs(r_rate) * (1.0 + R / capacity) * R,
            l_f=lambda R: abs(r_rate) * (1.0 + 2.0 * R / capacity),
            c_pos=lambda R, T: abs(r_rate) * (1.0 + R / capacity),
            rate=lambda t, m: r_rate * (1.0 - m / capacity),
            lp_bound=_logistic_lp,
        )
    if name == "death_rate":
        (a,) = params
        if a < 0:
            raise ValueError("death_rate takes a nonnegative rate")
        return ReactionSpec(
            name="death_rate",
            c_f=lambda R: a * R,
            l_f=lambda R: a,
            c_pos=lambda R, T: a,
            rate=lambda t, m: -a,
            lp_bound=lambda p, r, t0, t1: a * r,
        )
    if name == "dirac_source":
        sigma, *center = params
        if sigma < 0:
            raise ValueError("dirac_source mass must be nonnegative")
        if not 1 <= len(center) <= 3:
            raise ValueError("dirac_source takes [sigma, x1, ..., xd]")
        point = np.array(center)

        def _dirac_production(t: float, mu: DiscreteSignedMeasure) -> DiscreteSignedMeasure:
            if sigma == 0.0:
                return empty_measure(len(center), mu.domain)
            return measure(point.reshape(1, -1), [sigma], mu.domain)

        return ReactionSpec(
            name="dirac_source",
            c_f=lambda R: sigma,
            l_f=lambda R: 0.0,
            c_pos=lambda R, T: 0.0,
            production=_dirac_production,
        )
    if name == "smoothed_source":
        if len(params) < 3:
            raise ValueError("smoothed_source takes [sigma, width, x1, ..., xd]")
        sigma, width, *center = params
        if sigma < 0 or width <= 0:
            raise ValueError("smoothed_source needs sigma >= 0 and width > 0")
        if not 1 <= len(center) <= 3:
            raise ValueError("smoothed_source center must have 1 to 3 coordinates")
        ctr = np.array(center)
        dim = ctr.shape[0]
        atom_pts, atom_wts = _bump_atoms(ctr, sigma, width)

        def _bump_production(t: float, mu: DiscreteSignedMeasure) -> DiscreteSignedMeasure:
            if sigma == 0.0:
                return empty_measure(dim, mu.domain)
            return measure(atom_pts, atom_wts, mu.domain)

        def _bump_density(t: float, u: GridDensity) -> GridDensity:
            vals = _bump_values(u.center_points(), ctr, sigma, width)
            return with_values(u, vals.reshape(u.values.shape))

        return ReactionSpec(
            name="smoothed_source",
            c_f=lambda R: sigma,
            l_f=lambda R: 0.0,
            c_pos=lambda R, T: 0.0,
            production=_bump_production,
            lp_bound=lambda p, r, t0, t1: _bump_lp_norm(sigma, width, dim, p),
            production_density=_bump_density,
        )
    if name == "mass_rate":
        (alpha,) = params

        def _mass_lp(p: float, r: float, t0: float, t1: float) -> float:
            vol_factor = domain_volume ** (1.0 / conjugate_exponent(p))
            return abs(alpha) * vol_factor * r * r

        return ReactionSpec(
            name="mass_rate",
            c_f=lambda R: abs(alpha) * R * R,
            l_f=lambda R: 2.0 * abs(alpha) * R,
            c_pos=lambda R, T: abs(alpha) * R,
            rate=lambda t, m: alpha * m,
            lp_bound=_mass_lp,
        )
    raise ValueError(f"unknown reaction name {name!r}; expected one of {REACTION_NAMES}")


# ---------------------------------------------------------------------------
# Sampling check of the analytic certificates.
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    spec_name: str
    samples: int
    tv_checked: int
    lipschitz_checked: int
    rate_checked: int
    violations: list[tuple[str, float, float, float]]

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_measure_in_ball(
    rng: np.random.Generator, R: float, dim: int, positive: bool
) -> DiscreteSignedMeasure:
    """Up to 8 atoms in the box [-2, 2]^dim, with TV at most R."""
    n = int(rng.integers(1, 9))
    pts = rng.uniform(-2.0, 2.0, size=(n, dim))
    w = rng.uniform(0.1, 1.0, size=n) if positive else rng.normal(0.0, 1.0, size=n)
    total = np.sum(np.abs(w))
    if total > 0:
        w = w / total * R * rng.uniform(0.2, 1.0)
    return measure(pts, w)


def verify_assumptions(
    spec: ReactionSpec,
    samples: int,
    R: float,
    *,
    T: float = 1.0,
    dim: int = 1,
    seed: int = 42,
) -> AssumptionReport:
    """Monte-Carlo check of c_f, l_f and c_pos on random Euclidean measures in M_R.

    Every violation is recorded as (kind, t, observed, certified); an
    observation may exceed its certificate by a relative 1e-9.  An
    empty list certifies nothing but catches understated constants
    quickly in practice.
    """
    rng = np.random.default_rng(seed)
    violations: list[tuple[str, float, float, float]] = []
    tv_checked = lip_checked = rate_checked = 0
    slack = 1.0 + 1e-9
    for _ in range(samples):
        t = float(rng.uniform(0.0, T))
        mu1 = _random_measure_in_ball(rng, R, dim, positive=False)
        mu2 = _random_measure_in_ball(rng, R, dim, positive=False)
        out1 = eval_reaction(spec, t, mu1)
        tv_checked += 1
        bound_tv = spec.c_f(R)
        if tv_norm(out1) > bound_tv * slack + 1e-12:
            violations.append(("c_f", t, tv_norm(out1), bound_tv))
        out2 = eval_reaction(spec, t, mu2)
        lip_checked += 1
        lhs = fm_distance(out1, out2)
        rhs = spec.l_f(R) * fm_distance(mu1, mu2)
        if lhs > rhs * slack + 1e-12:
            violations.append(("l_f", t, lhs, rhs))
        if spec.rate is not None:
            pos = _random_measure_in_ball(rng, R, dim, positive=True)
            rate_checked += 1
            bound_rate = spec.c_pos(R, T)
            observed = abs(spec.rate(t, pos.total_mass))
            if observed > bound_rate * slack + 1e-12:
                violations.append(("c_pos", t, observed, bound_rate))
        if len(violations) >= 25:
            break
    return AssumptionReport(
        spec_name=spec.name,
        samples=samples,
        tv_checked=tv_checked,
        lipschitz_checked=lip_checked,
        rate_checked=rate_checked,
        violations=violations,
    )
