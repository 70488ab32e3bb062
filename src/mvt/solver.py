"""Fixed-point solver for measure-valued transport--reaction dynamics.

The mild formulation reads

    mu_t = P_{t0,t} nu + integral over [t0, t] of P_{s,t}[f_s(mu_s)] ds,

where P is the push-forward along the velocity flow and f the reaction.
On a short interval the right-hand side is a contraction in the flat
norm and Picard iteration converges geometrically; ``solve_maximal``
chains such intervals, re-reading the total-variation radius at every
restart, until the horizon or a numerical blow-up threshold is reached.

Positivity-sensitive runs use the dilated form of the same equation:
for a shift c >= 0,

    mu_t = e^{-c(t-t0)} P_{t0,t} nu
           + integral of e^{-c(t-s)} P_{s,t}[f_s(mu_s) + c mu_s] ds,

whose integrand is a positive measure whenever c dominates the negative
part of the reaction rate.  Both forms have the same fixed point; the
dilated one keeps every iterate positive term by term.

Discretization commitments (the corresponding continuum statements are
exact): the time integral uses composite trapezoid on ``quad_nodes``
uniform nodes; iterates live on that grid as particle measures; flows
advance node to node, so atoms produced at different nodes stay aligned
across sweeps and coalesce exactly.  The flow map depends on atom
positions only, so a panel that receives the same support again in a
later sweep reuses its advected positions instead of re-running RK4.
A reaction with no production only rescales weights, so every iterate
sits at node k on the transport curve's support: on separated supports
in canonical order, sweeps and Picard distances run as arithmetic on
one (nodes, atoms) weight array, bitwise equal to the measure path,
which takes over for the rest of an interval when a weight is pruned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flat_metric import STATUS_OPTIMAL, fm_norm
from .flow import default_step, lipschitz_bound
from .grids import GridDensity, lp_norm, with_values
from .measures import (
    COALESCE_EPS,
    WEIGHT_EPS,
    DiscreteSignedMeasure,
    _readonly,
    _separated,
    linear_combine,
    multiply_by_function,
    negative_part_tv,
    tv_norm,
)
from .reactions import ReactionSpec, eval_reaction
from .transport import backward_characteristics, pushforward_measure, transported_values
from .velocity import VelocityField

DILATION_MODES = ("none", "auto", "fixed")

# Caps that turn a runaway loop into a diagnosable error.
_MAX_DILATION_PARTS = 100000
_MAX_INTERVALS = 200000
_TV_BLOWUP_FACTOR = 1e6
_LP_BLOWUP_FACTOR = 1e6


class SolverError(RuntimeError):
    """Raised when a solver contract is violated."""

    partial: Trajectory | None = None  # set by solve_maximal: intervals finished first


class NonContractionError(SolverError):
    """Picard iteration failed to converge within the iteration budget."""

    def __init__(self, message: str, measured_ratio: float):
        super().__init__(message)
        self.measured_ratio = measured_ratio


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the interval solver.

    delta is the total-variation cushion: each interval is sized so the
    iterates stay inside the ball of radius ||nu||_TV + delta.  The
    contraction factor is kept at or below 1/2 (the continuum argument
    only needs < 1; the margin absorbs quadrature error).
    """

    delta: float = 1.0
    quad_nodes: int = 33
    picard_tol: float = 1e-8
    picard_max_iter: int = 80
    flow_step_h: float | None = None
    tv_blowup_threshold: float | None = None
    dilation_mode: str = "none"
    dilation_c: float = 0.0
    max_interval_tau: float | None = None

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.quad_nodes < 2:
            raise ValueError("quad_nodes must be at least 2")
        if not self.picard_tol >= 1e-12:
            raise ValueError("picard_tol must be at least 1e-12")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")
        if self.flow_step_h is not None and not self.flow_step_h > 0:
            raise ValueError("flow_step_h must be positive")
        if self.tv_blowup_threshold is not None and not self.tv_blowup_threshold > 0:
            raise ValueError("tv_blowup_threshold must be positive")
        if self.dilation_mode not in DILATION_MODES:
            raise ValueError(f"dilation_mode must be one of {DILATION_MODES}")
        if self.dilation_c < 0:
            raise ValueError("dilation_c must be nonnegative")
        if self.max_interval_tau is not None and not self.max_interval_tau > 0:
            raise ValueError("max_interval_tau must be positive")


@dataclass
class Trajectory:
    """Solution samples and per-node diagnostics on a shared time grid.

    ``picard_iters`` and ``contraction_ratio`` read 0 at the first node;
    every other node carries the values of the fixed-point run that
    produced it.  ``lp_norm`` is NaN when no density is co-evolved.
    """

    times: np.ndarray
    measures: list[DiscreteSignedMeasure]
    densities: list[GridDensity] | None
    tv_norm: np.ndarray
    neg_part_tv: np.ndarray
    fm_step_distance: np.ndarray
    picard_iters: np.ndarray
    contraction_ratio: np.ndarray
    lp_norm: np.ndarray
    blown_up: bool = False
    blowup_time: float | None = None
    density_blown_up: bool = False
    density_blowup_time: float | None = None
    reached_horizon: bool = False

    def __post_init__(self) -> None:
        n = len(self.times)
        if len(self.measures) != n:
            raise SolverError("trajectory times and measures misaligned")
        if self.densities is not None and len(self.densities) != n:
            raise SolverError("trajectory times and densities misaligned")
        if n and not np.all(np.diff(self.times) > 0):
            raise SolverError("trajectory times must be strictly increasing")
        if n and not np.all(np.isfinite(self.tv_norm)):
            raise SolverError("nonfinite total variation in trajectory")

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_measure(self) -> DiscreteSignedMeasure:
        return self.measures[-1]


# ---------------------------------------------------------------------------
# Step and dilation selection.
# ---------------------------------------------------------------------------

def choose_step(
    spec: ReactionSpec,
    R: float,
    delta: float,
    *,
    velocity: VelocityField | None = None,
    t0: float = 0.0,
    cap: float = math.inf,
    contraction_factor: float = 0.5,
) -> float:
    """Interval length keeping iterates in the TV ball and contracting.

    Returns min of delta / c_f(R + delta) (ball invariance), the largest
    tau with l_f(R + delta) * L^v(t0, t0 + tau) * tau <= 1/2 (contraction
    with a safety factor), and ``cap``.  With no velocity the flow
    Lipschitz bound L^v is 1.
    """
    if R < 0 or delta <= 0:
        raise ValueError("need R >= 0 and delta > 0")
    cf = float(spec.c_f(R + delta))
    lf = float(spec.l_f(R + delta))
    if not (math.isfinite(cf) and math.isfinite(lf)):
        raise SolverError(f"reaction {spec.name!r} has nonfinite constants at R={R + delta}")
    tau = cap
    if cf > 0:
        tau = min(tau, delta / cf)
    if lf > 0:
        # L^v grows with tau, so iterate the decreasing map
        # tau -> factor / (lf * L^v(tau)); it converges monotonically.
        bound = contraction_factor / lf
        tau = min(tau, bound)
        if velocity is not None and math.isfinite(tau):
            for _ in range(30):
                lv = lipschitz_bound(velocity, t0, t0 + tau)
                new_tau = min(tau, bound / lv)
                if abs(new_tau - tau) <= 1e-12 * max(tau, 1e-30):
                    tau = new_tau
                    break
                tau = new_tau
    if not tau > 0:
        raise SolverError("selected step is not positive")
    return tau


def _dilation_parts(lf: float, c: float, l_v: float, tau: float, limit: float) -> int:
    """Smallest N with (lf + c) * l_v * (1 - e^{-c tau / N}) / c < limit."""

    def factor(parts: int) -> float:
        if c == 0.0:
            return lf * l_v * tau / parts
        return (lf + c) * l_v * (1.0 - math.exp(-c * tau / parts)) / c

    parts = 1
    while factor(parts) >= limit:
        parts += 1
        if parts > _MAX_DILATION_PARTS:
            raise SolverError("dilation partition does not terminate")
    return parts


# ---------------------------------------------------------------------------
# Picard sweeps on a quadrature grid.
# ---------------------------------------------------------------------------

class _AtomPanels:
    """Advected atom positions per quadrature panel, reused across sweeps.

    The particle twin of ``_DensityPanels``.  The flow map is a pure
    function of the positions, so when panel k sees the same support as
    last time the cached image points carry the new weights; the result
    is bitwise what a fresh push-forward would give.
    """

    def __init__(self, v: VelocityField, times: np.ndarray, h: float):
        self.v = v
        self.times = times
        self.h = h
        # Per panel: (input points, advected points) of the last miss.
        self._last: list[tuple[np.ndarray, np.ndarray] | None] = [None] * (len(times) - 1)

    def push(self, k: int, mu: DiscreteSignedMeasure) -> DiscreteSignedMeasure:
        last = self._last[k]
        if last is not None and np.array_equal(last[0], mu.points):
            return DiscreteSignedMeasure(last[1], mu.weights, mu.domain)
        moved = pushforward_measure(
            self.v, float(self.times[k]), float(self.times[k + 1]), mu, self.h
        )
        self._last[k] = (mu.points, moved.points)
        return moved


def _transport_curve(
    panels: _AtomPanels, nu: DiscreteSignedMeasure
) -> list[DiscreteSignedMeasure]:
    out = [nu]
    for k in range(len(panels.times) - 1):
        out.append(panels.push(k, out[-1]))
    return out


@dataclass(frozen=True)
class _NodeWeights:
    """Picard iterate of a reaction with no production, on fixed supports.

    Such a reaction only rescales weights, so at node k every iterate sits
    on the transport curve's support: ``points`` as this iterate stores it,
    ``swept`` as sweeps return it.  Iterating yields the node measures.
    """

    nu: DiscreteSignedMeasure
    points: list[np.ndarray]
    swept: list[np.ndarray]
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        yield self.nu
        for p, w in zip(self.points[1:], self.weights[1:]):
            yield DiscreteSignedMeasure(p, _readonly(w), self.nu.domain)


def _fixed_supports(
    spec: ReactionSpec, curve: list[DiscreteSignedMeasure], c: float
) -> _NodeWeights | None:
    """The transport curve as a ``_NodeWeights``, or None if sweeps need measures.

    Every node needs a nonempty support in canonical order that
    ``measures._separated`` clears, so that each ``linear_combine`` of
    the measure path adds weights atom by atom.  That adds 0.0 to the
    points; with neither rate nor shift every sum is a concatenation,
    which does not.
    """
    nu, points = curve[0], [mu.points for mu in curve]
    if spec.production is not None or not nu.num_atoms or not all(
        np.all(p[1:, 0] > p[:-1, 0]) and _separated(p, nu.domain, COALESCE_EPS) for p in points
    ):
        return None
    swept = points
    if spec.rate is not None or c != 0.0:
        swept = points[:1] + [_readonly(p + 0.0) for p in points[1:]]
    return _NodeWeights(nu, points, swept, np.tile(nu.weights, (len(points), 1)))


def _sweep_weights(
    spec: ReactionSpec, times: np.ndarray, curve: _NodeWeights, c: float
) -> _NodeWeights | None:
    """``_sweep_measures`` on the weight array, or None where it would prune.

    Each step is the measure path's arithmetic on the same values, so the
    result is bitwise equal.
    """
    w = curve.weights
    g = c * w  # with no rate and c = 0: zeros, which add nothing
    if spec.rate is not None:
        rated = [multiply_by_function(spec.rate(float(t_j), mu), mu)
                 for t_j, mu in zip(times, curve)]
        if any(r.num_atoms < w.shape[1] for r in rated):
            return None
        g = np.array([r.weights for r in rated]) + g
    if c != 0.0 and np.any(np.abs(g) < WEIGHT_EPS):
        return None
    ds = float(times[1] - times[0])
    decay = math.exp(-c * ds)
    hg = (0.5 * ds) * g
    half, out = np.empty_like(w), np.empty_like(w)
    acc = out[0] = w[0]
    for k in range(len(times) - 1):
        half[k] = acc + hg[k]
        acc = out[k + 1] = decay * half[k] + hg[k + 1]
    if np.any(np.abs(half[:-1]) < WEIGHT_EPS) or np.any(np.abs(out[1:]) < WEIGHT_EPS):
        return None
    return _NodeWeights(curve.nu, curve.swept, curve.swept, out)


def _sweep_measures(
    spec: ReactionSpec,
    panels: _AtomPanels,
    curve: _NodeWeights | Sequence[DiscreteSignedMeasure],
    c: float,
) -> _NodeWeights | list[DiscreteSignedMeasure]:
    """One application of the (dilated) Picard operator on the node grid.

    Uses the incremental trapezoid identity: with ds the node spacing and
    g_j = f_{t_j}(mu_j) + c mu_j,

        out_{k+1} = e^{-c ds} P_{t_k, t_{k+1}}[out_k + (ds/2) g_k]
                    + (ds/2) g_{k+1},

    which unrolls exactly to the composite-trapezoid discretization of
    the dilated variation-of-constants integral.

    A ``_NodeWeights`` curve is swept on its weight array while that
    stays bitwise; otherwise as measures, for the rest of the interval.
    perfbench's tracer counts sweeps through this one function.
    """
    if isinstance(curve, _NodeWeights):
        swept = _sweep_weights(spec, panels.times, curve, c)
        if swept is not None:
            return swept
        curve = list(curve)
    times = panels.times
    ds = float(times[1] - times[0])
    decay = math.exp(-c * ds)
    g = []
    for t_j, mu_j in zip(times, curve):
        r = eval_reaction(spec, float(t_j), mu_j)
        if c != 0.0:
            r = linear_combine(1.0, r, c, mu_j)
        g.append(r)
    out = [curve[0]]
    acc = curve[0]
    for k in range(len(times) - 1):
        half = linear_combine(1.0, acc, 0.5 * ds, g[k])
        moved = panels.push(k, half)
        acc = linear_combine(decay, moved, 0.5 * ds, g[k + 1])
        out.append(acc)
    return out


def picard_step(
    spec: ReactionSpec,
    v: VelocityField,
    t0: float,
    tau: float,
    curve: Sequence[DiscreteSignedMeasure],
    *,
    step_h: float | None = None,
) -> list[DiscreteSignedMeasure]:
    """Apply the Picard operator to a curve sampled on uniform nodes."""
    return picard_step_dilated(spec, v, 0.0, t0, tau, curve, step_h=step_h)


def picard_step_dilated(
    spec: ReactionSpec,
    v: VelocityField,
    c: float,
    t0: float,
    tau: float,
    curve: Sequence[DiscreteSignedMeasure],
    *,
    step_h: float | None = None,
) -> list[DiscreteSignedMeasure]:
    """Dilated Picard operator; c = 0 reduces to the plain one."""
    if c < 0:
        raise ValueError("dilation shift must be nonnegative")
    if len(curve) < 2:
        raise ValueError("curve needs at least two nodes")
    if tau <= 0:
        raise ValueError("tau must be positive")
    times = np.linspace(t0, t0 + tau, len(curve))
    h = step_h if step_h is not None else default_step(tau)
    return _sweep_measures(spec, _AtomPanels(v, times, h), curve, c)


def _fm_of(diff: DiscreteSignedMeasure) -> float:
    res = fm_norm(diff)
    if res.status != STATUS_OPTIMAL:
        raise SolverError(f"flat-norm evaluation failed with status {res.status!r}")
    return res.value


def _curve_distance(
    new: _NodeWeights | list[DiscreteSignedMeasure],
    old: _NodeWeights | list[DiscreteSignedMeasure],
    tol: float,
) -> float:
    """sup over nodes of the flat distance between two iterates.

    Total variation dominates the flat norm, so nodes whose TV gap is
    already far below tolerance skip the LP.  Two ``_NodeWeights`` are
    subtracted on the shared support, as ``linear_combine`` would.
    """
    if isinstance(new, _NodeWeights) and isinstance(old, _NodeWeights):
        diff = new.weights - old.weights
        keep = np.abs(diff) >= WEIGHT_EPS
        diffs = (DiscreteSignedMeasure(p[row] + 0.0, x[row], new.nu.domain)
                 for p, x, row in zip(new.points, diff, keep))
    else:
        diffs = (linear_combine(1.0, a, -1.0, b) for a, b in zip(new, old))
    worst = 0.0
    for diff in diffs:
        d = tv_norm(diff)
        if d > 1e-3 * tol:
            d = _fm_of(diff)
        worst = max(worst, d)
    return worst


# ---------------------------------------------------------------------------
# Density co-evolution (semi-Lagrangian Picard on the same node grid).
# ---------------------------------------------------------------------------

class _DensityPanels:
    """Cached backward characteristics per quadrature panel.

    Feet and Jacobian factors depend only on the panel and the grid, not
    on the iterate, so each panel is integrated once per interval.
    """

    def __init__(self, v: VelocityField, grid: GridDensity, times: np.ndarray, h: float):
        self.grid = grid
        self.chars = [
            backward_characteristics(v, float(times[k]), float(times[k + 1]), grid, h)
            for k in range(len(times) - 1)
        ]

    def push(self, k: int, values: np.ndarray) -> np.ndarray:
        carrier = with_values(self.grid, values.reshape(self.grid.values.shape))
        return transported_values(carrier, *self.chars[k])


def _density_reaction_values(
    spec: ReactionSpec, t: float, u: GridDensity
) -> np.ndarray:
    if spec.density_action is None:
        return np.zeros_like(u.values)
    return spec.density_action(t, u).values


def _transport_density_curve(panels: _DensityPanels, u0: GridDensity, n_nodes: int) -> list[np.ndarray]:
    vals = [np.asarray(u0.values, dtype=float)]
    for k in range(n_nodes - 1):
        vals.append(panels.push(k, vals[-1]))
    return vals


def _sweep_density(
    spec: ReactionSpec,
    panels: _DensityPanels,
    times: np.ndarray,
    curve_vals: Sequence[np.ndarray],
    c: float,
) -> list[np.ndarray]:
    ds = float(times[1] - times[0])
    decay = math.exp(-c * ds)
    grid = panels.grid
    g = []
    for t_j, vals_j in zip(times, curve_vals):
        u_j = with_values(grid, vals_j)
        g.append(_density_reaction_values(spec, float(t_j), u_j) + c * vals_j)
    out = [curve_vals[0]]
    acc = curve_vals[0]
    for k in range(len(times) - 1):
        moved = panels.push(k, acc + 0.5 * ds * g[k])
        acc = decay * moved + 0.5 * ds * g[k + 1]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Interval fixed point and chaining.
# ---------------------------------------------------------------------------

def _fixed_point(
    spec: ReactionSpec,
    v: VelocityField,
    t0: float,
    tau: float,
    nu: DiscreteSignedMeasure,
    config: SolverConfig,
    c: float,
    u0: GridDensity | None,
) -> Trajectory:
    times = np.linspace(t0, t0 + tau, config.quad_nodes)
    h = config.flow_step_h if config.flow_step_h is not None else default_step(tau)
    atom_panels = _AtomPanels(v, times, h)
    curve = _transport_curve(atom_panels, nu)
    curve = _fixed_supports(spec, curve, c) or curve
    panels = None
    dens_vals: list[np.ndarray] | None = None
    dens_tol = math.inf
    if u0 is not None:
        if (spec.production is not None or spec.rate is not None) and spec.density_action is None:
            raise SolverError(
                f"reaction {spec.name!r} has no density action; cannot co-evolve a density"
            )
        panels = _DensityPanels(v, u0, times, h)
        dens_vals = _transport_density_curve(panels, u0, len(times))
        dens_tol = config.picard_tol * max(1.0, lp_norm(u0))

    ratio = 0.0
    prev_d: float | None = None
    iters = 0
    for _ in range(config.picard_max_iter):
        new_curve = _sweep_measures(spec, atom_panels, curve, c)
        d = _curve_distance(new_curve, curve, config.picard_tol)
        d_dens = 0.0
        if dens_vals is not None:
            new_dens = _sweep_density(spec, panels, times, dens_vals, c)
            grid = panels.grid
            for a, b in zip(new_dens, dens_vals):
                diff = with_values(grid, (a - b).reshape(grid.values.shape))
                d_dens = max(d_dens, lp_norm(diff))
            dens_vals = new_dens
        if prev_d is not None and prev_d > 0.0:
            ratio = max(ratio, d / prev_d)
        curve = new_curve
        iters += 1
        if d <= config.picard_tol and d_dens <= dens_tol:
            break
        prev_d = d
    else:
        raise NonContractionError(
            f"Picard iteration did not reach tol={config.picard_tol} in "
            f"{config.picard_max_iter} sweeps on [{t0}, {t0 + tau}] "
            f"(measured contraction ratio {ratio:.3f})",
            measured_ratio=ratio,
        )

    curve = list(curve)
    ball = tv_norm(nu) + config.delta
    slack = 1e-6 * ball + 10.0 * config.picard_tol
    worst_tv = max(tv_norm(m) for m in curve)
    if worst_tv > ball + slack:
        raise SolverError(
            f"iterates left the invariant TV ball: {worst_tv} > {ball}"
        )
    densities = None if u0 is None else [u0] + [with_values(u0, x) for x in dens_vals[1:]]
    return _assemble(times, curve, densities, iters, ratio)


def _assemble(
    times: np.ndarray,
    measures: list[DiscreteSignedMeasure],
    densities: list[GridDensity] | None,
    iters: int,
    ratio: float,
) -> Trajectory:
    """Diagnostics of one fixed-point run; its first node reads 0 iterations."""
    n = len(times)
    tv = np.array([tv_norm(m) for m in measures])
    neg = np.array([negative_part_tv(m) for m in measures])
    fm_step = np.zeros(n)
    for j in range(1, n):
        diff = linear_combine(1.0, measures[j], -1.0, measures[j - 1])
        fm_step[j] = _fm_of(diff)
    lp = np.full(n, np.nan)
    if densities is not None:
        lp = np.array([lp_norm(u) for u in densities])
    return Trajectory(
        times=times,
        measures=measures,
        densities=densities,
        tv_norm=tv,
        neg_part_tv=neg,
        fm_step_distance=fm_step,
        picard_iters=np.array([0] + [iters] * (n - 1), dtype=int),
        contraction_ratio=np.array([0.0] + [ratio] * (n - 1)),
        lp_norm=lp,
    )


def _join(pieces: Sequence[Trajectory], stop: int | None = None) -> Trajectory:
    """Stitch pieces that each start at the final node of the one before.

    Piece 0 is kept whole and node 0 of every later piece is dropped, so
    each boundary node appears once; ``stop`` keeps joined nodes
    [0, stop).  Flags are left at their defaults for the caller to set.
    """
    first, rest = pieces[0], pieces[1:]
    arrays = ("times", "tv_norm", "neg_part_tv", "fm_step_distance",
              "picard_iters", "contraction_ratio", "lp_norm")

    def nodes(name: str) -> list:
        return (getattr(first, name) + [x for p in rest for x in getattr(p, name)[1:]])[:stop]

    def array(name: str) -> np.ndarray:
        parts = [getattr(first, name)] + [getattr(p, name)[1:] for p in rest]
        return np.concatenate(parts)[:stop]

    return Trajectory(
        measures=nodes("measures"),
        densities=None if first.densities is None else nodes("densities"),
        **{name: array(name) for name in arrays},
    )


def _dilation_shift(
    spec: ReactionSpec,
    v: VelocityField,
    t0: float,
    tau: float,
    nu: DiscreteSignedMeasure,
    config: SolverConfig,
) -> tuple[float, int]:
    """Shift c and partition count for one interval, per dilation_mode."""
    if config.dilation_mode == "none":
        return 0.0, 1
    if config.dilation_mode == "auto" and not nu.is_positive():
        return 0.0, 1
    ball = tv_norm(nu) + config.delta
    lv = lipschitz_bound(v, t0, t0 + tau)
    if config.dilation_mode == "fixed":
        c = config.dilation_c
    else:
        c = float(spec.c_pos(2.0 * ball, t0 + tau))
    # Partition until the dilated factor is at or below the same 1/2
    # safety margin used by choose_step.
    parts = _dilation_parts(float(spec.l_f(2.0 * ball)), c, lv, tau, 0.5)
    return c, parts


def solve_interval(
    spec: ReactionSpec,
    v: VelocityField,
    t0: float,
    tau: float,
    nu: DiscreteSignedMeasure,
    config: SolverConfig,
    *,
    initial_density: GridDensity | None = None,
) -> Trajectory:
    """Mild solution on [t0, t0 + tau] for tau within choose_step."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    c, parts = _dilation_shift(spec, v, t0, tau, nu, config)
    pieces: list[Trajectory] = []
    cur_mu = nu
    cur_u = initial_density
    for i in range(parts):
        seg_start = t0 + tau * i / parts
        seg_end = t0 + tau * (i + 1) / parts
        piece = _fixed_point(
            spec, v, seg_start, seg_end - seg_start, cur_mu, config, c, cur_u
        )
        pieces.append(piece)
        cur_mu = piece.final_measure
        if piece.densities is not None:
            cur_u = piece.densities[-1]
    return _join(pieces)


def solve_maximal(
    spec: ReactionSpec,
    v: VelocityField,
    nu: DiscreteSignedMeasure,
    t0: float,
    horizon: float,
    config: SolverConfig,
    *,
    initial_density: GridDensity | None = None,
) -> Trajectory:
    """Chain intervals until the horizon or a blow-up threshold.

    Blow-up is reported, not raised: the trajectory ends at the first
    stored node whose total variation (or density L^p norm, when a
    density is co-evolved) exceeds its threshold, with the flags and
    detection times set.
    """
    if not horizon > t0:
        raise ValueError("horizon must exceed t0")
    tv_threshold = config.tv_blowup_threshold
    if tv_threshold is None:
        tv_threshold = _TV_BLOWUP_FACTOR * max(tv_norm(nu), 1.0)
    lp_threshold = math.inf
    if initial_density is not None:
        lp_threshold = _LP_BLOWUP_FACTOR * max(lp_norm(initial_density), 1.0)

    span = horizon - t0
    pieces: list[Trajectory] = []
    stored = 0  # joined nodes before the newest piece's node 0
    cur_mu = nu
    cur_u = initial_density
    t = t0
    try:
        for _ in range(_MAX_INTERVALS):
            remaining = horizon - t
            if remaining <= 1e-12 * max(1.0, abs(span)):
                break
            cap = remaining
            if config.max_interval_tau is not None:
                cap = min(cap, config.max_interval_tau)
            tau = choose_step(
                spec, tv_norm(cur_mu), config.delta, velocity=v, t0=t, cap=cap
            )
            if tau >= remaining * (1.0 - 1e-12):
                tau = remaining
            seg = solve_interval(
                spec, v, t, tau, cur_mu, config, initial_density=cur_u
            )
            pieces.append(seg)
            # Earlier intervals passed the check, so only this one's nodes
            # are scanned; its node 0 is the previous final node (or nu).
            over_tv = np.flatnonzero(seg.tv_norm > tv_threshold)
            over_lp = np.flatnonzero(seg.lp_norm > lp_threshold)
            if over_tv.size or over_lp.size:
                idx = int(min(
                    over_tv[0] if over_tv.size else np.inf,
                    over_lp[0] if over_lp.size else np.inf,
                ))
                traj = _join(pieces, stop=stored + idx + 1)
                if over_tv.size and over_tv[0] == idx:
                    traj.blown_up = True
                    traj.blowup_time = traj.final_time
                if over_lp.size and over_lp[0] == idx:
                    traj.density_blown_up = True
                    traj.density_blowup_time = traj.final_time
                return traj
            stored += len(seg.times) - 1
            cur_mu = seg.final_measure
            if seg.densities is not None:
                cur_u = seg.densities[-1]
            t = seg.final_time
        else:
            raise SolverError("interval budget exhausted before reaching the horizon")
    except SolverError as exc:
        exc.partial = _join(pieces) if pieces else None
        raise
    if not pieces:
        raise SolverError("empty horizon")
    traj = _join(pieces)
    traj.reached_horizon = True
    return traj


def sample_trajectory(
    v: VelocityField,
    times: np.ndarray,
    measures: Sequence[DiscreteSignedMeasure],
    t: float,
    *,
    step_h: float | None = None,
) -> DiscreteSignedMeasure:
    """Interpolate a stored curve at an off-grid time.

    Both bracketing node measures are carried to time t along the flow
    and blended linearly in their weights, which keeps the interpolant
    in the particle representation.
    """
    if not times[0] <= t <= times[-1]:
        raise ValueError("t outside the stored range")
    j = int(np.searchsorted(times, t, side="right") - 1)
    j = min(j, len(times) - 2)
    t_lo, t_hi = float(times[j]), float(times[j + 1])
    theta = (t - t_lo) / (t_hi - t_lo)
    h = step_h if step_h is not None else default_step(t_hi - t_lo)
    fwd = pushforward_measure(v, t_lo, t, measures[j], h)
    bwd = pushforward_measure(v, t_hi, t, measures[j + 1], h)
    return linear_combine(1.0 - theta, fwd, theta, bwd)
