"""Picard fixed point, dilation, chaining, and blow-up detection."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fail_fixed_point_on_call
import mvt.flat_metric
from mvt import solver
from mvt.flat_metric import fm_distance
from mvt.flow import advect, default_step
from mvt.geometry import TORUS
from mvt.grids import lp_norm, mass, quantize, uniform_density
from mvt.measures import (
    DiscreteSignedMeasure,
    MeasureError,
    dirac,
    empty_measure,
    linear_combine,
    measure,
    tv_norm,
)
from mvt.reactions import builtin_reaction, eval_reaction
from mvt.scenarios import bundled_scenario
from mvt.solver import (
    NonContractionError,
    SolverConfig,
    SolverError,
    Trajectory,
    choose_step,
    picard_step,
    solve_interval,
    solve_maximal,
)
from mvt.solver import _dilation_shift
from mvt.transport import pushforward_measure
from mvt.velocity import builtin_field, zero_field

ZERO = builtin_reaction("zero", [])


# --- configuration validation ----------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(quad_nodes=1)
    with pytest.raises(ValueError):
        SolverConfig(picard_tol=1e-13)  # floor is 1e-12
    with pytest.raises(ValueError):
        SolverConfig(delta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dilation_mode="sometimes")
    with pytest.raises(ValueError):
        SolverConfig(dilation_mode="fixed", dilation_c=-1.0)
    with pytest.raises(ValueError, match="dilation_c"):
        SolverConfig(dilation_c=0.5)  # other modes would ignore it
    with pytest.raises(ValueError):
        SolverConfig(picard_max_iter=0)


def test_trajectory_validation():
    with pytest.raises(SolverError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            measures=[dirac(0.0)],
            densities=None,
            tv_norm=np.array([1.0, 1.0]),
            neg_part_tv=np.zeros(2),
            fm_step_distance=np.zeros(2),
            picard_iters=np.zeros(2, dtype=int),
            contraction_ratio=np.zeros(2),
            lp_norm=np.full(2, np.nan),
        )
    with pytest.raises(SolverError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            measures=[dirac(0.0), dirac(0.0)],
            densities=None,
            tv_norm=np.ones(2),
            neg_part_tv=np.zeros(2),
            fm_step_distance=np.zeros(2),
            picard_iters=np.zeros(2, dtype=int),
            contraction_ratio=np.zeros(2),
            lp_norm=np.full(2, np.nan),
        )


# --- step selection (frozen values) ----------------------------------------

def test_choose_step_zero_reaction_hits_cap():
    assert choose_step(ZERO, 1.0, 1.0, cap=2.0) == 2.0


def test_choose_step_ball_constraint():
    # c_f(R + delta) = 5 * 2 = 10, delta = 1 -> ball bound 0.1; the
    # contraction bound 0.5 / l_f = 0.1 coincides
    spec = builtin_reaction("linear_rate", [5.0])
    assert choose_step(spec, 1.0, 1.0) == pytest.approx(0.1)


def test_choose_step_frozen_linear_rate_2():
    spec = builtin_reaction("linear_rate", [2.0])
    assert choose_step(spec, 1.0, 1.0) == pytest.approx(0.25)


def test_choose_step_velocity_shrinks_tau():
    spec = builtin_reaction("linear_rate", [2.0])
    fast = builtin_field("linear", [3.0], 1)
    tau = choose_step(spec, 1.0, 1.0, velocity=fast)
    assert tau < 0.25
    # self-consistency of the fixed point: l_f * L^v(tau) * tau <= 1/2
    from mvt.flow import lipschitz_bound

    assert 2.0 * lipschitz_bound(fast, 0.0, tau) * tau <= 0.5 + 1e-9


def test_choose_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        choose_step(ZERO, -1.0, 1.0)
    with pytest.raises(ValueError):
        choose_step(ZERO, 1.0, 0.0)


def test_dilation_shift_frozen_example():
    # death_rate 1 gives l_f = 1 and c_pos = 1, the zero field l_v = 1, tau = 2:
    # factor(N) = 2 (1 - e^{-2/N}); N=6 gives 0.567, N=7 gives 0.497 < 1/2
    spec = builtin_reaction("death_rate", [1.0])
    config = SolverConfig(dilation_mode="auto")
    c, parts = _dilation_shift(spec, zero_field(1), 0.0, 2.0, dirac(0.0), config)
    assert c == pytest.approx(1.0)
    assert parts == 7


def test_dilation_shift_no_shift_needed():
    config = SolverConfig(dilation_mode="auto")
    c, parts = _dilation_shift(ZERO, zero_field(1), 0.0, 0.5, dirac(0.0), config)
    assert c == 0.0 and parts == 1


def test_dilation_shift_small_tau():
    spec = builtin_reaction("death_rate", [1.0])
    config = SolverConfig(dilation_mode="auto")
    _, parts = _dilation_shift(spec, zero_field(1), 0.0, 1e-6, dirac(0.0), config)
    assert parts == 1


# --- single Picard sweeps ---------------------------------------------------

def _constant_curve(nu, n):
    return [nu] * n


def test_picard_step_zero_reaction_is_pushforward():
    v = builtin_field("rotation2d", [1.0], 2)
    nu = measure([[1.0, 0.0], [0.0, 0.5]], [1.0, 0.5])
    out = picard_step(ZERO, v, 0.0, 0.5, _constant_curve(nu, 9))
    times = np.linspace(0.0, 0.5, 9)
    for t, mu in zip(times, out):
        ref = pushforward_measure(v, 0.0, float(t), nu)
        assert fm_distance(mu, ref) <= 1e-9


def test_picard_step_linear_rate_one_sweep():
    # v = 0, f = c mu, constant input curve: output(t) = (1 + c t) nu,
    # exact because the trapezoid rule integrates constants exactly
    c = 0.8
    spec = builtin_reaction("linear_rate", [c])
    nu = dirac(0.3, 2.0)
    out = picard_step(spec, zero_field(1), 0.0, 0.5, _constant_curve(nu, 17))
    times = np.linspace(0.0, 0.5, 17)
    for t, mu in zip(times, out):
        assert mu.total_mass == pytest.approx((1.0 + c * t) * 2.0, abs=1e-12)


def test_sweep_density_linear_rate_one_sweep():
    # density twin of the test above: v = 0, f = c u, constant input curve
    c = 0.8
    spec = builtin_reaction("linear_rate", [c])
    u = uniform_density([-1.0], [1.0], 16, 0.75, 2.0)
    times = np.linspace(0.0, 0.5, 17)
    panels = solver._DensityPanels(zero_field(1), u, times, default_step(0.5))
    out = solver._sweep_density(spec, panels, [u.values] * len(times), 0.0)
    assert len(out) == len(times)
    for t, vals in zip(times, out):
        np.testing.assert_allclose(vals, (1.0 + c * t) * u.values, rtol=0.0, atol=1e-12)


def test_picard_step_dilated_zero_shift_identical():
    # c = 0 is the plain operator, bit for bit:
    # out_{k+1} = P[out_k + (ds/2) f_k] + (ds/2) f_{k+1}
    spec = builtin_reaction("logistic", [1.0, 2.0])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[0.0], [0.5]], [1.0, 0.5])
    curve = _constant_curve(nu, 9)
    times = np.linspace(0.0, 0.25, 9)
    ds = float(times[1] - times[0])
    f = [eval_reaction(spec, float(t), mu) for t, mu in zip(times, curve)]
    plain = [nu]
    for k in range(len(times) - 1):
        half = linear_combine(1.0, plain[-1], 0.5 * ds, f[k])
        moved = pushforward_measure(v, float(times[k]), float(times[k + 1]), half)
        plain.append(linear_combine(1.0, moved, 0.5 * ds, f[k + 1]))
    dilated = picard_step(spec, v, 0.0, 0.25, curve, c=0.0)
    assert len(dilated) == len(plain)
    for a, b in zip(plain, dilated):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)


def test_picard_step_dilated_death_exact_cancellation():
    # f = -mu, c = 1: integrand f + c mu = 0, so the sweep returns
    # e^{-(t - t0)} P^v nu exactly and stays positive
    spec = builtin_reaction("death_rate", [1.0])
    v = builtin_field("constant", [0.5], 1)
    nu = measure([[0.0], [1.0]], [1.0, 0.5])
    out = picard_step(spec, v, 0.0, 0.5, _constant_curve(nu, 9), c=1.0)
    times = np.linspace(0.0, 0.5, 9)
    for t, mu in zip(times, out):
        assert mu.is_positive()
        assert mu.total_mass == pytest.approx(1.5 * np.exp(-t), abs=1e-12)


def test_picard_step_dilated_constant_solution_quadrature_error():
    # v = 0, f = 0, c = 1: exact output is nu itself; the trapezoid
    # error is O(ds^2) and must shrink by ~4x when nodes double
    nu = dirac(0.0, 1.0)

    def sup_err(nodes: int) -> float:
        out = picard_step(ZERO, zero_field(1), 0.0, 0.5, _constant_curve(nu, nodes), c=1.0)
        return max(abs(mu.total_mass - 1.0) for mu in out)

    coarse, fine = sup_err(17), sup_err(33)
    assert coarse <= 1e-3
    assert 3.0 <= coarse / fine <= 5.0


def test_picard_step_rejects_bad_curve():
    with pytest.raises(ValueError):
        picard_step(ZERO, zero_field(1), 0.0, 0.5, [dirac(0.0)])
    with pytest.raises(ValueError):
        picard_step(ZERO, zero_field(1), 0.0, -0.5, _constant_curve(dirac(0.0), 5))
    with pytest.raises(ValueError):
        picard_step(ZERO, zero_field(1), 0.0, 0.5, _constant_curve(dirac(0.0), 5), c=-1.0)


# --- solve_interval ---------------------------------------------------------

def test_interval_pure_transport_converges_immediately():
    v = builtin_field("constant", [1.0], 1)
    nu = measure([[0.0], [0.2]], [1.0, 0.5])
    traj = solve_interval(ZERO, v, 0.0, 0.5, nu, SolverConfig(quad_nodes=9))
    assert traj.times[0] == 0.0 and traj.measures[0] is nu
    assert int(traj.picard_iters.max()) == 1
    np.testing.assert_allclose(
        traj.final_measure.points[:, 0], nu.points[:, 0] + 0.5, atol=1e-10
    )
    np.testing.assert_allclose(traj.tv_norm, 1.5, atol=1e-12)


def test_interval_linear_mass_law():
    spec = builtin_reaction("linear_rate", [2.0])
    nu = dirac(0.2, 1.5)
    tau = choose_step(spec, tv_norm(nu), 1.0)
    traj = solve_interval(spec, zero_field(1), 0.0, tau, nu, SolverConfig(quad_nodes=65))
    for t, m in zip(traj.times, traj.measures):
        assert m.total_mass == pytest.approx(1.5 * np.exp(2.0 * t), abs=1e-4 * 1.5)


def test_interval_tv_ball_invariance():
    spec = builtin_reaction("linear_rate", [2.0])
    nu = dirac(0.2, 1.5)
    delta = 1.0
    tau = choose_step(spec, tv_norm(nu), delta)
    traj = solve_interval(
        spec, zero_field(1), 0.0, tau, nu, SolverConfig(delta=delta, quad_nodes=33)
    )
    assert float(traj.tv_norm.max()) <= tv_norm(nu) + delta + 1e-6


def test_interval_fixed_point_residual():
    # re-applying the Picard operator to the converged curve moves it
    # by at most 2 * picard_tol at every node
    spec = builtin_reaction("logistic", [1.0, 2.0])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[-0.5], [0.0], [0.4]], [1.5, 1.0, 0.5])
    config = SolverConfig(quad_nodes=33)
    tau = choose_step(spec, tv_norm(nu), config.delta, velocity=v)
    traj = solve_interval(spec, v, 0.0, tau, nu, config)
    again = picard_step(spec, v, 0.0, tau, list(traj.measures))
    worst = max(fm_distance(a, b) for a, b in zip(again, traj.measures))
    assert worst <= 2.0 * config.picard_tol


def test_interval_contraction_ratio_below_apriori():
    spec = builtin_reaction("linear_rate", [2.0])
    nu = dirac(0.0, 1.0)
    tau = choose_step(spec, 1.0, 1.0)
    traj = solve_interval(spec, zero_field(1), 0.0, tau, nu, SolverConfig(quad_nodes=33))
    assert float(traj.contraction_ratio.max()) <= 0.5 + 0.1


def test_interval_non_contraction_raises():
    spec = builtin_reaction("linear_rate", [5.0])
    nu = dirac(0.0, 1.0)
    config = SolverConfig(quad_nodes=17, picard_max_iter=8)
    with pytest.raises(NonContractionError) as err:
        solve_interval(spec, zero_field(1), 0.0, 2.0, nu, config)  # way past choose_step
    assert err.value.measured_ratio > 0.9


def test_interval_dilation_equivalence():
    # Prop-4.5-style identity: undilated and fixed-shift runs agree to
    # within the Picard tolerance budget on identical node grids
    spec = builtin_reaction("death_rate", [1.0])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[0.0], [0.5]], [1.0, 0.5])
    tol = 1e-9
    base = dict(quad_nodes=257, picard_tol=tol)
    plain = solve_interval(spec, v, 0.0, 0.1, nu, SolverConfig(**base))
    shifted = solve_interval(
        spec, v, 0.0, 0.1, nu, SolverConfig(dilation_mode="fixed", dilation_c=1.0, **base)
    )
    assert len(plain.times) == len(shifted.times)
    worst = max(
        fm_distance(a, b) for a, b in zip(plain.measures, shifted.measures)
    )
    assert worst <= 10.0 * tol


def test_dilation_parts_keep_the_factor_of_a_tiny_shift():
    # lf * l_v * tau = 0.8 and 0.5 need two parts, as at c = 0; written
    # as 1 - exp(-c tau / N), the factor of a tiny c is lost to cancellation
    assert solver._dilation_parts(4.0, 1e-17, 1.0, 0.2) == 2
    assert solver._dilation_parts(4.0, 1e-8, 1.0, 0.125) == 2
    assert solver._dilation_parts(4.0, 0.0, 1.0, 0.125) == 2


def test_interval_joins_dilation_parts():
    # death_rate 1 with auto dilation over tau = 2 runs 7 fixed-point
    # parts; consecutive parts share their boundary node, stored once
    spec = builtin_reaction("death_rate", [1.0])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[0.0], [0.5]], [1.0, 0.5])
    config = SolverConfig(quad_nodes=9, dilation_mode="auto")
    assert _dilation_shift(spec, v, 0.0, 2.0, nu, config)[1] == 7
    traj = solve_interval(spec, v, 0.0, 2.0, nu, config)
    panels = config.quad_nodes - 1
    assert len(traj.times) == panels * 7 + 1
    assert len(traj.measures) == len(traj.times)
    for i in range(8):
        assert traj.times[panels * i] == 2.0 * i / 7
    assert traj.measures[0] is nu
    assert traj.picard_iters[0] == 0 and traj.contraction_ratio[0] == 0.0
    assert traj.fm_step_distance[0] == 0.0
    assert np.all(traj.picard_iters[1:] >= 1)
    assert np.all(traj.fm_step_distance[1:] > 0.0)


def test_interval_auto_dilation_keeps_positivity():
    spec = builtin_reaction("death_rate", [1.0])
    nu = measure([[0.0, 0.0], [0.5, 0.5]], [1.0, 0.5])
    config = SolverConfig(quad_nodes=17, dilation_mode="auto")
    traj = solve_interval(spec, builtin_field("shear", [0.5], 2), 0.0, 0.4, nu, config)
    assert float(traj.neg_part_tv.max()) == 0.0
    # mass law unaffected by the dilation bookkeeping
    assert traj.final_measure.total_mass == pytest.approx(1.5 * np.exp(-0.4), abs=1e-6)


def test_auto_dilation_skips_signed_data():
    # auto shifts only positive data; signed data runs undilated
    spec = builtin_reaction("linear_rate", [2.0])
    config = SolverConfig(dilation_mode="auto")
    signed = measure([[0.0], [0.5]], [1.0, -0.5])
    assert _dilation_shift(spec, zero_field(1), 0.0, 0.1, signed, config) == (0.0, 1)


# --- push-forwards per sweep ------------------------------------------------

def test_rate_reaction_advects_each_panel_once(monkeypatch):
    # a rate reaction never moves atoms, so every sweep runs on the weight
    # array over the transport curve's supports and pushes nothing
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return pushforward_measure(*args, **kwargs)

    monkeypatch.setattr("mvt.solver.pushforward_measure", counted)
    spec = builtin_reaction("logistic", [1.0, 2.0])
    nu = measure([[-0.5], [0.4]], [1.0, 0.5])
    config = SolverConfig(quad_nodes=9)
    traj = solve_interval(spec, builtin_field("constant", [0.3], 1), 0.0, 0.2, nu, config)
    assert int(traj.picard_iters.max()) > 2
    assert len(calls) == config.quad_nodes - 1


def test_interval_matches_public_picard_iteration_bitwise():
    # production adds atoms between sweeps, so every sweep runs on
    # measures and pushes each panel; the interval solver must still
    # equal plain Picard iteration
    spec = builtin_reaction("dirac_source", [0.5, 0.7])
    v = builtin_field("time_oscillating", [1.0, 0.5, 1.0], 1)
    nu = measure([[0.25], [0.9]], [1.0, 0.5], TORUS)
    config = SolverConfig(quad_nodes=9)
    tau = 0.2
    traj = solve_interval(spec, v, 0.0, tau, nu, config)
    times = np.linspace(0.0, tau, config.quad_nodes)
    h = default_step(tau)
    curve = [nu]
    for k in range(len(times) - 1):
        curve.append(pushforward_measure(v, times[k], times[k + 1], curve[-1], h))
    for _ in range(int(traj.picard_iters.max())):
        curve = picard_step(spec, v, 0.0, tau, curve)
    assert curve[-1].num_atoms > nu.num_atoms
    assert len(curve) == len(traj.measures)
    for a, b in zip(curve, traj.measures):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)


def test_field_without_flow_map_solves_by_rk4_at_default_step(monkeypatch):
    # the one RK4 path left: a hand-built field pushes at default_step(tau)
    # and lands within 1e-10 of the exact map it lacks
    steps = []

    def recorded(v, t_from, t_to, points, step_h, *args):
        steps.append(step_h)
        return advect(v, t_from, t_to, points, step_h, *args)

    monkeypatch.setattr("mvt.transport.advect", recorded)
    spec = builtin_reaction("dirac_source", [0.5, 0.7])
    exact = builtin_field("constant", [0.3], 1)
    nu = measure([[-0.5], [0.4]], [1.0, 0.5])
    config, tau = SolverConfig(quad_nodes=9), 0.2
    traj = solve_interval(spec, dataclasses.replace(exact, flow_map=None), 0.0, tau, nu, config)
    assert steps and set(steps) == {default_step(tau)}
    ref = solve_interval(spec, exact, 0.0, tau, nu, config)
    np.testing.assert_array_equal(traj.times, ref.times)
    for a, b in zip(traj.measures, ref.measures):
        assert a.num_atoms == b.num_atoms
        np.testing.assert_allclose(a.points, b.points, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(a.weights, b.weights, rtol=0.0, atol=1e-10)


# --- rate-only sweeps on weight arrays --------------------------------------

TRAJECTORY_ARRAYS = ("times", "tv_norm", "neg_part_tv", "fm_step_distance",
                     "picard_iters", "contraction_ratio", "lp_norm")


def _outcome(run):
    try:
        return run()
    except SolverError as exc:
        return type(exc), str(exc)


def _both_paths(run):
    """run() as shipped, and with every sweep forced onto measures.

    Also returns, per attempted weight-array sweep, whether it stayed on
    arrays.
    """
    on_arrays = []
    sweep_weights = solver._sweep_weights

    def spy(*args):
        out = sweep_weights(*args)
        on_arrays.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_sweep_weights", spy)
        fast = _outcome(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_fixed_supports", lambda spec, curve: None)
        slow = _outcome(run)
    return fast, slow, on_arrays


def _assert_bitwise(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):  # both raised
        assert a == b
        return
    for name in TRAJECTORY_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert len(a.measures) == len(b.measures)
    for m, n in zip(a.measures, b.measures):
        assert m.points.shape == n.points.shape
        assert m.points.tobytes() == n.points.tobytes()
        assert m.weights.tobytes() == n.weights.tobytes()


RATE_ONLY = [("linear_rate", [1.5]), ("logistic", [1.0, 2.0]), ("mass_rate", [0.8]),
             ("death_rate", [0.7]), ("zero", [])]


@settings(max_examples=80, deadline=None)
@example(("zero", []), "linear", 1, 0.0, 2, 0, True)
@example(("linear_rate", [1.5]), "linear", 2, 0.0, 3, 0, True)
@example(("death_rate", [0.7]), "linear", 1, 0.7, 2, 0, True)
@given(
    reaction=st.sampled_from(RATE_ONLY),
    field=st.sampled_from(["zero", "constant", "linear", "shear", "torus"]),
    dim=st.integers(1, 3),
    shift=st.sampled_from([0.0, 0.7, 1.3]),
    n_atoms=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    signed_zero=st.booleans(),
)
def test_rate_only_interval_bitwise_on_both_paths(
    reaction, field, dim, shift, n_atoms, seed, signed_zero
):
    # death_rate with shift 0.7 cancels g exactly and so prunes it: its
    # sweeps stay on arrays with the measure path's empty g, which adds
    # no 0.0 to the points.  The linear field has a > 0, so a*x keeps a
    # -0.0 coordinate as it moves, and only that sweep's points keep it.
    rng = np.random.default_rng(seed)
    domain = TORUS if field == "torus" else "euclidean"
    dim = 2 if field == "shear" else dim
    v = {
        "zero": lambda: zero_field(dim),
        "constant": lambda: builtin_field("constant", list(rng.uniform(-1, 1, dim)), dim),
        "linear": lambda: builtin_field("linear", [float(rng.uniform(0.1, 1))], dim),
        "shear": lambda: builtin_field("shear", [float(rng.uniform(-1, 1))], 2),
        "torus": lambda: builtin_field("constant", list(rng.uniform(-1, 1, dim)), dim),
    }[field]()
    lo = 0.0 if domain == TORUS else -1.0
    pts = rng.uniform(lo, 1.0, size=(n_atoms, dim))
    if signed_zero:
        pts[0, -1] = -0.0
    wts = rng.uniform(0.2, 1.5, size=n_atoms) * rng.choice([-1.0, 1.0], size=n_atoms)
    nu = measure(pts, wts, domain)
    assert not signed_zero or domain == TORUS or np.signbit(nu.points).any()
    spec = builtin_reaction(*reaction)
    config = SolverConfig(quad_nodes=int(rng.integers(3, 10)),
                          dilation_mode="fixed" if shift else "none", dilation_c=shift)
    tau = choose_step(spec, tv_norm(nu), config.delta, velocity=v, cap=0.3)
    fast, slow, _ = _both_paths(lambda: solve_interval(spec, v, 0.0, tau, nu, config))
    _assert_bitwise(fast, slow)


def test_death_rate_cancelled_by_shift_stays_on_arrays():
    # auto dilation shifts death_rate a by c = a, so g = -a w + a w is 0
    # and pruned to nothing: every sweep only moves and decays the atoms
    spec = builtin_reaction("death_rate", [1.0])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[0.0], [0.5]], [1.0, 0.5])
    config = SolverConfig(quad_nodes=9, dilation_mode="auto")
    fast, slow, on_arrays = _both_paths(lambda: solve_interval(spec, v, 0.0, 0.4, nu, config))
    assert on_arrays and all(on_arrays)
    _assert_bitwise(fast, slow)


def test_shift_cancelling_g_at_some_nodes_falls_back():
    # mass_rate -1 rates each atom by -mass, and the shift is the initial
    # mass 1.5: g is 0 on the transport curve, so the first sweep stays on
    # arrays; its masses then fall after node 0, where alone g stays 0
    spec = builtin_reaction("mass_rate", [-1.0])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[0.0], [0.5]], [1.0, 0.5])
    config = SolverConfig(quad_nodes=9, dilation_mode="fixed", dilation_c=1.5)
    fast, slow, on_arrays = _both_paths(lambda: solve_interval(spec, v, 0.0, 0.2, nu, config))
    assert on_arrays[:2] == [True, False]
    _assert_bitwise(fast, slow)


def test_bundled_death_shear_sweeps_on_arrays():
    sc = bundled_scenario("death_shear")
    fast, slow, on_arrays = _both_paths(
        lambda: solve_maximal(sc.reaction, sc.velocity, sc.initial, sc.t0, sc.horizon, sc.solver))
    assert fast.reached_horizon
    assert on_arrays and all(on_arrays)
    _assert_bitwise(fast, slow)


def test_rate_pruned_in_first_sweep_falls_back():
    # logistic [1, 2] at mass exactly 2 has rate 0, so the reaction
    # prunes every weight and the first sweep already runs on measures
    spec = builtin_reaction("logistic", [1.0, 2.0])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[0.0], [0.5]], [1.5, 0.5])
    config = SolverConfig(quad_nodes=9)
    fast, slow, on_arrays = _both_paths(lambda: solve_interval(spec, v, 0.0, 0.3, nu, config))
    assert on_arrays == [False]
    assert fast.final_measure.total_mass == 2.0
    _assert_bitwise(fast, slow)


def test_weight_pruned_in_later_sweep_falls_back():
    # logistic decay speeds up as mass falls, so the first sweep keeps
    # the small atom above WEIGHT_EPS and the second drops it at the
    # last node: the interval leaves the arrays part-way through
    spec = builtin_reaction("logistic", [-4.0, 1.0])
    v = builtin_field("constant", [0.3], 1)
    nu = DiscreteSignedMeasure(np.array([[0.0], [0.5]]), np.array([0.7, 1.11e-15]))
    config = SolverConfig(quad_nodes=9)
    fast, slow, on_arrays = _both_paths(lambda: solve_interval(spec, v, 0.0, 0.08, nu, config))
    assert on_arrays == [True, False]
    assert fast.final_measure.num_atoms == 1
    _assert_bitwise(fast, slow)


def test_support_reordered_by_torus_wrap_stays_on_measures():
    # the atom at 0.95 wraps past 1 and becomes the first atom, so the
    # support leaves canonical order and the measure path sorts it
    spec = builtin_reaction("linear_rate", [1.5])
    v = builtin_field("constant", [0.8], 1)
    nu = measure([[0.3], [0.95]], [1.0, 0.5], TORUS)
    fast, slow, on_arrays = _both_paths(
        lambda: solve_interval(spec, v, 0.0, 0.3, nu, SolverConfig(quad_nodes=9)))
    assert on_arrays == []
    assert fast.final_measure.points[0, 0] < 0.3
    _assert_bitwise(fast, slow)


def test_production_never_runs_on_arrays():
    spec = builtin_reaction("dirac_source", [0.5, 0.7])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[0.0], [0.5]], [1.0, 0.5])
    config = SolverConfig(quad_nodes=9, max_interval_tau=0.2)
    fast, slow, on_arrays = _both_paths(
        lambda: solve_maximal(spec, v, nu, 0.0, 0.5, config))
    assert on_arrays == []
    _assert_bitwise(fast, slow)


def test_rate_reaction_sweeps_on_arrays():
    spec = builtin_reaction("logistic", [1.0, 2.0])
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[-0.5], [0.0], [0.4]], [1.5, 1.0, 0.5])
    config = SolverConfig(quad_nodes=33, dilation_mode="auto")
    fast, slow, on_arrays = _both_paths(lambda: solve_maximal(spec, v, nu, 0.0, 0.3, config))
    assert len(on_arrays) > 3 and all(on_arrays)
    _assert_bitwise(fast, slow)


def _weights_curve(spec, v, nu, tau, nodes):
    times = np.linspace(0.0, tau, nodes)
    push = solver._panel_push(v, times, default_step(tau))
    curve = solver._fixed_supports(spec, solver._transport_curve(times, push, nu))
    assert curve is not None
    return times, curve


@pytest.mark.parametrize("reaction", [("logistic", [1.0, 60.0]), ("mass_rate", [0.02])])
@pytest.mark.parametrize("shift", [0.0, 0.9])
def test_uniform_rate_sweeps_match_per_node_rates_bitwise(reaction, shift):
    # 48 separated atoms, so np.sum adds every row's mass in pairwise
    # blocks; the measure path calls spec.rate node by node
    rng = np.random.default_rng(11)
    spec = builtin_reaction(*reaction)
    v = builtin_field("constant", [0.3], 1)
    nu = measure(np.linspace(-1.0, 1.0, 48), rng.uniform(0.2, 1.5, 48))
    tau = choose_step(spec, tv_norm(nu), SolverConfig().delta, velocity=v, cap=0.3)
    config = SolverConfig(quad_nodes=9)
    fast, slow, on_arrays = _both_paths(
        lambda: solver._fixed_point(spec, v, 0.0, tau, nu, config, shift, None))
    assert len(on_arrays) >= 4 and all(on_arrays)
    _assert_bitwise(fast, slow)


def test_uniform_rate_non_finite_raises_as_per_node_rate():
    # rates turn NaN after t = 0.1: the one rate call of an array sweep
    # raises the error the measure path's per-node rate raises
    def fn(t, m):
        return np.where(t > 0.1, np.nan, m)

    spec = dataclasses.replace(builtin_reaction("logistic", [1.0, 2.0]), rate=fn)
    v = builtin_field("constant", [0.3], 1)
    nu = measure([[0.0], [0.5]], [1.0, 0.5])
    message = "function returned non-finite values on the support"
    times, curve = _weights_curve(spec, v, nu, 0.2, 9)
    with pytest.raises(MeasureError, match=f"^{message}$"):
        solver._sweep_weights(spec, times, curve, 0.0)

    def run():
        try:
            return solver._fixed_point(spec, v, 0.0, 0.2, nu, SolverConfig(quad_nodes=9), 0.0, None)
        except MeasureError as exc:
            return type(exc), str(exc)

    fast, slow, on_arrays = _both_paths(run)
    assert on_arrays == [] and fast == slow == (MeasureError, message)


def _pruned_rows(rng, n, domain, big):
    """Two weight arrays whose difference has one row of each kind the
    row-wise distance tells apart; row ``big`` is scaled to dominate."""
    rows = 6
    old = rng.uniform(0.5, 1.0, (rows, n)) * rng.choice([-1.0, 1.0], (rows, n))
    delta = rng.uniform(1e-3, 1e-1, (rows, n))
    delta[big] *= 50.0
    tiny = rng.random((rows, n)) < 0.4
    tiny[1:4, -1], tiny[2, :2] = True, False
    delta[0] = 0.0  # node 0: every entry pruned
    alternate = (-1.0) ** np.arange(n)
    delta[2] *= alternate  # rows 1-3: one sign, mixed, one sign, with entries pruned
    delta[3] *= -1.0
    delta[4] *= alternate
    tiny[4] = tiny[5] = False  # mixed, and one sign, with nothing pruned
    delta[tiny] = rng.uniform(-4e-16, 4e-16, np.count_nonzero(tiny))
    new = old + delta
    keep = np.abs(new - old) >= 1e-15
    assert not keep[0].any() and keep[4:].all() and not keep[1:4].all(axis=1).any()
    x = np.linspace(0.05, 0.9, n)
    points = [np.sort((x + 0.01 * k) % 1.0 if domain == TORUS else x + 0.3 * k).reshape(-1, 1)
              for k in range(rows)]

    def weights(w):
        nu = DiscreteSignedMeasure(points[0], w[0], domain)
        return solver._NodeWeights(nu, points, w)

    return weights(new), weights(old)


@pytest.mark.parametrize("domain", ["euclidean", TORUS])
@pytest.mark.parametrize("n", [8, 12, 40])
def test_curve_distance_rows_match_the_measure_route_bitwise(monkeypatch, domain, n):
    # at 8 atoms or more np.sum adds in pairwise blocks, where zeroed
    # (pruned) entries would regroup it
    rng = np.random.default_rng(n)
    fm_norm, sent = solver.fm_norm, []

    def spy(mu):
        sent.append(mu.num_atoms)
        return fm_norm(mu)

    monkeypatch.setattr(solver, "fm_norm", spy)
    for big in range(1, 6):
        new, old = _pruned_rows(rng, n, domain, big)
        for tol in (1e6, 1e-12):  # every node under the TV skip, then none but node 0
            sent.clear()
            fast = solver._curve_distance(new, old, tol)
            mixed = len(sent)
            slow = solver._curve_distance(list(new), list(old), tol)
            assert type(fast) is float and np.float64(fast).tobytes() == np.float64(slow).tobytes()
            assert mixed == (0 if tol > 1 else 2)  # only rows 2 and 4 become measures


def test_step_distance_failure_names_its_node(monkeypatch):
    # linear_mass's one atom keeps its Picard distances one-signed, so the
    # first flat norm asked for is the step distance at node 1
    def failing(mu):
        raise mvt.flat_metric.FlatNormError("flat norm solve failed: HiGHS status 4: forced")

    monkeypatch.setattr(solver, "fm_norm", failing)
    sc = bundled_scenario("linear_mass")
    with pytest.raises(SolverError, match="at node 1: flat norm solve failed"):
        solve_interval(sc.reaction, sc.velocity, sc.t0, 0.1, sc.initial, sc.solver)


# --- solve_maximal ----------------------------------------------------------

def test_maximal_zero_reaction_reaches_horizon():
    v = builtin_field("rotation2d", [np.pi / 2.0], 2)
    nu = measure([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0])
    traj = solve_maximal(ZERO, v, nu, 0.0, 1.0, SolverConfig(quad_nodes=17))
    assert traj.reached_horizon and not traj.blown_up
    assert traj.final_time == pytest.approx(1.0)
    np.testing.assert_allclose(traj.tv_norm, 2.0, atol=1e-12)


def test_maximal_death_rate_global_decay():
    spec = builtin_reaction("death_rate", [1.0])
    nu = dirac(0.0, 2.0)
    traj = solve_maximal(spec, zero_field(1), nu, 0.0, 1.5, SolverConfig(quad_nodes=33))
    assert traj.reached_horizon
    assert traj.final_measure.total_mass == pytest.approx(2.0 * np.exp(-1.5), abs=1e-5)


def test_maximal_logistic_closed_form():
    r, K, m0 = 1.0, 2.0, 0.5
    spec = builtin_reaction("logistic", [r, K])
    traj = solve_maximal(
        spec, zero_field(1), dirac(0.0, m0), 0.0, 1.0, SolverConfig(quad_nodes=65)
    )
    for t, m in zip(traj.times, traj.measures):
        exact = K * m0 * np.exp(r * t) / (K + m0 * (np.exp(r * t) - 1.0))
        assert m.total_mass == pytest.approx(exact, abs=1e-4 * m0)


def test_maximal_riccati_blowup_flagged():
    # m' = m^2 from m0 = 4 blows up at t* = 0.25; a low threshold keeps
    # the run short while still demonstrating detection before t*
    m0 = 4.0
    spec = builtin_reaction("mass_rate", [1.0])
    config = SolverConfig(delta=m0, quad_nodes=9, picard_tol=1e-9, tv_blowup_threshold=20.0 * m0)
    traj = solve_maximal(spec, zero_field(1), dirac(0.0, m0), 0.0, 0.5, config)
    assert traj.blown_up and not traj.reached_horizon
    assert traj.blowup_time == traj.final_time
    t_star = 1.0 / m0
    assert traj.final_time < t_star
    # detection happens close to the threshold-crossing of the true law
    t_thresh = t_star - 1.0 / (20.0 * m0)
    assert traj.final_time == pytest.approx(t_thresh, rel=0.05)
    assert float(traj.tv_norm[-1]) >= 20.0 * m0
    # ...and the trajectory ends at the first crossing
    assert np.all(traj.tv_norm[:-1] <= 20.0 * m0)


def test_maximal_density_blowup_flagged(monkeypatch):
    # the density L^2 norm grows like e^{1.2 t} and crosses a lowered
    # threshold 2 max(||u0||, 1) inside the fourth interval
    monkeypatch.setattr("mvt.solver._LP_BLOWUP_FACTOR", 2.0)
    spec = builtin_reaction("linear_rate", [1.2], domain_volume=2.0)
    u0 = uniform_density([-1.0], [1.0], 16, 0.75, 2.0)
    config = SolverConfig(quad_nodes=9, max_interval_tau=0.15, tv_blowup_threshold=1e9)
    traj = solve_maximal(
        spec, zero_field(1), quantize(u0), 0.0, 1.0, config, initial_density=u0
    )
    threshold = 2.0 * max(lp_norm(u0), 1.0)
    assert traj.density_blown_up and not traj.blown_up
    assert not traj.reached_horizon and traj.blowup_time is None
    assert traj.density_blowup_time == traj.final_time
    assert traj.final_time > 3 * 0.15
    assert traj.final_time == pytest.approx(np.log(2.0) / 1.2, abs=0.02)
    assert len(traj.densities) == len(traj.times)
    assert traj.lp_norm[-1] > threshold
    assert np.all(traj.lp_norm[:-1] <= threshold)


def test_death_rate_co_evolves_a_density():
    # f = -a u on a still density: the L^p norm decays like e^{-a t} up
    # to the trapezoid's relative error a^3 ds^2 t / 12 (1.2e-4 at ds =
    # 1/48), and the density's mass is the atoms' mass
    a = 1.5
    spec = builtin_reaction("death_rate", [a])
    u0 = uniform_density([-1.0], [1.0], 16, 0.75, 2.0)
    config = SolverConfig(quad_nodes=17)
    traj = solve_maximal(spec, zero_field(1), quantize(u0), 0.0, 1.0, config, initial_density=u0)
    assert traj.reached_horizon and len(traj.densities) == len(traj.times)
    exact = lp_norm(u0) * np.exp(-a * traj.times)
    np.testing.assert_allclose(traj.lp_norm, exact, rtol=2e-4, atol=0.0)
    for mu, u in zip(traj.measures, traj.densities):
        assert mass(u) == pytest.approx(mu.total_mass, rel=1e-12)


def test_density_needs_a_production_density():
    spec = builtin_reaction("dirac_source", [0.5, 0.7])
    u0 = uniform_density([-1.0], [1.0], 8, 0.75, 2.0)
    with pytest.raises(SolverError, match="'dirac_source' has no production density"):
        solve_maximal(spec, zero_field(1), dirac(0.2, 1.0), 0.0, 0.5, SolverConfig(),
                      initial_density=u0)


def test_maximal_max_interval_tau_restarts():
    spec = builtin_reaction("linear_rate", [2.0])
    config = SolverConfig(quad_nodes=65, max_interval_tau=0.1)
    traj = solve_maximal(spec, zero_field(1), dirac(0.2, 1.5), 0.0, 0.5, config)
    # five forced restarts of 64 panels each, sharing endpoints
    assert len(traj.times) == 5 * 64 + 1
    assert traj.reached_horizon


def test_maximal_equals_hand_chained_intervals():
    # solve_maximal restarts at each interval's final node; chaining
    # solve_interval by hand, counting each boundary node once, must
    # reproduce it bit for bit, densities included
    spec = builtin_reaction("linear_rate", [2.0], domain_volume=2.0)
    v = zero_field(1)
    nu = dirac(0.2, 1.5)
    u0 = uniform_density([-1.0], [1.0], 8, 0.75, 2.0)
    horizon, cap = 0.3, 0.1
    config = SolverConfig(quad_nodes=9, max_interval_tau=cap)
    traj = solve_maximal(spec, v, nu, 0.0, horizon, config, initial_density=u0)

    segs = []
    t, mu, u = 0.0, nu, u0
    while horizon - t > 1e-12:
        tau = min(cap, horizon - t)
        assert choose_step(spec, tv_norm(mu), config.delta, velocity=v, t0=t, cap=tau) == tau
        seg = solve_interval(spec, v, t, tau, mu, config, initial_density=u)
        segs.append(seg)
        t, mu, u = seg.final_time, seg.final_measure, seg.densities[-1]
    assert len(segs) >= 3
    assert traj.reached_horizon

    def chained(name):
        first = list(getattr(segs[0], name))
        return first + [x for seg in segs[1:] for x in list(getattr(seg, name))[1:]]

    for name in ("times", "tv_norm", "neg_part_tv", "fm_step_distance",
                 "picard_iters", "contraction_ratio", "lp_norm"):
        expected = np.array(chained(name))
        assert getattr(traj, name).dtype == expected.dtype, name
        assert np.array_equal(getattr(traj, name), expected), name
    measures, densities = chained("measures"), chained("densities")
    assert len(traj.measures) == len(measures) == len(traj.times)
    for a, b in zip(traj.measures, measures):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)
    assert len(traj.densities) == len(densities)
    for a, b in zip(traj.densities, densities):
        assert np.array_equal(a.values, b.values)


def test_maximal_failure_keeps_finished_intervals(monkeypatch):
    spec = builtin_reaction("linear_rate", [2.0])
    config = SolverConfig(quad_nodes=9, max_interval_tau=0.1)
    nu = dirac(0.2, 1.5)
    first = solve_interval(spec, zero_field(1), 0.0, 0.1, nu, config)
    fail_fixed_point_on_call(monkeypatch, 2)
    with pytest.raises(NonContractionError) as err:
        solve_maximal(spec, zero_field(1), nu, 0.0, 0.5, config)
    partial = err.value.partial
    assert not partial.reached_horizon
    _assert_bitwise(partial, first)


def test_maximal_failure_in_first_interval_keeps_nothing(monkeypatch):
    fail_fixed_point_on_call(monkeypatch, 1)
    with pytest.raises(NonContractionError) as err:
        solve_maximal(ZERO, zero_field(1), dirac(0.0), 0.0, 0.5, SolverConfig())
    assert err.value.partial is None


def test_maximal_rejects_bad_horizon():
    with pytest.raises(ValueError):
        solve_maximal(ZERO, zero_field(1), dirac(0.0), 1.0, 1.0, SolverConfig())


def test_curve_distance_names_the_node_whose_lp_fails(monkeypatch):
    """The node whose LP fails is named, and no later node is solved."""
    rng = np.random.default_rng(5)
    # rows of -1, +2, ..., +2, -1 at spacing 0.1: each heavy inner atom needs
    # both neighbours, so no matched pair certifies a block and each reaches the LP
    new = []
    for n in (3, 3, 5, 3):
        w = 2.0 * (-1.0) ** np.arange(1, n + 1)
        w[[0, -1]] = -1.0
        new.append(measure(rng.uniform(-1.0, 1.0, size=2) + 0.1 * np.outer(np.arange(n), [1.0, 0.0]), w))
    old = [empty_measure(2)] * len(new)
    milp, sizes = mvt.flat_metric.milp, []

    def failing_milp(c, **kwargs):  # the 5-atom block fails
        sizes.append(c.size)
        res = milp(c, **kwargs)
        if c.size != 3:
            res.status = 4
        return res

    monkeypatch.setattr(mvt.flat_metric, "milp", failing_milp)
    with pytest.raises(SolverError, match="at node 2: flat norm solve failed: HiGHS status 4:"):
        solver._curve_distance(new, old, 1e-8)
    assert sizes == [3, 3, 5]
