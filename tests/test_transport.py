"""Push-forward operators and their certified norm bounds."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_positive, random_signed
from mvt.flat_metric import fm_norm
from mvt.flow import (
    advect,
    advect_with_logjac,
    default_step,
    lipschitz_bound,
)
from mvt.grids import gaussian_density, interpolate, lp_norm, mass, uniform_density, with_values
from mvt.measures import linear_combine, measure, tv_norm
from mvt.transport import (
    backward_characteristics,
    conjugate_exponent,
    lp_growth_factor,
    lp_transport_bound,
    pushforward_measure,
    transported_values,
)
from mvt.velocity import VelocityField, builtin_field


def test_pushforward_translation_exact():
    v = builtin_field("constant", [0.5, -0.25], 2)
    mu = measure([[0.0, 0.0], [1.0, 1.0]], [1.0, -2.0])
    out = pushforward_measure(v, 0.0, 2.0, mu)
    np.testing.assert_allclose(out.points, mu.points + np.array([1.0, -0.5]), atol=1e-12)
    np.testing.assert_array_equal(out.weights, mu.weights)


def test_field_without_flow_map_pushes_by_rk4():
    # a hand-built field has no exact map: both transports are RK4 at
    # default_step(t - s), bit for bit
    v = dataclasses.replace(builtin_field("constant", [0.3], 1), flow_map=None)
    s, t = 0.1, 0.35
    h = default_step(t - s)
    mu = measure([[-0.5], [0.4]], [1.0, 0.5])
    np.testing.assert_array_equal(
        pushforward_measure(v, s, t, mu).points, advect(v, s, t, mu.points, h, mu.domain)
    )
    grid = uniform_density([-1.0], [1.0], 16, 0.75, 2.0)
    feet, jac = backward_characteristics(v, s, t, grid)
    ref_feet, ref_logjac = advect_with_logjac(v, t, s, grid.center_points(), h, grid.domain)
    np.testing.assert_array_equal(feet, ref_feet)
    np.testing.assert_array_equal(jac, np.exp(ref_logjac))


def test_pushforward_preserves_mass_tv_positivity(rng):
    v = builtin_field("shear", [0.7], 2)
    mu = random_positive(rng, 6, 2)
    out = pushforward_measure(v, 0.0, 1.3, mu)
    assert out.total_mass == pytest.approx(mu.total_mass)
    assert tv_norm(out) == pytest.approx(tv_norm(mu))
    assert out.is_positive()


def test_pushforward_empty():
    from mvt.measures import empty_measure

    v = builtin_field("linear", [1.0], 1)
    assert pushforward_measure(v, 0.0, 1.0, empty_measure(1)).num_atoms == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["shear", "rotation2d"]))
def test_operator_norm_bound(seed, field_name):
    # ||P_{s,t} mu|| <= L^v_{s,t} ||mu|| in the flat norm
    rng = np.random.default_rng(seed)
    v = builtin_field(field_name, [0.8], 2)
    mu = random_signed(rng, 5, 2)
    t = float(rng.uniform(0.1, 1.5))
    lhs = fm_norm(pushforward_measure(v, 0.0, t, mu)).value
    rhs = lipschitz_bound(v, 0.0, t) * fm_norm(mu).value
    assert lhs <= rhs * 1.001


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_operator_norm_reverse_route(seed):
    """Lower route: the inverse flow gives fm(mu) <= L^v fm(P mu) too."""
    rng = np.random.default_rng(seed)
    v = builtin_field("shear", [0.8], 2)
    mu = random_signed(rng, 4, 2)
    moved = pushforward_measure(v, 0.0, 1.0, mu)
    back = lipschitz_bound(v, 0.0, 1.0) * fm_norm(moved).value
    assert fm_norm(mu).value <= back * 1.001


def test_time_lipschitz_of_motions(rng):
    # fm(P_{t0,t} mu - P_{t0,s} mu) <= C'_I ||mu||_TV |t - s|
    v = builtin_field("rotation2d", [1.0, 0.0, 0.0, 2.0], 2)  # radius cert 2
    mu = random_signed(rng, 5, 2, span=1.0)
    rate = v.sup_bound(0.0, 1.0)
    times = np.linspace(0.0, 1.0, 6)
    for s in times:
        at_s = pushforward_measure(v, 0.0, float(s), mu)
        for t in times:
            if t <= s:
                continue
            at_t = pushforward_measure(v, 0.0, float(t), mu)
            gap = fm_norm(linear_combine(1.0, at_t, -1.0, at_s)).value
            assert gap <= rate * tv_norm(mu) * (t - s) * 1.01


def _transport_density(v, s, t, u):
    """Semi-Lagrangian transport of u from s to t, as the solver's density panels do it."""
    return with_values(u, transported_values(u, *backward_characteristics(v, s, t, u)))


def test_density_transport_rotation_moves_peak():
    u = gaussian_density([-2.0, -2.0], [2.0, 2.0], 96, 0.4, [1.0, 0.0], 2.0)
    v = builtin_field("rotation2d", [np.pi / 2.0], 2)
    out = _transport_density(v, 0.0, 1.0, u)  # quarter turn: peak to (0, 1)
    assert interpolate(out, np.array([[0.0, 1.0]]))[0] == pytest.approx(
        interpolate(u, np.array([[1.0, 0.0]]))[0], rel=2e-2
    )
    assert mass(out) == pytest.approx(mass(u), rel=1e-2)
    # divergence-free: L^2 norm preserved up to grid error
    assert lp_norm(out) == pytest.approx(lp_norm(u), rel=2e-2)


def test_density_transport_contraction_closed_form():
    # v = a x with a < 0: ||u_t||_p = e^{-a t / q} ||u_0||_p exactly,
    # which meets the certified growth factor with equality
    a, t, p = -0.8, 0.5, 2.0
    u = gaussian_density([-3.0], [3.0], 512, 0.5, [0.0], p)
    v = builtin_field("linear", [a], 1)
    out = _transport_density(v, 0.0, t, u)
    factor = lp_growth_factor(v, 0.0, t, p)
    assert factor == pytest.approx(np.exp(-a * t / 2.0))
    ratio = lp_norm(out) / lp_norm(u)
    assert ratio == pytest.approx(factor, rel=2e-2)
    assert lp_norm(out) <= lp_transport_bound(v, 0.0, t, lp_norm(u), p) * 1.02
    assert mass(out) == pytest.approx(mass(u), rel=1e-2)


def test_density_transport_expansion_keeps_bound():
    u = gaussian_density([-3.0], [3.0], 512, 0.5, [0.0], 2.0)
    v = builtin_field("linear", [0.6], 1)
    out = _transport_density(v, 0.0, 0.5, u)
    # positive divergence: certified factor is 1, norm must not grow
    assert lp_growth_factor(v, 0.0, 0.5, 2.0) == 1.0
    assert lp_norm(out) <= lp_norm(u) * 1.01


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(np.inf) == 1.0
    assert conjugate_exponent(1.5) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)


def test_lp_growth_factor_needs_divergence_cert():
    bare = VelocityField(
        eval=lambda t, x: np.zeros_like(x),
        sup_rate=lambda t: 0.0,
        lip_rate=lambda t: 0.0,
        dim=1,
    )
    with pytest.raises(ValueError):
        lp_growth_factor(bare, 0.0, 1.0, 2.0)
