"""Flow maps: RK4 order, semigroup law, and the certified bounds."""
import dataclasses

import numpy as np
import pytest

from mvt.flow import (
    advect,
    advect_with_logjac,
    default_step,
    divergence_of,
    jacobian_band,
    jacobian_det,
    lipschitz_bound,
    simpson_integral,
)
from mvt.geometry import EUCLIDEAN, TORUS, distance, wrap_torus
from mvt.grids import uniform_density
from mvt.measures import DiscreteSignedMeasure, measure
from mvt.transport import backward_characteristics, pushforward_measure
from mvt.velocity import FIELD_NAMES, VelocityField, builtin_field, zero_field


def _rk4_error_linear(h: float) -> float:
    v = builtin_field("linear", [0.7], 1)
    x0 = np.array([[1.0], [-0.5], [2.0]])
    moved = advect(v, 0.0, 1.0, x0, h)
    exact = np.exp(0.7) * x0
    return float(np.max(np.abs(moved - exact)))


def _rk4_error_rotation(h: float) -> float:
    v = builtin_field("rotation2d", [1.0], 2)
    x0 = np.array([[1.0, 0.0], [0.0, 2.0]])
    theta = 1.0
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    moved = advect(v, 0.0, 1.0, x0, h)
    exact = x0 @ rot.T
    return float(np.max(np.linalg.norm(moved - exact, axis=1)))


@pytest.mark.parametrize("err_fn", [_rk4_error_linear, _rk4_error_rotation])
def test_rk4_fourth_order(err_fn):
    # halving the step must shrink the error by ~2^4
    coarse, fine = err_fn(0.1), err_fn(0.05)
    assert fine > 0.0
    assert 12.0 <= coarse / fine <= 20.0


def test_semigroup_on_aligned_grids():
    v = builtin_field("time_oscillating", [0.8, 0.5, 1.0, -0.3], 2)
    x0 = np.array([[0.2, -0.1], [1.0, 0.4]])
    direct = advect(v, 0.0, 1.0, x0, 0.125)
    via = advect(v, 0.5, 1.0, advect(v, 0.0, 0.5, x0, 0.125), 0.125)
    np.testing.assert_allclose(via, direct, atol=1e-13)


def test_backward_forward_inversion():
    v = builtin_field("shear", [0.5], 2)
    x0 = np.array([[0.3, 0.7], [-0.2, 0.1]])
    there = advect(v, 0.0, 1.0, x0, 0.01)
    back = advect(v, 1.0, 0.0, there, 0.01)
    np.testing.assert_allclose(back, x0, atol=1e-10)


def test_advect_empty_and_zero_field():
    assert advect(zero_field(2), 0.0, 1.0, np.zeros((0, 2)), 0.1).shape == (0, 2)
    x0 = np.array([[0.4, 0.6]])
    np.testing.assert_array_equal(advect(zero_field(2), 0.0, 1.0, x0, 0.1), x0)


def _counted(v):
    calls = []

    def eval_(t, x):
        calls.append(t)
        return v.eval(t, x)

    return dataclasses.replace(v, eval=eval_), calls


@pytest.mark.parametrize("domain", [EUCLIDEAN, TORUS])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_field_flow_is_identity_without_evaluating(dim, domain):
    # The zero field's map is bitwise RK4's image under a constant field of
    # speed 0: -0.0 becomes 0.0 on a forward step and stays -0.0 backward.
    rng = np.random.default_rng(dim)
    x0 = rng.uniform(0.0, 1.0, size=(5, dim))
    x0[0, :] = -0.0
    x0[1, -1] = -0.0
    zero, zero_calls = _counted(zero_field(dim))
    const, const_calls = _counted(builtin_field("constant", [0.0] * dim, dim))
    mu = DiscreteSignedMeasure(x0, np.ones(5), domain)
    grid = uniform_density([0.0] * dim, [1.0] * dim, 4, 1.0, 2.0, domain)
    for t_to in (1.0, -0.35):
        want, want_lj = advect_with_logjac(const, 0.0, t_to, x0, 0.1, domain)
        image, logjac = zero.flow_map(0.0, t_to, x0)
        image = wrap_torus(image) if domain == TORUS else image
        assert image.tobytes() == want.tobytes()
        assert logjac.tobytes() == want_lj.tobytes() == np.zeros(5).tobytes()
        moved = pushforward_measure(zero, 0.0, t_to, mu).points
        assert moved.tobytes() == advect(const, 0.0, t_to, x0, 0.1, domain).tobytes()
        feet, jac = backward_characteristics(zero, t_to, 0.0, grid)
        want_feet = advect(const, 0.0, t_to, grid.center_points(), 0.1, domain)
        assert feet.tobytes() == want_feet.tobytes()
        assert np.all(jac == 1.0)
    assert zero_calls == [] and len(const_calls) > 0


@pytest.mark.parametrize("domain", [EUCLIDEAN, TORUS])
def test_zero_field_shortcut_matches_rk4_bitwise(domain):
    # -0.0 becomes 0.0 on a forward RK4 step and stays -0.0 backward.
    x0 = np.array([[-0.0, 0.25], [0.5, -0.0], [0.75, 0.125]])
    const = builtin_field("constant", [0.0, 0.0], 2)
    for t_to in (1.0, -0.35, 0.0):
        want = advect(const, 0.0, t_to, x0, 0.1, domain)
        want_lj = advect_with_logjac(const, 0.0, t_to, x0, 0.1, domain)
        got_lj = advect_with_logjac(zero_field(2), 0.0, t_to, x0, 0.1, domain)
        assert advect(zero_field(2), 0.0, t_to, x0, 0.1, domain).tobytes() == want.tobytes()
        assert got_lj[0].tobytes() == want_lj[0].tobytes()
        assert got_lj[1].tobytes() == want_lj[1].tobytes()


_BUILTINS = [
    ("zero", [], 1),
    ("constant", [0.3, -0.7], 2),
    ("constant", [0.4, -0.2, 0.9], 3),
    ("linear", [0.6], 2),
    ("linear", [-0.5], 3),
    ("rotation2d", [1.3, 0.2, -0.1], 2),
    ("shear", [0.5], 2),
    ("time_oscillating", [0.8, 0.5, 1.0, -0.3], 2),
    ("time_oscillating", [1.1, 0.3, 0.7], 1),
]
_ON_DOMAINS = [(*case, domain) for case in _BUILTINS for domain in (EUCLIDEAN, TORUS)
               if domain == EUCLIDEAN or builtin_field(*case).torus_compatible]


def test_every_builtin_has_a_flow_map():
    assert {case[0] for case in _BUILTINS} == set(FIELD_NAMES)
    assert all(builtin_field(*case).flow_map is not None for case in _BUILTINS)


@pytest.mark.parametrize("s, t", [(0.1, 0.8), (0.8, -0.1)])
@pytest.mark.parametrize("name, params, dim, domain", _ON_DOMAINS)
def test_flow_map_matches_rk4(name, params, dim, domain, s, t):
    # Forward and backward, with the log-Jacobian (d*a*(t - s) for linear).
    v = builtin_field(name, params, dim)
    x0 = np.random.default_rng(dim).uniform(0.0, 1.0, size=(6, dim))
    want, want_lj = advect_with_logjac(v, s, t, x0, 1e-3, domain)
    image, logjac = v.flow_map(s, t, x0)
    image = wrap_torus(image) if domain == TORUS else image
    assert float(np.max(distance(image, want, domain))) <= 1e-10
    np.testing.assert_allclose(logjac, want_lj, rtol=0.0, atol=1e-10)
    mu = measure(x0, np.ones(6), domain)
    moved = pushforward_measure(v, s, t, mu).points
    want = advect(v, s, t, mu.points, 1e-3, domain)
    assert float(np.max(distance(moved, want, domain))) <= 1e-10
    grid = uniform_density([0.0] * dim, [1.0] * dim, 3, 1.0, 2.0, domain)
    feet, jac = backward_characteristics(v, s, t, grid)
    want_feet, want_lj = advect_with_logjac(v, t, s, grid.center_points(), 1e-3, domain)
    assert float(np.max(distance(feet, want_feet, domain))) <= 1e-10
    np.testing.assert_allclose(jac, np.exp(want_lj), rtol=1e-10)


def test_linear_logjac_equals_rk4():
    v = builtin_field("linear", [0.8], 2)
    x0 = np.array([[0.3, -1.0], [2.0, 0.5]])
    for s, t in ((0.0, 1.0), (1.0, 0.0), (0.2, 0.45)):
        _, want = advect_with_logjac(v, s, t, x0, 1e-3)
        _, logjac = v.flow_map(s, t, x0)
        np.testing.assert_allclose(logjac, want, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(logjac, 1.6 * (t - s), rtol=1e-12)


@pytest.mark.parametrize("name, params, dim", _BUILTINS)
def test_flow_map_inverts_backward(name, params, dim):
    v = builtin_field(name, params, dim)
    x0 = np.random.default_rng(7).uniform(-2.0, 2.0, size=(8, dim))
    there, logjac = v.flow_map(0.25, 1.9, x0)
    back, logjac_back = v.flow_map(1.9, 0.25, there)
    np.testing.assert_allclose(back, x0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(logjac + logjac_back, 0.0, atol=1e-12)


@pytest.mark.parametrize("name, params, dim", _BUILTINS)
def test_transport_never_evaluates_builtin_fields(name, params, dim):
    v, calls = _counted(builtin_field(name, params, dim))
    domain = TORUS if v.torus_compatible else EUCLIDEAN
    mu = measure(np.random.default_rng(3).uniform(0.0, 1.0, size=(6, dim)), np.ones(6), domain)
    grid = uniform_density([0.0] * dim, [1.0] * dim, 5, 1.0, 2.0, domain)
    for s, t in ((0.0, 0.7), (0.7, 0.0)):
        pushforward_measure(v, s, t, mu)
        backward_characteristics(v, s, t, grid)
    assert calls == []


def test_torus_wrapping():
    v = builtin_field("constant", [0.5], 1)
    moved = advect(v, 0.0, 1.5, np.array([[0.5]]), 0.1, domain=TORUS)
    assert moved[0, 0] == pytest.approx(0.25)


def test_lipschitz_quotients_shear():
    v = builtin_field("shear", [0.5], 2)
    bound = lipschitz_bound(v, 0.0, 1.0)
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(1000, 2))
    b = rng.uniform(-1.0, 1.0, size=(1000, 2))
    fa = advect(v, 0.0, 1.0, a, 0.01)
    fb = advect(v, 0.0, 1.0, b, 0.01)
    quot = np.linalg.norm(fa - fb, axis=1) / np.linalg.norm(a - b, axis=1)
    assert float(quot.max()) <= bound * 1.001


def test_lipschitz_bound_rejects_reversed_times():
    with pytest.raises(ValueError):
        lipschitz_bound(zero_field(1), 1.0, 0.0)


def test_jacobian_linear_1d_closed_form():
    v = builtin_field("linear", [0.8], 1)
    det = jacobian_det(v, 0.0, 1.0, np.array([0.3]))
    assert det == pytest.approx(np.exp(0.8), abs=1e-6)
    lo, hi = jacobian_band(v, 0.0, 1.0)
    assert lo * (1.0 - 1e-4) <= det <= hi * (1.0 + 1e-4)


def test_jacobian_divergence_free_is_one():
    for name, params in (("rotation2d", [1.3]), ("shear", [0.7])):
        v = builtin_field(name, params, 2)
        det = jacobian_det(v, 0.0, 1.0, np.array([0.5, -0.2]))
        assert det == pytest.approx(1.0, abs=1e-10)
        assert jacobian_band(v, 0.0, 1.0) == (1.0, 1.0)


def test_jacobian_contracting_field():
    v = builtin_field("linear", [-0.5], 2)  # div = -1.0
    det = jacobian_det(v, 0.0, 2.0, np.array([1.0, 1.0]))
    assert det == pytest.approx(np.exp(-2.0), rel=1e-6)
    lo, hi = jacobian_band(v, 0.0, 2.0)
    assert lo == pytest.approx(np.exp(-2.0)) and hi == 1.0


def test_backward_logjac_negates():
    v = builtin_field("linear", [0.8], 1)
    _, logjac = advect_with_logjac(v, 1.0, 0.0, np.array([[0.3]]), 0.001)
    assert logjac[0] == pytest.approx(-0.8, abs=1e-8)


def test_divergence_finite_difference_fallback():
    # a field without an explicit divergence callable falls back to
    # central differences of eval
    raw = builtin_field("linear", [0.6], 2)
    v = VelocityField(
        eval=raw.eval,
        sup_rate=raw.sup_rate,
        lip_rate=raw.lip_rate,
        dim=2,
    )
    x = np.array([[0.3, -0.4], [1.0, 2.0]])
    fd = divergence_of(v, 0.0, x, EUCLIDEAN)
    np.testing.assert_allclose(fd, 1.2, atol=1e-6)


def _periodic_field(dim: int) -> VelocityField:
    """A hand-built nonlinear field with no divergence callable or flow map."""
    return VelocityField(
        eval=lambda t, x: (1.0 + t) * np.sin(2.0 * np.pi * x[:, ::-1]) + 0.1 * np.cos(x),
        sup_rate=lambda t: 2.0 + t,
        lip_rate=lambda t: 2.0 * np.pi * (1.0 + t) + 0.1,
        dim=dim,
    )


@pytest.mark.parametrize("domain", [EUCLIDEAN, TORUS])
@pytest.mark.parametrize("field", [
    _periodic_field(1),
    _periodic_field(2),
    dataclasses.replace(builtin_field("rotation2d", [1.3, 0.2, -0.1], 2), flow_map=None),
    dataclasses.replace(builtin_field("time_oscillating", [0.8, 0.7, 0.3, -0.4], 2), flow_map=None),
], ids=["handbuilt-1d", "handbuilt-2d", "rotation2d", "time_oscillating"])
def test_advect_is_the_image_of_advect_with_logjac_bitwise(field, domain):
    # one RK4 loop serves both; advect skips only the divergence stages
    x0 = np.random.default_rng(field.dim).uniform(0.0, 1.0, size=(7, field.dim))
    for t_from, t_to in ((0.1, 0.83), (0.83, 0.1)):
        image = advect(field, t_from, t_to, x0, 0.03, domain)
        via_logjac, _ = advect_with_logjac(field, t_from, t_to, x0, 0.03, domain)
        assert image.tobytes() == via_logjac.tobytes()


def test_displacement_bound_is_speed_sup():
    v = builtin_field("time_oscillating", [2.0, 1.0, 1.0], 1)
    assert v.sup_bound(0.0, 1.0) == pytest.approx(2.0)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, size=(50, 1))
    for t in (0.3, 0.7, 1.0):
        moved = advect(v, 0.0, t, x0, 0.01)
        disp = float(np.max(np.abs(moved - x0)))
        assert disp <= v.sup_bound(0.0, t) * t * 1.001


def test_oscillating_sup_bound_holds_between_samples():
    # |sin| peaks at t = 0.03075, between the 1025 samples of [0, 1].
    v = builtin_field("time_oscillating", [1.0, 0.123, 1.0], 1)
    assert abs(v(0.03075, np.zeros((1, 1)))[0, 0]) == pytest.approx(1.0)
    assert v.sup_bound(0.0, 1.0) >= 1.0


def test_simpson_exact_for_cubics():
    val = simpson_integral(lambda t: t ** 3 - 2.0 * t, 0.0, 2.0, panels=2)
    assert val == pytest.approx(4.0 - 4.0, abs=1e-12)


def test_default_step_positive_and_capped():
    assert 0.0 < default_step(1.0) <= 1.0
    assert default_step(1e-6) <= 1e-6
