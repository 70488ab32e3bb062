"""Flow maps: RK4 order, semigroup law, and the certified bounds."""
import dataclasses

import numpy as np
import pytest

from mvt.flow import (
    advect,
    advect_with_logjac,
    default_step,
    divergence_of,
    flow_displacement_bound,
    jacobian_band,
    jacobian_det,
    lipschitz_bound,
    simpson_integral,
)
from mvt.geometry import EUCLIDEAN, TORUS
from mvt.velocity import VelocityField, builtin_field, zero_field


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
    rng = np.random.default_rng(dim)
    x0 = rng.uniform(0.0, 1.0, size=(5, dim))
    zero, zero_calls = _counted(zero_field(dim))
    for t_to in (1.0, -0.35, 0.0):
        moved = advect(zero, 0.0, t_to, x0, 0.1, domain)
        moved_lj, logjac = advect_with_logjac(zero, 0.0, t_to, x0, 0.1, domain)
        for out in (moved, moved_lj):
            assert out.tobytes() == x0.tobytes()
            assert not np.shares_memory(out, x0)
        assert logjac.tobytes() == np.zeros(5).tobytes()
    assert zero_calls == []
    # A constant field of speed 0 is not flagged: it still runs RK4.
    const, const_calls = _counted(builtin_field("constant", [0.0] * dim, dim))
    assert not const.identity_flow
    np.testing.assert_array_equal(advect(const, 0.0, 1.0, x0, 0.1, domain), x0)
    assert len(const_calls) == 40


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


def test_displacement_bound_is_speed_sup():
    v = builtin_field("time_oscillating", [2.0, 1.0, 1.0], 1)
    assert flow_displacement_bound(v, 0.0, 1.0) == pytest.approx(2.0)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, size=(50, 1))
    for t in (0.3, 0.7, 1.0):
        moved = advect(v, 0.0, t, x0, 0.01)
        disp = float(np.max(np.abs(moved - x0)))
        assert disp <= flow_displacement_bound(v, 0.0, t) * t * 1.001


def test_simpson_exact_for_cubics():
    val = simpson_integral(lambda t: t ** 3 - 2.0 * t, 0.0, 2.0, panels=2)
    assert val == pytest.approx(4.0 - 4.0, abs=1e-12)


def test_default_step_positive_and_capped():
    assert 0.0 < default_step(1.0) <= 1.0
    assert default_step(1e-6) <= 1e-6
