"""Reaction terms f_t(mu) = p_t(mu) + F_t(mu).mu and their certificates."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_positive
from mvt import flat_metric
from mvt.flat_metric import fm_norm
from mvt.grids import lp_norm, quantize, uniform_density
from mvt.measures import (
    WEIGHT_EPS,
    MeasureError,
    dirac,
    empty_measure,
    linear_combine,
    measure,
    negative_part_tv,
    tv_norm,
)
from mvt.reactions import (
    REACTION_NAMES,
    ReactionContractError,
    ReactionSpec,
    builtin_reaction,
    eval_density_reaction,
    eval_reaction,
    verify_assumptions,
)
from mvt.flat_metric import fm_distance


UNIFORM_RATES = [("linear_rate", [1.5]), ("logistic", [1.0, 2.0]), ("death_rate", [0.8]),
                 ("death_rate", [0.0]), ("mass_rate", [0.6])]


@pytest.mark.parametrize("name,params", UNIFORM_RATES)
def test_uniform_rate_is_the_rate_bitwise(name, params):
    # one call on all (time, mass) pairs gives each measure's scalar rate,
    # bit for bit, and eval_reaction scales the weights by it
    spec = builtin_reaction(name, params)
    rng = np.random.default_rng(3)
    mus = [measure(rng.uniform(-1.0, 1.0, (n, 1)), rng.normal(0.0, 1.0, n))
           for n in (1, 3, 9, 40)]
    times = rng.uniform(0.0, 1.0, len(mus))
    masses = np.array([mu.total_mass for mu in mus])
    rates = np.broadcast_to(spec.rate(times, masses), (len(mus),))
    for t, mu, r in zip(times, mus, rates):
        rate = spec.rate(float(t), mu.total_mass)
        assert np.float64(rate).tobytes() == r.tobytes()
        out = eval_reaction(spec, float(t), mu)
        scaled = mu.weights * rate
        keep = np.abs(scaled) >= WEIGHT_EPS
        assert out.weights.tobytes() == scaled[keep].tobytes()
        assert out.points.tobytes() == mu.points[keep].tobytes()


def test_uniform_rate_only_on_rates_constant_in_space():
    for name, params in [("zero", []), ("dirac_source", [0.3, 0.0]),
                         ("smoothed_source", [0.5, 0.1, 0.0])]:
        assert builtin_reaction(name, params).rate is None


def test_builtin_names_complete():
    for name in REACTION_NAMES:
        spec = builtin_reaction(name, {
            "zero": [],
            "linear_rate": [1.0],
            "logistic": [1.0, 2.0],
            "death_rate": [0.5],
            "dirac_source": [0.3, 0.0],
            "smoothed_source": [0.5, 0.1, 0.0],
            "mass_rate": [1.0],
        }[name])
        assert spec.name == name


def test_builtin_rejects_unknown_and_bad_arity():
    with pytest.raises(ValueError):
        builtin_reaction("nope", [])
    with pytest.raises(ValueError):
        builtin_reaction("logistic", [1.0])
    with pytest.raises(ValueError):
        builtin_reaction("linear_rate", [])


def test_zero_reaction():
    spec = builtin_reaction("zero", [])
    mu = dirac(0.0, 2.0)
    assert eval_reaction(spec, 0.0, mu).num_atoms == 0
    assert spec.c_f(5.0) == 0.0 and spec.l_f(5.0) == 0.0
    u = uniform_density([0.0], [1.0], 8, 0.5, 2.0)
    assert np.all(eval_density_reaction(spec, 0.0, u).values == 0.0)


def test_linear_rate_is_c_mu():
    spec = builtin_reaction("linear_rate", [2.0])
    mu = measure([[0.0], [1.0]], [1.0, -0.5])
    out = eval_reaction(spec, 0.3, mu)
    np.testing.assert_allclose(out.weights, 2.0 * mu.weights)
    np.testing.assert_array_equal(out.points, mu.points)
    assert spec.c_f(3.0) == pytest.approx(6.0)
    assert spec.c_pos(3.0, 1.0) == pytest.approx(2.0)


def test_logistic_equilibrium_at_capacity():
    spec = builtin_reaction("logistic", [1.0, 2.0])
    at_cap = dirac(0.0, 2.0)  # total mass K
    assert eval_reaction(spec, 0.0, at_cap).num_atoms == 0
    growing = dirac(0.0, 1.0)
    out = eval_reaction(spec, 0.0, growing)
    # r m (1 - m/K) = 1 * 1 * 0.5
    assert out.total_mass == pytest.approx(0.5)
    assert spec.c_pos(3.0, 1.0) == pytest.approx(1.0 * (1.0 + 3.0 / 2.0))


def test_death_rate_drains():
    spec = builtin_reaction("death_rate", [0.7])
    mu = dirac(1.0, 2.0)
    out = eval_reaction(spec, 0.0, mu)
    assert out.total_mass == pytest.approx(-1.4)
    assert spec.production is None
    assert spec.production_density is None
    u = uniform_density([0.0], [1.0], 8, 0.5, 2.0)
    du = eval_density_reaction(spec, 0.0, u)
    assert lp_norm(du) == pytest.approx(spec.lp_bound(2.0, lp_norm(u), 0.0, 1.0), rel=1e-12)


def test_dirac_source_constant():
    spec = builtin_reaction("dirac_source", [0.3, 0.5])
    out_empty = eval_reaction(spec, 0.0, empty_measure(1))
    out_other = eval_reaction(spec, 1.0, dirac(-1.0, 4.0))
    for out in (out_empty, out_other):
        assert out.num_atoms == 1
        assert out.points[0, 0] == 0.5
        assert out.weights[0] == pytest.approx(0.3)


def test_mass_rate_riccati_derivative():
    spec = builtin_reaction("mass_rate", [0.5])
    mu = dirac(0.0, 4.0)
    out = eval_reaction(spec, 0.0, mu)
    # f(mu) = alpha m(mu) mu: derivative of m' = alpha m^2
    assert out.total_mass == pytest.approx(0.5 * 16.0)


def test_smoothed_source_bump():
    spec = builtin_reaction("smoothed_source", [0.5, 0.1, 0.5])
    out = eval_reaction(spec, 0.0, empty_measure(1))
    assert out.is_positive()
    assert out.total_mass == pytest.approx(0.5)
    # all atoms inside the bump support
    assert np.all(np.abs(out.points[:, 0] - 0.5) <= 0.1 + 1e-12)
    assert spec.production_density is not None
    # analytic L^p certificate matches the continuum profile norm
    u = uniform_density([0.0], [1.0], 2048, 0.0, 2.0)
    du = eval_density_reaction(spec, 0.0, u)
    assert lp_norm(du) <= spec.lp_bound(2.0, 0.0, 0.0, 1.0) * 1.001
    assert lp_norm(du) == pytest.approx(spec.lp_bound(2.0, 0.0, 0.0, 1.0), rel=2e-3)


def test_production_contract_enforced():
    bad = ReactionSpec(
        name="bad",
        c_f=lambda R: 10.0,
        l_f=lambda R: 10.0,
        c_pos=lambda R, T: 10.0,
        production=lambda t, mu: dirac(0.0, -1.0),
    )
    with pytest.raises(ReactionContractError):
        eval_reaction(bad, 0.0, dirac(0.0, 1.0))


@pytest.mark.parametrize(
    "name,params",
    [
        ("zero", []),
        ("linear_rate", [1.5]),
        ("logistic", [1.0, 2.0]),
        ("death_rate", [0.8]),
        ("dirac_source", [0.3, 0.0]),
        ("smoothed_source", [0.5, 0.1, 0.0]),
        ("mass_rate", [0.6]),
    ],
)
def test_verify_assumptions_builtins_clean(name, params):
    spec = builtin_reaction(name, params)
    report = verify_assumptions(spec, 120, 2.0, T=1.0, seed=42)
    assert report.ok, report.violations[:3]
    assert report.tv_checked == 120


def test_verify_assumptions_catches_understated_lipschitz():
    good = builtin_reaction("linear_rate", [2.0])
    lying = ReactionSpec(
        name="lying",
        c_f=good.c_f,
        l_f=lambda R: 0.05,  # true constant is 2
        c_pos=good.c_pos,
        rate=good.rate,
    )
    report = verify_assumptions(lying, 200, 2.0, seed=1)
    assert not report.ok
    assert any(kind == "l_f" for kind, *_ in report.violations)
    assert len(report.violations) <= 25  # reporting is capped


def test_verify_assumptions_raises_when_lipschitz_lhs_solve_fails(monkeypatch):
    # In 2D the first LP is the l_f check's left-hand side; a failed solve
    # returns NaN, which must raise instead of reading as no violation.
    real_lp = flat_metric._fm_lp
    calls = []

    def fail_first(blocks):
        calls.append([block.w.size for block in blocks])
        if len(calls) == 1:
            return [flat_metric.FlatNormResult(
                float("nan"), np.zeros(block.w.size), flat_metric.STATUS_NUMERICS
            ) for block in blocks]
        return real_lp(blocks)

    monkeypatch.setattr(flat_metric, "_fm_lp", fail_first)
    with pytest.raises(flat_metric.FlatNormError):
        verify_assumptions(builtin_reaction("linear_rate", [1.5]), 5, 2.0, dim=2)
    assert len(calls) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["linear_rate", "logistic", "mass_rate", "death_rate"]))
def test_composite_lipschitz_constant(seed, name):
    """The shipped flat-norm Lipschitz certificate l_f(R) holds on the TV ball."""
    params = {"linear_rate": [1.3], "logistic": [1.0, 2.0], "mass_rate": [0.7], "death_rate": [0.9]}
    spec = builtin_reaction(name, params[name])
    R = 2.0
    rng = np.random.default_rng(seed)
    mu = random_positive(rng, 4, 1, weight_scale=R / 4.0)
    nu = random_positive(rng, 4, 1, weight_scale=R / 4.0)
    assert tv_norm(mu) <= R and tv_norm(nu) <= R
    lhs = fm_norm(
        linear_combine(1.0, eval_reaction(spec, 0.0, mu), -1.0, eval_reaction(spec, 0.0, nu))
    ).value
    assert lhs <= spec.l_f(R) * fm_distance(mu, nu) * (1.0 + 1e-9) + 1e-12


@pytest.mark.parametrize(
    "name,params",
    [("linear_rate", [1.5]), ("logistic", [1.0, 2.0]), ("death_rate", [0.8]), ("mass_rate", [0.6])],
)
def test_dilated_reaction_positive(name, params):
    # f(mu) + c mu has no negative part for positive mu when c >= c_pos
    spec = builtin_reaction(name, params)
    rng = np.random.default_rng(9)
    R, T = 2.0, 1.0
    c = spec.c_pos(R, T)
    for _ in range(25):
        mu = random_positive(rng, 5, 1, weight_scale=R / 5.0)
        assert tv_norm(mu) <= R
        shifted = linear_combine(1.0, eval_reaction(spec, 0.0, mu), c, mu)
        assert negative_part_tv(shifted) <= 1e-12


@pytest.mark.parametrize(
    "name,params",
    [("zero", []), ("linear_rate", [1.5]), ("logistic", [1.0, 2.0]),
     ("smoothed_source", [0.5, 0.15, 0.0]), ("death_rate", [0.8]), ("mass_rate", [0.6])],
)
def test_density_action_weakly_consistent(name, params):
    """Quantized eval_density_reaction approximates eval_reaction on atoms."""
    spec = builtin_reaction(name, params, domain_volume=2.0)
    u = uniform_density([-1.0], [1.0], 512, 0.75, 2.0)
    via_density = quantize(eval_density_reaction(spec, 0.0, u))
    via_atoms = eval_reaction(spec, 0.0, quantize(u))
    gap = fm_norm(linear_combine(1.0, via_density, -1.0, via_atoms)).value
    # quantization error is O(cell width) * reacted mass
    cell = 2.0 / 512
    budget = max(tv_norm(via_atoms), 1e-6)
    assert gap <= max(5.0 * cell * budget, 5e-3)


def test_logistic_density_action_uses_density_mass():
    spec = builtin_reaction("logistic", [1.0, 2.0], domain_volume=2.0)
    u = uniform_density([-1.0], [1.0], 128, 0.5, 2.0)  # mass 1.0
    out = eval_density_reaction(spec, 0.0, u)
    # r (1 - m/K) u = 1 * (1 - 0.5) * u
    np.testing.assert_allclose(out.values, 0.25, atol=1e-12)


def test_density_reaction_needs_a_production_density():
    spec = builtin_reaction("dirac_source", [0.3, 0.0])
    u = uniform_density([-1.0], [1.0], 8, 0.5, 2.0)
    with pytest.raises(ReactionContractError, match="'dirac_source' has no production density"):
        eval_density_reaction(spec, 0.0, u)


def test_non_finite_rate_raises_on_atoms_and_densities():
    spec = ReactionSpec(name="nan", c_f=lambda R: 0.0, l_f=lambda R: 0.0,
                        c_pos=lambda R, T: 0.0, rate=lambda t, m: np.nan)
    message = "^function returned non-finite values on the support$"
    with pytest.raises(MeasureError, match=message):
        eval_reaction(spec, 0.0, dirac(0.0, 1.0))
    with pytest.raises(MeasureError, match=message):
        eval_density_reaction(spec, 0.0, uniform_density([-1.0], [1.0], 8, 0.5, 2.0))
    assert eval_reaction(spec, 0.0, empty_measure(1)).num_atoms == 0  # no rate call
