"""Flat (bounded-Lipschitz) norm: exact routes, sparse LP, dual oracle.

The production path and the oracle are deliberately independent.  A
measure of one sign has its TV as flat norm.  1D euclidean measures go
through an exact chain recursion over consecutive atoms, and the 1D torus
through the same recursion on the cycle cut open at its largest gap,
whenever the chain optimum meets the closing edge.  Everything else is
one sparse HiGHS LP on the geometry's edge set: the sorted atoms joined
in a cycle on the 1D torus (the shorter arc between two atoms passes
through the atoms in between, so the cycle implies every pair), all
pairs closer than 2 in 2D and 3D.  The oracle solves the dual, a
min-cost transshipment over all pairs with a ground node, so agreement
holds by strong duality.  The tests here hold the routes against each
other and against closed forms.
"""
import tracemalloc
from collections import deque
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from helpers import random_positive, random_signed, random_sine_function
import mvt.flat_metric
from mvt.flat_metric import (
    STATUS_OPTIMAL,
    _Block,
    _fm_chain_1d,
    _fm_lp,
    fm_distance,
    fm_norm,
    fm_norm_oracle,
    fm_norms,
)
from mvt.geometry import EUCLIDEAN, TORUS, distance, pairwise_distances
from mvt.measures import (
    DiscreteSignedMeasure,
    dirac,
    empty_measure,
    linear_combine,
    measure,
    multiply_by_function,
    tv_norm,
)


def test_empty_and_single_atom():
    assert fm_norm(empty_measure(2)).value == 0.0
    assert fm_norm(dirac([0.3, 0.1], -1.5)).value == pytest.approx(1.5)


def test_two_diracs_distance():
    # ||d_x - d_y|| = min(|x - y|, 2) for unit masses
    assert fm_distance(dirac(0.0), dirac(0.5)) == pytest.approx(0.5)
    assert fm_distance(dirac(0.0), dirac(5.0)) == pytest.approx(2.0)
    assert fm_distance(dirac(0.0), dirac(0.0)) == 0.0


def test_two_diracs_torus_wraps():
    d = fm_distance(dirac(0.05, domain=TORUS), dirac(0.95, domain=TORUS))
    assert d == pytest.approx(0.1)


def test_positive_measure_equals_tv():
    mu = measure([[0.0], [1.0], [3.0]], [1.0, 0.5, 0.25])
    assert fm_norm(mu).value == pytest.approx(tv_norm(mu), abs=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(3)
    mu = random_signed(rng, 5, 2)
    shifted = measure(mu.points + np.array([10.0, -4.0]), mu.weights)
    assert fm_norm(shifted).value == pytest.approx(fm_norm(mu).value, abs=1e-9)


def _certificate_ok(mu, result) -> None:
    """The optimal test vector must be feasible and attain the value."""
    f = result.optimal_f_values
    assert np.all(np.abs(f) <= 1.0 + 1e-9)
    dist = pairwise_distances(mu.points, mu.domain)
    gaps = np.abs(f[:, None] - f[None, :]) - dist
    assert gaps.max() <= 1e-9
    assert float(f @ mu.weights) == pytest.approx(result.value, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 6),
    st.sampled_from([1, 2]),
)
def test_oracle_agreement_small_supports(seed, n, dim):
    rng = np.random.default_rng(seed)
    mu = random_signed(rng, n, dim, span=2.0)
    res = fm_norm(mu)
    assert res.status == STATUS_OPTIMAL
    assert abs(res.value - fm_norm_oracle(mu)) <= 1e-6
    _certificate_ok(mu, res)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.sampled_from([1, 2]))
def test_oracle_agreement_torus(seed, n, dim):
    rng = np.random.default_rng(seed)
    mu = random_signed(rng, n, dim, domain=TORUS)
    res = fm_norm(mu)
    assert res.status == STATUS_OPTIMAL
    assert abs(res.value - fm_norm_oracle(mu)) <= 1e-6
    _certificate_ok(mu, res)


def _line_support(rng, family: str, n: int):
    """Points and weights on a line, one input family of the chain DP."""
    if family == "uniform":
        mu = random_signed(rng, n, 1, span=2.0)
        return mu.points[:, 0], mu.weights
    if family == "alternating":  # huge weights at tiny gaps move many entries
        x = np.cumsum(rng.uniform(1e-6, 1e-2, size=n))
        return x, rng.uniform(1.0, 100.0, size=n) * (-1.0) ** np.arange(n)
    if family == "far":  # gaps >= 2 let the clamp empty both deques
        x = np.cumsum(rng.choice([0.05, 0.5, 2.0, 3.5], size=n))
        return x, rng.uniform(-2.0, 2.0, size=n)
    # one-signed runs: the argmax sits at a wall
    lengths = rng.integers(1, 60, size=n)
    sign = np.repeat((-1.0) ** np.arange(n), lengths)[:n] * rng.choice([-1.0, 1.0])
    return rng.uniform(-2.0, 2.0, size=n), sign * rng.uniform(0.05, 3.0, size=n)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_chain_matches_simplex_via_planar_embedding(seed):
    """1D chain route vs the 2D LP route on 150 atoms along a line."""
    rng = np.random.default_rng(seed)
    for family in ("uniform", "alternating", "far", "runs"):
        x, w = _line_support(rng, family, 150)
        mu = measure(x[:, None], w)
        planar = measure(
            np.column_stack([mu.points[:, 0], np.zeros(mu.num_atoms)]), mu.weights
        )
        chain, lp = fm_norm(mu), fm_norm(planar)
        assert lp.status == STATUS_OPTIMAL
        assert lp.value == pytest.approx(chain.value, abs=1e-8), family
        _certificate_ok(mu, chain)
        _certificate_ok(planar, lp)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_torus_cycle_matches_chain_inside_short_arc(seed):
    """216 torus atoms within an arc shorter than 1/2 see euclidean distances."""
    rng = np.random.default_rng(seed)
    start = float(rng.uniform(0.0, 1.0))
    points = start + rng.uniform(0.0, 0.45, size=(216, 1))
    torus = measure(points, rng.uniform(-2.0, 2.0, size=216), TORUS)
    line = measure(np.mod(torus.points - start, 1.0), torus.weights)
    assert line.num_atoms == torus.num_atoms
    cycle, chain = fm_norm(torus), fm_norm(line)
    assert cycle.status == STATUS_OPTIMAL
    assert cycle.value == pytest.approx(chain.value, abs=1e-8)
    _certificate_ok(torus, cycle)
    _certificate_ok(line, chain)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10))
def test_positive_fm_equals_tv_property(seed, n):
    rng = np.random.default_rng(seed)
    mu = random_positive(rng, n, 1)
    assert abs(fm_norm(mu).value - tv_norm(mu)) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_norm_axioms(seed):
    rng = np.random.default_rng(seed)
    mu = random_signed(rng, 5, 2)
    nu = random_signed(rng, 4, 2)
    v_mu = fm_norm(mu).value
    v_nu = fm_norm(nu).value
    v_sum = fm_norm(linear_combine(1.0, mu, 1.0, nu)).value
    assert v_sum <= v_mu + v_nu + 1e-9
    scale = float(rng.uniform(-2.0, 2.0))
    assert fm_norm(linear_combine(scale, mu, 0.0, nu)).value == pytest.approx(
        abs(scale) * v_mu, abs=1e-8
    )
    assert v_mu <= tv_norm(mu) + 1e-9
    assert v_mu >= abs(mu.total_mass) - 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
def test_product_bound(seed, dim):
    # ||g . mu|| <= 2 ||g||_BL ||mu|| for bounded Lipschitz g
    rng = np.random.default_rng(seed)
    mu = random_signed(rng, 5, dim)
    g = random_sine_function(rng, dim)
    lhs = fm_norm(multiply_by_function(g, mu)).value
    rhs = 2.0 * g.fm_bound * fm_norm(mu).value
    assert lhs <= rhs * (1.0 + 1e-9)


def test_fm_distance_symmetry_and_identity(rng):
    mu = random_signed(rng, 4, 2)
    nu = random_signed(rng, 4, 2)
    assert fm_distance(mu, nu) == pytest.approx(fm_distance(nu, mu), abs=1e-10)
    assert fm_distance(mu, mu) == 0.0


def test_larger_1d_supports_stay_exact():
    # alternating +-1 at spacing h <= 2 with n even: f = +-h/2 on the
    # +-1 atoms earns h per pair, so the norm is n*h/2
    n, h = 200, 0.01
    alternating = measure(h * np.arange(n)[:, None], (-1.0) ** np.arange(n))
    assert fm_norm(alternating).value == pytest.approx(n * h / 2, abs=1e-12)
    rng = np.random.default_rng(11)
    mu = random_signed(rng, 200, 1, span=3.0)
    res = fm_norm(mu)
    assert res.status == STATUS_OPTIMAL
    _certificate_ok(mu, res)


def test_chain_memory_is_linear():
    """2000 atoms: the DP keeps one float per level, not every level."""
    mu = random_signed(np.random.default_rng(8), 2000, 1, span=3.0)
    tracemalloc.start()
    try:
        res = fm_norm(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    x, f = mu.points[:, 0], res.optimal_f_values  # sorted, so chain edges suffice
    assert np.all(np.abs(f) <= 1.0 + 1e-9)
    assert np.all(np.abs(np.diff(f)) <= np.diff(x) + 1e-9)
    assert float(f @ mu.weights) == pytest.approx(res.value, abs=1e-9)


_MIXED_KINDS = [(0, 1, EUCLIDEAN), (1, 2, EUCLIDEAN), (1, 1, EUCLIDEAN), (7, 1, EUCLIDEAN),
                (2, 1, TORUS), (9, 1, TORUS), (6, 2, EUCLIDEAN), (6, 2, TORUS),
                (5, 3, EUCLIDEAN), (4, 3, TORUS)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.sampled_from(_MIXED_KINDS), max_size=12))
def test_batched_norms_match_single_solves(seed, kinds):
    """``fm_norms`` on a mixed list agrees with ``fm_norm`` measure by measure."""
    rng = np.random.default_rng(seed)
    mus = [random_signed(rng, n, dim, domain=domain) if n else empty_measure(dim, domain)
           for n, dim, domain in kinds]
    batched = fm_norms(mus)
    assert len(batched) == len(mus)
    for mu, got in zip(mus, batched):
        want = fm_norm(mu)
        assert got.status == want.status == STATUS_OPTIMAL
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
        if mu.num_atoms:
            _certificate_ok(mu, got)


# ---------------------------------------------------------------------------
# Exact routes without an LP: one sign, and the torus cut.
# ---------------------------------------------------------------------------

@contextmanager
def _counting_milp():
    """Count the HiGHS calls the flat norm makes inside the block."""
    calls = []
    milp = mvt.flat_metric.milp

    def counted(*args, **kwargs):
        calls.append(1)
        return milp(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvt.flat_metric, "milp", counted)
        yield calls


def _one_signed(rng, n, dim, domain, sign):
    mu = random_positive(rng, n, dim, domain=domain)
    return measure(mu.points, sign * mu.weights, domain)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.sampled_from([1.0, -1.0]))
def test_one_sign_is_bitwise_the_chain_dp(seed, n, sign):
    mu = _one_signed(np.random.default_rng(seed), n, 1, EUCLIDEAN, sign)
    value, f = _fm_chain_1d(mu.points[:, 0], np.asarray(mu.weights))
    res = fm_norm(mu)
    assert res.value == value
    np.testing.assert_array_equal(res.optimal_f_values, f)
    np.testing.assert_array_equal(f, np.full(mu.num_atoms, sign))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8),
       st.sampled_from([(2, EUCLIDEAN), (3, EUCLIDEAN), (1, TORUS), (2, TORUS)]),
       st.sampled_from([1.0, -1.0]))
def test_one_sign_matches_oracle_without_lp(seed, n, kind, sign):
    dim, domain = kind
    mu = _one_signed(np.random.default_rng(seed), n, dim, domain, sign)
    with _counting_milp() as milp_calls:
        res = fm_norm(mu)
    assert res.value == pytest.approx(tv_norm(mu), rel=1e-14)
    assert abs(res.value - fm_norm_oracle(mu)) <= 1e-9
    _certificate_ok(mu, res)
    assert not milp_calls


def _torus_support(rng, family: str):
    """Points and mixed-sign weights on the 1D torus, one input family of the cut."""
    n = int(rng.integers(3, 9))
    if family == "two_atoms":
        x = rng.uniform(0.0, 1.0, size=2)
    elif family == "antipodal":  # two clusters half a turn apart: gaps near 1/2
        x = np.mod(rng.choice([0.0, 0.5], size=n) + rng.uniform(0.0, 1e-3, size=n)
                   + rng.uniform(0.0, 1.0), 1.0)
    elif family == "tied":  # a lattice: every gap exactly 1/n for n a power of two
        n = int(rng.choice([2, 4, 8]))
        x = np.arange(n) / n
    elif family == "binding":  # heavy opposite weights at the two ends of the cut
        x = np.sort(rng.uniform(0.0, 0.7, size=n))
        w = rng.uniform(0.05, 0.3, size=n) * rng.choice([-1.0, 1.0], size=n)
        w[0], w[-1] = 2.0, -2.0
        return x, w
    else:
        x = rng.uniform(0.0, 1.0, size=n)
    w = rng.uniform(0.1, 2.0, size=x.size) * (-1.0) ** np.arange(x.size)
    return x, rng.permutation(w)


def _cycle_lp(mu):
    """The torus LP on the sorted atoms joined in a cycle, solved by HiGHS."""
    order = np.argsort(mu.points[:, 0], kind="stable")
    nxt = np.roll(order, -1)
    d = distance(mu.points[order], mu.points[nxt], TORUS)
    return _fm_lp([_Block(np.asarray(mu.weights), order, nxt, d)])[0]


@pytest.mark.parametrize("family", ["uniform", "two_atoms", "antipodal", "tied", "binding"])
def test_torus_cut_matches_oracle_and_lp(family):
    rng = np.random.default_rng(sum(map(ord, family)))
    fallbacks = 0
    for _ in range(60):
        x, w = _torus_support(rng, family)
        mu = measure(x[:, None], w, TORUS)
        if min(mu.weights) >= 0.0 or max(mu.weights) <= 0.0:
            continue
        with _counting_milp() as milp_calls:
            res = fm_norm(mu)
        fallbacks += len(milp_calls)
        assert res.status == STATUS_OPTIMAL
        assert abs(res.value - fm_norm_oracle(mu)) <= 1e-9
        assert abs(res.value - _cycle_lp(mu).value) <= 1e-9
        _certificate_ok(mu, res)
    if family == "binding":
        assert fallbacks > 0
    if family == "two_atoms":  # both cycle edges join the same pair
        assert fallbacks == 0


def test_torus_cut_needs_no_lp_while_the_closing_edge_holds():
    # the cut is the wrap gap 0.4; the chain over 0, 0.3, 0.6 would set
    # f(0) - f(0.6) = 0.6, past the closing edge, so the cycle goes to the LP
    binding = measure([[0.0], [0.3], [0.6]], [1.0, -0.1, -1.0], TORUS)
    with _counting_milp() as milp_calls:
        res = fm_norm(binding)
    assert len(milp_calls) == 1
    assert res.value == pytest.approx(fm_norm_oracle(binding), abs=1e-9)
    # the same weights within a short arc: the chain optimum meets the closing edge
    holding = measure([[0.0], [0.1], [0.2]], [1.0, -0.1, -1.0], TORUS)
    with _counting_milp() as milp_calls:
        res = fm_norm(holding)
    assert not milp_calls
    assert res.value == pytest.approx(fm_norm_oracle(holding), abs=1e-12)
    _certificate_ok(holding, res)


def test_torus_cut_reads_coordinates_modulo_one():
    # built directly, a torus measure may hold coordinates outside [0, 1)
    raw = DiscreteSignedMeasure(np.array([[1.3], [0.2], [-0.5]]), np.array([1.0, -1.0, 0.5]), TORUS)
    wrapped = measure(raw.points, raw.weights, TORUS)
    assert fm_norm(raw).value == pytest.approx(fm_norm_oracle(raw), abs=1e-12)
    assert fm_norm(raw).value == pytest.approx(fm_norm(wrapped).value, abs=1e-15)


# ---------------------------------------------------------------------------
# The chain DP's hand-over: a walk that would cross a whole side into an
# empty other side takes that side over as it is.
# ---------------------------------------------------------------------------

def _chain_lp(x, w) -> float:
    """The chain LP on the sorted atoms, by HiGHS at tight tolerances on w / max|w|.

    Its default tolerances (1e-7) misjudge reduced costs built from
    weights of 1e-8; at 1e-10 on scaled weights the optimal vertex is
    exact to rounding.
    """
    order = np.argsort(x, kind="stable")
    rows = np.arange(x.size - 1)
    edges = scipy.sparse.csr_array(
        (np.repeat([1.0, -1.0], rows.size), (np.tile(rows, 2), np.concatenate([order[:-1], order[1:]]))),
        shape=(rows.size, x.size))
    gaps = np.diff(x[order])
    res = linprog(-w / np.abs(w).max(), A_ub=scipy.sparse.vstack([edges, -edges]),
                  b_ub=np.concatenate([gaps, gaps]), bounds=(-1.0, 1.0), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return float(w @ res.x)


def _chain_dp_checked(x, w) -> float:
    """The DP's value, after checking that its f is feasible and attains it."""
    value, f = _fm_chain_1d(x, w)
    order = np.argsort(x, kind="stable")
    assert np.all(np.abs(f) <= 1.0)
    assert np.all(np.abs(np.diff(f[order])) <= np.diff(x[order]) + 1e-15)
    assert float(w @ f) == pytest.approx(value, rel=1e-12)
    return value


@pytest.mark.parametrize("seed", range(4))
def test_chain_dp_on_dipoles_with_a_gaussian_tail(seed):
    """256 dipole pairs weighted by a Gaussian profile: consecutive nodes of
    a transported density, whose walks carry a whole side of tail weights."""
    rng = np.random.default_rng(seed)
    centres = np.linspace(-2.1, 2.1, 256)
    profile = np.exp(-centres ** 2 / 0.5)
    profile /= profile.sum()
    x = np.concatenate([centres + rng.uniform(5e-4, 2e-3, 256), centres])
    w = np.concatenate([profile * rng.uniform(0.999, 1.001, 256), -profile])
    assert _chain_dp_checked(x, w) == pytest.approx(_chain_lp(x, w), rel=1e-12)


def test_lp_route_exact_on_small_weights():
    """Six node differences of lp_contraction's shape: 256 Gaussian cell
    weights (6e-8 to 1.6e-2) moved by the contracting flow x e^{-0.8 t}
    against themselves.  HiGHS reads such small weights about 5e-8 low
    unless each block's objective is scaled to max |w| = 1.  The chain
    edge set keeps the LP small; the 2D route builds a larger block of
    the same kind."""
    centres = -3.0 + 6.0 * (np.arange(256) + 0.5) / 256
    cell = np.exp(-0.5 * (centres / 0.6) ** 2) * (6.0 / 256) / (0.6 * np.sqrt(2.0 * np.pi))
    w = np.concatenate([cell, -cell])
    blocks, exact = [], []
    for t in 0.0625 * np.arange(6):
        x = np.concatenate([centres * np.exp(-0.8 * (t + 0.0625)), centres * np.exp(-0.8 * t)])
        order = np.argsort(x, kind="stable")
        blocks.append(_Block(w, order[:-1], order[1:], np.diff(x[order])))
        exact.append(_chain_dp_checked(x, w))
    for res, value in zip(_fm_lp(blocks), exact):
        assert res.status == STATUS_OPTIMAL
        assert res.value == pytest.approx(value, rel=1e-8)


class _CountingDeque(deque):
    reversals = 0

    def reverse(self):
        type(self).reversals += 1
        super().reverse()


@pytest.mark.parametrize("seed", range(8))
def test_chain_dp_hands_over_on_alternating_growing_weights(seed, monkeypatch):
    """Each weight, read right to left, outweighs all before it and has the
    other sign, so every walk after the first hands its side over."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    x = np.sort(rng.uniform(0.0, 0.6, n))
    k = np.arange(n)[::-1]
    w = rng.choice([-1.0, 1.0]) * (-1.0) ** k * 2.5 ** k * rng.uniform(0.5, 1.0, n)
    monkeypatch.setattr(mvt.flat_metric, "deque", _CountingDeque)
    _CountingDeque.reversals = 0
    value = _chain_dp_checked(x, w)
    assert _CountingDeque.reversals == n - 1
    assert value == pytest.approx(_chain_lp(x, w), rel=1e-12)
    mu = DiscreteSignedMeasure(x[:, None], w)
    assert value == pytest.approx(fm_norm_oracle(mu), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_chain_dp_on_a_shifted_lattice_with_one_heavy_atom(seed):
    """The shape of a long torus run with a source: a lattice minus its
    shifted copy, weights from 4e-8 to 4e-4 and a sign change at every
    step, plus one atom of weight 1."""
    rng = np.random.default_rng(seed)
    n = 600
    lattice = np.arange(n) / n
    profile = 4e-4 * np.exp(-((lattice - 0.5) / 0.1) ** 2) + 4e-8
    x = np.concatenate([lattice, lattice + rng.uniform(0.1, 0.9) / n])
    w = np.concatenate([profile, -profile * rng.uniform(0.9, 1.1, n)])
    w[rng.integers(2 * n)] = 1.0
    assert _chain_dp_checked(x, w) == pytest.approx(_chain_lp(x, w), rel=1e-12)
