"""Acceptance criteria: 16 checks at their stated tolerances.

Each test prints one ``criterion NN [...]: PASS/FAIL`` line (visible
under ``pytest -s``; under plain ``-v`` the test node itself is the
pass/fail line).  Expensive bundled solves are computed once and
cached at module scope.
"""
import configparser
import subprocess
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from helpers import random_positive, random_signed, random_sine_function
from mvt.flat_metric import fm_distance, fm_norm, fm_norm_oracle
from mvt.flow import advect, jacobian_band, jacobian_det, lipschitz_bound
from mvt.measures import (
    dirac,
    linear_combine,
    measure,
    multiply_by_function,
    tv_norm,
)
from mvt.harness import run_suite
from mvt.reactions import builtin_reaction
from mvt.scenarios import BUNDLED_SCENARIOS, CONFIG_DIR, bundled_scenario, parse_scenario
from mvt.solver import SolverConfig, picard_step, solve_interval, solve_maximal
from mvt.transport import pushforward_measure
from mvt.velocity import builtin_field, zero_field


@contextmanager
def criterion(num: int, label: str):
    info: dict = {}
    try:
        yield info
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS {info.get('detail', '')}".rstrip())


def _refined(name: str, cells: int, tmp_dir: Path):
    """Bundled scenario ``name`` parsed from its own INI with ``cells`` density cells."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read(CONFIG_DIR / f"{name}.ini", encoding="utf-8")
    cfg["density"]["cells"] = str(cells)
    path = tmp_dir / f"{name}_{cells}.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)
    return parse_scenario(str(path))[0]


@lru_cache(maxsize=None)
def _solve_bundled(name: str):
    sc = bundled_scenario(name)
    return sc, solve_maximal(
        sc.reaction,
        sc.velocity,
        sc.initial,
        sc.t0,
        sc.horizon,
        sc.solver,
        initial_density=sc.density,
    )


def test_criterion_01_flat_norm_oracle_equivalence():
    with criterion(1, "flat-norm oracle equivalence") as info:
        rng = np.random.default_rng(42)
        worst = 0.0
        for k in range(200):
            dim = 1 if k % 2 == 0 else 2
            n = int(rng.integers(1, 7))
            mu = random_signed(rng, n, dim, span=2.0)
            gap = abs(fm_norm(mu).value - fm_norm_oracle(mu))
            worst = max(worst, gap)
            assert gap <= 1e-6
        info["detail"] = f"(200 measures, worst gap {worst:.2e})"


def test_criterion_02_fm_equals_tv_on_positive():
    with criterion(2, "FM = TV on positive measures") as info:
        rng = np.random.default_rng(7)
        worst = 0.0
        for k in range(100):
            dim = 1 if k % 2 == 0 else 2
            mu = random_positive(rng, int(rng.integers(1, 9)), dim)
            gap = abs(fm_norm(mu).value - tv_norm(mu))
            worst = max(worst, gap)
            assert gap <= 1e-8
        info["detail"] = f"(100 measures, worst gap {worst:.2e})"


def test_criterion_03_product_bound():
    with criterion(3, "product bound for g.mu") as info:
        rng = np.random.default_rng(11)
        for k in range(100):
            dim = 1 if k % 2 == 0 else 2
            mu = random_signed(rng, int(rng.integers(1, 7)), dim)
            g = random_sine_function(rng, dim)
            lhs = fm_norm(multiply_by_function(g, mu)).value
            rhs = 2.0 * g.fm_bound * fm_norm(mu).value
            assert lhs <= rhs * (1.0 + 1e-9)
        info["detail"] = "(100 pairs)"


def _rk4_err(field, params, dim, exact_fn, h):
    v = builtin_field(field, params, dim)
    x0 = np.array([[1.0, 0.2], [-0.4, 0.9]])[:, :dim]
    moved = advect(v, 0.0, 1.0, x0, h)
    return float(np.max(np.abs(moved - exact_fn(x0))))


def test_criterion_04_flow_semigroup_and_order():
    with criterion(4, "RK4 order on linear and rotation fields") as info:
        a = 0.7
        lin = lambda x0: np.exp(a) * x0
        th = 1.0
        rot_m = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rot = lambda x0: x0 @ rot_m.T
        ratios = []
        for field, params, dim, exact in (
            ("linear", [a], 2, lin),
            ("rotation2d", [1.0], 2, rot),
        ):
            coarse = _rk4_err(field, params, dim, exact, 0.1)
            fine = _rk4_err(field, params, dim, exact, 0.05)
            ratios.append(coarse / fine)
            assert 12.0 <= coarse / fine <= 20.0
        # semigroup on aligned grids
        v = builtin_field("rotation2d", [1.0], 2)
        x0 = np.array([[0.5, 0.1]])
        direct = advect(v, 0.0, 1.0, x0, 0.125)
        via = advect(v, 0.5, 1.0, advect(v, 0.0, 0.5, x0, 0.125), 0.125)
        assert np.max(np.abs(via - direct)) <= 1e-13
        info["detail"] = f"(halving ratios {ratios[0]:.1f}, {ratios[1]:.1f})"


def test_criterion_05_lipschitz_flow_bound():
    with criterion(5, "Lipschitz flow bound, shear field") as info:
        v = builtin_field("shear", [0.5], 2)
        bound = lipschitz_bound(v, 0.0, 1.0)
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.0, 1.0, size=(1000, 2))
        b = rng.uniform(-1.0, 1.0, size=(1000, 2))
        fa = advect(v, 0.0, 1.0, a, 0.01)
        fb = advect(v, 0.0, 1.0, b, 0.01)
        quot = np.linalg.norm(fa - fb, axis=1) / np.linalg.norm(a - b, axis=1)
        assert float(quot.max()) <= bound * 1.001
        info["detail"] = f"(1000 pairs, max quotient {quot.max():.4f} vs {bound:.4f})"


def test_criterion_06_jacobian_band():
    with criterion(6, "Jacobian band and 1D closed form") as info:
        for name, params, dim, x0 in (
            ("linear", [0.8], 1, [0.3]),
            ("linear", [-0.5], 2, [1.0, 1.0]),
            ("shear", [0.7], 2, [0.5, -0.2]),
            ("rotation2d", [1.3], 2, [0.5, 0.5]),
        ):
            v = builtin_field(name, params, dim)
            det = jacobian_det(v, 0.0, 1.0, np.array(x0))
            lo, hi = jacobian_band(v, 0.0, 1.0)
            assert det >= lo * (1.0 - 1e-4) and det <= hi * (1.0 + 1e-4)
        det1d = jacobian_det(builtin_field("linear", [0.8], 1), 0.0, 1.0, np.array([0.3]))
        assert abs(det1d - np.exp(0.8)) <= 1e-6
        info["detail"] = f"(4 fields; |det - e^a| = {abs(det1d - np.exp(0.8)):.1e})"


def test_criterion_07_operator_norm():
    with criterion(7, "push-forward operator norm") as info:
        rng = np.random.default_rng(13)
        cases = 0
        for field, params, dim in (("linear", [0.8], 1), ("shear", [0.8], 2)):
            v = builtin_field(field, params, dim)
            for _ in range(25):
                mu = random_signed(rng, int(rng.integers(1, 7)), dim)
                t = float(rng.uniform(0.2, 1.2))
                lhs = fm_norm(pushforward_measure(v, 0.0, t, mu)).value
                rhs = lipschitz_bound(v, 0.0, t) * fm_norm(mu).value
                assert lhs <= rhs * 1.001
                cases += 1
        info["detail"] = f"({cases} measures)"


def test_criterion_08_time_lipschitz_of_motions():
    with criterion(8, "time-Lipschitz continuity of motions") as info:
        v = builtin_field("rotation2d", [1.0, 0.0, 0.0, 2.0], 2)
        rng = np.random.default_rng(17)
        mu = random_signed(rng, 5, 2, span=1.0)
        rate = v.sup_bound(0.0, 1.0)
        grid = np.linspace(0.0, 1.0, 6)
        checked = 0
        for s in grid:
            at_s = pushforward_measure(v, 0.0, float(s), mu)
            for t in grid:
                if t <= s:
                    continue
                at_t = pushforward_measure(v, 0.0, float(t), mu)
                gap = fm_norm(linear_combine(1.0, at_t, -1.0, at_s)).value
                assert gap <= rate * tv_norm(mu) * (t - s) * 1.01
                checked += 1
        info["detail"] = f"({checked} (s,t) pairs)"


def test_criterion_09_contraction_and_residual():
    with criterion(9, "Picard contraction and residual") as info:
        worst_ratio = 0.0
        worst_residual = 0.0
        residual_scenarios = []
        for name in BUNDLED_SCENARIOS:
            sc, traj = _solve_bundled(name)
            ratio = float(traj.contraction_ratio.max())
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 0.6, name
            if sc.solver.dilation_mode == "none":
                # first interval nodes are the Picard quadrature grid;
                # re-applying the operator must move them <= 2 tol
                qn = sc.solver.quad_nodes
                curve = list(traj.measures[:qn])
                tau1 = float(traj.times[qn - 1] - traj.times[0])
                again = picard_step(sc.reaction, sc.velocity, sc.t0, tau1, curve)
                residual = max(
                    fm_distance(a, b) for a, b in zip(again, curve)
                )
                assert residual <= 2.0 * sc.solver.picard_tol, name
                worst_residual = max(worst_residual, residual / sc.solver.picard_tol)
                residual_scenarios.append(name)
        info["detail"] = (
            f"(ratio max {worst_ratio:.3f} over {len(BUNDLED_SCENARIOS)} scenarios; "
            f"residual max {worst_residual:.2f}x tol on {len(residual_scenarios)} undilated)"
        )


def test_criterion_10_mass_laws():
    with criterion(10, "exponential/logistic/Riccati mass laws") as info:
        _, lin_traj = _solve_bundled("linear_mass")
        for t, m in zip(lin_traj.times, lin_traj.measures):
            assert abs(m.total_mass - 1.5 * np.exp(2.0 * t)) <= 1e-4 * 1.5

        r, K, m0 = 1.0, 2.0, 0.5
        logi = solve_maximal(
            builtin_reaction("logistic", [r, K]),
            zero_field(1),
            dirac(0.0, m0),
            0.0,
            1.0,
            SolverConfig(quad_nodes=65),
        )
        for t, m in zip(logi.times, logi.measures):
            exact = K * m0 * np.exp(r * t) / (K + m0 * (np.exp(r * t) - 1.0))
            assert abs(m.total_mass - exact) <= 1e-4 * m0

        sc, ric = _solve_bundled("riccati_blowup")
        t_star = 1.0 / 20.0
        assert ric.blown_up and not ric.reached_horizon
        assert ric.final_time < t_star
        assert abs(ric.final_time - t_star) / t_star <= 0.05
        info["detail"] = (
            f"(riccati stops at {ric.final_time:.5f} vs t* = {t_star}; "
            f"{abs(ric.final_time - t_star) / t_star:.1%} off)"
        )


def test_criterion_11_dilation_equivalence():
    with criterion(11, "dilated vs undilated trajectories") as info:
        spec = builtin_reaction("death_rate", [1.0])
        v = builtin_field("constant", [0.3], 1)
        nu = measure([[0.0], [0.5]], [1.0, 0.5])
        base = dict(quad_nodes=257, picard_tol=1e-10)
        plain = solve_interval(spec, v, 0.0, 0.1, nu, SolverConfig(**base))
        shifted = solve_interval(
            spec, v, 0.0, 0.1, nu,
            SolverConfig(dilation_mode="fixed", dilation_c=1.0, **base),
        )
        assert len(plain.times) == len(shifted.times)
        sup = max(fm_distance(a, b) for a, b in zip(plain.measures, shifted.measures))
        assert sup <= 1e-6
        info["detail"] = f"(sup flat distance {sup:.2e})"


def test_criterion_12_positivity_suite():
    with criterion(12, "positivity under auto dilation") as info:
        reports = run_suite("positivity")
        assert len(reports) >= 3
        for report in reports:
            assert report.passed, report.summary()
        info["detail"] = f"({len(reports)} scenarios, all within 1e-8 * tv)"


def test_criterion_13_continuous_dependence_suite():
    with criterion(13, "continuous dependence on initial data") as info:
        reports = run_suite("dependence")
        assert len(reports) == 3
        for report in reports:
            assert report.passed, report.summary()
        # the linear_rate scaling pair is exactly e^{ct}: observed/bound
        # equality within 1e-3
        scaling = reports[0]
        assert "linear_mass" in scaling.name
        ratios = [o / b for o, b in zip(scaling.observed, scaling.bound)]
        assert max(abs(x - 1.0) for x in ratios) <= 1e-3
        info["detail"] = f"(3 pairs; scaling-pair equality off by {max(abs(x - 1.0) for x in ratios):.1e})"


def test_criterion_14_lp_propagation_with_refinement(tmp_path):
    with criterion(14, "L^p propagation and refinement") as info:
        from mvt.harness import check_lp_invariance

        base_reports = {r.name: r for r in run_suite("lp")}
        assert all(r.passed for r in base_reports.values())
        shrink_notes = []
        for name in ("lp_rotation", "lp_contraction", "lp_growth"):
            coarse_sc = bundled_scenario(name)
            fine_sc = _refined(name, 2 * coarse_sc.density.cells, tmp_path)
            coarse = base_reports[f"lp_invariance[{name}]"]
            fine = check_lp_invariance(fine_sc)
            assert fine.passed, fine.summary()
            # violation = positive part of (observed - bound); halving the
            # grid must at least halve it (here both runs stay at zero)
            v_coarse = max(0.0, max(o - b for o, b in zip(coarse.observed, coarse.bound)))
            v_fine = max(0.0, max(o - b for o, b in zip(fine.observed, fine.bound)))
            assert v_fine <= max(0.5 * v_coarse, 1e-12)
            assert fine.tolerance <= 0.51 * coarse.tolerance
            shrink_notes.append(f"{name}: {v_coarse:.1e}->{v_fine:.1e}")
        info["detail"] = "(" + "; ".join(shrink_notes) + ")"


def test_criterion_15_weak_limit_semicontinuity():
    with criterion(15, "weak-limit lower semicontinuity") as info:
        reports = run_suite("weaklimit")
        lsc, counter = reports
        assert lsc.passed, lsc.summary()
        # slack = liminf - limit norm must exceed -1e-3
        assert counter.passed, counter.summary()
        assert counter.observed[0] <= 1e-2  # flat distance to delta_0 at n=100
        assert counter.observed[1] >= 30.0  # sup norm blow-up
        info["detail"] = (
            f"(lsc ok; counterexample fm {counter.observed[0]:.1e}, "
            f"sup {counter.observed[1]:.1f})"
        )


def test_criterion_16_determinism(tmp_path):
    with criterion(16, "byte-identical trajectory.csv") as info:
        cfg = str(CONFIG_DIR / "ring_rotation.ini")
        outs = []
        for k in (1, 2):
            out = tmp_path / f"run{k}"
            proc = subprocess.run(
                [sys.executable, "-m", "mvt", "simulate", "--config", cfg, "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]
        info["detail"] = f"({len(outs[0])} bytes)"
