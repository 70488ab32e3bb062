"""The four benchmark workloads, their inputs and their correctness gates.

Each workload is a closed loop in one process: its operations run one after
another, each starting when the previous one returned.  ``setup`` builds or
writes every input (this is part of ``setup_s``); ``ops`` lists the timed
operations of one round; ``check`` gates one operation's result outside the
timed region and raises ``GateError`` when it is wrong.

Bundled scenarios are run with a shorter horizon or fewer quadrature nodes
than they ship with, so that one round takes a few seconds and a run can
take the median of several rounds; each override is listed next to the
scenario below.  The layer split each workload exists for survives the
overrides (see perfbench/README.md).

Import this module only after ``MVT_THREADS`` is set: it imports ``mvt.cli``
first, which caps the BLAS/OpenMP pools before numpy starts.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
from pathlib import Path

import mvt.cli as mvt_cli  # first: applies MVT_THREADS before numpy loads
import numpy as np
import scipy.optimize
import scipy.sparse
from mvt import scenarios as mvt_scenarios
from mvt import solver as mvt_solver
from mvt import transport as mvt_transport
from mvt import velocity as mvt_velocity

NEG_PART_TOL = 1e-8  # negative part <= NEG_PART_TOL * TV on auto-dilated runs
MASS_TOL = 1e-4  # mass laws, relative to the initial mass (as in tests/)
METRIC_RTOL = 1e-6  # CLI prints 12 digits; HiGHS is feasible to ~1e-9


class GateError(AssertionError):
    """An operation's output failed its correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


# ---------------------------------------------------------------------------
# Gates shared by several workloads.
# ---------------------------------------------------------------------------

def gate_mass_law(traj, exact, m0: float, label: str) -> None:
    """Total mass at every stored node within MASS_TOL * m0 of exact(t)."""
    for t, mu in zip(traj.times, traj.measures):
        want = exact(float(t))
        _require(abs(mu.total_mass - want) <= MASS_TOL * m0,
                 f"{label}: mass {mu.total_mass!r} at t={t} vs exact {want!r}")


def gate_negative_part(traj, label: str) -> None:
    worst = float(np.max(traj.neg_part_tv - NEG_PART_TOL * traj.tv_norm))
    _require(worst <= 0.0, f"{label}: negative part exceeds {NEG_PART_TOL} * TV by {worst:.3e}")


def gate_reached(traj, label: str) -> None:
    _require(traj.reached_horizon and not traj.blown_up, f"{label}: did not reach the horizon")


def gate_lp_transport_bound(v, times, norms, p: float, cell_width: float, label: str) -> None:
    """L^p norms under the certified transport bound, up to the harness's
    interpolation tolerance of half a cell width times the largest norm."""
    base = float(norms[0])
    tol = 0.5 * cell_width * float(np.max(norms))
    for t, norm in zip(times, norms):
        bound = mvt_transport.lp_transport_bound(v, float(times[0]), float(t), base, p)
        _require(norm <= bound + tol, f"{label}: L^p norm {norm!r} above bound {bound!r} at t={t}")


def reference_flat_distance(points_a, weights_a, points_b, weights_b, domain: str) -> float:
    """Flat norm of a - b by an LP this benchmark builds itself (HiGHS).

    Maximize sum w_i f_i over |f_i| <= 1, |f_i - f_j| <= d(x_i, x_j).  In 1D
    Euclidean only neighbours in sorted order need a constraint; otherwise
    every pair closer than 2 gets one (farther pairs follow from the box).
    """
    pts = np.concatenate([points_a, points_b]).astype(float)
    w = np.concatenate([weights_a, -np.asarray(weights_b, dtype=float)])
    n = len(w)
    if pts.shape[1] == 1 and domain == "euclidean":
        order = np.argsort(pts[:, 0], kind="stable")
        i, j = order[:-1], order[1:]
        dist = pts[j, 0] - pts[i, 0]
    else:
        i, j = np.triu_indices(n, k=1)
        delta = pts[i] - pts[j]
        if domain == "torus":
            delta = delta - np.round(delta)
        dist = np.sqrt(np.sum(delta * delta, axis=1))
        keep = dist < 2.0
        i, j, dist = i[keep], j[keep], dist[keep]
    m = len(dist)
    rows = np.repeat(np.arange(2 * m), 2)
    cols = np.stack([i, j, j, i], axis=1).reshape(-1)
    vals = np.tile([1.0, -1.0], 2 * m)
    a_ub = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(2 * m, n))
    res = scipy.optimize.linprog(-w, A_ub=a_ub, b_ub=np.repeat(dist, 2),
                                 bounds=(-1.0, 1.0), method="highs")
    if res.status != 0:
        raise GateError(f"reference LP failed: {res.message}")
    return float(-res.fun)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

def _solve(sc):
    return mvt_solver.solve_maximal(sc.reaction, sc.velocity, sc.initial, sc.t0,
                                    sc.horizon, sc.solver, initial_density=sc.density)


def _bundled(name: str, horizon: float | None = None, **solver):
    sc = mvt_scenarios.bundled_scenario(name)
    changes = {}
    if horizon is not None:
        changes["horizon"] = horizon
    if solver:
        changes["solver"] = dataclasses.replace(sc.solver, **solver)
    return dataclasses.replace(sc, **changes)


class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, round_index: int) -> list[tuple[str, object]]:
        """(op name, zero-argument callable) pairs of one round: by default,
        one ``solve_maximal`` per scenario that ``setup`` put in ``scenarios``."""
        return [(name, lambda sc=sc: _solve(sc)) for name, sc in self.scenarios.items()]

    def check(self, op: str, result) -> None:
        raise NotImplementedError


class Picard1D(Workload):
    name = "picard_1d"

    # Closed forms of the bundled scenarios (README, scenarios.py).
    LOGISTIC_R, LOGISTIC_K = 1.0, 2.0
    RICCATI_A = 1.0
    LINEAR_C = 2.0

    def setup(self) -> None:
        self.scenarios = {
            # horizon 1.0 -> 0.05 (0.7 s instead of 15 s on a 2-core x86 box)
            "logistic_drift": _bundled("logistic_drift", 0.05),
            # blow-up threshold 50 m0 -> 2 m0: stops at t ~ 0.025 < t* = 0.05
            "riccati_blowup": _bundled("riccati_blowup", tv_blowup_threshold=40.0),
            # horizon 0.5 -> 0.2, still two intervals of max_interval_tau = 0.1
            "linear_mass": _bundled("linear_mass", 0.2),
        }

    def check(self, op, traj):
        sc = self.scenarios[op]
        m0 = sc.initial.total_mass
        t0 = sc.t0
        if op == "logistic_drift":
            r, k = self.LOGISTIC_R, self.LOGISTIC_K
            gate_reached(traj, op)
            gate_mass_law(traj, lambda t: k * m0 * math.exp(r * (t - t0))
                          / (k + m0 * (math.exp(r * (t - t0)) - 1.0)), m0, op)
            gate_negative_part(traj, op)
        elif op == "riccati_blowup":
            t_star = t0 + 1.0 / (self.RICCATI_A * m0)
            _require(traj.blown_up and not traj.reached_horizon, f"{op}: blow-up not detected")
            _require(traj.blowup_time < t_star,
                     f"{op}: blow-up detected at {traj.blowup_time} >= t* = {t_star}")
        elif op == "linear_mass":
            gate_reached(traj, op)
            gate_mass_law(traj, lambda t: m0 * math.exp(self.LINEAR_C * (t - t0)), m0, op)


class DenseSupport(Workload):
    name = "dense_support"

    LP_GROWTH_C = 1.2
    LP_GROWTH_RTOL = 1e-4

    def setup(self) -> None:
        self.scenarios = {
            # horizon 0.6 -> 0.15 (one interval of max_interval_tau), 33 -> 9 nodes
            "lp_growth": _bundled("lp_growth", 0.15, quad_nodes=9),
            "lp_contraction": _bundled("lp_contraction"),
        }

    def check(self, op, traj):
        sc = self.scenarios[op]
        gate_reached(traj, op)
        u0 = sc.density
        if op == "lp_growth":
            base = float(traj.lp_norm[0])
            for t, norm in zip(traj.times, traj.lp_norm):
                want = base * math.exp(self.LP_GROWTH_C * (t - sc.t0))
                _require(abs(norm - want) <= self.LP_GROWTH_RTOL * want,
                         f"{op}: L^p norm {norm!r} at t={t} vs e^(ct) law {want!r}")
        else:
            gate_lp_transport_bound(sc.velocity, traj.times, traj.lp_norm, u0.p,
                                    float(np.max(u0.cell_widths)), op)


class TorusSource(Workload):
    name = "torus_source"

    def setup(self) -> None:
        # The seed places the initial atom away from the source bump (centre
        # 0.5, width 0.1).  The interval length stays fixed: the atom count has a
        # cliff in it (max_interval_tau 0.25 -> 110 atoms in 2.5 s, 0.27 -> 397
        # atoms in 64 s, measured on a 2-core x86 box), so a seeded interval
        # length would change the work by 25x between seeds.
        x0 = float(self.rng.uniform(0.05, 0.2))
        mass = float(self.rng.uniform(0.8, 1.2))
        source = _bundled("source_torus", max_interval_tau=0.25, quad_nodes=9)
        initial = mvt_scenarios.initial_measure("diracs", [mass, x0], 1, source.domain)
        self.scenarios = {
            "source_torus": dataclasses.replace(source, initial=initial),
            # horizon 1.5 -> 0.75
            "death_shear": _bundled("death_shear", 0.75),
        }

    def check(self, op, traj):
        gate_reached(traj, op)
        gate_negative_part(traj, op)
        if op == "death_shear":
            sc = self.scenarios[op]
            m0 = sc.initial.total_mass
            gate_mass_law(traj, lambda t: m0 * math.exp(-(t - sc.t0)), m0, op)


class CliQueries(Workload):
    name = "cli_queries"

    CELLS = 160
    BOX = (-2.0, 2.0)
    HORIZON = 0.5
    P = 2.0
    # Query sizes keep the dense simplex dominant without reaching its cliff
    # (2x60 torus atoms took 47 s against 1.55 s at 2x40); at 2x14 a query
    # takes ~0.02 s and its tableau stays small, so peak RSS does not depend
    # on the seed.  Simplex time varies ~0.65x (std/mean) between random
    # supports, so each round asks QUERIES of each kind and rounds cycle
    # through POOL different sets: the median round is steady across seeds.
    # The 1D pairs are 2x500 because the chain DP keeps every level, O(n^2)
    # memory that depends on the data: one 2x2000 pair made peak RSS swing by
    # ~20% between seeds, one 2x1000 pair by ~7%.
    N_LINE, N_TORUS, N_PLANE = 500, 14, 14
    LINE_QUERIES, QUERIES = 4, 20
    POOL = 8

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        rng = self.rng
        self.field_a = float(rng.uniform(-0.8, -0.5))
        sigma = float(rng.uniform(0.4, 0.6))
        self.ini = self.work_dir / "density.ini"
        self.out = self.work_dir / "simulate_out"
        self.ini.write_text(
            "[scenario]\nname = bench_density\ndim = 2\n"
            f"horizon = {self.HORIZON}\nseed = {self.seed}\n"
            f"[field]\nname = linear\nparams = {self.field_a!r}\n"
            "[reaction]\nname = zero\n"
            "[initial]\nkind = diracs\nparams = 1.0, 0.1, -0.2\n"
            "[solver]\nquad_nodes = 9\n"
            f"[density]\nkind = gaussian\nbox = {self.BOX[0]}, {self.BOX[1]}\n"
            f"cells = {self.CELLS}\np = {self.P}\nparams = {sigma!r}\n"
            "[output]\nsnapshots = 3\n",
            encoding="ascii",
        )
        self.pairs: dict[str, tuple] = {}
        self.line_queries = [self._write_pair(f"line_{q}", self.N_LINE, 1, "euclidean")
                             for q in range(self.LINE_QUERIES)]
        self.pool = []
        for k in range(self.POOL):
            queries = []
            for q in range(self.QUERIES):
                queries.append(self._write_pair(f"torus_{k}_{q}", self.N_TORUS, 1, "torus"))
                queries.append(self._write_pair(f"plane_{k}_{q}", self.N_PLANE, 2, "euclidean"))
            self.pool.append(queries)
        self.references: dict[str, float] = {}

    def _write_pair(self, tag: str, n: int, dim: int, domain: str) -> str:
        rng = self.rng
        sides = []
        for side in "ab":
            if domain == "torus":
                pts = rng.uniform(0.0, 1.0, size=(n, dim))
            else:
                pts = rng.uniform(-1.0, 1.0, size=(n, dim))
            wts = rng.uniform(0.5, 1.5, size=n) / n
            path = self.work_dir / f"{tag}_{side}.csv"
            with open(path, "w", encoding="ascii", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow([f"x{k + 1}" for k in range(dim)] + ["weight"])
                for row in range(n):
                    writer.writerow([repr(float(x)) for x in pts[row]] + [repr(float(wts[row]))])
            sides.append((str(path), pts, wts))
        op = f"metric_{tag}"
        self.pairs[op] = (domain, sides[0], sides[1])
        return op

    @staticmethod
    def _cli(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mvt_cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def ops(self, round_index):
        sim = ["simulate", "--config", str(self.ini), "--out", str(self.out)]
        ops = [("simulate", lambda: self._cli(sim))]
        for op in self.line_queries + self.pool[round_index % self.POOL]:
            domain, (path_a, _, _), (path_b, _, _) = self.pairs[op]
            argv = ["metric", path_a, path_b, "--domain", domain]
            ops.append((op, lambda argv=argv: self._cli(argv)))
        return ops

    def check(self, op, result):
        code, out, err = result
        _require(code == 0, f"{op}: exit code {code}: {err.strip()}")
        if op == "simulate":
            self._check_simulate()
            return
        got = float(out.strip().splitlines()[-1])
        if op not in self.references:
            domain, (_, pa, wa), (_, pb, wb) = self.pairs[op]
            self.references[op] = reference_flat_distance(pa, wa, pb, wb, domain)
        want = self.references[op]
        _require(abs(got - want) <= METRIC_RTOL * max(1.0, abs(want)),
                 f"{op}: mvt metric {got!r} vs reference LP {want!r}")

    def _check_simulate(self) -> None:
        with open(self.out / "trajectory.csv", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) >= 2, "simulate: trajectory.csv has no nodes")
        times = np.array([float(r["t"]) for r in rows])
        norms = np.array([float(r["lp_norm"]) for r in rows])
        _require(abs(times[-1] - self.HORIZON) <= 1e-9, f"simulate: stopped at t={times[-1]}")
        _require((self.out / "snapshots.csv").exists(), "simulate: no snapshots.csv")
        v = mvt_velocity.builtin_field("linear", [self.field_a], 2)
        width = (self.BOX[1] - self.BOX[0]) / self.CELLS
        gate_lp_transport_bound(v, times, norms, self.P, width, "simulate")


WORKLOADS = {w.name: w for w in (Picard1D, DenseSupport, TorusSource, CliQueries)}
