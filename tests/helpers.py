"""Seeded random generators, solver fault injection and reference kernels shared across the test modules."""
from __future__ import annotations

import csv
import io
from itertools import product

import numpy as np

from mvt import solver
from mvt.geometry import EUCLIDEAN, TORUS, wrap_torus
from mvt.measures import BoundedLipschitzFunction, DiscreteSignedMeasure, measure


def random_signed(
    rng: np.random.Generator,
    n_atoms: int,
    dim: int,
    domain: str = EUCLIDEAN,
    span: float = 1.5,
    weight_scale: float = 2.0,
) -> DiscreteSignedMeasure:
    if domain == TORUS:
        pts = rng.uniform(0.0, 1.0, size=(n_atoms, dim))
    else:
        pts = rng.uniform(-span, span, size=(n_atoms, dim))
    wts = rng.uniform(-weight_scale, weight_scale, size=n_atoms)
    wts[np.abs(wts) < 1e-3] = 1e-3  # keep atoms away from the drop threshold
    return measure(pts, wts, domain)


def random_positive(
    rng: np.random.Generator,
    n_atoms: int,
    dim: int,
    domain: str = EUCLIDEAN,
    span: float = 1.5,
    weight_scale: float = 2.0,
) -> DiscreteSignedMeasure:
    if domain == TORUS:
        pts = rng.uniform(0.0, 1.0, size=(n_atoms, dim))
    else:
        pts = rng.uniform(-span, span, size=(n_atoms, dim))
    wts = rng.uniform(0.05, weight_scale, size=n_atoms)
    return measure(pts, wts, domain)


def random_sine_function(rng: np.random.Generator, dim: int) -> BoundedLipschitzFunction:
    """a*sin(b . x + phase) with certified sup and Lipschitz bounds."""
    a = float(rng.uniform(0.2, 2.0))
    b = rng.uniform(-2.0, 2.0, size=dim)
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return BoundedLipschitzFunction(
        evaluate=lambda pts, a=a, b=b, phase=phase: a * np.sin(pts @ b + phase),
        sup_bound=abs(a),
        lip_bound=abs(a) * float(np.linalg.norm(b)),
        name="sine",
    )


def fail_fixed_point_on_call(monkeypatch, n: int) -> None:
    """Make ``solver._fixed_point`` raise NonContractionError on its n-th call."""
    fixed_point = solver._fixed_point
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == n:
            raise solver.NonContractionError("forced failure", measured_ratio=0.9)
        return fixed_point(*args)

    monkeypatch.setattr(solver, "_fixed_point", failing)


# ---------------------------------------------------------------------------
# Reference kernels: the straightforward per-corner and per-row forms that
# grids.interpolate and the CSV writers must match bit for bit.
# ---------------------------------------------------------------------------

def reference_interpolate(u, points) -> np.ndarray:
    """Multilinear interpolation, one full pass over the points per grid corner."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, u.dim)
    if u.domain == TORUS:
        pts = wrap_torus(pts.copy())
    rel = (pts - u.box_min) / u.cell_widths - 0.5
    base = np.floor(rel).astype(np.int64)
    frac = rel - base
    out = np.zeros(pts.shape[0])
    for corner in product((0, 1), repeat=u.dim):
        idx = base + np.array(corner, dtype=np.int64)
        weight = np.ones(pts.shape[0])
        for k in range(u.dim):
            weight = weight * np.where(corner[k], frac[:, k], 1.0 - frac[:, k])
        if u.domain == TORUS:
            gather = tuple(np.mod(idx[:, k], u.cells) for k in range(u.dim))
            out += weight * u.values[gather]
        else:
            valid = np.all((idx >= 0) & (idx < u.cells), axis=1)
            gather = tuple(np.clip(idx[:, k], 0, u.cells - 1) for k in range(u.dim))
            out += np.where(valid, weight * u.values[gather], 0.0)
    return out


def reference_density_csv(u) -> str:
    """The density CSV written row by row through ``csv.writer``."""
    dim = u.dim
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["cells_per_axis"]
        + [f"box_min_{k + 1}" for k in range(dim)]
        + [f"box_max_{k + 1}" for k in range(dim)]
        + ["p"]
    )
    writer.writerow(
        [str(u.cells)]
        + [repr(float(x)) for x in u.box_min]
        + [repr(float(x)) for x in u.box_max]
        + ["inf" if np.isinf(u.p) else repr(float(u.p))]
    )
    for val in u.values.ravel():
        writer.writerow([repr(float(val))])
    return buf.getvalue()


def reference_measure_csv(mu) -> str:
    """The measure CSV written row by row through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{k + 1}" for k in range(mu.dim)] + ["weight"])
    for row in range(mu.num_atoms):
        writer.writerow([repr(float(c)) for c in mu.points[row]] + [repr(float(mu.weights[row]))])
    return buf.getvalue()


def assert_same_text(text: str, want: str) -> None:
    """``text == want``, naming the first differing line first: pytest's diff
    of two texts of thousands of lines takes minutes."""
    lines, want_lines = text.splitlines(), want.splitlines()
    first = next((k for k, pair in enumerate(zip(lines, want_lines)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first + 1}: {lines[first]!r}, expected {want_lines[first]!r}"
    assert len(lines) == len(want_lines), f"{len(lines)} lines, expected {len(want_lines)}"
    assert text == want
