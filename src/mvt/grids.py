"""Gridded densities: cell-averaged values on a uniform box grid.

Densities complement the particle representation: positive measures
with an L^p density are tracked on a uniform grid with the same number
of cells along every axis.  Values are cell averages; quantization
turns a density into a particle measure with one atom per cell.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.special

from .geometry import EUCLIDEAN, TORUS, validate_dim, validate_domain, wrap_torus
from .measures import WEIGHT_EPS, DiscreteSignedMeasure, _read_rows, measure, write_float_rows


class GridError(ValueError):
    """Raised when grid inputs violate a documented precondition."""


@dataclass(frozen=True)
class GridDensity:
    """Cell-averaged density on a uniform grid over a box.

    ``values`` has shape (cells,) * d in row-major axis order and
    ``p`` in (1, inf] is the Lebesgue exponent the density is tracked
    in (numpy's inf is accepted).
    """

    box_min: np.ndarray
    box_max: np.ndarray
    cells: int
    values: np.ndarray
    p: float
    domain: str = EUCLIDEAN

    @property
    def dim(self) -> int:
        return self.box_min.shape[0]

    @property
    def cell_widths(self) -> np.ndarray:
        return (self.box_max - self.box_min) / self.cells

    @property
    def cell_volume(self) -> float:
        return math.prod(self.cell_widths.tolist())  # np.prod's product, without its overhead

    def axis_centers(self, axis: int) -> np.ndarray:
        w = self.cell_widths[axis]
        return self.box_min[axis] + w * (np.arange(self.cells) + 0.5)

    def center_points(self) -> np.ndarray:
        """All cell centers as a (cells**d, d) array, row-major order."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def grid_density(
    box_min,
    box_max,
    cells: int,
    values: np.ndarray,
    p: float,
    domain: str = EUCLIDEAN,
) -> GridDensity:
    validate_domain(domain)
    lo = np.atleast_1d(np.asarray(box_min, dtype=float))
    hi = np.atleast_1d(np.asarray(box_max, dtype=float))
    if lo.shape != hi.shape:
        raise GridError("box_min and box_max must have the same length")
    dim = validate_dim(lo.shape[0])
    if not np.all(hi > lo):
        raise GridError("box_max must exceed box_min on every axis")
    if domain == TORUS and (np.any(lo != 0.0) or np.any(hi != 1.0)):
        raise GridError("torus densities live on the unit box [0,1]^d")
    cells = int(cells)
    if cells < 1:
        raise GridError("cells per axis must be positive")
    p = float(p)
    if not (p > 1.0):
        raise GridError("density exponent p must lie in (1, inf]")
    vals = np.asarray(values, dtype=float)
    if vals.shape != (cells,) * dim:
        raise GridError(f"values shape {vals.shape} != {(cells,) * dim}")
    if not np.all(np.isfinite(vals)):
        raise GridError("density values must be finite")
    vals = np.ascontiguousarray(vals)
    vals.setflags(write=False)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return GridDensity(lo, hi, cells, vals, p, domain)


def with_values(u: GridDensity, values: np.ndarray) -> GridDensity:
    return grid_density(u.box_min, u.box_max, u.cells, values, u.p, u.domain)


def lp_norm(u: GridDensity, p: float | None = None) -> float:
    """L^p norm of the piecewise-constant density (any p >= 1 allowed here)."""
    q = u.p if p is None else float(p)
    if np.isinf(q):
        return float(np.max(np.abs(u.values))) if u.values.size else 0.0
    if q < 1.0:
        raise GridError("norm exponent must be >= 1")
    return float(np.sum(np.abs(u.values) ** q) * u.cell_volume) ** (1.0 / q)


def mass(u: GridDensity) -> float:
    return float(u.values.sum() * u.cell_volume)


def quantize(u: GridDensity) -> DiscreteSignedMeasure:
    """One atom per cell at the cell center, weight = value * cell volume."""
    weights = u.values.ravel() * u.cell_volume
    keep = np.abs(weights) >= WEIGHT_EPS
    pts = u.center_points()[keep]
    return measure(pts, weights[keep], u.domain)


def interpolate(u: GridDensity, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of cell-center values at arbitrary points.

    Euclidean densities are treated as zero outside the box; torus
    densities wrap periodically.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, u.dim)
    torus = u.domain == TORUS
    if torus:
        pts = wrap_torus(pts.copy())
    n = u.cells
    # Per axis, the (flat index term, weight, in-box mask) of its low and
    # high neighbour; a corner's weight is the product over the axes,
    # left to right, and corners add up in itertools.product order.
    sides = []
    for k in range(u.dim):
        rel = (pts[:, k] - u.box_min[k]) / u.cell_widths[k] - 0.5
        lo = np.floor(rel).astype(np.int64)
        f = rel - lo
        stride = n ** (u.dim - 1 - k)
        axis = []
        for idx, w in ((lo, 1.0 - f), (lo + 1, f)):
            inside = True if torus else (idx >= 0) & (idx < n)
            idx = np.mod(idx, n) if torus else np.clip(idx, 0, n - 1)
            axis.append((idx * stride, w, inside))
        sides.append(axis)
    values = u.values.ravel()
    out = np.zeros(pts.shape[0])
    for corner in product(*sides):
        flat, weight, valid = corner[0]
        for idx, w, inside in corner[1:]:
            flat = flat + idx
            weight = weight * w
            valid = valid & inside
        term = weight * values[flat]
        out += term if torus else np.where(valid, term, 0.0)
    return out


# ---------------------------------------------------------------------------
# Reference density builders.
# ---------------------------------------------------------------------------

def uniform_density(box_min, box_max, cells: int, value: float, p: float, domain: str = EUCLIDEAN) -> GridDensity:
    lo = np.atleast_1d(np.asarray(box_min, dtype=float))
    dim = lo.shape[0]
    vals = np.full((cells,) * dim, float(value))
    return grid_density(box_min, box_max, cells, vals, p, domain)


def indicator_density(box_min, box_max, cells: int, lo_corner, hi_corner, value: float, p: float) -> GridDensity:
    """value on the sub-box [lo_corner, hi_corner], zero elsewhere (cell averages)."""
    u0 = uniform_density(box_min, box_max, cells, 0.0, p)
    lo_c = np.atleast_1d(np.asarray(lo_corner, dtype=float))
    hi_c = np.atleast_1d(np.asarray(hi_corner, dtype=float))
    vals = np.full((cells,) * u0.dim, 1.0)
    for k in range(u0.dim):
        centers = u0.axis_centers(k)
        w = u0.cell_widths[k]
        cover = np.clip(
            (np.minimum(centers + 0.5 * w, hi_c[k]) - np.maximum(centers - 0.5 * w, lo_c[k])) / w,
            0.0,
            1.0,
        )
        shape = [1] * u0.dim
        shape[k] = -1
        vals = vals * cover.reshape(shape)
    return grid_density(box_min, box_max, cells, float(value) * vals, p)


def gaussian_density(
    box_min,
    box_max,
    cells: int,
    sigma: float,
    center,
    p: float,
    total_mass: float = 1.0,
    domain: str = EUCLIDEAN,
) -> GridDensity:
    """Isotropic Gaussian with exact cell averages (per-axis normal CDF differences)."""
    if sigma <= 0:
        raise GridError("sigma must be positive")
    lo = np.atleast_1d(np.asarray(box_min, dtype=float))
    hi = np.atleast_1d(np.asarray(box_max, dtype=float))
    ctr = np.atleast_1d(np.asarray(center, dtype=float))
    dim = lo.shape[0]
    vals = np.ones((cells,) * dim)
    for k in range(dim):
        w = (hi[k] - lo[k]) / cells
        edges = lo[k] + w * np.arange(cells + 1)
        cdf = scipy.special.ndtr((edges - ctr[k]) / sigma)
        axis_avg = np.diff(cdf) / w
        shape = [1] * dim
        shape[k] = -1
        vals = vals * axis_avg.reshape(shape)
    return grid_density(box_min, box_max, cells, float(total_mass) * vals, p, domain)


# ---------------------------------------------------------------------------
# CSV serialisation: metadata header row, its value row, then row-major
# density values one per line.
# ---------------------------------------------------------------------------

def _csv_header(dim: int) -> list[str]:
    return (
        ["cells_per_axis"]
        + [f"box_min_{k + 1}" for k in range(dim)]
        + [f"box_max_{k + 1}" for k in range(dim)]
        + ["p"]
    )


def density_to_csv(u: GridDensity) -> str:
    meta = [repr(x) for x in [*u.box_min.tolist(), *u.box_max.tolist(), float(u.p)]]
    buf = io.StringIO()
    buf.write(",".join(_csv_header(u.dim)) + "\n" + ",".join([str(u.cells)] + meta) + "\n")
    write_float_rows(buf, [u.values.ravel()])
    return buf.getvalue()


def save_density(u: GridDensity, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(density_to_csv(u))


def density_from_csv(text: str, domain: str = EUCLIDEAN) -> GridDensity:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
        meta = next(reader)
    except StopIteration:
        raise GridError("density file needs a header and a metadata row") from None
    header = [h.strip() for h in header]
    if len(header) < 4 or header[0] != "cells_per_axis" or header[-1] != "p":
        raise GridError(f"bad density header {header!r}")
    dim = (len(header) - 2) // 2
    expected = _csv_header(dim)
    if header != expected:
        raise GridError(f"bad density header {header!r}; expected {expected}")
    if len(meta) != len(header):
        raise GridError("metadata row length does not match header")
    cells = int(meta[0])
    box_min = [float(x) for x in meta[1 : 1 + dim]]
    box_max = [float(x) for x in meta[1 + dim : 1 + 2 * dim]]
    p = float(meta[-1])
    flat = _read_rows(reader, 1, 3, GridError)
    expected_count = cells**dim
    if len(flat) != expected_count:
        raise GridError(f"expected {expected_count} density values, got {len(flat)}")
    values = flat.reshape((cells,) * dim)
    return grid_density(box_min, box_max, cells, values, p, domain)


def load_density(path: str, domain: str = EUCLIDEAN) -> GridDensity:
    with open(path, "r", encoding="ascii") as fh:
        return density_from_csv(fh.read(), domain)
