"""Finitely supported signed measures and bounded Lipschitz test functions.

A measure is a finite list of weighted atoms in dimension d <= 3, either
on Euclidean space or on the unit torus.  All other modules build on the
operations here: total variation, linear combination, multiplication by
a scalar function, Hahn-Jordan splitting and atom coalescing.

Atoms are stored as a (n, d) coordinate array plus a (n,) weight array.
Measures returned by the constructors in this module are canonical:
torus coordinates wrapped to [0, 1), atoms within ``COALESCE_EPS`` of
each other merged, weights below ``WEIGHT_EPS`` dropped, and atoms
sorted lexicographically by coordinates.  The canonical form makes
equality checks and downstream optimisation deterministic.

Coalescing merges the connected components of the eps-graph (edges:
``geometry.distance <= eps``), numbered by their lowest atom index.  In
1D they are runs of the atoms sorted by (wrapped) coordinate, the torus
seam joining the last run to the first.  From 2D a ``cKDTree`` (periodic
on the torus) proposes the pairs within 2 * eps, the exact rule keeps
the edges, and ``connected_components`` groups them.  All components of
2-7 atoms merge in one array pass, bitwise as ``np.sum`` per component.

One rule, ``_separated``, lets coalescing skip the merge pass: when the
sorted first coordinates of a support have every gap (and, on the
torus, the wrap-around gap) above eps, no two atoms are within eps, so
the pass could merge nothing.  ``linear_combine`` of two measures on the
same separated support therefore adds the weights atom by atom, which
is bitwise what merging the concatenation would give.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geometry import (
    EUCLIDEAN,
    TORUS,
    coordinate_deltas,
    distance,
    validate_dim,
    validate_domain,
    wrap_torus,
)

# Atoms closer than this merge into one; weights smaller than this are dropped.
COALESCE_EPS = 1e-12
WEIGHT_EPS = 1e-15


class MeasureError(ValueError):
    """Raised when measure inputs violate a documented precondition."""


@dataclass(frozen=True)
class DiscreteSignedMeasure:
    """Finitely supported signed measure: weighted atoms on a fixed domain."""

    points: np.ndarray
    weights: np.ndarray
    domain: str = EUCLIDEAN

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_atoms(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def is_positive(self) -> bool:
        """No weight below -``WEIGHT_EPS``."""
        if self.num_atoms == 0:
            return True
        return bool(np.min(self.weights) >= -WEIGHT_EPS)


@dataclass(frozen=True)
class BoundedLipschitzFunction:
    """Scalar test function with explicit sup and Lipschitz bounds.

    ``evaluate`` maps a (n, d) array of points to a (n,) array of values.
    The bounds are caller-supplied certificates, not estimates: callers
    must guarantee |f| <= sup_bound everywhere and Lip(f) <= lip_bound
    for the metric of the domain the function is used on.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    lip_bound: float
    name: str = ""

    @property
    def fm_bound(self) -> float:
        """Norm max(sup_bound, lip_bound) used in the product inequality."""
        return max(self.sup_bound, self.lip_bound)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluate(np.asarray(points, dtype=float)), dtype=float)


def measure(
    points: Sequence | np.ndarray,
    weights: Sequence | np.ndarray,
    domain: str = EUCLIDEAN,
) -> DiscreteSignedMeasure:
    """Build a canonical measure from raw atoms (coalesced, pruned, sorted)."""
    validate_domain(domain)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)  # a list of 1D coordinates
    if pts.ndim != 2:
        raise MeasureError(f"points must form a (n, d) array, got shape {pts.shape}")
    wts = np.asarray(weights, dtype=float).reshape(-1)
    if pts.shape[0] != wts.shape[0]:
        raise MeasureError(
            f"{pts.shape[0]} points but {wts.shape[0]} weights"
        )
    validate_dim(pts.shape[1])
    if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(wts)):
        raise MeasureError("points and weights must be finite")
    if domain == TORUS and pts.size:
        pts = wrap_torus(pts)
    raw = DiscreteSignedMeasure(_readonly(pts), _readonly(wts), domain)
    return coalesce(raw)


def empty_measure(dim: int, domain: str = EUCLIDEAN) -> DiscreteSignedMeasure:
    validate_domain(domain)
    validate_dim(dim)
    return DiscreteSignedMeasure(
        _readonly(np.zeros((0, dim))), _readonly(np.zeros(0)), domain
    )


def dirac(point: Sequence | float, weight: float = 1.0, domain: str = EUCLIDEAN) -> DiscreteSignedMeasure:
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    return measure(pt.reshape(1, -1), [weight], domain)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


def _canonical_order(points: np.ndarray, weights: np.ndarray):
    if points.shape[0] <= 1:
        return points, weights
    order = np.lexsort(tuple(points[:, k] for k in range(points.shape[1] - 1, -1, -1)))
    return points[order], weights[order]


def _left_sum(x: np.ndarray) -> np.ndarray:  # over axis 1 from 0.0, as np.sum adds < 8 terms
    return reduce(np.add, np.moveaxis(x, 1, 0), 0.0)


def _merged(pts: np.ndarray, w: np.ndarray, sizes, domain: str, total):
    """Each row's merged atom, ``total`` summing a row: its first (lowest) member
    plus the |w|-weighted mean offset (plain if all w are 0), weighing sum w."""
    rel = pts - pts[:, :1]
    if domain == TORUS:
        rel = rel - np.round(rel)
    aw = total(np.abs(w))
    moment = np.where(aw[:, None] > 0.0, total(np.abs(w)[..., None] * rel), total(rel))
    return pts[:, 0] + moment / np.where(aw > 0.0, aw, sizes)[:, None], total(w)


def _merge_pass(points: np.ndarray, weights: np.ndarray, domain: str):
    """One clustering pass: merge connected components of the ``COALESCE_EPS``-graph.

    Components of 2-7 atoms merge at once, as rows padded to 7 members
    by the lowest at weight 0.0, which adds nothing to a left-to-right
    sum: bitwise, that is ``np.sum`` per component.  From 8 terms
    ``np.sum`` reorders, so bigger ones call it one by one.  A lone atom
    is ``points[i] + 0.0`` (wrapped on the torus) with weight
    ``weights[i] + 0.0``.  When no edge survives, the inputs come back
    unchanged.
    """
    labels = (_run_labels if points.shape[1] == 1 else _tree_labels)(points, domain)
    if labels is None:
        return points, weights, False
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")  # by component, then index
    starts = np.cumsum(sizes) - sizes
    new_pts = points[members[starts]] + 0.0
    new_wts = weights[members[starts]] + 0.0
    rows = np.flatnonzero((sizes > 1) & (sizes < 8))
    live = np.arange(7) < sizes[rows, None]
    idxs = members[starts[rows, None] + np.where(live, np.arange(7), 0)]  # pads: the lowest
    new_pts[rows], new_wts[rows] = _merged(
        points[idxs], np.where(live, weights[idxs], 0.0), sizes[rows], domain, _left_sum)
    for row in np.flatnonzero(sizes >= 8):
        idxs = members[None, starts[row]:starts[row] + sizes[row]]
        new_pts[[row]], new_wts[[row]] = _merged(
            points[idxs], weights[idxs], sizes[row], domain, partial(np.sum, axis=1))
    if domain == TORUS:
        new_pts = wrap_torus(new_pts)
    return new_pts, new_wts, True


def _tree_labels(points: np.ndarray, domain: str) -> np.ndarray | None:
    """The ``COALESCE_EPS``-graph's component of each atom, numbered by lowest atom; None without an edge."""
    n = points.shape[0]
    if domain == TORUS:
        tree = cKDTree(wrap_torus(points), boxsize=1.0)
    else:
        tree = cKDTree(points)
    pairs = tree.query_pairs(2.0 * COALESCE_EPS, output_type="ndarray")
    pairs = pairs[distance(points[pairs[:, 0]], points[pairs[:, 1]], domain) <= COALESCE_EPS]
    if not pairs.shape[0]:
        return None
    graph = coo_array((np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _run_labels(points: np.ndarray, domain: str) -> np.ndarray | None:
    """``_tree_labels`` in 1D.  Sorted by (wrapped) coordinate, atoms within eps
    have every atom between them within eps of its neighbours, so the pairs
    of neighbours, and of the last and the first (the torus seam; on the
    line it only links atoms already linked), connect each component."""
    n = points.shape[0]
    order = np.argsort(wrap_torus(points[:, 0]) if domain == TORUS else points[:, 0],
                       kind="stable")
    link = distance(points[order], points[np.roll(order, -1)], domain) <= COALESCE_EPS
    link[-1] &= n > 1  # a lone atom is no pair
    if not link.any():
        return None
    run = np.concatenate(([0], np.cumsum(~link[:-1])))  # by sorted position
    if link[-1]:
        run[run == run[-1]] = 0
    lowest = np.full(n, n)
    np.minimum.at(lowest, run, order)
    labels = np.empty(n, dtype=np.intp)
    labels[order] = lowest[run]
    return np.unique(labels, return_inverse=True)[1]


def _separated(points: np.ndarray, domain: str) -> bool:
    """True when the first coordinates alone keep every pair beyond ``COALESCE_EPS``.

    Distance is at least the first-coordinate gap, so ``_merge_pass``
    then finds no pair.  The test is sufficient, not necessary: tied
    first coordinates in d > 1 return False.  On the torus it also
    needs canonical coordinates in [0, 1), and it measures the
    wrap-around gap between the extreme atoms as ``geometry.distance``
    does.
    """
    return _gaps_clear(np.sort(points[:, 0]), points, domain)


def _gaps_clear(x0: np.ndarray, points: np.ndarray, domain: str) -> bool:
    """``_separated``'s rule on ``x0``, the first coordinates of ``points`` in their given order.

    Every step from one coordinate to the next must exceed ``COALESCE_EPS``,
    so coordinates out of ascending order fail.
    """
    if not np.all(np.diff(x0) > COALESCE_EPS):
        return False
    if domain != TORUS:
        return True
    if not np.all((points >= 0.0) & (points < 1.0)):
        return False
    return x0.shape[0] < 2 or bool(abs(coordinate_deltas(x0[0], x0[-1], TORUS)) > COALESCE_EPS)


def _pruned_canonical(
    points: np.ndarray, weights: np.ndarray, domain: str
) -> DiscreteSignedMeasure:
    keep = np.abs(weights) >= WEIGHT_EPS
    pts = points[keep]
    if domain == TORUS and not np.all((pts >= 0.0) & (pts < 1.0)):
        pts = wrap_torus(pts)  # only then, so canonical points keep their bits
    pts, wts = _canonical_order(pts, weights[keep])
    return DiscreteSignedMeasure(_readonly(pts), _readonly(wts), domain)


def coalesce(mu: DiscreteSignedMeasure) -> DiscreteSignedMeasure:
    """Merge atoms within ``COALESCE_EPS`` and prune weights below ``WEIGHT_EPS``.

    Merged atoms sum their weights and sit at the weight-magnitude
    weighted mean position.  The pass repeats until no pair is within
    ``COALESCE_EPS``, so the operation is idempotent.  A support that
    ``_separated`` clears skips the pass, which could merge nothing.
    Output atoms are sorted lexicographically by coordinates.
    """
    pts = np.asarray(mu.points, dtype=float)
    wts = np.asarray(mu.weights, dtype=float)
    changed = pts.shape[0] > 1 and not _separated(pts, mu.domain)
    while changed and pts.shape[0] > 1:
        pts, wts, changed = _merge_pass(pts, wts, mu.domain)
    return _pruned_canonical(pts, wts, mu.domain)


def tv_norm(mu: DiscreteSignedMeasure) -> float:
    """Total variation norm: sum of absolute atom weights."""
    return float(np.sum(np.abs(mu.weights)))


def _check_compatible(mu: DiscreteSignedMeasure, nu: DiscreteSignedMeasure) -> None:
    if mu.domain != nu.domain:
        raise MeasureError(f"domain mismatch: {mu.domain} vs {nu.domain}")
    if mu.dim != nu.dim:
        raise MeasureError(f"dimension mismatch: {mu.dim} vs {nu.dim}")


def linear_combine(
    a: float,
    mu: DiscreteSignedMeasure,
    b: float,
    nu: DiscreteSignedMeasure,
) -> DiscreteSignedMeasure:
    """Coalesced atom list of a*mu + b*nu.

    When mu and nu have the same points and ``_separated`` clears them,
    the weights add atom by atom with no merge pass.  The points get
    ``+ 0.0`` as the merge's ``ref + 0.0`` would, turning -0.0 into 0.0,
    so the result is bitwise ``coalesce`` of the concatenation.
    """
    _check_compatible(mu, nu)
    if (
        mu.num_atoms
        and np.array_equal(mu.points, nu.points)
        and _separated(mu.points, mu.domain)
    ):
        return _pruned_canonical(
            mu.points + 0.0, a * mu.weights + b * nu.weights, mu.domain
        )
    pts = np.concatenate([mu.points, nu.points])
    wts = np.concatenate([a * mu.weights, b * nu.weights])
    if pts.shape[0] == 0:
        return empty_measure(mu.dim, mu.domain)
    return coalesce(DiscreteSignedMeasure(_readonly(pts), _readonly(wts), mu.domain))


def _scaled(weights: np.ndarray, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """weights * factors and its kept entries, |w f| >= ``WEIGHT_EPS``; raises on a non-finite factor."""
    if not np.isfinite(factors).all():
        raise MeasureError("function returned non-finite values on the support")
    out = weights * factors
    return out, np.abs(out) >= WEIGHT_EPS


def multiply_by_function(
    g: BoundedLipschitzFunction | Callable[[np.ndarray], np.ndarray],
    mu: DiscreteSignedMeasure,
) -> DiscreteSignedMeasure:
    """Measure with weights w_i * g(x_i); errors on non-finite values."""
    if mu.num_atoms == 0:
        return mu
    values = np.asarray(g(mu.points), dtype=float).reshape(-1)
    if values.shape[0] != mu.num_atoms:
        raise MeasureError("function returned wrong number of values")
    wts, keep = _scaled(mu.weights, values)
    return DiscreteSignedMeasure(
        _readonly(mu.points[keep]), _readonly(wts[keep]), mu.domain
    )


def negative_part_tv(mu: DiscreteSignedMeasure) -> float:
    # + 0.0 normalises the empty sum's -0.0.
    return float(-np.sum(mu.weights[mu.weights < 0.0]) + 0.0)


# ---------------------------------------------------------------------------
# CSV serialisation: header x1,...,xd,weight then one atom per row.
# ---------------------------------------------------------------------------

_CSV_CHUNK_ROWS = 4096


def write_float_rows(fh, columns: Sequence[np.ndarray]) -> None:
    """Write equal-length numeric columns to ``fh`` as CSV rows of ``repr`` values.

    Each column keeps its own dtype, so an integer column prints as integers.
    Formats ``_CSV_CHUNK_ROWS`` rows at a time, so a large table's row strings never all exist at once.
    """
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        cells = [map(repr, np.asarray(c[start:stop]).tolist()) for c in columns]
        fh.write("\n".join(map(",".join, zip(*cells))))
        fh.write("\n")


def _read_rows(reader, width: int, first_line: int, error: type[Exception]) -> np.ndarray:
    """The rest of ``reader`` as an (n, width) float array; blank rows are skipped.

    ``first_line`` is the line number of the first row read.  A row of
    another width or with a non-numeric field raises ``error`` naming
    its line.
    """
    rows = []
    for line_no, row in enumerate(reader, start=first_line):
        if not row:
            continue
        if len(row) != width:
            raise error(f"row {line_no}: has {len(row)} fields, expected {width}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise error(f"row {line_no}: {exc}") from None
    return np.array(rows, dtype=float).reshape(-1, width)


def measure_to_csv(mu: DiscreteSignedMeasure) -> str:
    buf = io.StringIO()
    buf.write(",".join([f"x{k + 1}" for k in range(mu.dim)] + ["weight"]) + "\n")
    write_float_rows(buf, [*mu.points.T, mu.weights])
    return buf.getvalue()


def save_measure(mu: DiscreteSignedMeasure, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(measure_to_csv(mu))


def measure_from_csv(text: str, domain: str = EUCLIDEAN) -> DiscreteSignedMeasure:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MeasureError("empty measure file") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[-1] != "weight":
        raise MeasureError(f"bad measure header {header!r}; expected x1,...,xd,weight")
    dim = len(header) - 1
    expected = [f"x{k + 1}" for k in range(dim)]
    if header[:-1] != expected:
        raise MeasureError(f"bad measure header {header!r}; expected {expected + ['weight']}")
    validate_dim(dim)
    rows = _read_rows(reader, dim + 1, 2, MeasureError)
    if not len(rows):
        return empty_measure(dim, domain)
    return measure(rows[:, :dim], rows[:, dim], domain)


def load_measure(path: str, domain: str = EUCLIDEAN) -> DiscreteSignedMeasure:
    with open(path, "r", encoding="ascii") as fh:
        return measure_from_csv(fh.read(), domain)
