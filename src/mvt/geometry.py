"""Domain geometry shared by every other module.

Two domain kinds are supported: all of Euclidean space and the unit
torus (periodic unit cube).  Points live in dimension 1, 2 or 3.  On the
torus, coordinates are kept canonically in [0, 1) and distances are
measured in the quotient metric.
"""
from __future__ import annotations

import numpy as np

EUCLIDEAN = "euclidean"
TORUS = "torus"

DOMAIN_KINDS = (EUCLIDEAN, TORUS)

MAX_DIM = 3


def validate_domain(domain: str) -> str:
    if domain not in DOMAIN_KINDS:
        raise ValueError(f"unknown domain kind {domain!r}; expected one of {DOMAIN_KINDS}")
    return domain


def validate_dim(dim: int) -> int:
    if not 1 <= int(dim) <= MAX_DIM:
        raise ValueError(f"dimension must be 1, 2 or 3, got {dim}")
    return int(dim)


def wrap_torus(points: np.ndarray) -> np.ndarray:
    """Map coordinates to the canonical representative in [0, 1)."""
    wrapped = np.mod(points, 1.0)
    # np.mod can return 1.0 when the input is a tiny negative number.
    wrapped[wrapped >= 1.0] = 0.0
    return wrapped


def coordinate_deltas(a: np.ndarray, b: np.ndarray, domain: str) -> np.ndarray:
    """Per-coordinate displacement a - b, shortest representative on the torus."""
    delta = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if domain == TORUS:
        delta = delta - np.round(delta)
    return delta


def distance(a: np.ndarray, b: np.ndarray, domain: str) -> np.ndarray:
    """Euclidean (or quotient) distance between point arrays of shape (..., d)."""
    delta = coordinate_deltas(a, b, domain)
    return np.sqrt(np.sum(delta * delta, axis=-1))


def pairwise_distances(points: np.ndarray, domain: str) -> np.ndarray:
    """Dense (n, n) distance matrix for a point array of shape (n, d)."""
    pts = np.asarray(points, dtype=float)
    return distance(pts[:, None, :], pts[None, :, :], domain)
