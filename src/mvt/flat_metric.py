"""Flat norm of discrete signed measures.

The flat norm is the supremum of sum_i w_i f(x_i) over test functions
with |f| <= 1 and Lipschitz constant at most 1.  On a finite support this
is a linear program in the values f_i = f(x_i): box constraints
|f_i| <= 1 plus pairwise constraints |f_i - f_j| <= d(x_i, x_j).  A pair
is only needed where the other constraints do not already imply it, so
each geometry solves the LP on its own edge set:

* 1D Euclidean: consecutive sorted atoms.  Any other pair follows by
  summing the gaps between, and the chain is solved exactly by a dynamic
  program over piecewise-linear concave value functions, each held as
  its maximum and two deques of breakpoints around the argmax.  The
  traceback keeps one argmax per level, so memory is O(n).  A step
  costs O(1 + breakpoints moved across the argmax): a few per atom on
  smooth data, more when large weights alternate at tiny gaps.
* 1D torus: the sorted atoms joined in a cycle, with d = min(gap, 1 - gap).
  The shorter arc between two atoms runs through the atoms in between,
  and its length is the sum of their edge lengths, so the n cycle edges
  imply every pair.
* 2D and 3D: every pair with d < 2; farther pairs are implied by the box.

Outside 1D Euclidean space ``fm_norm`` solves the sparse LP with scipy's
HiGHS, one two-sided row per edge.  ``fm_norms`` solves a list's LPs as
the blocks of one block-diagonal LP, in one call: the blocks share no
variable, so it is optimal block by block.  Both routes are deterministic.

``fm_norm_oracle`` cross-checks ``fm_norm`` on small supports through the
dual problem, a min-cost transshipment over all pairs, so agreement is a
check by strong duality rather than a second run of the same LP.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .geometry import EUCLIDEAN, distance, pairwise_distances
from .measures import DiscreteSignedMeasure, linear_combine

# Pairwise constraints farther apart than this are implied by the box.
_PRUNE_AT = 2.0

STATUS_OPTIMAL = "optimal"
STATUS_NUMERICS = "infeasible_numerics"


class FlatNormError(RuntimeError):
    """Raised when the LP solve cannot certify an optimal value."""


@dataclass(frozen=True)
class FlatNormResult:
    value: float
    optimal_f_values: np.ndarray  # aligned with the measure's atom order
    status: str


def fm_norm(mu: DiscreteSignedMeasure) -> FlatNormResult:
    """Flat norm of a coalesced measure, with an optimal test vector."""
    n = mu.num_atoms
    if n == 0:
        return FlatNormResult(0.0, np.zeros(0), STATUS_OPTIMAL)
    w = np.asarray(mu.weights, dtype=float)
    if n == 1:
        f = np.array([1.0 if w[0] >= 0 else -1.0])
        return FlatNormResult(abs(float(w[0])), f, STATUS_OPTIMAL)
    if mu.dim == 1 and mu.domain == EUCLIDEAN:
        value, f = _fm_chain_1d(mu.points[:, 0], w)
        return FlatNormResult(value, f, STATUS_OPTIMAL)
    return _fm_lp([mu])[0]


def fm_norms(mus: list[DiscreteSignedMeasure]) -> list[FlatNormResult]:
    """``fm_norm`` of each measure, with all the LPs among them in one HiGHS call."""
    lp = [mu.num_atoms > 1 and (mu.dim > 1 or mu.domain != EUCLIDEAN) for mu in mus]
    solved = iter(_fm_lp([mu for mu, x in zip(mus, lp) if x]))
    return [next(solved) if x else fm_norm(mu) for mu, x in zip(mus, lp)]


def fm_distance(mu: DiscreteSignedMeasure, nu: DiscreteSignedMeasure) -> float:
    """Flat distance ||mu - nu||; raises FlatNormError if not certified."""
    result = fm_norm(linear_combine(1.0, mu, -1.0, nu))
    if result.status != STATUS_OPTIMAL:
        raise FlatNormError(f"flat norm solve failed with status {result.status}")
    return result.value


def fm_norm_oracle(mu: DiscreteSignedMeasure) -> float:
    """Flat norm by the dual LP (scipy HiGHS), for at most 8 atoms.

    Min-cost transshipment: atom i supplies w_i, shipping mass from i to
    j costs min(d_ij, 2) per unit, and a ground node absorbs or supplies
    mass at cost 1.  By strong duality the optimum is the flat norm.
    """
    n = mu.num_atoms
    if n > 8:
        raise ValueError(f"oracle accepts at most 8 atoms, got {n}")
    if n == 0:
        return 0.0
    cost = np.minimum(pairwise_distances(mu.points, mu.domain), _PRUNE_AT)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    arcs = np.arange(src.size)
    balance = np.zeros((n, src.size + 2 * n))
    balance[src, arcs] = 1.0
    balance[dst, arcs] = -1.0
    balance[:, src.size : src.size + n] = np.eye(n)  # atom -> ground
    balance[:, src.size + n :] = -np.eye(n)  # ground -> atom
    res = linprog(
        c=np.concatenate([cost[src, dst], np.ones(2 * n)]),
        A_eq=balance,
        b_eq=np.asarray(mu.weights, dtype=float),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise FlatNormError(f"oracle LP failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# Route 1: exact chain dynamic program, one Euclidean dimension.
#
# Sorted atoms x_1 < ... < x_n only need the consecutive constraints
# |f_{i+1} - f_i| <= x_{i+1} - x_i: any other pair follows by summing.
# Backward value functions V_i(f) = max of the objective tail given
# f_i = f are concave piecewise-linear on [-1, 1]; each step is a
# sliding-window maximum, a clamp to [-1, 1] and the addition of the
# linear term w_i f (the slope trick, after Jablonski & Marciniak-Czochra,
# "Efficient algorithms computing distances between Radon measures on R").
#
# V is held as its maximum m and two deques of (raw, slope drop): the
# breakpoints left of the argmax plateau and those right of it.  Both
# deques run outward from the plateau and share one lazy offset: a right
# breakpoint sits at raw + off, a left one at -(raw + off).  The window
# max of width delta is then off += delta, and the clamp pops from the
# outer ends.  Adding w f leaves every slope drop as it is; it only walks
# the argmax toward the sign of w, moving whole entries from one deque's
# inner end to the other's and splitting at most one.  A walk that runs
# out of entries stops at the wall +-1 and pushes an entry there.  A step
# costs O(1 + entries moved): a few per atom on smooth data, more on
# alternating large weights at tiny gaps.  The traceback keeps one float
# per level, the plateau's left end, so memory is O(n).
# ---------------------------------------------------------------------------

def _fm_chain_1d(points: np.ndarray, weights: np.ndarray):
    order = np.argsort(points, kind="stable")
    x = points[order].tolist()
    w = weights[order].tolist()
    n = len(x)
    left, right = deque(), deque()  # (raw, drop) entries, inner end first
    off = m = 0.0
    anchors = [0.0] * n  # left end of each level's argmax plateau
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            off += x[i + 1] - x[i]
            while left and left[-1][0] + off >= 1.0:
                left.pop()
            while right and right[-1][0] + off >= 1.0:
                right.pop()
        s = abs(w[i])
        if s > 0.0:
            # walk in v = sign(w) * position, from the plateau end toward the wall v = 1
            src, dst = (right, left) if w[i] > 0.0 else (left, right)
            v = src[0][0] + off if src else 1.0
            m += s * v
            while src:
                raw, d = src[0]
                if d > s:
                    src[0] = (raw, d - s)
                    dst.appendleft((-v - off, s))
                    s = 0.0
                    break
                src.popleft()
                dst.appendleft((-v - off, d))
                s -= d
                if s == 0.0:
                    break
                nxt = src[0][0] + off if src else 1.0
                m += s * (nxt - v)
                v = nxt
            if s > 0.0:
                dst.appendleft((-1.0 - off, s))
        anchors[i] = -(left[0][0] + off) if left else -1.0
    f_sorted = [anchors[0]] * n
    for i in range(n - 1):
        gap = x[i + 1] - x[i]
        f_sorted[i + 1] = min(max(anchors[i + 1], f_sorted[i] - gap), f_sorted[i] + gap)
    f = np.empty(n)
    f[order] = f_sorted
    return m, f


# ---------------------------------------------------------------------------
# Route 2: sparse LP on the geometry's edge set, solved by HiGHS.
# ---------------------------------------------------------------------------

def _fm_lp(mus: list[DiscreteSignedMeasure]) -> list[FlatNormResult]:
    """The measures' LPs in one call; a failed batch is re-solved block by block."""
    if not mus:
        return []
    blocks, n = [], 0  # (i, j, d) per block, columns past the blocks before
    for mu in mus:
        if mu.dim == 1:  # the torus: Euclidean 1D never reaches this route
            i = np.argsort(mu.points[:, 0], kind="stable")
            j = np.roll(i, -1)
            d = distance(mu.points[i], mu.points[j], mu.domain)
        else:
            dist = pairwise_distances(mu.points, mu.domain)
            i, j = np.nonzero(np.triu(dist < _PRUNE_AT - 1e-12, k=1))
            d = dist[i, j]
        blocks.append((i + n, j + n, d))
        n += mu.num_atoms
    i, j, d = (np.concatenate(x) for x in zip(*blocks))
    rows = np.arange(i.size)
    edges = scipy.sparse.csr_array(
        (np.repeat([1.0, -1.0], i.size), (np.tile(rows, 2), np.concatenate([i, j]))),
        shape=(i.size, n),
    )
    w = np.concatenate([np.asarray(mu.weights, dtype=float) for mu in mus])
    res = milp(-w, constraints=LinearConstraint(edges, -d, d), bounds=Bounds(-1.0, 1.0))
    if res.status != 0 and len(mus) > 1:
        return [_fm_lp([mu])[0] for mu in mus]
    if res.status != 0:
        return [FlatNormResult(float("nan"), np.zeros(n), STATUS_NUMERICS)]
    cuts = np.cumsum([mu.num_atoms for mu in mus])[:-1]
    return [FlatNormResult(float(w_b @ f_b), f_b, STATUS_OPTIMAL)
            for w_b, f_b in zip(np.split(w, cuts), np.split(res.x, cuts))]
