"""Flat norm of discrete signed measures.

The flat norm is the supremum of sum_i w_i f(x_i) over test functions
with |f| <= 1 and Lipschitz constant at most 1.  On a finite support this
is a linear program in the values f_i = f(x_i): box constraints
|f_i| <= 1 plus pairwise constraints |f_i - f_j| <= d(x_i, x_j).  A pair
is only needed where the other constraints do not already imply it, so
each geometry has its own edge set: consecutive sorted atoms in 1D
Euclidean space (any other pair follows by summing the gaps between);
the sorted atoms joined in a cycle on the 1D torus, with
d = min(gap, 1 - gap) (the shorter arc between two atoms runs through
the atoms in between); every pair with d < 2 in 2D and 3D (farther pairs
are implied by the box).

``fm_norm`` takes the first route that applies; only the last solves an LP:

1. No atoms: 0.
2. One sign (one atom included): f = +-1 attains sum |w_i| and nothing
   does better, so the norm is the TV, summed in the chain DP's order.
3. 1D Euclidean: an exact dynamic program over the chain (slope trick),
   O(n) memory; a walk that would cross a whole side of breakpoints
   hands that side over instead of moving it entry by entry.
4. 1D torus: the cycle cut open at its largest gap and solved as a chain
   by the same DP; the result is the cycle's when it meets the closing
   edge, and otherwise the cycle goes on to the LP.
5. The LP, by scipy's HiGHS, one two-sided row per edge; the objective
   is the weights over their max |w|, since HiGHS's absolute tolerances
   stop short of the optimum on small weights.

``fm_norms`` routes each measure the same way and solves the LPs left
over as the blocks of one block-diagonal LP, in one call: the blocks
share no variable, so it is optimal block by block.  Every route is
deterministic.

``fm_norm_oracle`` cross-checks ``fm_norm`` on small supports through the
dual problem, a min-cost transshipment over all pairs, so agreement is a
check by strong duality rather than a second run of the same LP.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .geometry import EUCLIDEAN, TORUS, distance, pairwise_distances, wrap_torus
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


class _Block(NamedTuple):
    """One measure's LP: its weights and edges i-j with lengths d."""

    w: np.ndarray
    i: np.ndarray
    j: np.ndarray
    d: np.ndarray


def fm_norm(mu: DiscreteSignedMeasure) -> FlatNormResult:
    """Flat norm of a coalesced measure, with an optimal test vector."""
    routed = _route(mu)
    return routed if isinstance(routed, FlatNormResult) else _fm_lp([routed])[0]


def fm_norms(mus: list[DiscreteSignedMeasure]) -> list[FlatNormResult]:
    """``fm_norm`` of each measure, with the LPs left among them in one HiGHS call.

    Measures that never need an LP (at most one atom, or 1D Euclidean) go
    through ``fm_norm`` itself, where perfbench's tracer counts them.
    """
    routed = [_route(mu) if mu.num_atoms > 1 and (mu.dim > 1 or mu.domain != EUCLIDEAN)
              else fm_norm(mu) for mu in mus]
    solved = iter(_fm_lp([r for r in routed if not isinstance(r, FlatNormResult)]))
    return [r if isinstance(r, FlatNormResult) else next(solved) for r in routed]


def _route(mu: DiscreteSignedMeasure) -> FlatNormResult | _Block:
    """Routes 1-4 of the module docstring: the exact result, or the block route 5 solves."""
    if mu.num_atoms == 0:
        return FlatNormResult(0.0, np.zeros(0), STATUS_OPTIMAL)
    w = np.asarray(mu.weights, dtype=float)
    if mu.num_atoms == 1:
        f = np.array([1.0 if w[0] >= 0 else -1.0])
        return FlatNormResult(abs(float(w[0])), f, STATUS_OPTIMAL)
    ws = w.tolist()
    positive = min(ws) >= 0.0
    if positive or max(ws) <= 0.0:
        value = 0.0
        for k in np.argsort(mu.points[:, 0], kind="stable")[::-1].tolist():
            value += abs(ws[k])  # the chain DP's sum, right to left
        return FlatNormResult(value, np.full(w.size, 1.0 if positive else -1.0), STATUS_OPTIMAL)
    if mu.dim == 1 and mu.domain == EUCLIDEAN:
        value, f = _fm_chain_1d(mu.points[:, 0], w)
        return FlatNormResult(value, f, STATUS_OPTIMAL)
    if mu.dim == 1:
        return _torus_cut(mu.points, w)
    dist = pairwise_distances(mu.points, mu.domain)
    i, j = np.nonzero(np.triu(dist < _PRUNE_AT - 1e-12, k=1))
    return _Block(w, i, j, dist[i, j])


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
# Route 3: exact chain dynamic program, one Euclidean dimension.
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
# breakpoints left of the argmax plateau and those right of it.  Both run
# outward from the plateau and share one lazy map: an entry lies
# u = a * (raw + off) outward, a = +-1, so a right breakpoint sits at u
# and a left one at -u.  The window max of width delta is off += a * delta,
# and the clamp pops from the outer ends.  Adding w f only walks the
# argmax toward the sign of w, in t = a * u = raw + off, moving whole
# entries from one deque's inner end to the other's and splitting at most
# one; a walk that runs out of entries stops at the wall +-1 and pushes an
# entry there.  m is held times a.  A walk that finds the other deque
# empty and |w| at least its own deque's drops (held, the running sum of
# all drops, rules most others out for free) hands that deque over
# instead: reversed, it becomes the other side as it is, a -> -a turns
# every u into -u, and m grows by sum(d * raw) + off * sum(d) from one
# pass.  Transported densities carry a side of ~150 tail entries from
# wall to wall at many sign changes.  With a = 1 and no hand-over the
# arithmetic is the entry-by-entry walk's, bit for bit.  A step costs
# O(1 + entries moved) otherwise.  The traceback keeps one float per
# level, the plateau's left end, so memory is O(n); at the wall +1 it is
# exactly 1.0, as reading it through off could round past the box.
# ---------------------------------------------------------------------------

def _fm_chain_1d(points: np.ndarray, weights: np.ndarray):
    order = np.argsort(points, kind="stable")
    x = points[order].tolist()
    w = weights[order].tolist()
    n = len(x)
    left, right = deque(), deque()  # (raw, drop) entries, inner end first
    a, off, m = 1.0, 0.0, 0.0  # the map's sign and offset; m is held times a
    held = 0.0  # the drops on both sides, summed as they come and go
    anchors = [0.0] * n  # left end of each level's argmax plateau
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            off += a * (x[i + 1] - x[i])
            while left and a * (left[-1][0] + off) >= 1.0:
                held -= left.pop()[1]
            while right and a * (right[-1][0] + off) >= 1.0:
                held -= right.pop()[1]
        s = abs(w[i])
        if s > 0.0:
            # walk in t = a * sign(w) * position, from the plateau end toward the wall t = a
            src, dst = (right, left) if w[i] > 0.0 else (left, right)
            if src and not dst and s >= held:
                total = moment = 0.0
                for raw, d in src:
                    total += d
                    moment += raw * d
                if s >= total:  # the walk would cross all of src: hand it over instead
                    m += moment + off * total  # each drop at its breakpoint
                    s -= total
                    src.reverse()
                    src, dst, left, right, a, m = dst, src, right, left, -a, -m
            t = src[0][0] + off if src else a
            m += s * t
            while src:
                raw, d = src[0]
                if d > s:
                    src[0] = (raw, d - s)
                    dst.appendleft((-t - off, s))
                    s = 0.0
                    break
                src.popleft()
                dst.appendleft((-t - off, d))
                s -= d
                if s == 0.0:
                    break
                nxt = src[0][0] + off if src else a
                m += s * (nxt - t)
                t = nxt
            if s > 0.0:
                dst.appendleft((-a - off, s))
                held += s
        if s > 0.0 and w[i] > 0.0:  # the walk ended at the wall +1
            anchors[i] = 1.0
        else:
            anchors[i] = -a * (left[0][0] + off) if left else -1.0
    f_sorted = [anchors[0]] * n
    for i in range(n - 1):
        gap = x[i + 1] - x[i]
        f_sorted[i + 1] = min(max(anchors[i + 1], f_sorted[i] - gap), f_sorted[i] + gap)
    f = np.empty(n)
    f[order] = f_sorted
    return a * m, f


# ---------------------------------------------------------------------------
# Route 4: the 1D torus, cut open at its largest gap.
#
# The cycle LP is the chain LP plus one closing edge.  Cut at the largest
# gap (the first on ties, so runs stay deterministic), every other gap is
# at most 1/2 and so is the torus distance it spans.  Unrolled to
# x - x_start mod 1, the atoms form a chain whose DP optimum bounds the
# cycle's from above.  When that optimum also meets the closing edge it is
# feasible for the cycle, hence optimal there.  Otherwise the cycle goes to
# the LP, on the order and edge lengths already computed here.
# ---------------------------------------------------------------------------

def _torus_cut(points: np.ndarray, w: np.ndarray) -> FlatNormResult | _Block:
    x = wrap_torus(points[:, 0])  # any representative; canonical points keep their bits
    order = np.argsort(x, kind="stable")
    nxt = np.roll(order, -1)
    d = distance(points[order], points[nxt], TORUS)  # the cycle edge order[k] - nxt[k]
    gaps = x[nxt] - x[order]
    gaps[-1] += 1.0  # arc lengths; the last edge wraps
    cut = int(np.argmax(gaps))
    chain = np.roll(order, -(cut + 1))
    value, f = _fm_chain_1d(np.mod(x[chain] - x[chain[0]], 1.0), w[chain])
    if abs(f[0] - f[-1]) > d[cut]:
        return _Block(w, order, nxt, d)
    out = np.empty(w.size)
    out[chain] = f
    return FlatNormResult(value, out, STATUS_OPTIMAL)


# ---------------------------------------------------------------------------
# Route 5: sparse LP on the geometry's edge set, solved by HiGHS.
# ---------------------------------------------------------------------------

def _fm_lp(blocks: list[_Block]) -> list[FlatNormResult]:
    """The blocks' LPs in one call; a failed batch is re-solved block by block."""
    if not blocks:
        return []
    sizes = [b.w.size for b in blocks]
    starts = np.cumsum([0] + sizes[:-1])
    i = np.concatenate([b.i + s for b, s in zip(blocks, starts)])
    j = np.concatenate([b.j + s for b, s in zip(blocks, starts)])
    d = np.concatenate([b.d for b in blocks])
    n = sum(sizes)
    rows = np.arange(i.size)
    edges = scipy.sparse.csr_array(
        (np.repeat([1.0, -1.0], i.size), (np.tile(rows, 2), np.concatenate([i, j]))),
        shape=(i.size, n),
    )
    w = np.concatenate([b.w for b in blocks])
    # each block over its own max |w|, positive: only mixed-sign measures get here
    scaled = np.concatenate([b.w / np.max(np.abs(b.w)) for b in blocks])
    res = milp(-scaled, constraints=LinearConstraint(edges, -d, d), bounds=Bounds(-1.0, 1.0))
    if res.status != 0 and len(blocks) > 1:
        return [_fm_lp([b])[0] for b in blocks]
    if res.status != 0:
        return [FlatNormResult(float("nan"), np.zeros(n), STATUS_NUMERICS)]
    cuts = np.cumsum(sizes)[:-1]
    return [FlatNormResult(float(w_b @ f_b), f_b, STATUS_OPTIMAL)
            for w_b, f_b in zip(np.split(w, cuts), np.split(res.x, cuts))]
