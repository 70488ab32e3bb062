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
   does better, so the norm is the TV, ``tv_norm``.
3. 1D Euclidean: an exact dynamic program over the chain's dual, a
   weighted L1-TV problem in the edge flows; each breakpoint is pushed
   once and popped at most once per end, and f follows from
   complementary slackness.
4. 1D torus: the cycle cut open at its largest gap and solved as a chain
   by the same DP; the result is the cycle's when it meets the closing
   edge, and otherwise the cycle goes on to route 5.
5. 2D, 3D and the torus cycle left by route 4: a test function and a
   transport plan of equal value, matched on the block's own edges; when
   the function meets every edge, weak duality makes both optimal, and
   otherwise the block goes on to the LP unchanged.
6. The LP, by scipy's HiGHS, one two-sided row per edge; the objective
   is the weights over their max |w|, since HiGHS's absolute tolerances
   stop short of the optimum on small weights.

Every route is deterministic, and ``fm_norm`` returns an optimal value
or raises ``FlatNormError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .geometry import EUCLIDEAN, TORUS, distance, pairwise_distances, wrap_torus
from .measures import DiscreteSignedMeasure, linear_combine, tv_norm

# Pairwise constraints farther apart than this are implied by the box.
_PRUNE_AT = 2.0


class FlatNormError(RuntimeError):
    """Raised when the LP solve cannot certify an optimal value."""


@dataclass(frozen=True)
class FlatNormResult:
    value: float
    optimal_f_values: np.ndarray  # aligned with the measure's atom order


class _Block(NamedTuple):
    """One measure's LP: its weights and edges i-j with lengths d."""

    w: np.ndarray
    i: np.ndarray
    j: np.ndarray
    d: np.ndarray


def fm_norm(mu: DiscreteSignedMeasure) -> FlatNormResult:
    """Flat norm of a coalesced measure, with an optimal test vector.

    Takes routes 1-6 of the module docstring in turn; raises
    ``FlatNormError`` if HiGHS cannot certify the LP of route 6.
    """
    if mu.num_atoms == 0:
        return FlatNormResult(0.0, np.zeros(0))
    w = np.asarray(mu.weights, dtype=float)
    if mu.num_atoms == 1:
        return FlatNormResult(abs(float(w[0])), np.array([1.0 if w[0] >= 0 else -1.0]))
    ws = w.tolist()
    positive = min(ws) >= 0.0
    if positive or max(ws) <= 0.0:
        return FlatNormResult(tv_norm(mu), np.full(w.size, 1.0 if positive else -1.0))
    if mu.dim == 1 and mu.domain == EUCLIDEAN:
        return FlatNormResult(*_fm_chain_1d(mu.points[:, 0], w))
    if mu.dim == 1:
        routed = _torus_cut(mu.points, w)
    else:
        dist = pairwise_distances(mu.points, mu.domain)
        i, j = np.nonzero(np.triu(dist < _PRUNE_AT - 1e-12, k=1))
        routed = _Block(w, i, j, dist[i, j])
    if isinstance(routed, _Block):
        routed = _matched_pair(routed)
    return routed if isinstance(routed, FlatNormResult) else _fm_lp(routed)


def fm_distance(mu: DiscreteSignedMeasure, nu: DiscreteSignedMeasure) -> float:
    """Flat distance ||mu - nu||; raises FlatNormError if not certified."""
    return fm_norm(linear_combine(1.0, mu, -1.0, nu)).value


# ---------------------------------------------------------------------------
# Route 3: exact chain dynamic program, one Euclidean dimension, in the dual.
#
# Sorted atoms need only |f_{i+1} - f_i| <= d_i = x_{i+1} - x_i.  The dual
# is transport with a ground node along the chain: minimise sum |h_i| +
# sum d_i |g_i| over edge flows g_i, h_i = w_i - g_i + g_{i-1}, g_0 = g_n = 0,
# a weighted L1-TV problem (Kolmogorov, Pock & Rolinek, "Total variation on
# a tree", 2016).  The DP runs forward in F(g), the least cost of atoms
# 1..i given the flow g out of atom i: convex piecewise-linear, held as its
# right asymptote b + g and its breakpoints, in two heaps of
# (position - offset, id), one per end, with lazy deletion.  Atom i shifts
# F by w_i (the offset); edge i adds d_i |g|, a breakpoint of 2 d_i at 0,
# and clamping the slopes back to [-1, 1] pops slope d_i from each end.
# Each breakpoint is pushed once and popped at most once per heap.  f
# follows by complementary slackness from the flows, traced back from
# g_n = 0: h_i != 0 pins f_i = sign h_i, and g_i != 0 pins
# f_i - f_{i+1} = d_i sign g_i.  Breakpoints and flows are partial sums of
# the weights, so ties are common: a pin below _PIN * TV is rounding.
# ---------------------------------------------------------------------------

_PIN = 1e-12


def _fm_chain_1d(points: np.ndarray, weights: np.ndarray):
    order = np.argsort(points, kind="stable")
    x = points[order].tolist()
    w = weights[order].tolist()
    n = len(w)
    jump = [2.0] * n  # slope change at breakpoint k, added by edge k - 1; 0.0 once popped
    low, high = [(0.0, 0)], [(0.0, 0)]  # (position - off, k), (off - position, k)
    off = b = 0.0
    ends = [(0.0, 0.0)] * n  # the surviving range of the flow into each atom; none enters the first
    for i in range(n - 1):
        d = x[i + 1] - x[i]
        off += w[i]
        b -= w[i]
        jump[i + 1] = 2.0 * d
        heappush(low, (-off, i + 1))
        heappush(high, (off, i + 1))
        need = d
        while True:
            r, k = low[0]
            s = jump[k]
            if s > need:
                jump[k] = s - need
                break
            heappop(low)
            jump[k], need = 0.0, need - s
        start = r + off
        need = d
        while True:
            r, k = high[0]
            s = jump[k]
            if s > need:
                jump[k], b = s - need, b + need * (off - r)
                break
            heappop(high)
            jump[k], need, b = 0.0, need - s, b + s * (off - r)
        ends[i + 1] = (start, off - r)
    off += w[-1]
    value = b - w[-1] + sum(jump[k] * (r + off) for r, k in low if r + off > 0.0)

    # Backward: each flow from the one after it, and f_i's interval given the tail.
    tol = _PIN * sum(map(abs, w))
    lo, hi, step = [0.0] * n, [0.0] * n, [0.0] * n  # step: f_{i-1} - f_i where pinned
    g_out, lo_t, hi_t = 0.0, -1.0, 1.0
    for i in range(n - 1, -1, -1):
        a, c = ends[i]
        g_in = g_out - w[i]
        g_in = a if g_in < a else c if g_in > c else g_in
        h = w[i] - g_out + g_in
        lo[i] = lo_t = 1.0 if h > tol else lo_t
        hi[i] = hi_t = -1.0 if h < -tol else hi_t
        if i:
            d = x[i] - x[i - 1]
            if g_in > tol or g_in < -tol:
                e = step[i] = d if g_in > 0.0 else -d
                lo_t, hi_t = lo_t + e, hi_t + e
            else:
                lo_t, hi_t = lo_t - d, hi_t + d
            lo_t = -1.0 if lo_t < -1.0 else 1.0 if lo_t > 1.0 else lo_t  # the box, past rounding
            hi_t = -1.0 if hi_t < -1.0 else 1.0 if hi_t > 1.0 else hi_t
        g_out = g_in
    f_sorted, f_i = [], 0.0
    for e, a, c in zip(step, lo, hi):  # forward: f clamped into its interval, from 0
        f_i -= e
        f_i = a if f_i < a else c if f_i > c else f_i
        f_sorted.append(f_i)
    f = np.empty(n)
    f[order] = f_sorted
    return value, f


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
    return FlatNormResult(value, out)


# ---------------------------------------------------------------------------
# Route 5: a matched primal-dual pair on the block's edges.
#
# The flat norm's dual is transport with a ground node: mass ships at
# cost d, and is created or destroyed at cost 1 (Hanin 1992; Piccoli &
# Rossi 2014).  Two opposite-sign atoms pair when their edge is, in a
# stable sort by length, the first opposite-sign edge of both.  The plan
# ships the lighter |w| across d and grounds all the rest; f puts the
# heavier atom (the positive one on a tie, so that equal pairs orient
# alike) at its sign s, the lighter at s * (1 - d) and every other atom
# at its sign, so w_i f_i is the plan's cost atom by atom.  d < 2 keeps f
# in the box; if f meets every edge to rounding, both are optimal.
# ---------------------------------------------------------------------------

def _matched_pair(block: _Block) -> FlatNormResult | _Block:
    w, i, j, d = block
    s = np.sign(w)
    opposite = np.flatnonzero(s[i] * s[j] < 0.0)
    edges = opposite[np.argsort(d[opposite], kind="stable")]
    ends = np.column_stack([i[edges], j[edges]])
    first = np.full(w.size, -1)
    atoms, at = np.unique(ends.ravel(), return_index=True)
    first[atoms] = at // 2  # each atom's shortest opposite-sign edge, by rank
    rank = np.arange(edges.size)
    mutual = (first[ends[:, 0]] == rank) & (first[ends[:, 1]] == rank)
    a, b = ends[mutual].T
    light = np.where((np.abs(w[a]) < np.abs(w[b])) | ((w[a] == -w[b]) & (w[a] < 0.0)), a, b)
    f = s.copy()
    f[light] = -s[light] * (1.0 - d[edges[mutual]])
    if np.all(np.abs(f[i] - f[j]) <= d + 4.0 * np.finfo(float).eps):
        return FlatNormResult(float(w @ f), f)
    return block


# ---------------------------------------------------------------------------
# Route 6: sparse LP on the geometry's edge set, solved by HiGHS.
# ---------------------------------------------------------------------------

def _fm_lp(block: _Block) -> FlatNormResult:
    """The block's LP in one HiGHS call; raises FlatNormError if it fails."""
    w, i, j, d = block
    rows = np.arange(i.size)
    edges = scipy.sparse.csr_array(
        (np.repeat([1.0, -1.0], i.size), (np.tile(rows, 2), np.concatenate([i, j]))),
        shape=(i.size, w.size),
    )
    # over max |w|, positive: only mixed-sign measures get here
    res = milp(-w / np.max(np.abs(w)), constraints=LinearConstraint(edges, -d, d),
               bounds=Bounds(-1.0, 1.0))
    if res.status != 0:
        raise FlatNormError(f"flat norm solve failed: HiGHS status {res.status}: {res.message}")
    return FlatNormResult(float(w @ res.x), res.x)
