"""Signed-measure container: canonicalisation, lattice ops, CSV I/O."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvt.measures
from helpers import assert_same_text, random_signed, reference_measure_csv
from mvt.geometry import EUCLIDEAN, TORUS, distance, wrap_torus
from mvt.grids import quantize, uniform_density
from mvt.measures import (
    COALESCE_EPS,
    BoundedLipschitzFunction,
    DiscreteSignedMeasure,
    MeasureError,
    coalesce,
    dirac,
    empty_measure,
    linear_combine,
    load_measure,
    measure,
    measure_from_csv,
    measure_to_csv,
    multiply_by_function,
    negative_part_tv,
    save_measure,
    tv_norm,
)


def test_measure_canonical_sorted_and_merged():
    mu = measure([[1.0], [0.0], [1.0]], [0.5, 1.0, 0.25])
    # coincident atoms merge, output sorted by coordinates
    assert mu.num_atoms == 2
    assert mu.points[0, 0] == 0.0 and mu.points[1, 0] == 1.0
    assert mu.weights[1] == pytest.approx(0.75)


def test_measure_drops_zero_weights():
    mu = measure([[0.0], [1.0]], [1.0, 0.0])
    assert mu.num_atoms == 1


def test_measure_rejects_nonfinite():
    with pytest.raises(MeasureError):
        measure([[np.inf]], [1.0])
    with pytest.raises(MeasureError):
        measure([[0.0]], [np.nan])


def test_measure_rejects_shape_mismatch():
    with pytest.raises(MeasureError):
        measure([[0.0], [1.0]], [1.0])


def test_measure_rejects_dim_4():
    with pytest.raises(ValueError):
        measure(np.zeros((1, 4)), [1.0])


def test_torus_points_wrapped():
    mu = measure([[1.25]], [1.0], TORUS)
    assert mu.points[0, 0] == pytest.approx(0.25)


def test_dirac_and_empty():
    d = dirac([0.5, 0.5], 2.0)
    assert d.dim == 2 and d.total_mass == 2.0
    e = empty_measure(3)
    assert e.num_atoms == 0 and tv_norm(e) == 0.0


@pytest.mark.parametrize("shape", [(0, 0), (0, 4)])
def test_empty_points_need_a_valid_dimension(shape):
    # an empty support still fixes the dimension its CSV header names
    with pytest.raises(ValueError, match="dimension must be 1, 2 or 3"):
        measure(np.zeros(shape), [])


def test_tv_and_negative_part():
    mu = measure([[0.0], [1.0], [2.0]], [1.0, -0.5, 0.25])
    assert tv_norm(mu) == pytest.approx(1.75)
    assert negative_part_tv(mu) == pytest.approx(0.5)
    assert mu.total_mass == pytest.approx(0.75)
    assert not mu.is_positive()
    # empty negative part comes back as clean +0.0
    pos = measure([[0.0]], [1.0])
    assert repr(negative_part_tv(pos)) == "0.0"


def test_linear_combine_merges_coincident():
    mu = dirac(0.0, 1.0)
    nu = dirac(0.0, -1.0)
    assert linear_combine(1.0, mu, 1.0, nu).num_atoms == 0
    both = linear_combine(2.0, mu, 3.0, dirac(1.0, 1.0))
    assert both.num_atoms == 2
    assert tv_norm(both) == pytest.approx(5.0)


def test_linear_combine_domain_mismatch():
    with pytest.raises(MeasureError):
        linear_combine(1.0, dirac(0.0), 1.0, dirac(0.0, domain=TORUS))


def test_linear_combine_dimension_mismatch_with_an_empty_side():
    # an empty measure still has d columns, so its dimension is compared too
    for mu, nu, dims in [
        (empty_measure(1), dirac([0.0, 0.0]), "1 vs 2"),
        (dirac([0.0, 0.0]), empty_measure(1), "2 vs 1"),
        (empty_measure(3), empty_measure(2), "3 vs 2"),
    ]:
        with pytest.raises(MeasureError, match=f"dimension mismatch: {dims}"):
            linear_combine(1.0, mu, -1.0, nu)


def test_coalesce_idempotent_and_weighted_mean():
    mu = measure([[0.0], [1e-14], [1.0]], [1.0, 3.0, 1.0])
    assert mu.num_atoms == 2
    # merged position is the |weight|-weighted mean
    assert mu.points[0, 0] == pytest.approx(0.75e-14)
    assert coalesce(mu).num_atoms == mu.num_atoms


def test_coalesce_merges_noncanonical_torus_pair():
    """1.3 is 0.3 on the torus: the pair merges to one canonical atom."""
    mu = DiscreteSignedMeasure(np.array([[0.3], [1.3]]), np.array([1.0, 1.0]), TORUS)
    out = coalesce(mu)
    assert out.points.tolist() == [[0.3]]
    assert out.weights.tolist() == [2.0]


def test_coalesce_wraps_unmerged_torus_atoms():
    """Atoms outside [0, 1) that merge with nothing still come back wrapped."""
    raw = np.array([[1.3], [2.7]])
    out = coalesce(DiscreteSignedMeasure(raw, np.array([1.0, 1.0]), TORUS))
    assert out.points.tolist() == wrap_torus(raw).tolist()
    assert out.weights.tolist() == [1.0, 1.0]
    single = coalesce(DiscreteSignedMeasure(np.array([[-0.25, 0.5]]), np.array([2.0]), TORUS))
    assert single.points.tolist() == [[0.75, 0.5]]


def test_quantize_2d_grid_makes_no_pair_loop(monkeypatch):
    """Tied first coordinates cost no per-pair distance calls."""
    counts = {"distance": 0, "merge_pass": 0}

    def counted_distance(*args):
        counts["distance"] += 1
        return distance(*args)

    merge_pass = mvt.measures._merge_pass

    def counted_merge_pass(*args):
        counts["merge_pass"] += 1
        return merge_pass(*args)

    monkeypatch.setattr(mvt.measures, "distance", counted_distance)
    monkeypatch.setattr(mvt.measures, "_merge_pass", counted_merge_pass)
    mu = quantize(uniform_density([0.0, 0.0], [1.0, 1.0], 64, 1.0, 2.0))
    assert mu.num_atoms == 64 * 64
    assert counts["merge_pass"] >= 1
    assert counts["distance"] <= counts["merge_pass"]


def test_multiply_by_function():
    mu = measure([[0.0], [2.0]], [1.0, 2.0])
    g = BoundedLipschitzFunction(lambda pts: pts[:, 0], sup_bound=2.0, lip_bound=1.0)
    gm = multiply_by_function(g, mu)
    assert gm.num_atoms == 1  # weight at x=0 vanishes
    assert gm.weights[0] == pytest.approx(4.0)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    mu = random_signed(rng, 5, 2)
    path = tmp_path / "m.csv"
    save_measure(mu, str(path))
    back = load_measure(str(path))
    assert back.dim == 2
    np.testing.assert_array_equal(back.points, mu.points)
    np.testing.assert_array_equal(back.weights, mu.weights)
    # serialisation itself is deterministic
    assert measure_to_csv(back) == measure_to_csv(mu)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_measure_csv_bytes_match_row_writer(dim):
    n = mvt.measures._CSV_CHUNK_ROWS + 37  # more than one chunk of rows
    rng = np.random.default_rng(dim)
    wts = rng.normal(size=n)
    wts[:4] = [5e-324, 1e300, -1e300, 1.0 / 3.0]
    pts = rng.normal(size=(n, dim))
    pts[:3, 0] = [-0.0, 5e-324, 1e300]
    mu = DiscreteSignedMeasure(pts, wts, EUCLIDEAN)
    assert_same_text(measure_to_csv(mu), reference_measure_csv(mu))
    empty = empty_measure(dim)
    assert_same_text(measure_to_csv(empty), reference_measure_csv(empty))


def test_csv_header_validation():
    with pytest.raises(MeasureError):
        measure_from_csv("a,b\n0.0,1.0\n")
    with pytest.raises(MeasureError):
        measure_from_csv("")
    with pytest.raises(MeasureError):
        measure_from_csv("x1,weight\n0.0\n")
    with pytest.raises(MeasureError):
        measure_from_csv("x1,weight\n0.0,oops\n")


def test_csv_skips_blank_lines_and_names_bad_rows():
    mu = measure_from_csv("x1,x2,weight\n0.5,1.0,2.0\n\n-1.0,0.25,-0.5\n")
    np.testing.assert_array_equal(mu.points, [[-1.0, 0.25], [0.5, 1.0]])
    np.testing.assert_array_equal(mu.weights, [-0.5, 2.0])
    with pytest.raises(MeasureError, match="^row 4: has 2 fields, expected 3$"):
        measure_from_csv("x1,x2,weight\n0.5,1.0,2.0\n\n1.0,0.5\n")
    with pytest.raises(MeasureError, match="^row 3: could not convert string to float: 'x'$"):
        measure_from_csv("x1,x2,weight\n0.5,1.0,2.0\n1.0,x,0.5\n")


def test_csv_empty_measure():
    mu = measure_from_csv("x1,weight\n")
    assert mu.num_atoms == 0 and mu.dim == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 3))
def test_tv_triangle_and_mass_bound(seed, n, dim):
    rng = np.random.default_rng(seed)
    mu = random_signed(rng, n, dim)
    nu = random_signed(rng, n, dim)
    s = linear_combine(1.0, mu, 1.0, nu)
    assert tv_norm(s) <= tv_norm(mu) + tv_norm(nu) + 1e-12
    assert abs(mu.total_mass) <= tv_norm(mu) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
def test_tv_homogeneous(seed, scale):
    rng = np.random.default_rng(seed)
    mu = random_signed(rng, 4, 2)
    assert tv_norm(linear_combine(scale, mu, 0.0, mu)) == pytest.approx(
        abs(scale) * tv_norm(mu), abs=1e-12
    )


def _shared_support(rng, n, dim, domain, case):
    """n atoms with one forced feature (in d = 1 a tie is a duplicate atom)."""
    if domain == TORUS:
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
    else:
        pts = rng.uniform(-1.5, 1.5, size=(n, dim))
    if case == "neg_zero":
        pts[0, :] = -0.0
    elif case == "beyond_eps":
        pts[1, 0] = pts[0, 0] + 1.5 * COALESCE_EPS
    elif case == "within_eps":
        pts[1] = pts[0]
        pts[1, 0] += 0.5 * COALESCE_EPS
    elif case == "wrap_within_eps":
        pts[1] = pts[0]
        pts[0, 0] = 0.25 * COALESCE_EPS
        pts[1, 0] = 1.0 - 0.25 * COALESCE_EPS
    elif case == "unwrapped":
        pts[0, -1] += 1.0  # outside [0, 1) on the torus: the merge re-wraps it
    elif case == "tied_first":
        pts[1, 0] = pts[0, 0]
    return pts


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.integers(2, 6),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([EUCLIDEAN, TORUS]),
    st.sampled_from(
        [
            "plain",
            "neg_zero",
            "beyond_eps",
            "within_eps",
            "wrap_within_eps",
            "unwrapped",
            "tied_first",
        ]
    ),
    st.sampled_from([(1.0, 1.0), (1.0, -1.0), (0.7, 0.015625), (-2.5, 3.0)]),
)
def test_linear_combine_shared_support_is_bitwise_coalesce(seed, n, dim, domain, case, ab):
    """Adding weights on a shared support equals merging the concatenation."""
    rng = np.random.default_rng(seed)
    pts = _shared_support(rng, n, dim, domain, case)
    w_mu = rng.uniform(-2.0, 2.0, size=n)
    w_nu = rng.uniform(-2.0, 2.0, size=n)
    a, b = ab
    w_nu[-1] = -a * w_mu[-1] / b  # one atom (nearly) cancels: the prune runs
    mu = DiscreteSignedMeasure(pts, w_mu, domain)
    nu = DiscreteSignedMeasure(pts.copy(), w_nu, domain)
    got = linear_combine(a, mu, b, nu)
    want = coalesce(
        DiscreteSignedMeasure(
            np.concatenate([pts, pts]), np.concatenate([a * w_mu, b * w_nu]), domain
        )
    )
    assert got.points.tobytes() == want.points.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.domain == want.domain


def _clustered_support(rng, dim, domain):
    """Random atoms plus one far-apart cluster per forced eps-graph feature.

    The chain sits at coordinates 0, eps and 2 * eps of one axis, so its
    two edges have distance exactly eps.
    """
    eps = COALESCE_EPS
    lo, hi = (0.0, 1.0) if domain == TORUS else (-1.5, 1.5)
    axis = dim - 1  # the last axis: not the first coordinate when dim > 1
    rows = list(rng.uniform(lo, hi, size=(int(rng.integers(0, 5)), dim)))
    base = rng.uniform(lo, hi, size=dim)
    rows += [base, base.copy(), base.copy()]  # exact duplicates
    base = rng.uniform(lo, hi, size=dim)
    for k in range(3):  # chain a ~ b ~ c with a !~ c
        row = base.copy()
        row[axis] = k * eps
        rows.append(row)
    tied = rng.uniform(lo, hi, size=(3, dim))
    tied[:, 0] = tied[0, 0]
    rows += list(tied)
    base = rng.uniform(lo, hi, size=dim)
    beyond = base.copy()
    beyond[axis] += 1.01 * eps
    rows += [base, beyond]
    if domain == TORUS:
        base = rng.uniform(lo, hi, size=dim)
        wrap = base.copy()
        base[axis], wrap[axis] = 0.25 * eps, 1.0 - 0.25 * eps
        rows += [base, wrap]
    pts = np.array(rows)
    return pts[rng.permutation(pts.shape[0])]


def _brute_force_components(pts, domain):
    """Component label of each atom: the lowest index it is connected to."""
    reach = distance(pts[:, None, :], pts[None, :, :], domain) <= COALESCE_EPS
    while True:
        grown = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(grown, reach):
            return np.argmax(reach, axis=1)
        reach = grown


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([EUCLIDEAN, TORUS]),
)
def test_coalesce_groups_are_eps_graph_components(seed, dim, domain):
    """coalesce merges exactly the components of the all-pairs eps-graph."""
    rng = np.random.default_rng(seed)
    pts = _clustered_support(rng, dim, domain)
    w = rng.uniform(-2.0, 2.0, size=pts.shape[0])
    labels = _brute_force_components(pts, domain)
    want = {}
    for label in np.unique(labels):
        total = np.sum(w[labels == label])
        if abs(total) >= mvt.measures.WEIGHT_EPS:
            want[int(label)] = total
    out = coalesce(DiscreteSignedMeasure(pts, w, domain))
    got = {}
    for point, weight in zip(out.points, out.weights):
        # A merged atom sits within its cluster, far from every other one.
        nearest = int(np.argmin(distance(pts, point, domain)))
        got[int(labels[nearest])] = weight
    assert out.num_atoms == len(got)
    assert sorted(got) == sorted(want)
    for label, total in want.items():
        assert got[label].tobytes() == total.tobytes()


def _merge_pass_by_loop(points, weights, domain, eps):
    """Reference merge: the graph of ``_merge_pass``, then one ``np.sum`` per component."""
    n = points.shape[0]
    reach = distance(points[:, None, :], points[None, :, :], domain) <= eps
    if np.array_equal(reach, np.eye(n, dtype=bool)):
        return points, weights, False
    labels = np.unique(_brute_force_components(points, domain), return_inverse=True)[1]
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    lowest = members[starts]
    new_pts = points[lowest] + 0.0
    if domain == TORUS:
        new_pts = wrap_torus(new_pts)
    new_wts = weights[lowest] + 0.0
    for row in np.flatnonzero(sizes > 1):
        idxs = members[starts[row]:starts[row] + sizes[row]]
        w = weights[idxs]
        total_abs = np.sum(np.abs(w))
        ref = points[idxs[0]]
        rel = points[idxs] - ref
        if domain == TORUS:
            rel = rel - np.round(rel)
        if total_abs > 0.0:
            mean_rel = np.sum(np.abs(w)[:, None] * rel, axis=0) / total_abs
        else:
            mean_rel = np.mean(rel, axis=0)
        pos = ref + mean_rel
        if domain == TORUS:
            pos = wrap_torus(pos.reshape(1, -1))[0]
        new_pts[row] = pos
        new_wts[row] = np.sum(w)
    return new_pts, new_wts, True


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([EUCLIDEAN, TORUS]),
)
def test_merge_pass_bitwise_with_components_of_4_to_9(seed, dim, domain):
    """Components of 4, 5, 8 and 9 atoms (one across the torus wrap, one
    possibly all-zero) merge bitwise as a per-component ``np.sum`` loop."""
    eps = COALESCE_EPS
    rng = np.random.default_rng(seed)
    lo, hi = (0.0, 1.0) if domain == TORUS else (-1.5, 1.5)
    rows = list(_clustered_support(rng, dim, domain))
    w = list(rng.uniform(-2.0, 2.0, size=len(rows)))
    for size in (4, 5, 8, 9):
        cluster = np.tile(rng.uniform(lo, hi, size=dim), (size, 1))
        chain = np.cumsum(rng.uniform(0.0, 0.99 * eps, size=size))  # gaps stay within eps
        if size == 8 and domain == TORUS:
            cluster[:, -1] = np.mod(1.0 - 4.0 * eps + chain, 1.0)
        else:
            cluster[:, -1] += chain
        rows += list(cluster)
        # magnitudes spread over decades, so a change of summation order shows
        w_cluster = rng.uniform(-2.0, 2.0, size=size) * 10.0 ** rng.integers(-6, 3, size=size)
        if size == 5 and rng.random() < 0.3:
            w_cluster[:] = 0.0  # an all-zero component sits at its members' plain mean
        w += list(w_cluster)
    order = rng.permutation(len(rows))
    pts, w = np.array(rows)[order], np.array(w)[order]
    got = mvt.measures._merge_pass(pts, w, domain)
    want = _merge_pass_by_loop(pts, w, domain, eps)
    assert got[2] is want[2] is True
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _line_clusters(rng, domain):
    """1D atoms: lone ones, ties, a chain whose ends are more than eps
    apart, and atoms at 0, 1e-13 and 1 - 1e-13, one cluster across the
    torus seam; torus coordinates sometimes shifted out of [0, 1)."""
    eps = COALESCE_EPS
    steps = rng.uniform(0.5, 0.99, size=int(rng.integers(3, 9))) * eps
    x = np.concatenate([
        rng.uniform(0.0, 1.0, size=int(rng.integers(0, 30))),
        np.full(int(rng.integers(2, 5)), rng.uniform(0.0, 1.0)),
        rng.uniform(0.0, 1.0) + np.cumsum(steps),
        [0.0, 1e-13, 1.0 - 1e-13],
    ])
    if domain == TORUS and rng.random() < 0.3:
        x = x + rng.integers(-2, 3, size=x.size)
    return rng.permutation(x)[:, None]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([EUCLIDEAN, TORUS]))
def test_merge_pass_1d_runs_match_the_tree_bitwise(seed, domain):
    """In 1D, runs of sorted atoms give the tree's labels and so its merge."""
    rng = np.random.default_rng(seed)
    pts = _line_clusters(rng, domain)
    w = rng.uniform(-2.0, 2.0, size=pts.shape[0]) * 10.0 ** rng.integers(-6, 3, size=pts.shape[0])
    labels = mvt.measures._run_labels(pts, domain)
    np.testing.assert_array_equal(labels, mvt.measures._tree_labels(pts, domain))
    got = mvt.measures._merge_pass(pts, w, domain)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mvt.measures, "_run_labels", mvt.measures._tree_labels)
        want = mvt.measures._merge_pass(pts, w, domain)
    assert got[2] is want[2] is True
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    wrapped = wrap_torus(pts[:, 0])
    low, high = (int(np.argmin(np.abs(wrapped - v))) for v in (1e-13, 1.0 - 1e-13))
    assert (labels[low] == labels[high]) == (domain == TORUS)  # joined across the seam


@pytest.mark.parametrize("domain", [EUCLIDEAN, TORUS])
def test_run_labels_without_an_edge_is_none(domain):
    pts = np.array([[0.5], [0.1], [0.9], [0.3]])
    assert mvt.measures._run_labels(pts, domain) is None
    assert mvt.measures._tree_labels(pts, domain) is None
    assert mvt.measures._run_labels(pts[:1], domain) is None


@pytest.mark.parametrize("points, atoms, passes", [
    # A and B are within eps and both beyond it from C, which only their
    # merged mean reaches: a second pass merges it
    ([[-0.45e-12, 0.0], [0.45e-12, 0.0], [0.0, 0.95e-12]], 1, 2),
    # the pass leaves a support that _separated clears, which ends the loop
    ([[0.0], [0.5e-12], [0.7]], 2, 1),
])
def test_coalesce_passes_until_separated(monkeypatch, points, atoms, passes):
    calls = []
    merge_pass = mvt.measures._merge_pass

    def counted_merge_pass(*args):
        out = merge_pass(*args)
        calls.append(out[2])
        return out

    pts = np.array(points)
    if pts.shape[1] == 2:
        a, b, c = pts
        assert distance(a, b, EUCLIDEAN) <= COALESCE_EPS
        assert min(distance(a, c, EUCLIDEAN), distance(b, c, EUCLIDEAN)) > COALESCE_EPS
        assert distance((a + b) / 2.0, c, EUCLIDEAN) <= COALESCE_EPS
    monkeypatch.setattr(mvt.measures, "_merge_pass", counted_merge_pass)
    out = coalesce(DiscreteSignedMeasure(pts, np.ones(len(pts))))
    assert out.num_atoms == atoms and out.total_mass == 3.0
    assert calls == [True] * passes
