"""Grid densities: norms, quantization, interpolation, CSV I/O."""
import numpy as np
import pytest

from helpers import assert_same_text, reference_density_csv, reference_interpolate
from mvt.geometry import EUCLIDEAN, TORUS
from mvt.grids import (
    GridError,
    density_from_csv,
    density_to_csv,
    gaussian_density,
    grid_density,
    indicator_density,
    interpolate,
    load_density,
    lp_norm,
    mass,
    quantize,
    save_density,
    uniform_density,
    with_values,
)


def test_uniform_norms_closed_form():
    u = uniform_density([-1.0], [1.0], 64, 0.75, 2.0)
    assert lp_norm(u) == pytest.approx(0.75 * 2.0 ** 0.5)
    assert lp_norm(u, 1.0) == pytest.approx(1.5)
    assert lp_norm(u, np.inf) == pytest.approx(0.75)
    assert mass(u) == pytest.approx(1.5)


def test_inf_exponent_density():
    u = uniform_density([0.0], [2.0], 8, 3.0, np.inf)
    assert lp_norm(u) == 3.0


def test_indicator_density():
    u = indicator_density([0.0], [4.0], 16, [1.0], [2.0], 2.0, 2.0)
    assert mass(u) == pytest.approx(2.0)
    assert lp_norm(u, np.inf) == 2.0


def test_gaussian_density_exact_cell_averages():
    u = gaussian_density([-6.0], [6.0], 512, 1.0, [0.0], 2.0)
    assert mass(u) == pytest.approx(1.0, abs=1e-8)
    # cell averages of a density bounded by its sup
    assert lp_norm(u, np.inf) <= 1.0 / np.sqrt(2.0 * np.pi) + 1e-12
    # center 1.5 leaves a 4.5 sigma tail outside the box: ~7e-6 mass
    shifted = gaussian_density([-6.0], [6.0], 512, 1.0, [1.5], 2.0, 2.0)
    assert mass(shifted) == pytest.approx(2.0, abs=1e-4)
    assert mass(shifted) < 2.0


def test_grid_density_validation():
    with pytest.raises(GridError):
        grid_density([0.0], [0.0], 4, np.zeros(4), 2.0)  # empty box
    with pytest.raises(GridError):
        grid_density([0.0], [1.0], 0, np.zeros(0), 2.0)
    with pytest.raises(GridError):
        grid_density([0.0], [1.0], 4, np.zeros(4), 1.0)  # p must exceed 1
    with pytest.raises(GridError):
        grid_density([0.0], [1.0], 4, np.zeros(5), 2.0)
    with pytest.raises(GridError):
        grid_density([0.0], [1.0], 4, np.full(4, np.nan), 2.0)
    with pytest.raises(GridError):
        grid_density([0.5], [1.5], 4, np.zeros(4), 2.0, TORUS)


def test_quantize_preserves_mass_and_positions():
    u = uniform_density([0.0, 0.0], [1.0, 1.0], 4, 2.0, 2.0)
    mu = quantize(u)
    assert mu.num_atoms == 16
    assert mu.total_mass == pytest.approx(mass(u))
    assert np.all(mu.points >= 0.125 - 1e-12) and np.all(mu.points <= 0.875 + 1e-12)


def test_quantize_drops_empty_cells():
    vals = np.zeros(8)
    vals[3] = 4.0
    u = grid_density([0.0], [1.0], 8, vals, 2.0)
    mu = quantize(u)
    assert mu.num_atoms == 1
    assert mu.points[0, 0] == pytest.approx(0.4375)


def test_interpolate_at_centers_and_outside():
    vals = np.arange(8.0)
    u = grid_density([0.0], [8.0], 8, vals, 2.0)
    centers = u.center_points()
    np.testing.assert_allclose(interpolate(u, centers), vals, atol=1e-12)
    assert interpolate(u, np.array([[100.0]]))[0] == 0.0
    # halfway between centers -> mean of neighbours
    assert interpolate(u, np.array([[1.0]]))[0] == pytest.approx(0.5)


def test_interpolate_torus_wraps():
    vals = np.array([1.0, 0.0, 0.0, 3.0])
    u = grid_density([0.0], [1.0], 4, vals, 2.0, TORUS)
    # midpoint between the last and first cell centers, across the seam
    assert interpolate(u, np.array([[0.0]]))[0] == pytest.approx(2.0)


@pytest.mark.parametrize("domain", [EUCLIDEAN, TORUS])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interpolate_bitwise_matches_corner_loop(dim, domain):
    rng = np.random.default_rng(10 * dim + (domain == TORUS))
    for cells in (1, 2, 5, 9):
        if domain == TORUS:
            lo, hi = np.zeros(dim), np.ones(dim)
        else:
            lo = rng.uniform(-2.0, 0.0, dim)
            hi = lo + rng.uniform(0.5, 3.0, dim)
        vals = rng.normal(size=(cells,) * dim)
        vals[rng.random(vals.shape) < 0.25] = -0.0
        u = grid_density(lo, hi, cells, vals, 2.0, domain)
        span = hi - lo
        pts = np.vstack([
            rng.uniform(lo - span, hi + span, size=(300, dim)),  # many outside the box
            u.center_points(),
            np.array([lo, hi, lo - 0.5 * u.cell_widths, hi + 0.5 * u.cell_widths]),
        ])
        got = interpolate(u, pts)
        assert got.tobytes() == reference_interpolate(u, pts).tobytes()
        flat = pts.ravel()
        assert interpolate(u, flat).tobytes() == reference_interpolate(u, flat).tobytes()


def test_with_values_keeps_geometry():
    u = uniform_density([0.0], [1.0], 4, 1.0, 2.0)
    w = with_values(u, np.array([1.0, 2.0, 3.0, 4.0]))
    assert w.cells == 4 and w.p == 2.0
    with pytest.raises(GridError):
        with_values(u, np.zeros(5))


def test_density_csv_round_trip(tmp_path):
    u = gaussian_density([-2.0, -2.0], [2.0, 2.0], 16, 0.5, [0.3, 0.0], 2.0)
    path = tmp_path / "d.csv"
    save_density(u, str(path))
    back = load_density(str(path))
    assert back.cells == 16 and back.p == 2.0
    np.testing.assert_array_equal(back.values, u.values)
    np.testing.assert_array_equal(back.box_min, u.box_min)
    assert density_to_csv(back) == density_to_csv(u)


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_density_csv_bytes_match_row_writer(p):
    from mvt.measures import _CSV_CHUNK_ROWS

    cells = 70  # 4900 cells: more than one chunk of rows
    assert cells**2 > _CSV_CHUNK_ROWS
    vals = np.random.default_rng(5).normal(size=(cells, cells))
    vals.ravel()[:6] = [-0.0, 5e-324, 1e300, -1e300, 2.2250738585072014e-308, 1.0 / 3.0]
    vals.ravel()[_CSV_CHUNK_ROWS - 1 : _CSV_CHUNK_ROWS + 1] = [-0.0, 5e-324]
    u = grid_density([-1.5, 0.25], [2.0, 1.0 / 3.0], cells, vals, p)
    assert_same_text(density_to_csv(u), reference_density_csv(u))
    small = uniform_density([0.0], [1.0], 1, -0.0, p)
    assert_same_text(density_to_csv(small), reference_density_csv(small))


def test_density_from_csv_names_bad_row():
    text = "cells_per_axis,box_min_1,box_max_1,p\n2,0.0,1.0,2.0\n1.0\nabc\n"
    with pytest.raises(GridError, match="row 4: could not convert"):
        density_from_csv(text)


def test_density_csv_validation():
    with pytest.raises(GridError):
        density_from_csv("bogus\n1.0\n")
    with pytest.raises(GridError):
        density_from_csv("cells_per_axis,box_min_1,box_max_1,p\n4,0.0,1.0,2.0\n1.0\n")
