"""Scenario configs: INI parsing, initial data builders, bundled registry."""
import re
from dataclasses import fields

import numpy as np
import pytest

from mvt.grids import gaussian_density, save_density
from mvt.measures import save_measure, dirac
from mvt.scenarios import (
    BUNDLED_SCENARIOS,
    CONFIG_DIR,
    INITIAL_KINDS,
    OutputOptions,
    Scenario,
    ScenarioError,
    bundled_scenario,
    initial_measure,
    parse_scenario,
)
from mvt.solver import SolverConfig
from mvt.velocity import FIELD_NAMES, builtin_field

MINIMAL = """\
[scenario]
name = demo
dim = 1
horizon = 1.0

[field]
name = zero

[reaction]
name = zero

[initial]
kind = diracs
params = 1.0, 0.0
"""


def _write(tmp_path, text, name="sc.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal(tmp_path):
    scenario, output = parse_scenario(_write(tmp_path, MINIMAL))
    assert scenario.name == "demo"
    assert scenario.dim == 1 and scenario.horizon == 1.0 and scenario.t0 == 0.0
    assert scenario.initial.total_mass == 1.0
    assert output.snapshots == 11


def test_parse_bundled_config_files():
    configs = sorted(CONFIG_DIR.glob("*.ini"))
    assert {cfg.stem for cfg in configs} == set(BUNDLED_SCENARIOS)
    for cfg in configs:
        scenario, output = parse_scenario(str(cfg))
        assert scenario.name == cfg.stem
        assert scenario.horizon > scenario.t0
        assert output.snapshots >= 2


def test_parse_rejects_unknown_section(tmp_path):
    with pytest.raises(ScenarioError, match="unknown config section"):
        parse_scenario(_write(tmp_path, MINIMAL + "\n[extra]\nx = 1\n"))


def test_parse_rejects_unknown_key(tmp_path):
    bad = MINIMAL.replace("dim = 1", "dim = 1\ncolour = red")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(_write(tmp_path, bad))


def test_parse_rejects_missing_section(tmp_path):
    bad = MINIMAL.replace("[reaction]\nname = zero\n", "")
    with pytest.raises(ScenarioError, match="missing required"):
        parse_scenario(_write(tmp_path, bad))


def test_parse_rejects_bad_names(tmp_path):
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario(_write(tmp_path, MINIMAL.replace("[field]\nname = zero", "[field]\nname = warp")))
    with pytest.raises(ScenarioError, match="unknown reaction"):
        parse_scenario(_write(tmp_path, MINIMAL.replace("[reaction]\nname = zero", "[reaction]\nname = fission")))


def test_zero_field_is_builtin(tmp_path):
    assert "zero" in FIELD_NAMES
    v = builtin_field("zero", [], 2)
    x = np.array([[0.5, -1.0], [2.0, 3.0]])
    np.testing.assert_array_equal(v(0.3, x), np.zeros_like(x))
    assert v.sup_rate(0.3) == 0.0 and v.torus_compatible
    with pytest.raises(ValueError, match="no parameters"):
        builtin_field("zero", [5.0], 1)
    # the parser rejects field params it cannot use, as it does for reactions
    bad = MINIMAL.replace("[field]\nname = zero", "[field]\nname = zero\nparams = 5, 7")
    with pytest.raises(ScenarioError, match="no parameters"):
        parse_scenario(_write(tmp_path, bad))


def test_parse_rejects_torus_incompatible_field(tmp_path):
    bad = MINIMAL.replace("dim = 1", "dim = 1\ndomain = torus").replace(
        "[field]\nname = zero", "[field]\nname = linear\nparams = 1.0"
    )
    with pytest.raises(ScenarioError, match="torus"):
        parse_scenario(_write(tmp_path, bad))


def test_parse_rejects_bad_horizon(tmp_path):
    with pytest.raises(ScenarioError):
        parse_scenario(_write(tmp_path, MINIMAL.replace("horizon = 1.0", "horizon = -1.0")))


def test_parse_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        parse_scenario("/nonexistent/path.ini")


def test_parse_solver_and_output_sections(tmp_path):
    text = MINIMAL + """
[solver]
quad_nodes = 17
picard_tol = 1e-9
dilation_mode = auto
max_interval_tau = 0.25

[output]
snapshots = 3
"""
    scenario, output = parse_scenario(_write(tmp_path, text))
    assert scenario.solver.quad_nodes == 17
    assert scenario.solver.picard_tol == 1e-9
    assert scenario.solver.dilation_mode == "auto"
    assert scenario.solver.max_interval_tau == 0.25
    assert output.snapshots == 3


def test_parse_every_solver_key(tmp_path):
    """Each SolverConfig field is a [solver] key, converted to its type."""
    want = SolverConfig(
        delta=2.5,
        quad_nodes=17,
        picard_tol=1e-9,
        picard_max_iter=12,
        tv_blowup_threshold=50.0,
        dilation_mode="fixed",
        dilation_c=0.5,
        max_interval_tau=0.25,
    )
    default = SolverConfig()
    keys = [f.name for f in fields(SolverConfig)]
    assert len(keys) == 8
    assert all(getattr(want, key) != getattr(default, key) for key in keys)
    lines = [f"{key} = {getattr(want, key)}" for key in keys]
    text = MINIMAL + "\n[solver]\n" + "\n".join(lines) + "\n"
    scenario, _ = parse_scenario(_write(tmp_path, text))
    assert scenario.solver == want
    assert type(scenario.solver.quad_nodes) is int
    assert type(scenario.solver.picard_max_iter) is int


@pytest.mark.parametrize("old, new, key", [
    ("params = 0.3", "params = nan", "constant field"),
    ("params = 0.3", "params = inf", "constant field"),
    ("params = 1.0, 2.0", "params = nan, 2.0", "logistic reaction"),
    ("t0 = 0.0", "t0 = -inf", "t0"),
])
def test_parse_rejects_nonfinite_values(tmp_path, old, new, key):
    """A non-finite parameter is a config error that names its key.

    ``test_cli`` covers the solver keys and the horizon end to end."""
    text = (CONFIG_DIR / "logistic_drift.ini").read_text()
    assert text.count(old) == 1
    with pytest.raises(ScenarioError, match=key):
        parse_scenario(_write(tmp_path, text.replace(old, new)))


@pytest.mark.parametrize("value", ["inf", "nan", "0.0"])
def test_parse_rejects_unusable_tv_blowup_threshold(tmp_path, value):
    """A threshold that is not positive and finite is a config error that
    names its key: at inf, a blowing-up run goes on to the interval budget."""
    text = (CONFIG_DIR / "riccati_blowup.ini").read_text()
    assert text.count("tv_blowup_threshold = ") == 1
    text = re.sub(r"tv_blowup_threshold = \S+", f"tv_blowup_threshold = {value}", text)
    with pytest.raises(ScenarioError, match="tv_blowup_threshold"):
        parse_scenario(_write(tmp_path, text))


def test_parse_seed_key_controls_random_cloud(tmp_path):
    base = MINIMAL.replace(
        "kind = diracs\nparams = 1.0, 0.0", "kind = random_cloud\nparams = 8, 0.5, 2.0"
    )
    s1, _ = parse_scenario(_write(tmp_path, base, "a.ini"))
    s2, _ = parse_scenario(_write(tmp_path, base, "b.ini"))
    np.testing.assert_array_equal(s1.initial.points, s2.initial.points)
    seeded = base.replace("dim = 1", "dim = 1\nseed = 7")
    s3, _ = parse_scenario(_write(tmp_path, seeded, "c.ini"))
    assert not np.array_equal(s1.initial.points, s3.initial.points)


def test_initial_kinds():
    assert set(INITIAL_KINDS) == {"diracs", "ring", "random_cloud", "csv", "grid"}
    mu = initial_measure("diracs", [1.0, 0.0, 0.5, 1.0], 1, "euclidean")
    assert mu.num_atoms == 2 and mu.total_mass == 1.5
    ring = initial_measure("ring", [12, 0.5, 2.0], 2, "euclidean")
    assert ring.num_atoms == 12
    assert ring.total_mass == pytest.approx(2.0)
    np.testing.assert_allclose(np.linalg.norm(ring.points, axis=1), 0.5, atol=1e-12)
    cloud = initial_measure("random_cloud", [6, 0.5, 1.0], 2, "euclidean", seed=3)
    assert cloud.num_atoms == 6 and cloud.total_mass == pytest.approx(1.0)


def test_initial_ring_requires_2d():
    with pytest.raises(ScenarioError):
        initial_measure("ring", [12, 0.5, 2.0], 1, "euclidean")


def test_initial_csv(tmp_path):
    path = tmp_path / "init.csv"
    save_measure(dirac(0.25, 2.0), str(path))
    mu = initial_measure("csv", [], 1, "euclidean", path=str(path))
    assert mu.total_mass == 2.0
    with pytest.raises(ScenarioError):
        initial_measure("csv", [], 1, "euclidean")


def test_initial_unknown_kind():
    with pytest.raises(ScenarioError):
        initial_measure("blob", [], 1, "euclidean")


def test_scenario_dataclass_validation():
    base = bundled_scenario("ring_rotation")
    with pytest.raises(ScenarioError):
        Scenario(
            name="bad",
            domain=base.domain,
            dim=base.dim,
            velocity=base.velocity,
            reaction=base.reaction,
            initial=base.initial,
            t0=1.0,
            horizon=1.0,
            solver=base.solver,
        )


def test_output_options_floor():
    with pytest.raises(ScenarioError):
        OutputOptions(snapshots=1)


def test_bundled_registry():
    assert set(BUNDLED_SCENARIOS) == {
        "ring_rotation",
        "death_shear",
        "logistic_drift",
        "source_torus",
        "linear_mass",
        "riccati_blowup",
        "lp_rotation",
        "lp_contraction",
        "lp_growth",
    }
    for name in BUNDLED_SCENARIOS:
        scenario = bundled_scenario(name)
        assert scenario.name == name
        assert scenario.horizon > scenario.t0
        assert scenario.initial.is_positive()
    with pytest.raises(ScenarioError):
        bundled_scenario("missing")


def test_density_section_gaussian(tmp_path):
    text = MINIMAL + """
[density]
kind = gaussian
box = -2.0, 2.0
cells = 64
p = 2.0
params = 0.5
"""
    scenario, _ = parse_scenario(_write(tmp_path, text))
    assert scenario.density is not None
    assert scenario.density.cells == 64
    from mvt.grids import mass

    assert mass(scenario.density) == pytest.approx(1.0, abs=1e-4)


def test_density_section_p_inf(tmp_path):
    text = MINIMAL + """
[density]
kind = uniform
box = -1.0, 1.0
cells = 8
p = inf
params = 0.5
"""
    scenario, _ = parse_scenario(_write(tmp_path, text))
    assert scenario.density.p == np.inf


def test_density_section_gaussian_center(tmp_path):
    text = MINIMAL.replace("dim = 1", "dim = 2").replace(
        "params = 1.0, 0.0", "params = 1.0, 0.0, 0.0"
    ) + """
[density]
kind = gaussian
box = -2.0, 2.0
cells = 16
p = 2.0
params = 0.5, 0.3, 0.0
"""
    scenario, _ = parse_scenario(_write(tmp_path, text))
    want = gaussian_density([-2.0, -2.0], [2.0, 2.0], 16, 0.5, [0.3, 0.0], 2.0)
    np.testing.assert_array_equal(scenario.density.values, want.values)
    np.testing.assert_array_equal(scenario.density.box_min, want.box_min)
    np.testing.assert_array_equal(scenario.density.box_max, want.box_max)
    with pytest.raises(ScenarioError, match="sigma or sigma, c1..c2"):
        parse_scenario(_write(tmp_path, text.replace("params = 0.5, 0.3, 0.0", "params = 0.5, 0.3")))


def test_density_csv_of_wrong_dim_rejected(tmp_path):
    path = tmp_path / "line.csv"
    save_density(gaussian_density([-2.0], [2.0], 16, 0.5, [0.0], 2.0), str(path))
    text = MINIMAL.replace("dim = 1", "dim = 2").replace(
        "params = 1.0, 0.0", "params = 1.0, 0.0, 0.0"
    ) + f"\n[density]\nkind = csv\npath = {path}\n"
    with pytest.raises(ScenarioError, match="density file has dim 1, scenario says 2"):
        parse_scenario(_write(tmp_path, text))
    scenario, _ = parse_scenario(_write(tmp_path, MINIMAL + f"\n[density]\nkind = csv\npath = {path}\n"))
    assert scenario.density.dim == 1


def test_empty_initial_csv_of_wrong_dim_rejected(tmp_path):
    path = tmp_path / "cancelled.csv"  # its atoms cancel: an empty 1D measure
    path.write_text("x1,weight\n0.1,1.0\n0.1,-1.0\n")
    text = MINIMAL.replace("dim = 1", "dim = 2").replace(
        "kind = diracs\nparams = 1.0, 0.0", f"kind = csv\npath = {path}")
    with pytest.raises(ScenarioError, match="initial measure has dim 1, scenario says 2"):
        parse_scenario(_write(tmp_path, text))


def test_density_grid_initial_quantizes(tmp_path):
    text = MINIMAL.replace(
        "kind = diracs\nparams = 1.0, 0.0", "kind = grid"
    ) + """
[density]
kind = uniform
box = -1.0, 1.0
cells = 32
p = 2.0
params = 0.75
"""
    scenario, _ = parse_scenario(_write(tmp_path, text))
    assert scenario.initial.num_atoms == 32
    assert scenario.initial.total_mass == pytest.approx(1.5)


def test_grid_initial_without_density_section(tmp_path):
    text = MINIMAL.replace("kind = diracs\nparams = 1.0, 0.0", "kind = grid")
    with pytest.raises(ScenarioError):
        parse_scenario(_write(tmp_path, text))
