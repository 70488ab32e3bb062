"""Scenario configuration: parsed run descriptions and the bundled set.

A scenario bundles everything one simulation needs: domain, velocity
field, reaction, initial measure, time window, solver settings, and an
optional tracked density.  Scenarios come from INI-style config files
(see ``parse_scenario``).  The nine bundled scenarios that the
verification suites run are such files too, shipped in the package as
``configs/<name>.ini``; ``bundled_scenario`` parses them.

Config schema (unknown sections or keys are errors):

    [scenario]
    name = drift_logistic
    domain = euclidean          ; euclidean | torus
    dim = 1
    t0 = 0.0
    horizon = 1.0
    seed = 42                   ; feeds every random draw in the run

    [field]
    name = constant             ; zero | constant | linear | rotation2d
    params = 0.3                ;   | shear | time_oscillating

    [reaction]
    name = logistic             ; zero | linear_rate | logistic | death_rate
    params = 1.0, 2.0           ;   | dirac_source | smoothed_source | mass_rate

    [initial]
    kind = diracs               ; diracs | ring | random_cloud | csv | grid
    params = 1.0, 0.0, 1.0, 0.5 ; diracs: weight, coords, weight, coords, ...
    path =                      ; csv kind only

    [solver]                    ; all keys optional
    delta = 1.0
    quad_nodes = 33
    picard_tol = 1e-8
    picard_max_iter = 80
    tv_blowup_threshold =
    dilation_mode = none        ; none | auto | fixed
    dilation_c = 0.0            ; fixed mode's shift; must be 0 otherwise
    max_interval_tau =

    [density]                   ; optional section
    kind = gaussian             ; gaussian | uniform | csv
    box = -2.0, 2.0
    cells = 128
    p = 2.0
    params = 0.5                ; gaussian: sigma, or sigma, c1, ..., cd
                                ;   (default center: the box midpoint)
    path =

    [output]                    ; optional section
    snapshots = 11
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import DOMAIN_KINDS, EUCLIDEAN, TORUS
from .grids import GridDensity, gaussian_density, load_density, quantize, uniform_density
from .measures import DiscreteSignedMeasure, load_measure, measure
from .reactions import REACTION_NAMES, ReactionSpec, builtin_reaction
from .solver import SolverConfig
from .velocity import FIELD_NAMES, VelocityField, builtin_field


class ScenarioError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    name: str
    domain: str
    dim: int
    velocity: VelocityField
    reaction: ReactionSpec
    initial: DiscreteSignedMeasure
    t0: float
    horizon: float
    solver: SolverConfig
    density: GridDensity | None = None

    def __post_init__(self) -> None:
        for key in ("t0", "horizon"):
            if not np.isfinite(getattr(self, key)):
                raise ScenarioError(f"{key} must be finite")
        if not self.horizon > self.t0:
            raise ScenarioError("horizon must exceed t0")
        if self.dim not in (1, 2, 3):
            raise ScenarioError("dim must be 1, 2 or 3")
        if self.domain not in DOMAIN_KINDS:
            raise ScenarioError(f"domain must be one of {DOMAIN_KINDS}")


@dataclass(frozen=True)
class OutputOptions:
    snapshots: int = 11

    def __post_init__(self) -> None:
        if self.snapshots < 2:
            raise ScenarioError("snapshots must be at least 2")


INITIAL_KINDS = ("diracs", "ring", "random_cloud", "csv", "grid")


def initial_measure(
    kind: str,
    params: list[float],
    dim: int,
    domain: str,
    *,
    path: str | None = None,
    density: GridDensity | None = None,
    seed: int = 42,
) -> DiscreteSignedMeasure:
    """Build an initial measure from a config description."""
    if kind == "diracs":
        width = dim + 1
        if not params or len(params) % width != 0:
            raise ScenarioError(
                f"diracs in dim {dim} need groups of {width} numbers (weight, coords)"
            )
        rows = np.asarray(params, dtype=float).reshape(-1, width)
        return measure(rows[:, 1:], rows[:, 0], domain)
    if kind == "ring":
        if dim != 2:
            raise ScenarioError("ring initial data is two-dimensional")
        if len(params) not in (3, 5):
            raise ScenarioError("ring takes [n, radius, total_weight] or ... + center")
        n = int(params[0])
        radius, total = params[1], params[2]
        center = np.array(params[3:5]) if len(params) == 5 else np.zeros(2)
        if n < 1:
            raise ScenarioError("ring needs at least one atom")
        angles = 2.0 * np.pi * np.arange(n) / n
        pts = center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return measure(pts, np.full(n, total / n), domain)
    if kind == "random_cloud":
        if len(params) != 3:
            raise ScenarioError("random_cloud takes [n, scale, total_weight]")
        n, scale, total = int(params[0]), params[1], params[2]
        if n < 1:
            raise ScenarioError("random_cloud needs at least one atom")
        rng = np.random.default_rng(seed)
        if domain == TORUS:
            pts = rng.uniform(0.0, 1.0, size=(n, dim))
        else:
            pts = rng.uniform(-scale, scale, size=(n, dim))
        return measure(pts, np.full(n, total / n), domain)
    if kind == "csv":
        if not path:
            raise ScenarioError("csv initial data needs a path")
        return load_measure(path, domain)
    if kind == "grid":
        if density is None:
            raise ScenarioError("grid initial data needs a [density] section")
        return quantize(density)
    raise ScenarioError(f"unknown initial kind {kind!r}; expected one of {INITIAL_KINDS}")


# ---------------------------------------------------------------------------
# Config file parsing.
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {
    "scenario": {"name", "domain", "dim", "t0", "horizon", "seed"},
    "field": {"name", "params"},
    "reaction": {"name", "params"},
    "initial": {"kind", "params", "path"},
    "solver": {f.name for f in fields(SolverConfig)},
    "density": {"kind", "box", "cells", "p", "params", "path"},
    "output": {"snapshots"},
}
_REQUIRED_SECTIONS = ("scenario", "field", "reaction", "initial")


def _float_list(raw: str) -> list[float]:
    raw = raw.replace(",", " ")
    try:
        return [float(tok) for tok in raw.split()]
    except ValueError as exc:
        raise ScenarioError(f"expected a list of numbers, got {raw!r}") from exc


def _get(section, key: str, default: str | None = None) -> str | None:
    val = section.get(key, default)
    if val is None:
        return None
    val = val.strip()
    return val if val else None


def _parse_density(section, domain: str, dim: int) -> GridDensity:
    kind = _get(section, "kind")
    if kind is None:
        raise ScenarioError("[density] needs a kind")
    path = _get(section, "path")
    if kind == "csv":
        if not path:
            raise ScenarioError("density kind csv needs a path")
        density = load_density(path, domain)
        if density.dim != dim:
            raise ScenarioError(f"density file has dim {density.dim}, scenario says {dim}")
        return density
    p = float(_get(section, "p", "2.0"))
    cells_raw = _get(section, "cells")
    box_raw = _get(section, "box")
    if cells_raw is None or box_raw is None:
        raise ScenarioError(f"density kind {kind!r} needs box and cells")
    cells = int(cells_raw)
    box = _float_list(box_raw)
    if len(box) != 2:
        raise ScenarioError("density box takes exactly [lo, hi] (same on every axis)")
    lo, hi = box
    params = _float_list(_get(section, "params", "") or "")
    if kind == "uniform":
        if len(params) != 1:
            raise ScenarioError("uniform density takes params = value")
        return uniform_density([lo] * dim, [hi] * dim, cells, params[0], p, domain)
    if kind == "gaussian":
        if len(params) == 1:
            center = [0.5 * (lo + hi)] * dim
        elif len(params) == 1 + dim:
            center = params[1:]
        else:
            raise ScenarioError(
                f"gaussian density in dim {dim} takes params = sigma or sigma, c1..c{dim}"
            )
        return gaussian_density([lo] * dim, [hi] * dim, cells, params[0], center, p, 1.0, domain)
    raise ScenarioError(f"unknown density kind {kind!r}")


def parse_scenario(path: str) -> tuple[Scenario, OutputOptions]:
    """Parse a scenario config file; raises ScenarioError on any defect."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"malformed config {path!r}: {exc}") from exc

    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ScenarioError(f"unknown config section [{section}]")
        extra = set(parser[section]) - _ALLOWED_KEYS[section]
        if extra:
            raise ScenarioError(
                f"unknown key(s) {sorted(extra)} in section [{section}]"
            )
    for section in _REQUIRED_SECTIONS:
        if section not in parser:
            raise ScenarioError(f"missing required config section [{section}]")

    try:
        sc = parser["scenario"]
        name = _get(sc, "name")
        if not name:
            raise ScenarioError("[scenario] needs a name")
        domain = _get(sc, "domain", EUCLIDEAN)
        dim = int(_get(sc, "dim", "1"))
        t0 = float(_get(sc, "t0", "0.0"))
        horizon_raw = _get(sc, "horizon")
        if horizon_raw is None:
            raise ScenarioError("[scenario] needs a horizon")
        horizon = float(horizon_raw)
        seed = int(_get(sc, "seed") or 42)

        fsec = parser["field"]
        fname = _get(fsec, "name")
        fparams = _float_list(_get(fsec, "params", "") or "")
        if fname not in FIELD_NAMES:
            raise ScenarioError(f"unknown field {fname!r}; expected one of {FIELD_NAMES}")
        velocity = builtin_field(fname, fparams, dim)
        if domain == TORUS and not velocity.torus_compatible:
            raise ScenarioError(f"field {fname!r} is not torus-compatible")

        rsec = parser["reaction"]
        rname = _get(rsec, "name")
        rparams = _float_list(_get(rsec, "params", "") or "")
        if rname not in REACTION_NAMES:
            raise ScenarioError(
                f"unknown reaction {rname!r}; expected one of {REACTION_NAMES}"
            )
        domain_volume = 1.0
        density = None
        if "density" in parser:
            density = _parse_density(parser["density"], domain, dim)
            widths = np.asarray(density.box_max, dtype=float) - np.asarray(
                density.box_min, dtype=float
            )
            domain_volume = float(np.prod(widths))
        reaction = builtin_reaction(rname, rparams, domain_volume=domain_volume)
        # Source params end in the centre: sigma, x1..xd or sigma, width, x1..xd.
        lead = {"dirac_source": 1, "smoothed_source": 2}.get(rname)
        if lead is not None and len(rparams) - lead != dim:
            raise ScenarioError(f"[reaction] params: the {rname} centre has "
                                f"{len(rparams) - lead} coordinates, scenario says dim {dim}")

        isec = parser["initial"]
        kind = _get(isec, "kind")
        if kind is None:
            raise ScenarioError("[initial] needs a kind")
        iparams = _float_list(_get(isec, "params", "") or "")
        initial = initial_measure(
            kind,
            iparams,
            dim,
            domain,
            path=_get(isec, "path"),
            density=density,
            seed=seed,
        )
        if initial.dim != dim:
            raise ScenarioError(
                f"initial measure has dim {initial.dim}, scenario says {dim}"
            )

        solver_kwargs = {}
        if "solver" in parser:
            ssec = parser["solver"]
            for f in fields(SolverConfig):
                raw = _get(ssec, f.name)
                if raw is not None:
                    convert = float if f.default is None else type(f.default)
                    solver_kwargs[f.name] = convert(raw)
        solver = SolverConfig(**solver_kwargs)

        snapshots = 11
        if "output" in parser:
            raw = _get(parser["output"], "snapshots")
            if raw is not None:
                snapshots = int(raw)

        scenario = Scenario(
            name=name,
            domain=domain,
            dim=dim,
            velocity=velocity,
            reaction=reaction,
            initial=initial,
            t0=t0,
            horizon=horizon,
            solver=solver,
            density=density,
        )
        return scenario, OutputOptions(snapshots=snapshots)
    except ScenarioError:
        raise
    except OSError as exc:  # a csv file named by [initial] or [density]
        raise ScenarioError(f"cannot read {exc.filename!r} named in {path!r}: {exc.strerror}") from exc
    except (ValueError, KeyError) as exc:
        raise ScenarioError(f"invalid config {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Bundled scenarios (the verification corpus): each one is the INI file
# CONFIG_DIR/<name>.ini, and parse_scenario builds it.
#
# All multi-dimensional supports are kept small: the flat-norm LP on n
# atoms in >= 2 dimensions is the cost hot spot, while 1D instances use
# the exact chain solver and can be large.
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

BUNDLED_SCENARIOS = (
    "ring_rotation",
    "death_shear",
    "logistic_drift",
    "source_torus",
    "linear_mass",
    "riccati_blowup",
    "lp_rotation",
    "lp_contraction",
    "lp_growth",
)


def bundled_scenario(name: str) -> Scenario:
    """The bundled scenario ``name``, parsed from ``CONFIG_DIR/<name>.ini``."""
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioError(
            f"unknown bundled scenario {name!r}; have {sorted(BUNDLED_SCENARIOS)}"
        )
    return parse_scenario(str(CONFIG_DIR / f"{name}.ini"))[0]
