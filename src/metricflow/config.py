"""Strict JSON configuration schema for the experiment runner.

A config is a single JSON object:

    {"experiment": "<name>",
     "grid": {"dim": 2, "topology": "torus", "n_per_axis": 16, "extent": 1.0},
     "solver": {"tol": 1e-10, "max_iter": null, "lambda": 1.0},
     "seed": 42,
     "output_path": "out",
     "params": { ... experiment-specific ... }}

Unknown keys anywhere are rejected; "experiment" and "seed" are mandatory.
The known experiments, their params, the params' defaults, JSON types and
least values all come from ``experiments.EXPERIMENTS``.  ``--seed`` and
``--out`` on the command line replace the file's "seed" and "output_path"
and pass this same schema, with its messages.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

from .errors import ConfigError
from .experiments import EXPERIMENTS
from .fields import Grid
from .transport import SolverConfig

_GRID_KEYS = {"dim", "topology", "n_per_axis", "extent"}
_SOLVER_KEYS = {"tol", "max_iter", "lambda"}
_TOP_KEYS = {"experiment", "grid", "solver", "seed", "output_path", "params"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    grid: Grid
    solver: SolverConfig
    seed: int
    output_path: str | None
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "grid": asdict(self.grid),
            "solver": {
                "tol": self.solver.tol,
                "max_iter": self.solver.max_iter,
                "lambda": self.solver.lam,
            },
            "seed": self.seed,
            "output_path": self.output_path,
            "params": dict(self.params),
        }


def _reject_unknown(obj, allowed, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _expect(condition, message):
    if not condition:
        raise ConfigError(message)


def _same_json_type(value, default):
    """JSON type check against a default.

    An int passes for a float if a float can hold it; a bool never passes for a number.
    """
    if type(default) is float and type(value) is int:
        return abs(value) <= sys.float_info.max
    if type(default) is list:
        return type(value) is list and all(_same_json_type(v, default[0]) for v in value)
    return type(value) is type(default)


def parse_config(obj: dict) -> ExperimentConfig:
    _expect(isinstance(obj, dict), "config must be a JSON object")
    _reject_unknown(obj, _TOP_KEYS, "config")
    _expect("experiment" in obj, "config needs an 'experiment' key")
    _expect("seed" in obj, "config needs a 'seed' key")
    experiment = obj["experiment"]
    _expect(
        isinstance(experiment, str) and experiment in EXPERIMENTS,
        f"unknown experiment {experiment!r}",
    )
    seed = obj["seed"]
    _expect(
        isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64,
        "seed must be a 64-bit unsigned integer",
    )

    grid_obj = obj.get("grid", {})
    _expect(isinstance(grid_obj, dict), "'grid' must be an object")
    _reject_unknown(grid_obj, _GRID_KEYS, "grid")
    _expect(
        _same_json_type(grid_obj.get("extent", 1.0), 1.0), "grid 'extent' must be a number"
    )
    defaults = {"dim": 2, "topology": "torus", "n_per_axis": 16}
    merged = {**defaults, **grid_obj}
    if merged["topology"] == "box":
        merged.setdefault("extent", 2.0)
    else:
        merged.setdefault("extent", 1.0)
    try:
        grid = Grid(**merged)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    solver_obj = obj.get("solver", {})
    _expect(isinstance(solver_obj, dict), "'solver' must be an object")
    _reject_unknown(solver_obj, _SOLVER_KEYS, "solver")
    for key in ("tol", "lambda"):
        _expect(_same_json_type(solver_obj.get(key, 1.0), 1.0), f"solver {key!r} must be a number")
    try:
        solver = SolverConfig(
            tol=float(solver_obj.get("tol", SolverConfig.tol)),
            max_iter=solver_obj.get("max_iter", SolverConfig.max_iter),
            lam=float(solver_obj.get("lambda", SolverConfig.lam)),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid solver settings: {exc}") from exc

    output_path = obj.get("output_path")
    _expect(
        output_path is None or isinstance(output_path, str),
        "'output_path' must be a string",
    )

    params_obj = obj.get("params", {})
    _expect(isinstance(params_obj, dict), "'params' must be an object")
    spec = EXPERIMENTS[experiment]
    param_defaults = spec.defaults
    _reject_unknown(params_obj, param_defaults, f"params for {experiment}")
    for key, value in params_obj.items():
        _expect(
            _same_json_type(value, param_defaults[key]),
            f"param {key!r} for {experiment} must have the JSON type of its default "
            f"{param_defaults[key]!r}, got {value!r}",
        )
        entries = value if type(value) is list else [value]
        _expect(entries != [], f"param {key!r} for {experiment} must not be empty")
        # json.load reads NaN and +-Infinity, which JSON itself does not have
        _expect(
            all(math.isfinite(v) for v in entries if type(v) is float),
            f"param {key!r} for {experiment} must be finite, got {value!r}",
        )
        least = spec.minimums.get(key, 1)
        _expect(
            all(v >= least for v in entries if type(v) is int),
            f"param {key!r} for {experiment} must be at least {least}, got {value!r}",
        )
    params = {**param_defaults, **params_obj}

    return ExperimentConfig(
        experiment=experiment,
        grid=grid,
        solver=solver,
        seed=seed,
        output_path=output_path,
        params=params,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(obj)
