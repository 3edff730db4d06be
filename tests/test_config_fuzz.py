"""Config fuzz: whatever a config file holds, the CLI exits 0, 2 or 3 cleanly.

Each example starts from a small config of one experiment that runs in tens
of milliseconds and changes up to three slots of it (params, grid, solver or
seed) to a legal value, a value of the wrong JSON type, a non-finite number
(written as JSON NaN / Infinity), 0, -1, +-1e308, 5e-324, an empty list or an
unknown key.  Every run must exit 0, 2 or 3, print at most one stderr line
and no traceback, and leave only artifacts that strict JSON and CSV parsers
accept.  Counts stay small: a legal count such as 2**70 is accepted by the
schema and would run without end, so no pool holds one.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricflow.cli import main
from metricflow.experiments import EXPERIMENTS

# a small config per experiment; the random-field experiments use one mode
# so that the 8-node torus resolves it
BASE_PARAMS = {
    "we-norm": {"n_trials": 1, "modes": 1},
    "wfr-norm": {"n_trials": 1, "modes": 1},
    "submersion": {"n_trials": 1, "n_perturb": 1, "modes": 1},
    "divergence-sweep": {"n_pairs": 1, "modes": 1},
    "second-variation": {"n_triples": 1, "modes": 1},
    "flat-factorize": {"n_instances": 1, "n_non_flat": 1},
    "seq-demo": {"ns": [2], "n_max": 4, "quad_points": 9},
    "euler-alpha": {},
    "path-energy": {"n_paths": 1, "n_t": 1, "modes": 1},
    "static-eval": {"iters": 1, "modes": 1},
    "toy-geodesic": {"n_t": 1, "n_perturb": 1},
    "bounds": {"n_pairs": 1, "n_t": 1, "modes": 1},
}
BASE_GRIDS = {
    "flat-factorize": {"topology": "box", "n_per_axis": 64, "extent": 2.0},
    "toy-geodesic": {"topology": "box", "n_per_axis": 8, "extent": 2.0},
}
TORUS8 = {"dim": 2, "topology": "torus", "n_per_axis": 8}

ODD = [
    None, True, "7", [], {}, [1.5],
    math.nan, math.inf, -math.inf,
    0, -1, 0.0, -1.0, 1e308, -1e308, 5e-324,
]
LEGAL_BY_TYPE = {int: [1, 2], float: [0.5, 2], list: [[1], [2, 1]], str: ["shape", "tilde_kl_met"]}
SLOTS = {
    ("grid", "dim"): [1, 2, 3],
    ("grid", "topology"): ["torus", "box", "sphere"],
    ("grid", "n_per_axis"): [8, 9, 12, 7, 16.5],
    ("grid", "extent"): [1.0, 2.0, 3],
    ("grid", "radius"): [1],
    ("solver", "tol"): [1e-6, 1e-3],
    ("solver", "max_iter"): [1, 2, 1.5],
    ("solver", "lambda"): [0.5, 2],
    ("solver", "method"): ["cg"],
    ("seed",): [0, 2**64 - 1, 2**64],
    ("params", "surprise"): [1],
}


def _slots(name):
    params = {
        ("params", key): LEGAL_BY_TYPE[type(default)]
        for key, default in EXPERIMENTS[name].defaults.items()
    }
    return {**SLOTS, **params}


def _edits(name):
    slots = _slots(name)
    slot = st.sampled_from(sorted(slots))
    return st.lists(
        slot.flatmap(
            lambda s: st.tuples(st.just(s), st.sampled_from(slots[s]) | st.sampled_from(ODD))
        ),
        max_size=3,
    )


def _config(name, edits):
    cfg = {
        "experiment": name,
        "seed": 3,
        "grid": dict(BASE_GRIDS.get(name, TORUS8)),
        "params": dict(BASE_PARAMS[name]),
        "solver": {},
    }
    for slot, value in edits:
        if slot == ("seed",):
            cfg["seed"] = value
        else:
            cfg[slot[0]][slot[1]] = value
    return cfg


def _strict_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _check_artifacts(out_dir):
    for entry in os.listdir(out_dir):
        path = os.path.join(out_dir, entry)
        if entry == "cfg.json":
            continue
        assert not entry.startswith(".metricflow-"), f"temp file left behind: {entry}"
        with open(path, encoding="utf-8") as fh:
            if entry.endswith(".json"):
                json.load(fh, parse_constant=_strict_constant)
            else:
                assert entry.endswith(".csv"), entry
                header, *rows = csv.reader(fh, strict=True)
                assert header and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
@settings(
    max_examples=10,
    derandomize=True,
    database=None,
    deadline=None,
)
@given(data=st.data())
def test_fuzzed_configs_exit_cleanly(name, data):
    cfg = _config(name, data.draw(_edits(name), label="edits"))
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)  # NaN and Infinity as JSON NaN / Infinity
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([name, "--config", path, "--out", out_dir])
        message = err.getvalue()
        assert code in (0, 2, 3), (cfg, code, message)
        assert message.count("\n") <= 1 and "Traceback" not in message, (cfg, message)
        assert (code == 0) == (message == ""), (cfg, code, message)
        _check_artifacts(out_dir)
