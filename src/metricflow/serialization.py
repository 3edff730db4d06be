"""JSON wire format of displacement maps, and deterministic result JSON.

The one field artifact is a displacement map:

    {"grid": {"dim": 2, "topology": "box", "n_per_axis": 16, "extent": 2.0},
     "kind": "displacement",
     "collar_width": 3,
     "data": [ ... row-major reals of the displacement u ... ]}

Reals are written with 17 significant digits so that parsing reproduces the
original float64 bit pattern.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidResultError
from .fields import Grid, VectorField
from .tensors import DisplacementMap


def format_real(x: float) -> str:
    return format(float(x), ".17g")


_DATA_BLOCK = 4096


def _data_json(arr) -> str:
    """Row-major reals of arr as a JSON list, each as ``format_real`` writes it.

    "%.17g" % x is format(x, ".17g"), so each block of reals is one C-level
    %-format of its ``tolist()``.  Blocks keep the Python floats and strings
    of a large field from being alive all at once.
    """
    flat = np.asarray(arr, dtype=float).ravel()
    blocks = (flat[i : i + _DATA_BLOCK].tolist() for i in range(0, flat.size, _DATA_BLOCK))
    return "[" + ", ".join(", ".join(["%.17g"] * len(b)) % tuple(b) for b in blocks) + "]"


def _grid_json(grid: Grid) -> str:
    return (
        '{"dim": %d, "topology": "%s", "n_per_axis": %d, "extent": %s}'
        % (grid.dim, grid.topology, grid.n_per_axis, format_real(grid.extent))
    )


def field_to_json(u: VectorField, collar_width) -> str:
    """Serialize a map's displacement u and collar width (17-significant-digit reals)."""
    return "{" + ", ".join([
        '"grid": ' + _grid_json(u.grid),
        '"kind": "displacement"',
        '"collar_width": %d' % collar_width,
        '"data": ' + _data_json(u.components),
    ]) + "}"


def field_from_json(text: str) -> DisplacementMap:
    """Parse the wire format back into the displacement map it holds.

    The reader that proves the ``displacement.json`` wire format round-trips;
    any kind other than "displacement" raises ValueError.
    """
    obj = json.loads(text)
    if obj["kind"] != "displacement":
        raise ValueError(f"unknown field kind {obj['kind']!r}")
    grid = Grid(**obj["grid"])
    u = VectorField(grid, np.array(obj["data"], dtype=float).reshape((grid.dim,) + grid.shape))
    return DisplacementMap(u, collar_width=obj["collar_width"])


def dumps_result(obj) -> str:
    """Deterministic JSON for result payloads (sorted keys, 17g reals).

    JSON has no inf or NaN: a non-finite real raises InvalidResultError naming
    its key path (``results.values[2]``) rather than giving an artifact that
    ``json.load`` rejects.
    """

    def encode(v, path):
        if isinstance(v, dict):
            return "{" + ", ".join(
                json.dumps(str(k)) + ": " + encode(v[k], f"{path}.{k}" if path else str(k))
                for k in sorted(v)
            ) + "}"
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(encode(e, f"{path}[{i}]") for i, e in enumerate(v)) + "]"
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            if not math.isfinite(v):
                raise InvalidResultError(
                    f"result {path or '(top level)'} is {float(v)}, which JSON cannot hold"
                )
            return format_real(v)
        if v is None:
            return "null"
        return json.dumps(str(v))

    return encode(obj, "")
