"""JSON serialization for grids and fields.

Wire format:

    {"grid": {"dim": 2, "topology": "torus", "n_per_axis": 16, "extent": 1.0},
     "kind": "scalar",
     "data": [ ... row-major reals ... ]}

Reals are written with 17 significant digits so that parsing reproduces the
original float64 bit pattern.  Displacement maps use kind "displacement" and,
on box grids, an extra integer entry "collar_width".
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidResultError
from .fields import (
    DensityField,
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
)


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


def field_to_json(field, kind=None, extra=None) -> str:
    """Serialize a field to the JSON wire format (17-significant-digit reals)."""
    kind = kind or field.kind
    data = field.values if hasattr(field, "values") else field.components
    parts = ['"grid": ' + _grid_json(field.grid), '"kind": "%s"' % kind]
    if extra:
        for key in sorted(extra):
            parts.append('"%s": %s' % (key, json.dumps(extra[key])))
    parts.append('"data": ' + _data_json(data))
    return "{" + ", ".join(parts) + "}"


def field_from_json(text: str):
    """Parse the wire format back into the matching field object.

    Kept as the reader that proves the ``displacement.json`` wire format
    round-trips.
    Returns (field, extra) where extra holds any auxiliary entries such as
    "collar_width".  Metric and displacement kinds are resolved lazily to
    avoid a circular import with the tensor module.
    """
    obj = json.loads(text)
    grid = Grid(**obj["grid"])
    kind = obj["kind"]
    data = np.array(obj["data"], dtype=float)
    extra = {k: v for k, v in obj.items() if k not in ("grid", "kind", "data")}

    from .tensors import DisplacementMap, MetricField

    if kind == "scalar":
        return ScalarField(grid, data.reshape(grid.shape)), extra
    if kind == "density":
        return DensityField(grid, data.reshape(grid.shape)), extra
    if kind == "vector":
        return VectorField(grid, data.reshape((grid.dim,) + grid.shape)), extra
    if kind in ("sym_tensor", "metric"):
        ncomp = grid.dim * (grid.dim + 1) // 2
        cls = MetricField if kind == "metric" else SymTensorField
        return cls(grid, data.reshape((ncomp,) + grid.shape)), extra
    if kind == "displacement":
        u = VectorField(grid, data.reshape((grid.dim,) + grid.shape))
        return DisplacementMap(u, collar_width=extra.get("collar_width", 0)), extra
    raise ValueError(f"unknown field kind {kind!r}")


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
