"""The benchmark's span tracer must still find every function it wraps.

perfbench/tracer.py patches metricflow from outside by (module, attribute)
name; a refactor that renames or inlines one of them silently drops that
layer from the per-layer numbers.  This reads the tracer's target list and
checks each name against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from metricflow import DensityField, Grid, transport

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_is_a_function():
    for module_name, attr in _tracer_targets():
        module = importlib.import_module(f"metricflow.{module_name}")
        assert inspect.isfunction(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_normal_operators_are_wrappable():
    assert "apply" in vars(transport.MetricNormOperator)
    grid = Grid(2, "torus", 8)
    rho = DensityField(grid, np.ones(grid.shape))
    apply_op = transport.wfr_normal_operator(rho, transport.SolverConfig())
    assert apply_op.__name__ == "apply_op"
    assert apply_op.__closure__
