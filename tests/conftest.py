import sys

import numpy as np
import pytest

from metricflow import Grid, fields


@pytest.fixture
def torus16():
    return Grid(2, "torus", 16)


@pytest.fixture
def torus64():
    return Grid(2, "torus", 64)


@pytest.fixture
def box64():
    return Grid(2, "box", 64, extent=2.0)


def max_abs(a):
    return float(np.max(np.abs(a)))


@pytest.fixture
def stencil_calls(monkeypatch):
    """A list that grows by one per ``diff_array`` call, made from any metricflow module."""
    calls = []
    original = fields.diff_array

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "metricflow" and getattr(module, "diff_array", None) is original:
            monkeypatch.setattr(module, "diff_array", counted)
    return calls
