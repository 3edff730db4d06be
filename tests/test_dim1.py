"""One-dimensional paths through the same machinery."""

import numpy as np
import pytest

from metricflow import (
    DensityField,
    DivergenceKind,
    Grid,
    MetricField,
    ScalarField,
    SolverConfig,
    SymTensorField,
    VectorField,
    divergence,
    ebin_inner,
    integrate,
    kl_density_projection,
    partial_derivative,
    sample,
    trace_decompose,
    volume_map,
    volume_tangent,
    we_tangent_norm,
    wfr_tangent_norm,
)

CFG = SolverConfig()


@pytest.fixture
def line64():
    return Grid(1, "torus", 64)


def test_derivative_1d(line64):
    x = line64.coordinates()
    f = ScalarField(line64, np.sin(2 * np.pi * x[0]))
    df = partial_derivative(f, 0)
    exact = 2 * np.pi * np.cos(2 * np.pi * x[0])
    assert np.max(np.abs(df.values - exact)) <= (2 * np.pi) ** 3 / 6 / 64**2 * 1.05


def test_integrate_1d(line64):
    x = line64.coordinates()
    assert integrate(ScalarField(line64, np.sin(2 * np.pi * x[0]) ** 2)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_sample_1d(line64):
    x = line64.coordinates()
    f = ScalarField(line64, np.sin(2 * np.pi * x[0]))
    mids = x + line64.spacing / 2.0
    got = sample(f, mids)
    assert np.max(np.abs(got - np.sin(2 * np.pi * mids[0]))) <= 5e-3


def test_volume_and_tangent_1d(line64):
    g = MetricField(line64, np.full((1,) + line64.shape, 4.0))
    assert np.allclose(volume_map(g).values, 2.0)
    dg = SymTensorField(line64, np.full((1,) + line64.shape, 1.0))
    # (1/2) (1/4) * 2 = 0.25
    assert np.allclose(volume_tangent(g, dg).values, 0.25)


def test_trace_decompose_1d(line64):
    g = MetricField(line64, np.full((1,) + line64.shape, 2.0))
    h = SymTensorField(line64, np.full((1,) + line64.shape, 3.0))
    z, r = trace_decompose(g, h)
    assert np.max(np.abs(z.components)) <= 1e-14  # dim 1: everything is trace
    assert np.allclose(r.values, 1.5)


def test_ebin_inner_1d(line64):
    g = MetricField(line64, np.ones((1,) + line64.shape))
    h = SymTensorField(line64, np.ones((1,) + line64.shape))
    assert ebin_inner(g, h, h) == pytest.approx(1.0, abs=1e-13)


def test_wfr_conformal_1d(line64):
    rho = DensityField.constant(line64, 1.0)
    drho = ScalarField.constant(line64, 0.5)
    res = wfr_tangent_norm(rho, drho, CFG)
    assert res.value == pytest.approx(0.25, abs=1e-12)


def test_we_conformal_1d(line64):
    # d = 1: value = (1 * lam / 4) * c^2 * 1 = 0.0625 for c = 0.5
    g = MetricField(line64, np.ones((1,) + line64.shape))
    dg = SymTensorField(line64, np.full((1,) + line64.shape, 0.5))
    res = we_tangent_norm(g, dg, CFG)
    assert res.value == pytest.approx(0.0625, abs=1e-10)


def test_divergences_1d(line64):
    g0 = MetricField(line64, np.ones((1,) + line64.shape))
    g1 = MetricField(line64, np.full((1,) + line64.shape, np.e**2))
    # A = e^-2, r = e^-1: (1/2)(e^-2 + 2 - 1) * e
    expected = 0.5 * (np.e**-2 + 2.0 - 1.0) * np.e
    assert divergence(DivergenceKind.KL_MET, g0, g1) == pytest.approx(expected, abs=1e-12)
    rho0 = DensityField.constant(line64, 1.0)
    rho1 = DensityField.constant(line64, np.e)
    proj = kl_density_projection(rho0, rho1)
    # f_1(r) = (1/2)(r^2 - 2 log r - 1) at r = 1/e
    expected_proj = 0.5 * (np.e**-2 + 2.0 - 1.0) * np.e
    assert proj == pytest.approx(expected_proj, abs=1e-12)


def test_lie_derivative_1d(line64):
    from metricflow import lie_derivative_metric

    x = line64.coordinates()
    v = VectorField(line64, 0.1 * np.sin(2 * np.pi * x))
    g = MetricField(line64, np.ones((1,) + line64.shape))
    lie = lie_derivative_metric(v, g)
    exact = 2.0 * 0.1 * 2 * np.pi * np.cos(2 * np.pi * x[0])
    assert np.max(np.abs(lie.components[0] - exact)) <= 1e-2
