"""Submersion identities and the flat-background fiber Lagrangian."""

import numpy as np
import pytest

from metricflow import (
    Grid,
    MetricField,
    ScalarField,
    SolverConfig,
    VectorField,
    euler_alpha_lagrangian,
    optimal_lift,
    verify_pi1_submersion,
    volume_map,
    volume_tangent,
    we_tangent_norm,
)
from metricflow.fiber import LiftReport, trace_free_perturbation
from metricflow.randomfields import (
    band_limited_scalar,
    band_limited_vector,
    random_spd_metric,
    substream,
)

CFG = SolverConfig()


def perturbations(seed, count):
    """The streams of ``count`` trace-free perturbations, keyed by seed and index."""
    return [substream(seed, f"pi1-perturbation-{j}") for j in range(count)]


def test_optimal_lift_zero_tangent(torus16):
    g = MetricField.euclidean(torus16)
    dg, _ = optimal_lift(g, ScalarField.constant(torus16, 0.0), CFG)
    assert np.max(np.abs(dg.components)) == 0.0


def test_optimal_lift_conformal_case(torus16):
    # g = I, drho = 0.5 vol(g): v = 0, f = 0.5, dg = 0.5 I
    g = MetricField.euclidean(torus16)
    dg, res = optimal_lift(g, ScalarField.constant(torus16, 0.5), CFG)
    assert np.max(np.abs(res.v.components)) <= 1e-12
    assert np.allclose(res.source.values, 0.5, atol=1e-12)
    assert np.allclose(dg.components[0], 0.5, atol=1e-11)
    assert np.allclose(dg.components[1], 0.0, atol=1e-11)
    assert np.allclose(dg.components[2], 0.5, atol=1e-11)


def test_optimal_lift_projects_back_to_drho(torus16):
    # independent recomputation: the volume tangent of the lift must
    # reproduce drho up to the O(h^2) advection defect
    for seed in (0, 1, 2):
        g = random_spd_metric(torus16, substream(seed, "lift-g"), 3, 0.15)
        drho = band_limited_scalar(torus16, substream(seed, "lift-dr"), 3, 0.15)
        dg, _ = optimal_lift(g, drho, CFG)
        back = volume_tangent(g, dg)
        assert np.max(np.abs(back.values - drho.values)) <= 2.0 * torus16.spacing**2


def test_pi1_submersion_conformal(torus16):
    g = MetricField.euclidean(torus16)
    drho = ScalarField.constant(torus16, 0.5)
    report = verify_pi1_submersion(g, drho, perturbations(3, 4), CFG)
    assert abs(report.gap) <= 1e-6 * (1.0 + report.wfr_value)
    assert min(report.perturbation_gaps) >= -1e-8


def test_pi1_submersion_random(torus16):
    for seed in (0, 1):
        g = random_spd_metric(torus16, substream(seed, "pi1-g"), 3, 0.15)
        drho = band_limited_scalar(torus16, substream(seed, "pi1-dr"), 3, 0.15)
        report = verify_pi1_submersion(g, drho, perturbations(seed, 5), CFG)
        assert abs(report.gap) <= 1e-5 * (1.0 + report.wfr_value)
        assert min(report.perturbation_gaps) >= -1e-8


def test_pi1_zero_tangent_perturbation_is_pure_source(torus16):
    # drho = 0 with z != 0: the perturbation gap is the metric norm of z
    g = MetricField.euclidean(torus16)
    drho = ScalarField.constant(torus16, 0.0)
    z = trace_free_perturbation(g, substream(5, "z"), amplitude=0.3)
    value = we_tangent_norm(g, z, CFG).value
    assert value > 1e-4
    report = verify_pi1_submersion(g, drho, perturbations(5, 2), CFG)
    assert report.wfr_value == 0.0
    assert all(p > 0.0 for p in report.perturbation_gaps)


def test_fiber_independence_of_metric_choice(torus16):
    # two metrics with identical volume: identical density norm, close gaps
    shear = band_limited_scalar(torus16, substream(8, "shear"), 3, 0.3).values
    g_a = random_spd_metric(torus16, substream(8, "fi-g"), 3, 0.15)
    comps = g_a.components
    sheared = np.stack(
        [
            comps[0],
            comps[1] + shear * comps[0],
            comps[2] + 2.0 * shear * comps[1] + shear**2 * comps[0],
        ]
    )
    g_b = MetricField(torus16, sheared)
    assert np.max(np.abs(volume_map(g_a).values - volume_map(g_b).values)) <= 1e-12
    drho = band_limited_scalar(torus16, substream(8, "fi-dr"), 3, 0.15)
    rep_a = verify_pi1_submersion(g_a, drho, perturbations(8, 3), CFG)
    rep_b = verify_pi1_submersion(g_b, drho, perturbations(8, 3), CFG)
    assert rep_a.wfr_value == pytest.approx(rep_b.wfr_value, abs=1e-12)
    assert abs(rep_a.gap - rep_b.gap) <= 1e-6 * (1.0 + rep_a.wfr_value)


def test_lift_report_invariant_enforced():
    report = LiftReport(wfr_value=1.0, we_value_of_lift=1.5, perturbation_gaps=(0.0,))
    assert report.gap == 0.5  # derived, never stored
    with pytest.raises(ValueError):
        LiftReport(wfr_value=1.0, we_value_of_lift=1.0, perturbation_gaps=(-1.0,))


# ---------------------------------------------------------------------------
# flat-background fiber Lagrangian


def test_euler_alpha_zero_velocity(torus64):
    tf, df, kin = euler_alpha_lagrangian(VectorField.zero(torus64))
    assert (tf, df, kin) == (0.0, 0.0, 0.0)


def test_euler_alpha_trig_closed_form():
    grid = Grid(2, "torus", 64)
    x = grid.coordinates()
    comps = np.zeros((2,) + grid.shape)
    comps[0] = np.sin(2 * np.pi * x[1])
    v = VectorField(grid, comps)
    tf, df, kin = euler_alpha_lagrangian(v)
    assert abs(tf - np.pi**2) <= 2e-3
    assert abs(df - np.pi**2) <= 2e-3
    assert abs(tf - df) <= 1e-10
    assert kin == pytest.approx(0.5, abs=1e-12)


def test_euler_alpha_constant_velocity_is_killing(torus16):
    v = VectorField.constant(torus16, (0.4, -0.7))
    tf, df, kin = euler_alpha_lagrangian(v)
    assert tf == 0.0
    assert df == 0.0
    assert kin == pytest.approx(0.4**2 + 0.7**2, abs=1e-13)


def test_euler_alpha_identity_ratio(torus64):
    for seed in range(3):
        v = band_limited_vector(torus64, substream(seed, "ea"), 4, 0.5)
        tf, df, _ = euler_alpha_lagrangian(v)
        if df > 1e-14:
            assert abs(tf / df - 1.0) <= 1e-10


def test_euler_alpha_requires_torus():
    grid = Grid(2, "box", 16, extent=2.0)
    with pytest.raises(ValueError):
        euler_alpha_lagrangian(VectorField.zero(grid))
