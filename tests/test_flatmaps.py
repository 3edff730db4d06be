"""Frame construction, flatness gate, development, reconstruction.

The rejection tests use an independent Gauss-curvature oracle (Brioschi
formula, central differences) so that "non-flat" is established without the
frame/connection machinery under test.
"""

import tracemalloc

import numpy as np
import pytest

from metricflow import (
    FlatnessInconsistencyError,
    Grid,
    MetricField,
    cartan_develop,
    factorize_flat_metric,
    flat_pullback_instance,
    flatmaps,
    frame_and_connection,
    non_flat_instance,
    pullback_metric,
    reconstruct_diffeo,
)
from metricflow.config import parse_config
from metricflow.experiments import run_flat_factorize
from metricflow import fields
from metricflow.fields import diff_array
from metricflow.flatmaps import flatness_tolerance, path_independence_gap
from metricflow.randomfields import substream
from metricflow.tensors import collar_max

FLAT_TAG, NON_FLAT_TAG = 0x666C6174, 0x63757276


def legacy_rng(seed, tag):
    """The stream these tests have always drawn instance ``seed`` of a kind from."""
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def gauss_curvature_brioschi(g: MetricField):
    """Oracle: Brioschi formula for the Gauss curvature of a 2D metric.

    K = (det M1 - det M2) / (E G - F^2)^2 with the classical bordered
    matrices of E, F, G and their first/second central differences;
    meaningful on interior nodes.
    """
    grid = g.grid
    E, F, G = g.components[0], g.components[1], g.components[2]

    def d(f_arr, axis):
        return diff_array(f_arr, grid, axis)

    E_u, E_v = d(E, 0), d(E, 1)
    F_u, F_v = d(F, 0), d(F, 1)
    G_u, G_v = d(G, 0), d(G, 1)
    E_vv = d(E_v, 1)
    G_uu = d(G_u, 0)
    F_uv = d(d(F, 0), 1)

    m1 = np.stack(
        [
            np.stack([-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v]),
            np.stack([F_v - 0.5 * G_u, E, F]),
            np.stack([0.5 * G_v, F, G]),
        ]
    )
    m2 = np.stack(
        [
            np.stack([np.zeros(grid.shape), 0.5 * E_v, 0.5 * G_u]),
            np.stack([0.5 * E_v, E, F]),
            np.stack([0.5 * G_u, F, G]),
        ]
    )

    def det3(m):
        return (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )

    return (det3(m1) - det3(m2)) / (E * G - F**2) ** 2


def test_frame_of_euclidean_metric(box64):
    frame = frame_and_connection(MetricField.euclidean(box64))
    assert np.max(np.abs(frame.s[0] - 1.0)) == 0.0
    assert np.max(np.abs(frame.s[1])) == 0.0
    assert np.max(np.abs(frame.omega)) == 0.0
    assert frame.max_curvature() == 0.0
    assert frame.max_curvature() <= 1e-12


def test_frame_sqrt_reproduces_metric(box64):
    g, _ = flat_pullback_instance(box64, legacy_rng(1, FLAT_TAG), 0.008)
    frame = frame_and_connection(g)
    s = frame.s
    g11 = s[0] ** 2 + s[1] ** 2
    g12 = s[1] * (s[0] + s[2])
    g22 = s[1] ** 2 + s[2] ** 2
    assert np.max(np.abs(np.stack([g11, g12, g22]) - g.components)) <= 1e-12


def test_frame_rejects_dim_one():
    grid = Grid(1, "box", 16, extent=2.0)
    comps = np.ones((1,) + grid.shape)
    g = MetricField(grid, comps)
    with pytest.raises(ValueError) as err:
        frame_and_connection(g)
    assert "codimension-two" in str(err.value)


def test_frame_requires_euclidean_collar(box64):
    g = MetricField.scaled_identity(box64, 2.0)
    with pytest.raises(ValueError, match="Euclidean metric in the 2-node collar"):
        factorize_flat_metric(g)


def test_constant_conformal_inside_would_fail_collar_but_flat_connection():
    # a constant metric has ds = 0 hence omega = 0; verify via a collar-true
    # constant: the Euclidean one (scaled constants violate the collar)
    grid = Grid(2, "box", 32, extent=2.0)
    frame = frame_and_connection(MetricField.euclidean(grid))
    assert np.max(np.abs(frame.omega)) == 0.0


def test_forward_instance_passes_flat_gate(box64):
    for seed in range(3):
        g, _ = flat_pullback_instance(box64, legacy_rng(seed, FLAT_TAG), 0.008)
        frame = frame_and_connection(g)
        assert frame.max_curvature() <= 10.0 * box64.spacing**2
        # independent oracle agrees that the metric is flat
        K = gauss_curvature_brioschi(g)
        assert np.max(np.abs(K[3:-3, 3:-3])) <= 10.0 * box64.spacing**2


def test_non_flat_rejected_and_oracle_confirms(box64):
    tol = 10.0 * box64.spacing**2
    for seed in range(3):
        g = non_flat_instance(box64, legacy_rng(seed, NON_FLAT_TAG))
        frame = frame_and_connection(g)
        assert not frame.max_curvature() <= tol
        K = gauss_curvature_brioschi(g)
        assert np.max(np.abs(K[3:-3, 3:-3])) > 10.0 * tol


def test_cartan_development_zero_connection(box64):
    frame = frame_and_connection(MetricField.euclidean(box64))
    theta, _ = cartan_develop(frame)
    assert np.max(np.abs(theta)) == 0.0


def test_cartan_development_path_independent(box64):
    g, _ = flat_pullback_instance(box64, legacy_rng(2, FLAT_TAG), 0.008)
    frame = frame_and_connection(g)
    theta, gap = cartan_develop(frame)  # raises on cross-order disagreement
    assert gap == path_independence_gap(-frame.omega, box64)[0]
    # collar normalization: the angle vanishes near the boundary
    assert collar_max(theta[None], box64, 2) <= 10.0 * box64.spacing**2


def test_development_rejects_curved_connection(box64):
    g = non_flat_instance(box64, legacy_rng(0, NON_FLAT_TAG))
    frame = frame_and_connection(g)
    with pytest.raises(FlatnessInconsistencyError):
        cartan_develop(frame)


def test_factorization_integrates_each_one_form_once(box64, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return path_independence_gap(*args)

    monkeypatch.setattr(flatmaps, "path_independence_gap", counted)
    g, _ = flat_pullback_instance(box64, legacy_rng(2, FLAT_TAG), 0.008)
    factorize_flat_metric(g)
    # the rotation angle, whose gap the report carries, then the two coordinates of phi
    assert len(calls) == 3


def test_factorization_freezes_only_the_reconstructed_map(box64, monkeypatch):
    # the stages hand arrays to one another; the map's displacement is the one field built
    g, _ = flat_pullback_instance(box64, legacy_rng(2, FLAT_TAG), 0.008)
    frozen, calls = fields._frozen, []

    def counted(values, shape):
        calls.append(shape)
        return frozen(values, shape)

    monkeypatch.setattr(fields, "_frozen", counted)
    factorize_flat_metric(g)
    assert calls == [(2,) + box64.shape]


def test_frame_refuses_non_finite_curvature():
    # on a box of extent 1e-160 the connection's curl overflows to inf
    with np.errstate(all="ignore"):
        g = non_flat_instance(Grid(2, "box", 64, extent=1e-160), substream(1, "x"))
        with pytest.raises(ValueError, match="^field values must be finite$"):
            frame_and_connection(g)


def test_reconstruct_identity(box64):
    frame = frame_and_connection(MetricField.euclidean(box64))
    theta, _ = cartan_develop(frame)
    phi = reconstruct_diffeo(box64, frame.s, theta)
    assert np.max(np.abs(phi.displacement.components)) <= 1e-13


def test_reconstruction_recovers_generating_map():
    errs = {}
    for n in (64, 128):
        grid = Grid(2, "box", n, extent=2.0)
        g, phi0 = flat_pullback_instance(grid, legacy_rng(5, FLAT_TAG), 0.008)
        phi, report = factorize_flat_metric(g)
        errs[n] = float(
            np.max(np.abs(phi.displacement.components - phi0.displacement.components))
        )
        assert report.reconstruction_error <= 1e-3
    assert errs[64] <= 1e-3
    assert 3.0 <= errs[64] / errs[128] <= 5.0


def test_reconstruction_error_second_order():
    errs = {}
    for n in (64, 128):
        grid = Grid(2, "box", n, extent=2.0)
        g, _ = flat_pullback_instance(grid, legacy_rng(6, FLAT_TAG), 0.008)
        phi, report = factorize_flat_metric(g)
        errs[n] = report.reconstruction_error
    assert 3.0 <= errs[64] / errs[128] <= 5.0


def test_flat_pipeline_working_set_is_pinned(box64):
    # Python-heap peak of one forward instance and its factorization at box
    # 128, in planes of one grid-sized float64 array (128 KB).  Keeping every
    # temporary until its function returned peaked at 39.1 planes; dropping
    # each at its last use gives 23.1, and the bound is that plus 15 %.  The
    # test holds g and phi0 throughout, so 9 of those planes are its own.
    grid = Grid(2, "box", 128, extent=2.0)
    # a first run outside the measurement loads what the pipeline imports lazily
    factorize_flat_metric(flat_pullback_instance(box64, legacy_rng(9, FLAT_TAG), 0.008)[0])
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g, phi0 = flat_pullback_instance(grid, legacy_rng(5, FLAT_TAG), 0.008)
        factorize_flat_metric(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (peak - base) / (grid.node_count * 8) <= 26.5


def test_round_trip_through_pullback(box64):
    # cross-module check: phi* (Euclidean) computed by the tensor module
    # reproduces g
    g, _ = flat_pullback_instance(box64, legacy_rng(7, FLAT_TAG), 0.008)
    phi, _ = factorize_flat_metric(g)
    pulled = pullback_metric(phi, MetricField.euclidean(box64))
    assert np.max(np.abs(pulled.components - g.components)) <= 10.0 * box64.spacing**2


def test_collar_identity_normalization(box64):
    g, phi0 = flat_pullback_instance(box64, legacy_rng(8, FLAT_TAG), 0.008)
    phi, _ = factorize_flat_metric(g)
    resid = collar_max(phi.displacement.components, box64, phi0.collar_width)
    assert resid <= 10.0 * box64.spacing**2


def test_constant_conformal_metric_has_zero_connection():
    # ds = 0 so omega = 0; the connection is defined for any metric, and only
    # factorize_flat_metric needs the Euclidean collar a scaled constant lacks
    grid = Grid(2, "box", 32, extent=2.0)
    g = MetricField.scaled_identity(grid, 2.5)
    frame = frame_and_connection(g)
    # exact zero in the interior; the one-sided boundary stencils leave
    # cancellation roundoff of order eps / spacing
    assert np.max(np.abs(frame.omega)) <= 1e-13
    assert frame.max_curvature() <= 1e-11


def test_frame_differentiates_stacked_components(box64, monkeypatch):
    # one stencil call per axis for the coframe's curls, one per axis for omega's
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return diff_array(*args, **kwargs)

    monkeypatch.setattr(flatmaps, "diff_array", counted)
    g, _ = flat_pullback_instance(box64, legacy_rng(2, FLAT_TAG), 0.008)
    frame_and_connection(g)
    assert sorted(calls) == [0, 0, 1, 1]


def test_flatness_tolerance_is_10_h2_on_the_default_box(box64):
    assert flatness_tolerance(box64) == 10.0 * box64.spacing**2


@pytest.mark.parametrize("extent", [0.001, 0.02, 0.5, 2.0, 1e4, 1e100])
def test_flatness_budgets_are_scale_invariant(extent):
    """The same instances on a scaled box: each flat one factors, each non-flat one is rejected."""
    grid = {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": extent}
    cfg = parse_config({"experiment": "flat-factorize", "grid": grid, "seed": 1})
    results, rows, _ = run_flat_factorize(cfg)
    assert [r["flat"] for r in rows] == [True] * 5 + [False] * 3
    assert results["non_flat_rejected"] == results["non_flat_total"] == 3
