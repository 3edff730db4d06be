"""Tangent norms, path energies, toy geodesics and distance bounds."""

import re

import numpy as np
import pytest

from metricflow import (
    DegeneratePathError,
    DensityField,
    Grid,
    GridMismatchError,
    MetricField,
    NonInvertibleMapError,
    ScalarField,
    SolverConfig,
    SolverFailure,
    SymTensorField,
    VectorField,
    ebin_inner,
    linear_metric_path,
    path_energy,
    solve_spd,
    toy_geodesic,
    volume_map,
    wasserstein_orbit_norm,
    we_distance_bounds,
    we_tangent_norm,
    we_tangent_norms,
    wfr_tangent_norm,
)
from metricflow.certificates import toy_field, toy_geodesic_probe
from metricflow.fiber import optimal_lift, trace_free_perturbation
from metricflow.fields import gradient_array, integrate_array
from metricflow.flatmaps import bump_and_gradient
from metricflow.randomfields import (
    band_limited_density,
    band_limited_scalar,
    band_limited_sym_tensor,
    band_limited_vector,
    random_spd_metric,
    substream,
)
from metricflow.tensors import (
    DisplacementMap,
    invert_displacement,
    jacobian_gram,
    packed_to_full,
)
from metricflow.transport import (
    MetricNormOperator,
    _detect_collar,
    density_norm_preconditioner,
    displacement_path_energy,
    map_path,
    path_interval_norms,
    fourier_inverse,
    metric_norm_preconditioner,
    wfr_normal_operator,
)

CFG = SolverConfig()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)


# ---------------------------------------------------------------------------
# pointwise norms


def test_ebin_inner_identity(torus16):
    g = MetricField.euclidean(torus16)
    eye = SymTensorField.from_matrix_entries(torus16, 1.0, 0.0, 1.0)
    assert ebin_inner(g, eye, eye) == pytest.approx(2.0, abs=1e-13)


def test_ebin_inner_refuses_an_overflowing_integrand(torus16):
    g = MetricField.euclidean(torus16)
    h = SymTensorField.from_matrix_entries(torus16, 1e200, 0.0, 1e200)
    with pytest.raises(ValueError, match=r"Ebin integrand .* is not finite"):
        ebin_inner(g, h, h)


def test_ebin_inner_conformal_scaling(torus16):
    g = MetricField.scaled_identity(torus16, 4.0)
    assert ebin_inner(g, g, g) == pytest.approx(8.0, abs=1e-12)


def test_ebin_trace_orthogonality(torus16):
    g = MetricField.euclidean(torus16)
    trace_free = SymTensorField.from_matrix_entries(torus16, 1.0, 0.0, -1.0)
    conformal = SymTensorField.from_matrix_entries(torus16, 2.5, 0.0, 2.5)
    assert abs(ebin_inner(g, trace_free, conformal)) <= 1e-12


def test_orbit_norm_zero_and_unit(torus16):
    g = MetricField.euclidean(torus16)
    assert wasserstein_orbit_norm(g, VectorField.zero(torus16)) == 0.0
    v = VectorField.constant(torus16, (1.0, 0.0))
    assert wasserstein_orbit_norm(g, v) == pytest.approx(1.0, abs=1e-13)


def test_orbit_norm_depends_only_on_volume(torus16):
    v = band_limited_vector(torus16, substream(1, "onv"), modes=2, amplitude=1.0)
    g_a = MetricField.euclidean(torus16)
    g_b = MetricField(
        torus16,
        np.stack(
            [np.full(torus16.shape, 2.0), np.zeros(torus16.shape), np.full(torus16.shape, 0.5)]
        ),
    )
    assert wasserstein_orbit_norm(g_a, v) == wasserstein_orbit_norm(g_b, v)


# ---------------------------------------------------------------------------
# density tangent norm


def test_wfr_zero_tangent(torus16):
    rho = DensityField.constant(torus16, 1.0)
    res = wfr_tangent_norm(rho, ScalarField.constant(torus16, 0.0), CFG)
    assert res.value == 0.0
    assert np.max(np.abs(res.v.components)) == 0.0


def test_wfr_conformal_closed_form(torus16):
    # rho = 1, drho = 0.5: pure growth, value lam * 0.25
    rho = DensityField.constant(torus16, 1.0)
    drho = ScalarField.constant(torus16, 0.5)
    res = wfr_tangent_norm(rho, drho, CFG)
    assert res.value == pytest.approx(0.25, abs=1e-12)
    assert np.max(np.abs(res.v.components)) <= 1e-12
    assert np.allclose(res.source.values, 0.5, atol=1e-12)


def test_wfr_pure_transport_competitor_bound(torus16):
    from metricflow.fields import divergence_array

    rho = band_limited_density(torus16, substream(5, "pt-rho"), modes=3, amplitude=0.4)
    v0 = band_limited_vector(torus16, substream(5, "pt-v"), modes=3, amplitude=0.5)
    drho = ScalarField(torus16, -divergence_array(rho.values * v0.components, torus16))
    res = wfr_tangent_norm(rho, drho, CFG)
    competitor = integrate_array(np.sum(v0.components**2, axis=0) * rho.values, torus16)
    assert res.value <= competitor + 1e-9


def test_wfr_normal_operator_symmetric(torus16):
    rho = band_limited_density(torus16, substream(6, "sym-rho"), modes=3, amplitude=0.4)
    apply_op = wfr_normal_operator(rho, CFG)
    v = band_limited_vector(torus16, substream(6, "sym-v"), modes=3, amplitude=1.0).components
    w = band_limited_vector(torus16, substream(6, "sym-w"), modes=3, amplitude=1.0).components
    lhs = float(np.vdot(apply_op(v), w))
    rhs = float(np.vdot(v, apply_op(w)))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_wfr_monotone_in_lambda(torus16):
    rho = band_limited_density(torus16, substream(7, "lam-rho"), modes=3, amplitude=0.4)
    drho = band_limited_scalar(torus16, substream(7, "lam-dr"), modes=3, amplitude=0.4)
    values = [
        wfr_tangent_norm(rho, drho, SolverConfig(lam=lam)).value for lam in (0.5, 1.0, 2.0)
    ]
    assert values[0] <= values[1] + 1e-10 <= values[2] + 2e-10


# ---------------------------------------------------------------------------
# metric tangent norm


def test_we_zero_tangent(torus16):
    g = MetricField.euclidean(torus16)
    res = we_tangent_norm(g, SymTensorField.zero(torus16), CFG)
    assert res.value == 0.0


def test_we_conformal_closed_form(torus16):
    g = MetricField.euclidean(torus16)
    dg = SymTensorField.from_matrix_entries(torus16, 0.5, 0.0, 0.5)
    res = we_tangent_norm(g, dg, CFG)
    assert res.value == pytest.approx(0.25, abs=1e-10)
    assert np.max(np.abs(res.v.components)) <= 1e-10


def _random_problem(seed, grid, amplitude=0.25):
    g = random_spd_metric(grid, substream(seed, "we-g"), modes=3, amplitude=amplitude)
    dg = band_limited_sym_tensor(grid, substream(seed, "we-dg"), modes=3, amplitude=amplitude)
    return g, dg


def test_we_infimum_below_pure_source_competitor(torus16):
    for seed in range(5):
        g, dg = _random_problem(seed, torus16)
        res = we_tangent_norm(g, dg, CFG)
        bound = (torus16.dim * CFG.lam / 4.0) * ebin_inner(g, dg, dg)
        assert res.value <= bound + 1e-9


def test_we_infimum_below_random_velocity_competitor(torus16):
    g, dg = _random_problem(11, torus16)
    res = we_tangent_norm(g, dg, CFG)
    op = MetricNormOperator(g, CFG)
    for trial in range(4):
        v0 = band_limited_vector(torus16, substream(trial, "we-v0"), 3, 0.5)
        assert res.value <= op.objective(v0.components, dg.components) + 1e-9


def test_we_decomposition_feasible(torus16):
    from metricflow.tensors import lie_derivative_metric

    g, dg = _random_problem(13, torus16)
    res = we_tangent_norm(g, dg, CFG)
    lie = lie_derivative_metric(res.v, g)
    recon = -lie.components + res.source.components
    assert np.max(np.abs(recon - dg.components)) <= 1e-10


def test_we_normal_operator_symmetric_positive(torus16):
    g, _ = _random_problem(17, torus16)
    op = MetricNormOperator(g, CFG)
    v = band_limited_vector(torus16, substream(17, "sy-v"), 3, 1.0).components
    w = band_limited_vector(torus16, substream(17, "sy-w"), 3, 1.0).components
    lhs = float(np.vdot(op.apply(v), w))
    rhs = float(np.vdot(v, op.apply(w)))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
    assert float(np.vdot(op.apply(v), v)) > 0.0


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("n", [16, 32])
def test_recursive_cg_residual_matches_the_true_residual(n, tol):
    # the stop rule reads the recursively updated residual; for both norms
    # it agrees with the recomputed ||b - A x|| to 1 % (cg module docstring)
    grid, cfg = Grid(2, "torus", n), SolverConfig(tol=tol)
    g, dg = _random_problem(19, grid)
    op = MetricNormOperator(g, cfg)
    we = we_tangent_norm(g, dg, cfg)
    we_true = np.linalg.norm(op.rhs(dg.components) - op.apply(we.v.components))
    rho = band_limited_density(grid, substream(19, "res-rho"), modes=3, amplitude=0.4)
    drho = band_limited_scalar(grid, substream(19, "res-dr"), modes=3, amplitude=0.4)
    wfr = wfr_tangent_norm(rho, drho, cfg)
    rhs = cfg.lam * rho.values * gradient_array(drho.values / rho.values, grid)
    wfr_true = np.linalg.norm(rhs - wfr_normal_operator(rho, cfg)(wfr.v.components))
    assert 0.99 <= we.residual / we_true <= 1.01
    assert 0.99 <= wfr.residual / wfr_true <= 1.01


def test_we_apply_differentiates_stacked_components(torus16, monkeypatch):
    # one stencil call per axis for the Lie derivative and one for its adjoint
    from metricflow import fields, tensors, transport

    g, _ = _random_problem(17, torus16)
    op = MetricNormOperator(g, CFG)
    v = band_limited_vector(torus16, substream(17, "sy-v"), 3, 1.0).components
    original, calls = fields.diff_array, []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for module in (fields, tensors, transport):
        if getattr(module, "diff_array", None) is original:
            monkeypatch.setattr(module, "diff_array", counted)
    op.apply(v)
    assert sorted(calls) == [0, 0, 1, 1]


class _EinsumMetricOperator:
    """The metric normal operator written entry by entry with einsum.

    The formulas ``MetricNormOperator`` used before it became a per-node
    matrix on the velocity jet; kept as the reference it is compared with.
    """

    def __init__(self, g, cfg):
        from metricflow.tensors import inverse_components

        grid, d = g.grid, g.grid.dim
        self.grid, self.dim, self.weight = grid, d, d * cfg.lam / 4.0
        self.gfull = packed_to_full(g.components, d)
        self.ginv = packed_to_full(inverse_components(g.components, d), d)
        self.vol = volume_map(g).values
        self.dg = gradient_array(self.gfull, grid)

    def lie(self, vc):
        dv = gradient_array(vc, self.grid)  # dv[i, k] = d_i v^k
        return (
            np.einsum("k...,kij...->ij...", vc, self.dg)
            + np.einsum("kj...,ik...->ij...", self.gfull, dv)
            + np.einsum("ik...,jk...->ij...", self.gfull, dv)
        )

    def lie_adjoint(self, s_full):
        from metricflow.fields import diff_array

        d = self.dim
        sg = np.einsum("ik...,kj...->ij...", s_full, self.gfull)
        out = np.einsum("kij...,ij...->k...", self.dg, s_full)
        for i in range(d):
            out = out - 2.0 * diff_array(sg[i], self.grid, i)
        return out

    def weighted(self, s_full):
        return self.vol * np.einsum("ik...,kl...,lj...->ij...", self.ginv, s_full, self.ginv)

    def apply(self, vc):
        return self.vol * vc + self.weight * self.lie_adjoint(self.weighted(self.lie(vc)))

    def rhs(self, dg_full):
        return -self.weight * self.lie_adjoint(self.weighted(dg_full))

    def objective(self, vc, dg_full):
        h_full = dg_full + self.lie(vc)
        quad = np.einsum("ij...,ij...->...", self.weighted(h_full), h_full)
        kinetic = self.vol * np.sum(vc**2, axis=0)
        return float(np.sum(kinetic + self.weight * quad) * self.grid.spacing**self.dim)


@pytest.mark.parametrize("dim", [1, 2])
def test_metric_operator_matches_einsum_oracle(dim):
    grid = Grid(dim, "torus", 16)
    g = random_spd_metric(grid, substream(dim, "or-g"), 3, 0.3)
    dg = band_limited_sym_tensor(grid, substream(dim, "or-dg"), 3, 0.3).components
    dg_full = packed_to_full(dg, dim)
    v = band_limited_vector(grid, substream(dim, "or-v"), 3, 1.0).components
    op, oracle = MetricNormOperator(g, CFG), _EinsumMetricOperator(g, CFG)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    assert close(packed_to_full(op.lie(v), dim), oracle.lie(v))
    assert close(op.apply(v), oracle.apply(v))
    assert close(op.rhs(dg), oracle.rhs(dg_full))
    assert op.objective(v, dg) == pytest.approx(oracle.objective(v, dg_full), rel=1e-13)


def test_we_first_order_stationarity(torus16):
    g, dg = _random_problem(19, torus16)
    res = we_tangent_norm(g, dg, CFG)
    op = MetricNormOperator(g, CFG)
    base = op.objective(res.v.components, dg.components)
    for trial in range(3):
        w = band_limited_vector(torus16, substream(trial, "stat-w"), 3, 1.0).components
        for s in (1e-3, -1e-3):
            moved = op.objective(res.v.components + s * w, dg.components)
            assert moved - base >= -1e-8
        # curvature of the quadratic along w is <A w, w> >= 0
        assert float(np.vdot(op.apply(w), w)) >= 0.0


def test_we_monotone_in_lambda(torus16):
    g, dg = _random_problem(23, torus16)
    values = [
        we_tangent_norm(g, dg, SolverConfig(lam=lam)).value for lam in (0.5, 1.0, 2.0)
    ]
    assert values[0] <= values[1] + 1e-10 <= values[2] + 2e-10


def test_we_requires_torus():
    grid = Grid(2, "box", 16, extent=2.0)
    g = MetricField.euclidean(grid)
    with pytest.raises(ValueError):
        we_tangent_norm(g, SymTensorField.zero(grid), CFG)


# ---------------------------------------------------------------------------
# spectral preconditioners


def _pc_problem(grid, seed):
    g = random_spd_metric(grid, substream(seed, "pc-g"), 3, 0.15)
    dg = band_limited_sym_tensor(grid, substream(seed, "pc-dg"), 3, 0.15)
    rho = band_limited_density(grid, substream(seed, "pc-rho"), 3, 0.3)
    drho = band_limited_scalar(grid, substream(seed, "pc-drho"), 3, 0.3)
    return g, dg, rho, drho


def _constant_metric(grid):
    entries = (1.7,) if grid.dim == 1 else (2.0, 0.3, 1.0)
    return MetricField(
        grid, np.stack([np.full(grid.shape, e) for e in entries])
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_fourier_inverse_exact_at_constant_coefficients(dim):
    grid = Grid(dim, "torus", 16)
    v = band_limited_vector(grid, substream(dim, "fi-v"), 3, 1.0).components
    for apply_op in (
        MetricNormOperator(_constant_metric(grid), CFG).apply,
        wfr_normal_operator(DensityField.constant(grid, 1.7), CFG),
    ):
        back = fourier_inverse(apply_op, grid)(apply_op(v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_coefficients_converge_in_two_iterations(dim):
    grid = Grid(dim, "torus", 32)
    _, dg, _, drho = _pc_problem(grid, 3)
    assert we_tangent_norm(_constant_metric(grid), dg, CFG).iterations <= 2
    assert wfr_tangent_norm(DensityField.constant(grid, 1.7), drho, CFG).iterations <= 2


@pytest.mark.parametrize("n", [16, 32, 64])
def test_preconditioned_values_match_plain_cg_oracle(n, monkeypatch):
    from metricflow import solve_spd, transport

    grid = Grid(2, "torus", n)
    g, dg, rho, drho = _pc_problem(grid, n)
    pcg = [we_tangent_norm(g, dg, CFG), wfr_tangent_norm(rho, drho, CFG)]

    def plain_cg(apply_op, rhs, precondition=None, **kw):
        return solve_spd(apply_op, rhs, **kw)

    monkeypatch.setattr(transport, "solve_spd", plain_cg)
    plain = [we_tangent_norm(g, dg, CFG), wfr_tangent_norm(rho, drho, CFG)]
    for fast, oracle in zip(pcg, plain):
        assert fast.iterations < oracle.iterations
        assert abs(fast.value - oracle.value) <= 1e-9 * abs(oracle.value)


def test_preconditioned_iterations_bounded_at_n128():
    # plain CG takes about 560 (metric) and 680 (density) iterations here
    grid = Grid(2, "torus", 128)
    g, dg, rho, drho = _pc_problem(grid, 128)
    assert we_tangent_norm(g, dg, CFG).iterations <= 40
    assert wfr_tangent_norm(rho, drho, CFG).iterations <= 40


def test_preconditioned_energy_never_rises_as_tol_tightens():
    from metricflow import solve_spd

    grid = Grid(2, "torus", 32)
    g, dg, rho, drho = _pc_problem(grid, 5)
    op = MetricNormOperator(g, CFG)
    wfr_op = wfr_normal_operator(rho, CFG)
    wfr_rhs = CFG.lam * rho.values * gradient_array(drho.values / rho.values, grid)
    systems = [
        (op.apply, op.rhs(dg.components), metric_norm_preconditioner(g, CFG)),
        (wfr_op, wfr_rhs, density_norm_preconditioner(rho, CFG)),
    ]
    for apply_op, b, precondition in systems:
        energies = []
        for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            x = solve_spd(apply_op, b[None], tol=tol, precondition=precondition).x[0]
            energies.append(0.5 * float(np.vdot(apply_op(x), x)) - float(np.vdot(b, x)))
        # slack: the roundoff of evaluating the energy itself, not of the iterates
        assert all(
            later <= earlier + 1e-13 * abs(earlier)
            for earlier, later in zip(energies, energies[1:])
        )


def test_solver_failure_names_norm_and_grid(torus16):
    g, dg, rho, drho = _pc_problem(torus16, 7)
    capped = SolverConfig(max_iter=1)
    where = r"on Grid\(dim=2, topology='torus', n_per_axis=16, extent=1.0\)"
    with pytest.raises(SolverFailure, match="^we_tangent_norm " + where):
        we_tangent_norm(g, dg, capped)
    with pytest.raises(SolverFailure, match="^wfr_tangent_norm " + where):
        wfr_tangent_norm(rho, drho, capped)


# ---------------------------------------------------------------------------
# lane-stacked metric solves


def _cos2_bump(grid, center, radius):
    """cos^2 bump of compact support (radius in torus units) at center."""
    x = grid.coordinates()
    dist = np.sqrt(
        sum(np.minimum(np.abs(x[i] - c), 1.0 - np.abs(x[i] - c)) ** 2 for i, c in enumerate(center))
    )
    return np.where(dist < radius, np.cos(np.pi * dist / (2.0 * radius)) ** 2, 0.0)


def _lane_problem():
    """A metric, the lanes of mixed difficulty solved at it, and its operator.

    The metric carries two bumps of opposite sign and is flat elsewhere, so
    away from them it equals its grid mean, the metric of the preconditioner.
    A right-hand side M u (M the operator at the mean metric) with u
    supported there is solved by PCG in one iteration: the early lane.
    Returns (g, tangents, rhs): the lift, three trace-free perturbations of
    it and a zero tangent, and the right-hand sides of those five lanes plus
    the early one.
    """
    grid = Grid(2, "torus", 32)
    b = 0.4 * (_cos2_bump(grid, (0.25, 0.25), 0.15) - _cos2_bump(grid, (0.25, 0.75), 0.15))
    g = MetricField(grid, np.stack([1.0 + b, 0.3 * b, 1.0 - 0.5 * b]))
    drho = band_limited_scalar(grid, substream(5, "lane-drho"), 3, 0.15)
    lift, _ = optimal_lift(g, drho, CFG)
    tangents = [lift]
    for j in range(3):
        z = trace_free_perturbation(g, substream(5, f"lane-z-{j}"))
        tangents.append(SymTensorField(grid, lift.components + z.components))
    tangents.append(SymTensorField.zero(grid))
    op = MetricNormOperator(g, CFG)
    rhs = [op.rhs(t.components) for t in tangents]
    mean = np.mean(g.components, axis=(1, 2), keepdims=True)
    gbar = MetricField(grid, np.broadcast_to(mean, g.components.shape))
    u = _cos2_bump(grid, (0.75, 0.5), 0.15) * np.array([1.0, -0.5])[:, None, None]
    rhs.append(MetricNormOperator(gbar, CFG).apply(u))
    return g, tangents, np.stack(rhs)


def test_lane_count_does_not_change_solves():
    g, _, rhs = _lane_problem()
    op = MetricNormOperator(g, CFG)
    precondition = metric_norm_preconditioner(g, CFG)
    stacked = solve_spd(op.apply, rhs, tol=CFG.tol, precondition=precondition)
    assert type(stacked.iterations) is int
    assert stacked.iterations == max(stacked.lane_iterations)
    singles = [solve_spd(op.apply, b[None], tol=CFG.tol, precondition=precondition) for b in rhs]
    for lane, single in enumerate(singles):
        assert stacked.lane_iterations[lane] == single.iterations
        assert np.max(np.abs(stacked.x[lane] - single.x[0])) <= 1e-12 * np.max(np.abs(single.x))
    # the zero lane is x = 0 after 0 iterations, the early lane stops long
    # before the others and stays frozen while they go on
    assert stacked.lane_iterations[4] == 0 and not np.any(stacked.x[4])
    assert stacked.lane_iterations[5] <= 2
    assert min(stacked.lane_iterations[:4]) >= 10


def test_lane_stacked_norms_match_single_solves():
    g, tangents, _ = _lane_problem()
    stacked = we_tangent_norms(g, tangents, CFG)
    for tangent, lane in zip(tangents, stacked):
        single = we_tangent_norm(g, tangent, CFG)
        assert lane.iterations == single.iterations
        assert abs(lane.value - single.value) <= 1e-12 * abs(single.value)
    assert stacked[-1].iterations == 0 and stacked[-1].value == 0.0


def test_lane_energies_never_rise_as_tol_tightens():
    # the competitor-bound invariant of a zero start, lane by lane
    g, _, rhs = _lane_problem()
    op = MetricNormOperator(g, CFG)
    precondition = metric_norm_preconditioner(g, CFG)
    energies = []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        x = solve_spd(op.apply, rhs, tol=tol, precondition=precondition).x
        ax = op.apply(x)
        energies.append([0.5 * np.vdot(a, xl) - np.vdot(b, xl) for a, xl, b in zip(ax, x, rhs)])
    # slack: the roundoff of evaluating the energy itself, not of the iterates
    for lane in zip(*energies):
        pairs = zip(lane, lane[1:])
        assert all(later <= earlier + 1e-13 * abs(earlier) for earlier, later in pairs)


def test_lane_failure_names_norm_grid_and_lane(torus16):
    g, dg, _, _ = _pc_problem(torus16, 7)
    where = r"on Grid\(dim=2, topology='torus', n_per_axis=16, extent=1.0\)"
    with pytest.raises(SolverFailure, match="^we_tangent_norm " + where + ": lane 1: ") as err:
        we_tangent_norms(g, [SymTensorField.zero(torus16), dg], SolverConfig(max_iter=1))
    assert err.value.lane == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_metric_operator_keeps_the_lane_axis(dim):
    grid = Grid(dim, "torus", 16)
    g = random_spd_metric(grid, substream(dim, "ax-g"), 3, 0.2)
    op = MetricNormOperator(g, CFG)
    v = np.stack(
        [band_limited_vector(grid, substream(j, "ax-v"), 3, 1.0).components for j in range(3)]
    )
    dg = np.stack([op.lie(x) for x in v])
    assert np.array_equal(op.lie(v), dg)
    precondition = metric_norm_preconditioner(g, CFG)
    rho = band_limited_density(grid, substream(dim, "ax-rho"), 3, 0.3)
    for method, arg in (
        (op.apply, v),
        (precondition, v),
        (op.rhs, dg),
        (wfr_normal_operator(rho, CFG), v),
        (density_norm_preconditioner(rho, CFG), v),
    ):
        lanes = method(arg)
        for j in range(3):
            assert np.max(np.abs(lanes[j] - method(arg[j]))) <= 1e-14 * np.max(np.abs(lanes[j]))
    values = op.objective(v, dg)
    assert values.shape == (3,)
    for j in range(3):
        assert values[j] == pytest.approx(op.objective(v[j], dg[j]), rel=1e-14)


# ---------------------------------------------------------------------------
# path energies


def test_constant_path_zero_energy(torus16):
    g = MetricField.euclidean(torus16)
    path = linear_metric_path(g, g, n_t=4)
    assert path_energy(path, CFG, which="ebin") == 0.0
    assert path_energy(path, CFG, which="we") == 0.0
    assert path_energy(path, CFG, which="wfr") == 0.0


def test_wfr_path_of_scaled_identities_closed_form(torus16):
    # g(t) = (1 - t + c t) I has spatially constant volumes rho(t), so each
    # interval is pure growth: lam (drho/dt)^2 / rho_mid per unit volume
    c = 3.0
    path = linear_metric_path(
        MetricField.euclidean(torus16), MetricField.scaled_identity(torus16, c), n_t=4
    )
    vols = [float(volume_map(m).values[0, 0]) for m in path]
    for lam in (0.5, 2.0):
        norms = path_interval_norms(path, SolverConfig(lam=lam), which="wfr")
        for i, norm in enumerate(norms):
            rho_mid = 0.5 * (vols[i] + vols[i + 1])
            rate = (vols[i + 1] - vols[i]) * (len(path) - 1)
            assert norm == pytest.approx(lam * rate**2 / rho_mid, rel=1e-12)


def test_path_interval_norms_unknown_kind(torus16):
    g = MetricField.euclidean(torus16)
    with pytest.raises(ValueError, match="unknown energy kind 'orbit'"):
        path_interval_norms(linear_metric_path(g, g, n_t=2), CFG, which="orbit")
    # a path is at least two samples on one grid
    with pytest.raises(ValueError, match="at least two samples"):
        path_interval_norms([g], CFG)
    with pytest.raises(GridMismatchError):
        path_interval_norms([g, MetricField.euclidean(Grid(2, "torus", 8))], CFG)


def test_linear_conformal_path_ebin_energy_closed_form():
    # g(t) = (1+t) I on the unit torus: energy = int 2/(1+t) dt = 2 ln 2
    grid = Grid(2, "torus", 16)
    g0 = MetricField.euclidean(grid)
    g1 = MetricField.scaled_identity(grid, 2.0)
    exact = 2.0 * np.log(2.0)
    errs = []
    for n_t in (8, 16, 32):
        path = linear_metric_path(g0, g1, n_t=n_t)
        errs.append(abs(path_energy(path, CFG, which="ebin") - exact))
    assert errs[2] <= 2e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_we_path_energy_sandwich(torus16):
    for seed in (0, 1):
        g0 = random_spd_metric(torus16, substream(seed, "sw-g0"), 3, 0.2)
        g1 = random_spd_metric(torus16, substream(seed, "sw-g1"), 3, 0.2)
        path = linear_metric_path(g0, g1, n_t=4)
        we = path_energy(path, CFG, which="we")
        ebin = path_energy(path, CFG, which="ebin")
        wfr = path_energy(path, CFG, which="wfr")
        assert wfr - 1e-8 <= we <= (torus16.dim * CFG.lam / 4.0) * ebin + 1e-8


def test_midpoint_average_of_spd_pairs_is_spd(torus16):
    # the SPD cone is convex, so valid endpoints can never trip the midpoint
    # guard; assert the fact on random pairs
    for seed in range(5):
        a = random_spd_metric(torus16, substream(seed, "cvx-a"), 3, 0.49)
        b = random_spd_metric(torus16, substream(seed, "cvx-b"), 3, 0.49)
        path = linear_metric_path(a, b, n_t=3)
        path_energy(path, CFG, which="ebin")  # SPD checks run inside


def test_midpoint_guard_raises_on_degenerate_sample(torus16):
    # the guard itself: smuggle in an indefinite sample bypassing validation
    good = MetricField.euclidean(torus16)
    bad = object.__new__(MetricField)
    bad.grid = torus16
    bad.components = np.stack(
        [np.ones(torus16.shape), np.zeros(torus16.shape), -3.0 * np.ones(torus16.shape)]
    )
    with pytest.raises(DegeneratePathError) as err:
        path_energy([good, bad], CFG, which="ebin")
    assert err.value.time is not None


# ---------------------------------------------------------------------------
# toy geodesic on the box


def test_toy_geodesic_zero_field(box64):
    toy = toy_geodesic(VectorField.zero(box64), n_t=4)
    assert toy.energy == 0.0
    assert np.all(toy.interval_energies_eulerian == 0.0)
    # every metric on the path is the flat metric pushed forward by the identity
    inv = invert_displacement(DisplacementMap.identity(box64))
    flat = jacobian_gram(inv.jacobian)
    assert np.max(np.abs(flat - MetricField.euclidean(box64).components)) <= 1e-12


def test_toy_geodesic_collar_detection(box64):
    n = box64.n_per_axis
    for width in (1, 3, 10):
        comps = np.zeros((2,) + box64.shape)
        comps[:, width : n - width, width : n - width] = 1e-3
        assert _detect_collar(VectorField(box64, comps)) == width
    # f = 0 vanishes on every ring: the widest collar, n // 2
    assert _detect_collar(VectorField.zero(box64)) == n // 2
    with pytest.raises(ValueError, match="must vanish on the box boundary"):
        toy_geodesic(VectorField.constant(box64, (1e-3, 0.0)), n_t=2)


def test_toy_geodesic_constant_speed(box64):
    toy = toy_geodesic(toy_field(box64, 0.08), n_t=8)
    spread = float(np.max(toy.interval_energies) - np.min(toy.interval_energies))
    assert spread <= 1e-6 * float(np.max(toy.interval_energies))
    # material energies equal the closed-form integral of |f|^2
    f = toy_field(box64, 0.08)
    kinetic = integrate_array(np.sum(f.components**2, axis=0), box64)
    assert toy.interval_energies[0] == pytest.approx(kinetic, rel=1e-12)


def test_toy_geodesic_eulerian_cross_check(box64):
    toy = toy_geodesic(toy_field(box64, 0.08), n_t=4)
    rel = np.max(
        np.abs(toy.interval_energies_eulerian - toy.interval_energies)
    ) / np.max(toy.interval_energies)
    assert rel <= 0.05  # interpolation + inversion are O(h^2)


def test_toy_geodesic_orientation_failure(box64):
    with pytest.raises(DegeneratePathError) as err:
        toy_geodesic(toy_field(box64, 3.0), n_t=4)
    assert err.value.time is not None


def test_toy_geodesic_names_the_time_of_a_failed_midpoint_inversion(box64):
    # every path map is orientation preserving, but from t = 0.90625 on the
    # midpoint maps break the inversion's contraction condition
    with pytest.raises(DegeneratePathError, match="contraction condition") as err:
        toy_geodesic(toy_field(box64, 0.2), n_t=16)
    assert err.value.time == 0.90625
    assert "id + t f has no inverse at t = 0.90625" in str(err.value)


def test_toy_geodesic_takes_one_jacobian_of_f(stencil_calls):
    # Df (2 calls) serves the 17 path maps and the 16 midpoint maps; each
    # midpoint's inverse takes its own Jacobian (2 calls), which its Gram reads
    f = toy_field(Grid(2, "box", 128, extent=2.0), 0.08)
    stencil_calls.clear()
    toy_geodesic(f, n_t=16)
    assert len(stencil_calls) == 2 + 16 * 2


def test_toy_geodesic_passes_other_failures_through(monkeypatch):
    # only the orientation check means a degenerate path; any other failure
    # building a map keeps its own type
    from metricflow import transport

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(transport, "DisplacementMap", out_of_memory)
    with pytest.raises(MemoryError):
        toy_geodesic(toy_field(Grid(2, "box", 32, extent=2.0), 0.08), n_t=2)


def test_perturbed_paths_cost_more(box64):
    f = toy_field(box64, 0.08)
    toy = toy_geodesic(f, n_t=8)
    coords = box64.coordinates()
    rng = substream(99, "perturb")
    ts = np.linspace(0.0, 1.0, 9)
    for trial in range(3):
        wpsi, _ = bump_and_gradient(
            coords, rng.uniform(-0.2, 0.2, size=2), 0.4 * box64.half_extent
        )
        direction = rng.normal(size=2)
        direction *= 0.01 / np.linalg.norm(direction)
        maps = []
        for t in ts:
            u_t = t * f.components + np.sin(np.pi * t) * np.stack(
                [direction[0] * wpsi, direction[1] * wpsi]
            )
            maps.append(DisplacementMap(VectorField(box64, u_t), collar_width=1))
        perturbed = displacement_path_energy((m.displacement.components for m in maps), box64, 8)
        assert perturbed > toy.energy


def _competitor_map(grid, f, bump, t):
    """A perturbed path's map at time t, built and checked as a DisplacementMap."""
    u = t * f.components + np.sin(np.pi * t) * bump
    return DisplacementMap(VectorField(grid, u), collar_width=1)


def test_probe_increases_equal_building_every_map(box64):
    amplitude, n_t, n_perturb = 0.08, 16, 3
    toy, _, increases = toy_geodesic_probe(
        box64, amplitude, n_t, substream(5, "probe"), n_perturb
    )
    # oracle: the same draws, every map of every perturbed path built
    f = toy_field(box64, amplitude)
    rng = substream(5, "probe")
    coords, he = box64.coordinates(), box64.half_extent
    ts, dt = np.linspace(0.0, 1.0, n_t + 1), 1.0 / n_t
    expected = []
    for _ in range(n_perturb):
        center = rng.uniform(-0.2 * he, 0.2 * he, size=2)
        radius = he * rng.uniform(0.35, 0.5)
        wpsi, _ = bump_and_gradient(coords, center, radius)
        direction = rng.normal(size=2)
        direction *= 0.2 * amplitude / np.linalg.norm(direction)
        bump = np.stack([direction[0] * wpsi, direction[1] * wpsi])
        maps = [_competitor_map(box64, f, bump, t) for t in ts]
        energies = [
            integrate_array(np.sum(((b.displacement.components - a.displacement.components)
                                    / dt) ** 2, axis=0), box64)
            for a, b in zip(maps, maps[1:])
        ]
        expected.append(float(np.sum(np.array(energies)) / n_t) - toy.energy)
    assert increases == expected


def test_probe_refuses_a_folding_competitor_and_names_its_time(box64):
    f = toy_field(box64, 0.08)
    wpsi, _ = bump_and_gradient(box64.coordinates(), (0.0, 0.0), 0.4)
    bump = np.stack([-0.5 * wpsi, 0.2 * wpsi])
    ts = np.linspace(0.0, 1.0, 17)
    refused = []
    for t in ts:
        try:
            _competitor_map(box64, f, bump, t)
        except NonInvertibleMapError:
            refused.append(t)
    assert 0.0 < refused[0] < 0.5
    terms = [(lambda t: t, f.components, gradient_array(f.components, box64)),
             (lambda t: np.sin(np.pi * t), bump, gradient_array(bump, box64))]
    path = map_path(box64, ts, terms, "perturbed path 4")
    match = re.escape(f"perturbed path 4 is not orientation preserving at t = {refused[0]}")
    with pytest.raises(DegeneratePathError, match=match) as err:
        list(path)
    assert err.value.time == refused[0]


# ---------------------------------------------------------------------------
# distance bounds


def test_bounds_equal_endpoints(torus16):
    g = MetricField.euclidean(torus16)
    b = we_distance_bounds(g, g, CFG)
    assert b.projected_wfr == 0.0
    assert b.upper == pytest.approx(0.0, abs=1e-12)


def test_bounds_conformal_pair(torus16):
    g0 = MetricField.euclidean(torus16)
    g1 = MetricField.scaled_identity(torus16, np.e)
    b = we_distance_bounds(g0, g1, CFG, n_t=32)
    assert b.projected_wfr_flag == "conformal-volumes-exact-wfr"
    assert b.projected_wfr == pytest.approx(2.0 * (np.sqrt(np.e) - 1.0), abs=1e-12)
    assert b.upper > 0.0
    # conformal family: the linear path is horizontal, so the scaled source
    # length reproduces the exact distance up to the time discretization
    assert b.upper == pytest.approx(b.projected_wfr, rel=1e-3)


def test_bounds_equal_volumes_degenerate(torus16):
    g0 = MetricField.euclidean(torus16)
    g1 = MetricField(
        torus16,
        np.stack(
            [np.full(torus16.shape, 2.0), np.zeros(torus16.shape), np.full(torus16.shape, 0.5)]
        ),
    )
    b = we_distance_bounds(g0, g1, CFG)
    assert b.projected_wfr == 0.0
    assert b.upper > 0.0


def test_bounds_generic_pair_flagged(torus16):
    g0 = random_spd_metric(torus16, substream(61, "b-g0"), 3, 0.2)
    g1 = random_spd_metric(torus16, substream(61, "b-g1"), 3, 0.2)
    b = we_distance_bounds(g0, g1, CFG, n_t=8)
    assert b.projected_wfr_flag == "projected-path-wfr-length-estimate"
    assert b.mass_lower_bound <= b.projected_wfr + 1e-12
