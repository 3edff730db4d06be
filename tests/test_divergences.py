"""Divergence closed forms, axioms, second variations, static objective."""

import numpy as np
import pytest

from metricflow import (
    DensityField,
    DivergenceKind,
    MetricField,
    StaticProblem,
    SymTensorField,
    conformal_lift,
    divergence,
    second_variation_probe,
    static_local_search,
    static_objective,
    volume_map,
)
from metricflow.divergences import (
    METRIC_KINDS,
    density_ratio_gap_stack,
    divergence_stack,
    eigenvalue_gap_stack,
)
from metricflow.fields import Grid, integrate_array
from metricflow.randomfields import (
    band_limited_density,
    band_limited_density_stack,
    band_limited_scalar,
    band_limited_sym_tensor,
    random_spd_metric,
    random_spd_stack,
    substream,
)
from metricflow.tensors import DisplacementMap, packed_to_full, pullback_metric

K = DivergenceKind


@pytest.mark.parametrize("kind", list(K))
def test_divergence_vanishes_on_diagonal(kind, torus16):
    if kind in (K.KL_MET, K.SHAPE, K.TILDE_KL_MET):
        a = random_spd_metric(torus16, substream(1, f"diag-{kind.value}"), 3, 0.3)
        assert abs(divergence(kind, a, a)) <= 1e-12
    else:
        rho = band_limited_density(torus16, substream(1, f"diag-{kind.value}"), 3, 0.5)
        assert abs(divergence(kind, rho, rho)) <= 1e-12


def test_kl_met_conformal_closed_form(torus16):
    # (I, e I): integrand (1/2)(2/e + 2 - 2) e = 1
    value = divergence(
        K.KL_MET, MetricField.euclidean(torus16), MetricField.scaled_identity(torus16, np.e)
    )
    assert value == pytest.approx(1.0, abs=1e-10)


def test_shape_vanishes_on_conformal_pairs(torus16):
    g1 = random_spd_metric(torus16, substream(2, "shape"), 3, 0.3)
    factor = np.exp(band_limited_scalar(torus16, substream(2, "shape-c"), 3, 0.4).values)
    g0 = MetricField(torus16, factor * g1.components)
    assert abs(divergence(K.SHAPE, g0, g1)) <= 1e-12


def test_classical_kl_closed_form(torus16):
    one = DensityField.constant(torus16, 1.0)
    e_dens = DensityField.constant(torus16, np.e)
    assert divergence(K.CLASSICAL_KL, one, e_dens) == pytest.approx(np.e - 2.0, abs=1e-12)


def test_tilde_kl_conformal_closed_form(torus16):
    value = divergence(
        K.TILDE_KL_MET, MetricField.euclidean(torus16), MetricField.scaled_identity(torus16, np.e)
    )
    assert value == pytest.approx(np.e - 2.0, abs=1e-10)


def test_density_projection_closed_form(torus16):
    one = DensityField.constant(torus16, 1.0)
    e_dens = DensityField.constant(torus16, np.e)
    assert divergence(K.KL_DENSITY_FD, one, e_dens) == pytest.approx(1.0, abs=1e-10)
    # cross-module consistency with the metric divergence at the conformal pair
    metric_value = divergence(
        K.KL_MET, MetricField.euclidean(torus16), MetricField.scaled_identity(torus16, np.e)
    )
    assert divergence(K.KL_DENSITY_FD, one, e_dens) == pytest.approx(metric_value, abs=1e-12)


def test_itakura_saito_matches_projection_in_dim_two(torus16):
    rho0 = band_limited_density(torus16, substream(3, "is-a"), 3, 0.5)
    rho1 = band_limited_density(torus16, substream(3, "is-b"), 3, 0.5)
    assert divergence(K.KL_DENSITY_FD, rho0, rho1) == pytest.approx(
        divergence(K.ITAKURA_SAITO, rho0, rho1), abs=1e-12
    )


def test_projection_attained_exactly_on_conformal_lift(torus16):
    rho0 = band_limited_density(torus16, substream(4, "cl-a"), 3, 0.5)
    g1 = random_spd_metric(torus16, substream(4, "cl-g"), 3, 0.3)
    g0 = conformal_lift(rho0, g1)
    assert np.max(np.abs(volume_map(g0).values - rho0.values)) <= 1e-12
    lhs = divergence(K.KL_MET, g0, g1)
    rhs = divergence(K.KL_DENSITY_FD, rho0, volume_map(g1))
    assert abs(lhs - rhs) <= 1e-10


def test_projection_optimality_over_non_conformal_lifts(torus16):
    rho0 = band_limited_density(torus16, substream(5, "opt-a"), 3, 0.4)
    g1 = random_spd_metric(torus16, substream(5, "opt-g"), 3, 0.3)
    rho1 = volume_map(g1)
    floor = divergence(K.KL_DENSITY_FD, rho0, rho1)
    for trial in range(10):
        shape = random_spd_metric(torus16, substream(trial, "opt-s"), 3, 0.4)
        det = shape.components[0] * shape.components[2] - shape.components[1] ** 2
        unimodular = shape.components / np.sqrt(det)
        lift = MetricField(torus16, rho0.values * unimodular)
        assert np.max(np.abs(volume_map(lift).values - rho0.values)) <= 1e-10
        assert divergence(K.KL_MET, lift, g1) >= floor - 1e-9


@pytest.mark.parametrize("kind", [K.KL_MET, K.SHAPE, K.TILDE_KL_MET])
def test_metric_divergences_nonnegative_seeded_sweep(kind, torus16):
    for seed in range(50):
        a = random_spd_metric(torus16, substream(seed, f"nn-{kind.value}-a"), 3, 0.45)
        b = random_spd_metric(torus16, substream(seed, f"nn-{kind.value}-b"), 3, 0.45)
        value = divergence(kind, a, b)
        assert value >= -1e-12
        # distinct inputs separate: strictly positive once the eigenvalue
        # criterion sees a genuine deviation
        if eigenvalue_gap_stack(torus16.dim, a.components[None], b.components[None])[0] > 1e-8:
            assert value > 0.0


def test_zero_only_on_equal_pairs(torus16):
    a = random_spd_metric(torus16, substream(77, "eq"), 3, 0.3)
    bumped = a.components.copy()
    bumped[0] += 5e-10
    b = MetricField(torus16, bumped)
    assert divergence(K.KL_MET, a, b) <= 1e-12  # below resolution of the criterion
    bumped2 = a.components.copy()
    bumped2[0] += 1e-3
    c = MetricField(torus16, bumped2)
    assert divergence(K.KL_MET, a, c) > 1e-9


def test_tilde_decomposition_identity(torus16):
    for seed in range(5):
        a = random_spd_metric(torus16, substream(seed, "dec-a"), 3, 0.4)
        b = random_spd_metric(torus16, substream(seed, "dec-b"), 3, 0.4)
        lhs = divergence(K.TILDE_KL_MET, a, b)
        rhs = (2.0 / 2) * divergence(
            K.CLASSICAL_KL, volume_map(a), volume_map(b)
        ) + divergence(K.SHAPE, a, b)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# second variation


def test_second_variation_bilinear_zero(torus16):
    g = MetricField.euclidean(torus16)
    zero = SymTensorField.zero(torus16)
    h = SymTensorField.from_matrix_entries(torus16, 1.0, 0.2, 0.5)
    mixed, ebin_half, rich = second_variation_probe(K.KL_MET, g, zero, h, 1e-2)
    assert abs(mixed) <= 1e-10
    assert ebin_half == 0.0


def test_second_variation_identity_direction(torus16):
    g = MetricField.euclidean(torus16)
    eye = SymTensorField.from_matrix_entries(torus16, 1.0, 0.0, 1.0)
    mixed, ebin_half, rich = second_variation_probe(K.KL_MET, g, eye, eye, 1e-2)
    assert ebin_half == pytest.approx(1.0, abs=1e-13)
    assert abs(mixed - 1.0) <= 1e-3
    assert abs(rich - 1.0) <= 1e-5


@pytest.mark.parametrize("step", [0.0, 1e-300, float("inf"), float("nan")])
def test_second_variation_rejects_degenerate_step(step, torus16):
    g = MetricField.euclidean(torus16)
    h = SymTensorField.from_matrix_entries(torus16, 1.0, 0.2, 0.5)
    with pytest.raises(ValueError, match="step"):
        second_variation_probe(K.KL_MET, g, h, h, step)


def test_first_variation_vanishes_on_diagonal(torus16):
    g = random_spd_metric(torus16, substream(9, "fv-g"), 3, 0.3)
    h = band_limited_sym_tensor(torus16, substream(9, "fv-h"), 3, 0.3)
    diffs = []
    for s in (1e-3, 5e-4):
        shifted = MetricField(torus16, g.components + s * h.components)
        diffs.append(divergence(K.KL_MET, shifted, g) / s)
    # first derivative vanishes: difference quotients decay linearly in s
    assert abs(diffs[1]) <= 0.6 * abs(diffs[0]) + 1e-12


@pytest.mark.parametrize("kind", [K.KL_MET, K.TILDE_KL_MET])
def test_second_variation_recovers_half_source_inner(kind, torus16):
    for seed in range(5):
        g = random_spd_metric(torus16, substream(seed, "sv2-g"), 3, 0.3)
        h = band_limited_sym_tensor(torus16, substream(seed, "sv2-h"), 3, 0.4)
        k = band_limited_sym_tensor(torus16, substream(seed, "sv2-k"), 3, 0.4)
        mixed, ebin_half, rich = second_variation_probe(kind, g, h, k, 1e-2)
        assert abs(rich - ebin_half) <= 1e-4 * max(abs(ebin_half), 1e-10)


def test_probe_rejects_non_spd_shift(torus16):
    g = MetricField.euclidean(torus16)
    huge = SymTensorField.from_matrix_entries(torus16, 300.0, 0.0, 300.0)
    with pytest.raises(Exception):
        second_variation_probe(K.KL_MET, g, huge, huge, 1e-2)


# ---------------------------------------------------------------------------
# static objective


def transport_cost(phi, g):
    """sqrt(Int |phi - id|^2 vol(g)), the objective's middle term."""
    shift_sq = np.sum(phi.displacement.components**2, axis=0)
    return np.sqrt(integrate_array(shift_sq * volume_map(g).values, g.grid))


def test_static_objective_exact_match_is_zero(torus16):
    g = random_spd_metric(torus16, substream(11, "st"), 3, 0.2)
    problem = StaticProblem(g, g, lambda_balance=1.0, kind=K.KL_MET)
    value = static_objective(problem, g, DisplacementMap.identity(torus16))
    assert abs(value) <= 1e-10


def test_static_objective_pure_divergence_term(torus16):
    g0 = MetricField.euclidean(torus16)
    g1 = MetricField.scaled_identity(torus16, np.e)
    problem = StaticProblem(g0, g1, lambda_balance=2.0, kind=K.KL_MET)
    value = static_objective(problem, g0, DisplacementMap.identity(torus16))
    # identity transport: objective = lambda D(g0 || phi^* g1) = 2 * 1
    assert value == pytest.approx(2.0, abs=1e-9)


def test_static_objective_transport_instance():
    # the objective pulls g1 back along phi, so gbar0 = g0 = phi^* g1 matches
    # both divergences exactly and leaves only the transport cost; with
    # g1 = phi_* g0 instead, built through the Newton inverse, the excess over
    # the transport cost is the discretization gap between the two forms and
    # falls by at least 4x each time h halves
    from tests.test_tensors import smooth_displacement

    gaps = {K.KL_MET: [], K.TILDE_KL_MET: []}
    for n in (16, 32, 64):
        grid = Grid(2, "torus", n)
        u, _ = smooth_displacement(grid, amplitude=0.02)
        phi = DisplacementMap(u)
        flat = MetricField.euclidean(grid)
        pulled, pushed = pullback_metric(phi, flat), pullback_metric(phi.inverse, flat)
        for kind, gap in gaps.items():
            exact = static_objective(StaticProblem(pulled, flat, kind=kind), pulled, phi)
            assert exact == pytest.approx(transport_cost(phi, pulled), abs=1e-12), (n, kind)
            value = static_objective(StaticProblem(flat, pushed, kind=kind), flat, phi)
            gap.append(value - transport_cost(phi, flat))
    for gap in gaps.values():
        assert 0.0 < gap[0] < 1e-4
        assert all(fine <= coarse / 4.0 for coarse, fine in zip(gap, gap[1:])), gap


@pytest.mark.parametrize("kind", [K.KL_MET, K.TILDE_KL_MET])
@pytest.mark.parametrize("dim", [1, 2])
def test_static_objective_identity_start_is_two_divergences(kind, dim):
    # at phi = id the pullback is exact on a power-of-two torus and the
    # transport cost is zero, so the start value is the two divergences
    grid = Grid(dim, "torus", 16)
    g0, gbar, g1 = (
        random_spd_metric(grid, substream(17, f"start-{name}"), 3, 0.3)
        for name in ("g0", "gbar", "g1")
    )
    lam = 0.7
    problem = StaticProblem(g0, g1, lambda_balance=lam, kind=kind)
    value = static_objective(problem, gbar, DisplacementMap.identity(grid))
    assert value == lam * divergence(kind, g0, gbar) + lam * divergence(kind, gbar, g1)


def test_static_problem_validation(torus16):
    g = MetricField.euclidean(torus16)
    with pytest.raises(ValueError):
        StaticProblem(g, g, lambda_balance=-1.0)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            StaticProblem(g, g, lambda_balance=lam)
    with pytest.raises(ValueError):
        StaticProblem(g, g, kind=K.CLASSICAL_KL)


def test_static_local_search_monotone_decrease(torus16):
    g0 = random_spd_metric(torus16, substream(13, "ls-a"), 2, 0.2)
    g1 = random_spd_metric(torus16, substream(13, "ls-b"), 2, 0.2)
    problem = StaticProblem(g0, g1, lambda_balance=1.0, kind=K.KL_MET)
    start = static_objective(problem, g0, DisplacementMap.identity(torus16))
    gbar, phi, value, trace = static_local_search(
        problem, substream(13, "static-search"), iters=6, modes=2
    )
    assert value <= start + 1e-12
    assert all(a >= b - 1e-12 for a, b in zip(trace.values, trace.values[1:]))
    assert trace.accepted >= 1


def test_extreme_ratio_clamp_warns(torus16):
    tiny = DensityField.constant(torus16, 1e-250)
    huge = DensityField.constant(torus16, 1e250)
    with pytest.warns(RuntimeWarning, match="clamped"):
        value = divergence(K.CLASSICAL_KL, tiny, huge)
    assert np.isfinite(value)


@pytest.mark.parametrize("dim, n", [(1, 40), (2, 12), (2, 16)])
@pytest.mark.parametrize("kind", list(K))
def test_stacked_divergences_match_per_pair_calls(kind, dim, n):
    grid = Grid(dim, "torus", n)
    metric = kind in METRIC_KINDS
    draw = random_spd_stack if metric else band_limited_density_stack
    a, b = (
        np.concatenate(
            [draw(grid, substream(seed, f"stack-{kind.value}-{s}"), 3, 0.45) for seed in range(5)]
        )
        for s in "ab"
    )
    b[2] = a[2]  # one pair on the diagonal
    values = divergence_stack(kind, grid, a, b)
    gaps = eigenvalue_gap_stack(dim, a, b) if metric else density_ratio_gap_stack(a, b)
    assert values.shape == gaps.shape == (5,)
    for i in range(5):
        if metric:
            fa, fb = (MetricField(grid, x[i]) for x in (a, b))
            gap = float(eigenvalue_gap_stack(dim, fa.components[None], fb.components[None])[0])
        else:
            fa, fb = DensityField(grid, a[i]), DensityField(grid, b[i])
            ratio = fa.values / fb.values
            gap = float(np.min(ratio - np.log(ratio) - 1.0))
        assert values[i] == divergence(kind, fa, fb)
        assert gaps[i] == gap
    assert gaps[2] == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_eigenvalue_gap_stack_matches_linalg(dim):
    grid = Grid(dim, "torus", 8)
    g0, g1 = (
        np.concatenate(
            [random_spd_stack(grid, substream(9, f"gap{j}-{i}"), 2, 0.45) for i in range(3)]
        )
        for j in range(2)
    )
    expected = []
    for c0, c1 in zip(g0, g1):
        full0, full1 = (
            np.moveaxis(packed_to_full(c, dim), (0, 1), (-2, -1)).reshape(-1, dim, dim)
            for c in (c0, c1)
        )
        lams = np.linalg.eigvals(np.linalg.inv(full1) @ full0).real
        expected.append(np.min(lams - np.log(lams) - 1.0))
    np.testing.assert_allclose(eigenvalue_gap_stack(dim, g0, g1), expected, rtol=1e-9)
