"""Pointwise SPD algebra, volume maps, Lie derivatives, pullbacks."""

import inspect
import pathlib

import numpy as np
import pytest

from metricflow import (
    DensityField,
    DisplacementMap,
    Grid,
    MetricField,
    NonInvertibleMapError,
    OutOfDomainError,
    PositivityViolation,
    SymTensorField,
    VectorField,
    invert_displacement,
    lie_derivative_metric,
    pullback_metric,
    trace_decompose,
    volume_map,
    volume_tangent,
)
import metricflow
from metricflow import tensors
from metricflow.certificates import toy_field
from metricflow.fields import (
    diff_array,
    divergence_array,
    gradient_array,
    integrate_array,
    sample_array,
)
from metricflow.randomfields import (
    band_limited_scalar,
    band_limited_sym_tensor,
    band_limited_vector,
    random_spd_metric,
    random_spd_stack,
    substream,
)
from metricflow.tensors import (
    full_to_packed,
    inverse_components,
    jacobian_det,
    jacobian_gram,
    packed_det,
    packed_to_full,
    product_trace,
    spd_check,
    sqrt_components,
)
from metricflow.transport import MetricNormOperator, SolverConfig, _detect_collar, ebin_inner


def diag_metric(grid, a, b):
    return MetricField(
        grid, np.stack([np.full(grid.shape, a), np.zeros(grid.shape), np.full(grid.shape, b)])
    )


def test_spd_check_rejects_and_names_node(torus16):
    comps = np.stack([np.ones(torus16.shape), np.zeros(torus16.shape), np.ones(torus16.shape)])
    comps[2, 5, 7] = -1.0
    with pytest.raises(PositivityViolation) as err:
        MetricField(torus16, comps)
    assert err.value.node == (5, 7)


def test_metric_with_overflowing_determinant_rejected():
    # finite entries of 1e160 give det = inf, an infinite volume form
    grid = Grid(2, "torus", 16)
    with np.errstate(over="ignore"), pytest.raises(
        PositivityViolation, match="determinant that overflows to inf"
    ) as err:
        MetricField.scaled_identity(grid, 1e160)
    assert err.value.node == (0, 0)
    # the check random_spd_stack shares flags the one overflowing node
    comps = MetricField.euclidean(grid).components.copy()
    comps[0, 3, 4] = comps[2, 3, 4] = 1e160
    with np.errstate(over="ignore"):
        bad = tensors.spd_violations(comps, 2)
    assert bad[3, 4] and np.count_nonzero(bad) == 1


def test_pointwise_inverse_scalar_matrix(torus16):
    g = MetricField.scaled_identity(torus16, 4.0)
    inv = inverse_components(g.components, 2)
    assert np.allclose(inv[0], 0.25)
    assert np.allclose(inv[1], 0.0)
    assert np.allclose(inv[2], 0.25)


def test_pointwise_sqrt_diagonal(torus16):
    g = diag_metric(torus16, 4.0, 9.0)
    s = sqrt_components(g.components, 2)
    assert np.allclose(s[0], 2.0)
    assert np.allclose(s[2], 3.0)


def test_sqrt_squares_back_to_input(torus16):
    g = random_spd_metric(torus16, substream(2, "sqrt"), modes=3, amplitude=0.4)
    s = sqrt_components(g.components, 2)
    g11 = s[0] ** 2 + s[1] ** 2
    g12 = s[1] * (s[0] + s[2])
    g22 = s[1] ** 2 + s[2] ** 2
    assert np.max(np.abs(np.stack([g11, g12, g22]) - g.components)) <= 1e-12


def test_product_trace_identity(torus16):
    g = MetricField.euclidean(torus16)
    eye = SymTensorField.from_matrix_entries(torus16, 1.0, 0.0, 1.0)
    tr = product_trace(g, eye, eye)
    assert np.allclose(tr, 2.0)


def _full_nodes(comps, dim):
    """Per-node (dim, dim) matrices of packed components, shape (nodes, dim, dim)."""
    full = tensors.packed_to_full(comps, dim)
    return np.moveaxis(full, (0, 1), (-2, -1)).reshape(-1, dim, dim)


def _oracle_metrics(dim, count):
    grid = Grid(dim, "torus", 8)
    rngs = [substream(5, f"oracle-{i}") for i in range(count)]
    comps = random_spd_stack(grid, rngs, 2, 0.45)
    return grid, [MetricField(grid, c) for c in comps]


@pytest.mark.parametrize("dim", [1, 2])
def test_relative_and_product_trace_match_linalg(dim):
    grid, (g, a, b) = _oracle_metrics(dim, 3)
    ginv = np.linalg.inv(_full_nodes(g.components, dim))
    fa, fb = _full_nodes(a.components, dim), _full_nodes(b.components, dim)
    rel = tensors.relative_trace(g.components, a.components, dim)
    prod = product_trace(g, a, b)
    assert rel.shape == prod.shape == grid.shape
    np.testing.assert_allclose(rel.ravel(), np.trace(ginv @ fa, axis1=1, axis2=2), rtol=1e-13)
    np.testing.assert_allclose(
        prod.ravel(), np.trace(ginv @ fa @ ginv @ fb, axis1=1, axis2=2), rtol=1e-13
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_metric_norm_source_weight_is_the_ebin_weight(dim):
    grid, (g,) = _oracle_metrics(dim, 1)
    op = MetricNormOperator(g, SolverConfig())
    vol = volume_map(g).values
    assert np.array_equal(op.vol, vol)
    assert np.array_equal(op.source_weight, tensors.ebin_weight(g.components, dim) * vol)


def _collar_mask_by_slices(grid, width):
    """The collar as the union of the `width` outermost slabs along each axis."""
    mask = np.zeros(grid.shape, dtype=bool)
    n = grid.n_per_axis
    for ax in range(grid.dim):
        ix = [slice(None)] * grid.dim
        ix[ax] = slice(0, width)
        mask[tuple(ix)] = True
        ix[ax] = slice(n - width, n)
        mask[tuple(ix)] = True
    return mask


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [8, 9, 16])
def test_collar_mask_matches_slabs(dim, n):
    grid = Grid(dim, "box", n, extent=2.0)
    for width in range(n // 2 + 1):
        expected = _collar_mask_by_slices(grid, width)
        assert np.array_equal(tensors.collar_mask(grid, width), expected)


def test_packed_det_diagonal(torus16):
    g = diag_metric(torus16, 2.0, 8.0)
    assert np.allclose(packed_det(g.components, 2), 16.0)


# ---------------------------------------------------------------------------
# volume map


def test_volume_of_euclidean(torus16):
    assert np.allclose(volume_map(MetricField.euclidean(torus16)).values, 1.0)


def test_volume_of_scaled_identity(torus16):
    assert np.allclose(volume_map(MetricField.scaled_identity(torus16, 4.0)).values, 4.0)


def test_volume_of_diagonal(torus16):
    assert np.allclose(volume_map(diag_metric(torus16, 1.0, 9.0)).values, 3.0)


def test_volume_tangent_identity_direction(torus16):
    g = MetricField.euclidean(torus16)
    eye = SymTensorField.from_matrix_entries(torus16, 1.0, 0.0, 1.0)
    assert np.allclose(volume_tangent(g, eye).values, 1.0)


def test_volume_tangent_trace_free_direction(torus16):
    g = MetricField.euclidean(torus16)
    dg = SymTensorField.from_matrix_entries(torus16, 1.0, 0.0, -1.0)
    assert np.max(np.abs(volume_tangent(g, dg).values)) <= 1e-14


def test_volume_tangent_matches_finite_difference_oracle(torus16):
    # oracle: central difference of volume_map along the perturbation
    g = random_spd_metric(torus16, substream(9, "vt-g"), modes=3, amplitude=0.3)
    dg = band_limited_sym_tensor(torus16, substream(9, "vt-dg"), modes=3, amplitude=0.5)
    exact = volume_tangent(g, dg).values
    errs = []
    for s in (1e-3, 5e-4):
        plus = volume_map(
            MetricField(torus16, g.components + s * dg.components)
        ).values
        minus = volume_map(
            MetricField(torus16, g.components - s * dg.components)
        ).values
        errs.append(float(np.max(np.abs((plus - minus) / (2 * s) - exact))))
    assert errs[0] <= 1e-5
    assert 3.5 <= errs[0] / errs[1] <= 4.5  # O(s^2) in the probe step


# ---------------------------------------------------------------------------
# Lie derivatives


def test_lie_metric_zero_velocity(torus16):
    g = random_spd_metric(torus16, substream(4, "lz"), modes=2, amplitude=0.3)
    out = lie_derivative_metric(VectorField.zero(torus16), g)
    assert np.max(np.abs(out.components)) == 0.0


def test_lie_metric_flat_background_analytic_oracle():
    # v = (sin 2 pi x2, 0), g = I: off-diagonal 2 pi cos(2 pi x2), zero diagonal
    grid = Grid(2, "torus", 64)
    x = grid.coordinates()
    comps = np.zeros((2,) + grid.shape)
    comps[0] = np.sin(2 * np.pi * x[1])
    v = VectorField(grid, comps)
    out = lie_derivative_metric(v, MetricField.euclidean(grid))
    assert np.max(np.abs(out.components[0])) == 0.0
    assert np.max(np.abs(out.components[2])) == 0.0
    exact = 2 * np.pi * np.cos(2 * np.pi * x[1])
    h = grid.spacing
    assert np.max(np.abs(out.components[1] - exact)) <= (2 * np.pi) ** 3 * h**2 / 6 * 1.1


def test_lie_metric_translation_invariance(torus16):
    v = VectorField.constant(torus16, (0.7, -0.3))
    g = MetricField.scaled_identity(torus16, 2.0)
    out = lie_derivative_metric(v, g)
    assert np.max(np.abs(out.components)) == 0.0


def test_lie_density_zero_velocity(torus16):
    rho = DensityField.constant(torus16, 2.0)
    out = divergence_array(rho.values * VectorField.zero(torus16).components, torus16)
    assert np.max(np.abs(out)) == 0.0


def test_lie_density_integrates_to_zero_on_torus():
    grid = Grid(2, "torus", 24)
    v = band_limited_vector(grid, substream(12, "ld-v"), modes=4, amplitude=1.0)
    rho = DensityField(grid, np.exp(band_limited_scalar(grid, substream(12, "ld-r"), 4, 0.5).values))
    total = integrate_array(divergence_array(rho.values * v.components, grid), grid)
    assert abs(total) <= 1e-10


def test_lie_density_analytic_oracle():
    grid = Grid(2, "torus", 64)
    x = grid.coordinates()
    comps = np.zeros((2,) + grid.shape)
    comps[0] = np.sin(2 * np.pi * x[0])
    v = VectorField(grid, comps)
    rho = DensityField.constant(grid, 1.0)
    out = divergence_array(rho.values * v.components, grid)
    exact = 2 * np.pi * np.cos(2 * np.pi * x[0])
    assert np.max(np.abs(out - exact)) <= (2 * np.pi) ** 3 * grid.spacing**2 / 6 * 1.1


def test_lie_compatibility_with_volume(torus64):
    # naturality: d vol(g) . (-L_v g) = -L_v vol(g) up to O(h^2)
    g = random_spd_metric(torus64, substream(21, "nat-g"), modes=2, amplitude=0.2)
    v = band_limited_vector(torus64, substream(21, "nat-v"), modes=2, amplitude=0.2)
    lhs = volume_tangent(g, SymTensorField(torus64, -lie_derivative_metric(v, g).components))
    rhs = -divergence_array(volume_map(g).values * v.components, torus64)
    coarse = Grid(2, "torus", 32)
    gc = random_spd_metric(coarse, substream(21, "nat-g"), modes=2, amplitude=0.2)
    vc = band_limited_vector(coarse, substream(21, "nat-v"), modes=2, amplitude=0.2)
    lhs_c = volume_tangent(gc, SymTensorField(coarse, -lie_derivative_metric(vc, gc).components))
    rhs_c = -divergence_array(volume_map(gc).values * vc.components, coarse)
    err64 = np.max(np.abs(lhs.values - rhs))
    err32 = np.max(np.abs(lhs_c.values - rhs_c))
    assert err64 <= 0.05
    assert 3.0 <= err32 / err64 <= 5.0


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_jet_adjoint_is_the_adjoint_of_velocity_jet(dim, n):
    # sum J(v) . y = sum v . J^T(y) under plain nodewise sums on the torus,
    # for lane-stacked v and jet-shaped y: the pair A = J^T Q J is built from
    grid = Grid(dim, "torus", n)
    rng = np.random.default_rng(10 * dim + n)
    v = rng.standard_normal((3, dim) + grid.shape)
    y = rng.standard_normal((3, dim + dim * dim) + grid.shape)
    adjoint = tensors.jet_adjoint(y, grid)
    assert adjoint.shape == v.shape
    lhs = float(np.sum(tensors.velocity_jet(v, grid) * y))
    assert float(np.sum(v * adjoint)) == pytest.approx(lhs, rel=1e-12)


# ---------------------------------------------------------------------------
# trace decomposition


def test_trace_decompose_pure_trace(torus16):
    g = random_spd_metric(torus16, substream(6, "td"), modes=2, amplitude=0.3)
    c = 0.7
    h = SymTensorField(torus16, c * g.components)
    z, r = trace_decompose(g, h)
    assert np.max(np.abs(z.components)) <= 1e-13
    assert np.allclose(r.values, c * 2)


def test_trace_decompose_trace_free(torus16):
    g = MetricField.euclidean(torus16)
    h = SymTensorField.from_matrix_entries(torus16, 1.0, 0.0, -1.0)
    z, r = trace_decompose(g, h)
    assert np.max(np.abs(r.values)) <= 1e-14
    assert np.max(np.abs(z.components - h.components)) <= 1e-14


def test_trace_decompose_round_trip_and_orthogonality(torus16):
    g = random_spd_metric(torus16, substream(31, "tdr-g"), modes=3, amplitude=0.3)
    h = band_limited_sym_tensor(torus16, substream(31, "tdr-h"), modes=3, amplitude=1.0)
    z, r = trace_decompose(g, h)
    recomposed = z.components + (r.values / 2.0) * g.components
    assert np.max(np.abs(recomposed - h.components)) <= 1e-13
    trace_part = SymTensorField(torus16, (r.values / 2.0) * g.components)
    assert abs(ebin_inner(g, z, trace_part)) <= 1e-10


# ---------------------------------------------------------------------------
# pullback / pushforward / inversion


def smooth_displacement(grid, amplitude=0.04):
    x = grid.coordinates()
    u = np.zeros((2,) + grid.shape)
    u[0] = amplitude * np.sin(2 * np.pi * x[0]) * np.cos(2 * np.pi * x[1])
    u[1] = -amplitude * np.cos(2 * np.pi * x[0]) * np.sin(2 * np.pi * x[1])
    du = np.zeros((2, 2) + grid.shape)
    tp = 2 * np.pi
    du[0, 0] = amplitude * tp * np.cos(tp * x[0]) * np.cos(tp * x[1])
    du[0, 1] = -amplitude * tp * np.sin(tp * x[0]) * np.sin(tp * x[1])
    du[1, 0] = amplitude * tp * np.sin(tp * x[0]) * np.sin(tp * x[1])
    du[1, 1] = -amplitude * tp * np.cos(tp * x[0]) * np.cos(tp * x[1])
    return VectorField(grid, u), du


def test_pullback_by_identity(torus16):
    g = random_spd_metric(torus16, substream(41, "pb"), modes=2, amplitude=0.3)
    phi = DisplacementMap.identity(torus16)
    out = pullback_metric(phi, g)
    assert np.max(np.abs(out.components - g.components)) <= 1e-13


def test_pullback_flat_matches_closed_form_jacobian_oracle():
    # oracle: for g = I, the pullback is (I + du)^T (I + du) with analytic du
    errs = []
    for n in (32, 64):
        grid = Grid(2, "torus", n)
        u, du_exact = smooth_displacement(grid)
        phi = DisplacementMap(u)
        out = pullback_metric(phi, MetricField.euclidean(grid))
        jac = du_exact.copy()
        jac[0, 0] += 1.0
        jac[1, 1] += 1.0
        gram = np.einsum("ki...,kj...->ij...", jac, jac)
        expected = np.stack([gram[0, 0], gram[0, 1], gram[1, 1]])
        errs.append(float(np.max(np.abs(out.components - expected))))
    assert errs[1] <= 5e-3
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_pullback_translation_equals_lattice_resample(torus16):
    g = random_spd_metric(torus16, substream(43, "sh"), modes=2, amplitude=0.3)
    shift_nodes = 3
    c = shift_nodes * torus16.spacing
    phi = DisplacementMap(VectorField.constant(torus16, (c, 0.0)))
    out = pullback_metric(phi, g)
    expected = np.roll(g.components, -shift_nodes, axis=1)
    assert np.max(np.abs(out.components - expected)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_map_jacobian_is_the_stencil_layout_and_the_old_formulas_hold(dim):
    grid = Grid(dim, "torus", 32)
    u = band_limited_vector(grid, substream(46, f"jac-{dim}"), modes=3, amplitude=0.01)
    phi = DisplacementMap(u)
    for k in range(dim):
        assert np.array_equal(phi.jacobian[k], diff_array(u.components, grid, k))
        assert not phi.jacobian[k].flags.writeable
    # oracle: the formulas on the transposed layout du[i, j] = d_j u^i
    du = np.swapaxes(gradient_array(u.components, grid), 0, 1)
    jac = du.copy()
    for i in range(dim):
        jac[i, i] += 1.0
    gram = full_to_packed(np.einsum("ki...,kj...->ij...", jac, jac), dim)
    assert np.array_equal(jacobian_gram(phi.jacobian), gram)
    det = 1.0 + du[0, 0] if dim == 1 else (1.0 + du[0, 0]) * (1.0 + du[1, 1]) - du[0, 1] * du[1, 0]
    assert np.array_equal(jacobian_det(phi.jacobian), det)
    g = random_spd_metric(grid, substream(47, f"jac-{dim}"), modes=2, amplitude=0.3)
    gfull = packed_to_full(phi.sample(g.components), dim)
    pulled = full_to_packed(np.einsum("ki...,kl...,lj...->ij...", jac, gfull, jac), dim)
    assert np.array_equal(pullback_metric(phi, g).components, pulled)


def test_pullback_volume_naturality():
    # vol(phi* g) = det(I + du) vol(g) o phi, both sides computed separately
    grid = Grid(2, "torus", 64)

    g = random_spd_metric(grid, substream(44, "nat"), modes=2, amplitude=0.2)
    u, _ = smooth_displacement(grid)
    phi = DisplacementMap(u)
    lhs = volume_map(pullback_metric(phi, g)).values
    det = jacobian_det(phi.jacobian)
    vol_at_phi = sample_array(volume_map(g).values, grid, phi.positions())
    assert np.max(np.abs(lhs - det * vol_at_phi)) <= 30 * grid.spacing**2


def test_invert_identity(torus16):
    phi = DisplacementMap.identity(torus16)
    inv = invert_displacement(phi, tol=1e-14)
    assert np.max(np.abs(inv.displacement.components)) == 0.0


def test_invert_constant_shift_exactly(torus16):
    c = (0.3, -0.2)
    phi = DisplacementMap(VectorField.constant(torus16, c))
    inv = invert_displacement(phi, tol=1e-14)
    assert np.allclose(inv.displacement.components[0], -0.3, atol=1e-14)
    assert np.allclose(inv.displacement.components[1], 0.2, atol=1e-14)


def test_invert_smooth_bump_self_consistent():
    grid = Grid(2, "torus", 64)
    u, _ = smooth_displacement(grid)
    phi = DisplacementMap(u)
    inv = invert_displacement(phi, tol=1e-12)
    resid = inv.displacement.components + sample_array(
        u.components, grid, grid.coordinates() + inv.displacement.components
    )
    assert np.max(np.abs(resid)) <= 1e-10


def test_invert_rejects_non_contraction(torus16):
    x = torus16.coordinates()
    u = np.zeros((2,) + torus16.shape)
    u[0] = 0.5 * np.sin(2 * np.pi * x[0])  # |du| > 1
    # orientation flips too; constructor itself must reject
    with pytest.raises(NonInvertibleMapError):
        DisplacementMap(VectorField(torus16, u))


def fixed_point_inverse(phi, tol=1e-12):
    """Displacement of phi^{-1} by the fixed-point sweeps w <- -u(x + w).

    The linearly convergent scheme of M. Chen et al., Med. Phys. 35(1), 2008,
    which invert_displacement used before its Newton steps.
    """
    grid, u = phi.grid, phi.displacement.components
    x = grid.coordinates()
    uinv = -u.copy()
    for _ in range(200):
        new = -phi.sample(u, x + uinv)
        step = float(np.max(np.abs(new - uinv)))
        uinv = new
        if step < tol:
            return uinv
    raise AssertionError("fixed-point oracle stalled")


def test_map_sample_clamps_within_the_collar_allowance(box64):
    # a collar-identity map may leave the box by up to its collar residual
    phi = DisplacementMap(VectorField.zero(box64), collar_width=2, collar_tol=1e-6)
    allowed = 10.0 * phi.collar_tol + 1e-12 * box64.extent
    half = box64.half_extent
    x = box64.coordinates()
    values = np.stack([x[0] + 2.0 * x[1] ** 2, np.cos(x[0] * x[1])])
    inside = x.copy()
    inside[0, -1] += 0.5 * allowed
    inside[1, 0] -= 0.5 * allowed
    expected = sample_array(values, box64, np.clip(inside, -half, half))
    assert np.array_equal(phi.sample(values, inside), expected)
    assert np.array_equal(phi.sample(values), sample_array(values, box64, x))
    for sign, edge in ((1.0, -1), (-1.0, 0)):
        beyond = x.copy()
        beyond[1, edge] += sign * 2.0 * allowed
        with pytest.raises(OutOfDomainError, match=f"collar allowance {allowed:.3e}"):
            phi.sample(values, beyond)


def test_maps_sample_through_one_method():
    # sample_array is called by its own module, by the interpolation
    # certificate, and by DisplacementMap.sample for every map
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in pathlib.Path(metricflow.__file__).parent.glob("*.py")
    }
    assert {name for name, text in sources.items() if "sample_array(" in text} == {
        "fields.py",
        "tensors.py",
        "certificates.py",
    }
    in_method = inspect.getsource(DisplacementMap.sample).count("sample_array(")
    assert sources["tensors.py"].count("sample_array(") == in_method == 1
    for gone in ("clamp_to_box", "require_euclidean_collar"):
        assert not any(gone in text for text in sources.values()), gone


def box_toy_map():
    grid = Grid(2, "box", 128, extent=2.0)
    f = toy_field(grid, 0.08)
    return DisplacementMap(f, collar_width=_detect_collar(f))


def torus_1d_bump_map():
    grid = Grid(1, "torus", 64)
    x = grid.coordinates()
    bump = np.maximum(1.0 - ((x[0] - 0.5) / 0.3) ** 2, 0.0) ** 6
    return DisplacementMap(VectorField(grid, 0.05 * bump[None]))


@pytest.mark.parametrize(
    "make_phi",
    [
        pytest.param(box_toy_map, id="box128-toy-t1"),
        pytest.param(lambda: DisplacementMap(smooth_displacement(Grid(2, "torus", 64))[0]),
                     id="torus64-smooth"),
        pytest.param(torus_1d_bump_map, id="torus1d-bump"),
    ],
)
def test_newton_inverse_matches_fixed_point_oracle(make_phi):
    phi = make_phi()
    inv = invert_displacement(phi)
    assert np.max(np.abs(inv.displacement.components - fixed_point_inverse(phi))) <= 1e-12


def full_grid_newton_inverse(phi, tol=1e-12):
    """(w, steps) of the Newton loop that steps every node at every step.

    The loop of ``invert_displacement`` before it stepped only the nodes
    still moving, copied verbatim; the final identity check is left out.
    """
    grid = phi.grid
    u = phi.displacement.components
    x = grid.coordinates()
    uinv = -u.copy()
    steps = 0
    for _ in range(200):
        sampled, ds = phi.sample(u, x + uinv, derivative=True)
        step = tensors._newton_step(ds, uinv + sampled)
        uinv = uinv - step
        steps += 1
        size = float(np.max(np.abs(step)))
        if size < tol:
            break
    else:
        raise AssertionError("full-grid Newton loop stalled")
    return uinv, steps


def box_toy_midpoint_map(n, amplitude, t):
    grid = Grid(2, "box", n, extent=2.0)
    f = toy_field(grid, amplitude)
    return DisplacementMap(VectorField(grid, t * f.components), collar_width=_detect_collar(f))


@pytest.mark.parametrize(
    "make_phi",
    [
        pytest.param(box_toy_map, id="box128-toy-t1"),
        pytest.param(lambda: DisplacementMap(smooth_displacement(Grid(2, "torus", 64))[0]),
                     id="torus64-smooth"),
        pytest.param(torus_1d_bump_map, id="torus1d-bump"),
        pytest.param(lambda: box_toy_midpoint_map(128, 0.08, 17 / 32), id="box128-toy-t0.53"),
        pytest.param(lambda: box_toy_midpoint_map(64, 0.18, 31 / 32), id="box64-amp0.18-t0.97"),
    ],
)
def test_moving_node_inverse_equals_full_grid_loop(make_phi, monkeypatch):
    # a node whose step is exactly zero is a fixed point, so stepping only the
    # moving nodes gives the full-grid loop's values (np.array_equal takes
    # -0.0 == 0.0) after as many steps; the first step covers every node
    phi = make_phi()
    expected, steps = full_grid_newton_inverse(phi)
    newton_step, covered = tensors._newton_step, []

    def counted(ds, residual):
        covered.append(residual[0].size)
        return newton_step(ds, residual)

    monkeypatch.setattr(tensors, "_newton_step", counted)
    inv = invert_displacement(phi)
    assert np.array_equal(inv.displacement.components, expected)
    assert len(covered) == steps
    assert covered[0] == phi.grid.node_count
    assert covered == sorted(covered, reverse=True)


def test_newton_inversion_needs_few_interpolations(monkeypatch):
    # at t = 1 exact Newton takes 5 steps (2.8e-5, then 1.8e-10, then below
    # roundoff) plus the check; the stencil Jacobian of the iterate took 9
    # steps and the fixed-point sweeps 25
    phi = box_toy_map()
    calls = []

    def counted(*args):
        calls.append(1)
        return sample_array(*args)

    monkeypatch.setattr(tensors, "sample_array", counted)
    invert_displacement(phi)
    assert len(calls) == 6


def test_inversion_takes_no_stencil_of_its_input(stencil_calls):
    # the contraction pre-check reads phi.jacobian; the two calls are the
    # inverse map's own Jacobian, one per axis
    phi = box_toy_map()
    stencil_calls.clear()
    invert_displacement(phi)
    assert len(stencil_calls) == 2


def test_inversion_stall_is_reported(torus16):
    u, _ = smooth_displacement(torus16)
    with pytest.raises(NonInvertibleMapError, match="stalled"):
        invert_displacement(DisplacementMap(u), tol=0.0)


def test_pushforward_round_trip():
    grid = Grid(2, "torus", 32)
    g = random_spd_metric(grid, substream(45, "pfrt"), modes=2, amplitude=0.2)
    u, _ = smooth_displacement(grid, amplitude=0.02)
    phi = DisplacementMap(u)
    back = pullback_metric(phi, pullback_metric(phi.inverse, g))
    assert np.max(np.abs(back.components - g.components)) <= 50 * grid.spacing**2


def test_spd_closure_under_pullback_and_inverse():
    grid = Grid(2, "torus", 32)
    for trial in range(5):
        g = random_spd_metric(grid, substream(50 + trial, "clo"), modes=3, amplitude=0.45)
        u, _ = smooth_displacement(grid, amplitude=0.03)
        pullback_metric(DisplacementMap(u), g)  # SPD check inside
        spd_check(inverse_components(g.components, 2), 2, what="inverse")
        spd_check(sqrt_components(g.components, 2), 2, what="sqrt")
