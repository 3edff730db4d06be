"""Grid construction, finite differences, quadrature, interpolation, JSON."""

import dataclasses
import json

import numpy as np
import pytest

from metricflow import (
    DensityField,
    DisplacementMap,
    Grid,
    GridMismatchError,
    MetricField,
    OutOfDomainError,
    PositivityViolation,
    ScalarField,
    SymTensorField,
    VectorField,
    ebin_inner,
    field_from_json,
    field_to_json,
)
from metricflow.certificates import refinement_ratio
from metricflow.fields import (
    diff_array,
    divergence_array,
    gradient_array,
    integrate_array,
    quadrature_weights,
    sample_array,
)
from metricflow.randomfields import band_limited_scalar, band_limited_vector, substream
from metricflow.tensors import packed_to_full


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, "torus", 16)
    with pytest.raises(ValueError):
        Grid(2, "torus", 4)
    with pytest.raises(ValueError):
        Grid(2, "torus", 16, extent=2.0)
    with pytest.raises(ValueError):
        Grid(2, "klein_bottle", 16)
    with pytest.raises(ValueError):
        Grid(2, "box", 16, extent=-1.0)
    with pytest.raises(ValueError):
        Grid(2, "box", 16, extent=float("inf"))
    with pytest.raises(ValueError):
        Grid(2, "box", 16, extent=float("nan"))
    with pytest.raises(ValueError):
        Grid(2, "torus", 16.5)
    with pytest.raises(ValueError):
        Grid(2, "torus", True)


def test_grid_is_a_value():
    grid = Grid(2, "torus", 16)
    assert grid == Grid(2, "torus", 16, 1) and hash(grid) == hash(Grid(2, "torus", 16, 1))
    assert {grid: "a"}[Grid(2, "torus", 16, 1.0)] == "a"
    with pytest.raises(AttributeError):
        grid.n_per_axis = 32
    with pytest.raises(ValueError):
        dataclasses.replace(grid, n_per_axis=4)  # validation cannot be bypassed


def test_grid_spacing_conventions():
    assert Grid(2, "torus", 16).spacing == pytest.approx(1.0 / 16)
    assert Grid(2, "box", 17, extent=2.0).spacing == pytest.approx(2.0 / 16)
    assert Grid(1, "torus", 32).node_count == 32
    assert Grid(2, "torus", 16).node_count == 256


def test_fields_are_immutable(torus16):
    f = ScalarField.constant(torus16, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_density_requires_positivity(torus16):
    vals = np.ones(torus16.shape)
    vals[3, 4] = -0.1
    with pytest.raises(Exception) as err:
        DensityField(torus16, vals)
    assert "(3, 4)" in str(err.value)


def test_density_reports_positivity_before_finiteness(torus16):
    vals = np.ones(torus16.shape)
    vals[2, 5] = 0.0
    vals[7, 1] = np.inf
    with pytest.raises(PositivityViolation) as err:
        DensityField(torus16, vals)
    assert "node (2, 5) has value 0.0" in str(err.value)


def test_constrained_fields_are_the_fields_they_constrain(torus16):
    assert isinstance(MetricField.euclidean(torus16), SymTensorField)
    assert isinstance(DensityField.constant(torus16, 1.0), ScalarField)


# ---------------------------------------------------------------------------
# derivatives


@pytest.mark.parametrize("topology,axis", [("torus", 0), ("torus", 1), ("box", 0), ("box", 1)])
def test_derivative_of_constant_vanishes(topology, axis):
    grid = Grid(2, topology, 16, extent=1.0 if topology == "torus" else 2.0)
    f = ScalarField.constant(grid, 3.5)
    assert np.max(np.abs(diff_array(f.values, grid, axis))) == 0.0


def test_derivative_axis_out_of_range(torus16):
    f = ScalarField.constant(torus16, 1.0)
    with pytest.raises(ValueError):
        diff_array(f.values, torus16, 2)


def test_torus_derivative_matches_analytic_oracle():
    errs = []
    for n in (32, 64):
        grid = Grid(2, "torus", n)
        x = grid.coordinates()
        f = ScalarField(grid, np.sin(2 * np.pi * x[0]))
        exact = 2 * np.pi * np.cos(2 * np.pi * x[0])
        errs.append(float(np.max(np.abs(diff_array(f.values, grid, 0) - exact))))
    # leading error term of the central stencil on sin is (2 pi)^3 h^2 / 6
    assert errs[1] <= (2 * np.pi) ** 3 * (1.0 / 64) ** 2 / 6 * 1.05
    assert 3.5 <= errs[0] / errs[1] <= 4.5  # second order


def test_box_derivative_exact_on_affine():
    grid = Grid(2, "box", 16, extent=2.0)
    x = grid.coordinates()
    f = ScalarField(grid, x[0])
    df = diff_array(f.values, grid, 0)
    assert np.max(np.abs(df - 1.0)) <= 1e-13  # one-sided stencil exact too


def test_box_derivative_second_order_including_boundary():
    assert 3.2 <= refinement_ratio("box_derivative") <= 4.8


def test_fourth_order_stencil_is_more_accurate():
    grid = Grid(2, "torus", 64)
    x = grid.coordinates()
    f = np.sin(2 * np.pi * x[0])
    exact = 2 * np.pi * np.cos(2 * np.pi * x[0])
    e2 = np.max(np.abs(diff_array(f, grid, 0, order=2) - exact))
    e4 = np.max(np.abs(diff_array(f, grid, 0, order=4) - exact))
    assert e4 < e2 / 100
    with pytest.raises(ValueError):
        diff_array(f, Grid(2, "box", 64, extent=2.0), 0, order=4)


@pytest.mark.parametrize("topology,order", [("torus", 2), ("torus", 4), ("box", 2)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_gradient_array_of_stacked_components_is_bitwise_per_component(topology, order, lead):
    grid = Grid(2, topology, 16, extent=1.0 if topology == "torus" else 2.0)
    values = substream(5, f"stack-{topology}").normal(size=lead + grid.shape)
    flat = values.reshape((-1,) + grid.shape)
    expected = np.stack(
        [np.stack([diff_array(c, grid, k, order) for c in flat]) for k in range(grid.dim)]
    ).reshape((grid.dim,) + values.shape)
    assert np.array_equal(gradient_array(values, grid, order), expected)


def roll_diff_oracle(values, grid, axis, order):
    """The periodic stencil written with np.roll, as diff_array once was."""
    ax = values.ndim - grid.dim + axis
    h = grid.spacing
    fwd, bwd = np.roll(values, -1, axis=ax), np.roll(values, 1, axis=ax)
    if order == 2:
        return (fwd - bwd) / (2.0 * h)
    fwd2, bwd2 = np.roll(values, -2, axis=ax), np.roll(values, 2, axis=ax)
    return (8.0 * (fwd - bwd) - (fwd2 - bwd2)) / (12.0 * h)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [8, 16, 33, 64])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_periodic_slice_stencil_is_bitwise_roll(dim, n, order, lead):
    grid = Grid(dim, "torus", n)
    values = substream(6, f"roll-{dim}-{n}").normal(size=lead + grid.shape)
    for axis in range(dim):
        expected = roll_diff_oracle(values, grid, axis, order)
        assert np.array_equal(diff_array(values, grid, axis, order), expected)


def test_discrete_integration_by_parts_torus():
    grid = Grid(2, "torus", 24)
    f = band_limited_scalar(grid, substream(11, "ibp-f"), modes=4, amplitude=1.0)
    w = band_limited_vector(grid, substream(11, "ibp-w"), modes=4, amplitude=1.0)
    lhs = integrate_array(f.values * divergence_array(w.components, grid), grid)
    rhs = integrate_array(np.sum(gradient_array(f.values, grid) * w.components, axis=0), grid)
    assert abs(lhs + rhs) <= 1e-10


# ---------------------------------------------------------------------------
# quadrature


def test_unit_integral_on_torus(torus16):
    one = ScalarField.constant(torus16, 1.0)
    weight = DensityField.constant(torus16, 1.0)
    assert integrate_array(one.values * weight.values, torus16) == pytest.approx(1.0, abs=1e-14)


def test_trig_square_integral_exact(torus64):
    x = torus64.coordinates()
    f = ScalarField(torus64, np.sin(2 * np.pi * x[0]) ** 2)
    assert integrate_array(f.values, torus64) == pytest.approx(0.5, abs=1e-12)


def test_constant_weight_scaling(torus16):
    one = ScalarField.constant(torus16, 1.0)
    weight = DensityField.constant(torus16, 4.0)
    assert integrate_array(one.values * weight.values, torus16) == pytest.approx(4.0, abs=1e-13)


def test_box_trapezoid_weights_sum_to_area():
    grid = Grid(2, "box", 33, extent=2.0)
    assert float(np.sum(quadrature_weights(grid))) == pytest.approx(4.0, abs=1e-12)


def test_box_quadrature_second_order():
    assert 3.2 <= refinement_ratio("quadrature") <= 4.8


def test_grid_mismatch_rejected(torus16):
    other = Grid(2, "torus", 32)
    h = SymTensorField.zero(torus16)
    with pytest.raises(GridMismatchError):
        ebin_inner(MetricField.euclidean(torus16), h, SymTensorField.zero(other))


# ---------------------------------------------------------------------------
# interpolation


def test_sampling_reproduces_nodes(torus16):
    rng = substream(3, "nodes")
    f = band_limited_scalar(torus16, rng, modes=3, amplitude=1.0)
    got = sample_array(f.values, torus16, torus16.coordinates())
    assert np.array_equal(got, f.values)


def test_bilinear_exact_on_affine_box():
    grid = Grid(2, "box", 16, extent=2.0)
    x = grid.coordinates()
    f = ScalarField(grid, 2.0 * x[0] - 0.7 * x[1] + 0.25)
    mids = (x[:, :-1, :-1] + grid.spacing / 2.0).reshape(2, -1)
    got = sample_array(f.values, grid, mids)
    exact = 2.0 * mids[0] - 0.7 * mids[1] + 0.25
    assert np.max(np.abs(got - exact)) <= 1e-13


def test_midpoint_sampling_second_order():
    assert 3.2 <= refinement_ratio("interpolation") <= 4.8


def test_torus_sampling_wraps():
    grid = Grid(2, "torus", 16)
    f = band_limited_scalar(grid, substream(5, "wrap"), modes=2, amplitude=1.0)
    pos = grid.coordinates()
    shifted = pos + 3.0  # three full periods
    assert np.allclose(sample_array(f.values, grid, shifted), f.values, atol=1e-12)


def test_box_sampling_outside_domain_fails():
    grid = Grid(2, "box", 16, extent=2.0)
    f = ScalarField.constant(grid, 1.0)
    with pytest.raises(OutOfDomainError):
        sample_array(f.values, grid, np.array([[1.5], [0.0]]))


def fancy_index_sample_oracle(values, grid, pos):
    """Bilinear sampling with the two-array corner index sample_array once used."""
    n, h = grid.n_per_axis, grid.spacing
    lead = values.shape[: values.ndim - grid.dim]
    flat = values.reshape((-1,) + grid.shape)
    if grid.topology == "torus":
        t = np.mod(pos, grid.extent) / h
        i0 = np.floor(t).astype(int)
        frac = t - i0
        i0 = np.mod(i0, n)
        i1 = np.mod(i0 + 1, n)
    else:
        half = grid.half_extent
        t = (np.clip(pos, -half, half) + half) / h
        i0 = np.clip(np.floor(t).astype(int), 0, n - 2)
        frac = t - i0
        i1 = i0 + 1
    if grid.dim == 1:
        v = flat[:, i0[0]] * (1.0 - frac[0]) + flat[:, i1[0]] * frac[0]
    else:
        f0, f1 = frac[0], frac[1]
        v = (
            flat[:, i0[0], i0[1]] * (1.0 - f0) * (1.0 - f1)
            + flat[:, i1[0], i0[1]] * f0 * (1.0 - f1)
            + flat[:, i0[0], i1[1]] * (1.0 - f0) * f1
            + flat[:, i1[0], i1[1]] * f0 * f1
        )
    return v.reshape(lead + pos.shape[1:])


@pytest.mark.parametrize("topology", ["torus", "box"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_flat_index_gather_is_bitwise_fancy_index(topology, dim, lead):
    grid = Grid(dim, topology, 17, extent=1.0 if topology == "torus" else 2.0)
    rng = substream(9, f"gather-{topology}-{dim}")
    values = rng.normal(size=lead + grid.shape)
    half = grid.half_extent
    nodes = grid.coordinates().reshape(dim, -1)
    # the last cell, where the box clips i0 to n - 2, and both ends of the box
    last_cell = np.full((dim, 3), half - 0.25 * grid.spacing)
    last_cell[:, 1] = half
    ends = np.stack([np.full(dim, -half), np.full(dim, half)], axis=1)
    inside = rng.uniform(-half, half, size=(dim, 40))
    pos = np.concatenate([nodes, last_cell, ends, inside], axis=1)
    if topology == "torus":
        pos = np.concatenate([pos, rng.uniform(-3.0, 3.0, size=(dim, 40))], axis=1)
    pos = pos.reshape((dim, 2, -1))
    got = sample_array(values, grid, pos)
    assert got.shape == lead + pos.shape[1:]
    assert np.array_equal(got, fancy_index_sample_oracle(values, grid, pos))
    if topology == "box":
        # roundoff beyond +-L is clamped, anything larger raises
        edge = np.full((dim, 1), half + 1e-12)
        assert np.array_equal(
            sample_array(values, grid, edge), fancy_index_sample_oracle(values, grid, edge)
        )
        with pytest.raises(OutOfDomainError):
            sample_array(values, grid, np.full((dim, 1), half + 1e-6))


@pytest.mark.parametrize("topology", ["torus", "box"])
@pytest.mark.parametrize("dim", [1, 2])
def test_sample_derivative_is_exact_on_bilinear_data(topology, dim):
    # on a cell whose corners do not wrap, the interpolant of bilinear (in
    # 1-D linear) nodal data is that function, so its derivative is exact
    grid = Grid(dim, topology, 17, extent=1.0 if topology == "torus" else 2.0)
    rng = substream(10, f"slope-{topology}-{dim}")
    c = rng.normal(size=(4, 2, 1))  # two components, as a displacement has

    def bilinear(x):
        if dim == 1:
            return c[0] + c[1] * x[0]
        return c[0] + c[1] * x[0] + c[2] * x[1] + c[3] * x[0] * x[1]

    def gradient(x):
        if dim == 1:
            return (c[1] + 0.0 * x[0])[None]
        return np.stack([c[1] + c[3] * x[1], c[2] + c[3] * x[0]])

    ax = grid.axis_coordinates()
    # the torus's last cell wraps to the first node; nodes and box ends included
    hi = ax[-2] if topology == "torus" else ax[-1]
    nodes = np.stack(np.meshgrid(*[ax[ax <= hi]] * dim, indexing="ij")).reshape(dim, -1)
    pos = np.concatenate([nodes, rng.uniform(ax[0], hi, size=(dim, 40))], axis=1)
    values = bilinear(grid.coordinates().reshape(dim, -1)).reshape((2,) + grid.shape)
    got, slope = sample_array(values, grid, pos, derivative=True)
    assert np.array_equal(got, sample_array(values, grid, pos))
    assert slope.shape == (dim, 2, pos.shape[1])
    assert np.max(np.abs(got - bilinear(pos))) <= 1e-13
    assert np.max(np.abs(slope - gradient(pos))) <= 1e-12


def test_vector_field_sampling_shape(torus16):
    v = band_limited_vector(torus16, substream(8, "vs"), modes=2, amplitude=1.0)
    pts = np.zeros((2, 5))
    out = sample_array(v.components, torus16, pts)
    assert out.shape == (2, 5)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("kind", ["scalar", "density", "vector", "sym_tensor"])
def test_json_round_trip_bitwise(kind, torus16):
    """A displacement built from a field of each kind survives the wire format bit for bit.

    scalar: the gradient of a potential; density: the gradient of log rho;
    vector: a band-limited field; sym_tensor: the row divergence of a tensor.
    """
    rng = substream(17, f"ser-{kind}")
    if kind == "scalar":
        u = 1e-3 * gradient_array(band_limited_scalar(torus16, rng, 3, 0.7).values, torus16)
    elif kind == "density":
        rho = DensityField(torus16, np.exp(band_limited_scalar(torus16, rng, 3, 0.5).values))
        u = 1e-3 * gradient_array(np.log(rho.values), torus16)
    elif kind == "vector":
        u = band_limited_vector(torus16, rng, modes=3, amplitude=0.005).components
    else:
        comps = np.stack([band_limited_scalar(torus16, rng, 3, 0.7).values for _ in range(3)])
        full = packed_to_full(SymTensorField(torus16, comps).components, torus16.dim)
        u = 1e-3 * np.stack([divergence_array(row, torus16) for row in full])
    phi = DisplacementMap(VectorField(torus16, u))
    text = field_to_json(phi.displacement, phi.collar_width)
    back = field_from_json(text)
    assert isinstance(back, DisplacementMap)
    assert np.array_equal(back.displacement.components, u)
    assert back.grid == phi.grid and back.collar_width == 0
    assert field_to_json(back.displacement, back.collar_width) == text


def test_data_json_matches_per_element_format_oracle():
    from metricflow.serialization import _data_json

    special = [
        -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e17, 1e300, -1e300, 1e-300, -1e-300,
        0.1, 1.0 / 3.0, np.pi, 2.0**53, 2.0**53 + 2.0, 7.0, -42.0, 123456789.0,
        1.7976931348623157e308, 2.2250738585072014e-308,
    ]
    normals = np.random.default_rng(29).normal(size=10_000)  # blocks of 4,096 and a partial one
    for values in (np.array(special), normals, normals.reshape(2, 50, 100), np.arange(-50.0, 50.0)):
        oracle = "[" + ", ".join(format(float(x), ".17g") for x in values.ravel()) + "]"
        assert _data_json(values) == oracle
    assert _data_json(np.zeros(0)) == "[]"


def test_json_format_shape(torus16):
    phi = DisplacementMap(VectorField.constant(torus16, (np.pi, 0.0)))
    obj = json.loads(field_to_json(phi.displacement, phi.collar_width))
    assert list(obj) == ["grid", "kind", "collar_width", "data"]
    assert obj["kind"] == "displacement"
    assert obj["grid"]["topology"] == "torus"
    assert len(obj["data"]) == torus16.dim * torus16.node_count
    # 17 significant digits round-trip the double exactly
    assert obj["data"][0] == np.pi
    # the wire format holds displacement maps only
    with pytest.raises(ValueError, match="unknown field kind 'scalar'"):
        field_from_json(json.dumps({**obj, "kind": "scalar"}))


def test_json_displacement_collar():
    grid = Grid(2, "box", 16, extent=2.0)
    phi = DisplacementMap.identity(grid, collar_width=3)
    back = field_from_json(field_to_json(phi.displacement, phi.collar_width))
    assert isinstance(back, DisplacementMap)
    assert back.collar_width == 3


def test_dumps_result_round_trips_and_rejects_non_finite():
    from metricflow.serialization import dumps_result

    payload = {"b": [1, 2.5, None, True], "a": {"x": np.float64(0.1), "name": "ok"}}
    assert json.loads(dumps_result(payload)) == {
        "a": {"name": "ok", "x": 0.1},
        "b": [1, 2.5, None, True],
    }
    with pytest.raises(ValueError, match=r"^result a is inf"):
        dumps_result({"a": float("inf")})
    # the first offender in output order (sorted keys) is named by its full path
    bad = {"results": {"values": [0.5, np.float64(np.nan), -np.inf]}, "z": float("inf")}
    with pytest.raises(ValueError, match=r"^result results\.values\[1\] is nan"):
        dumps_result(bad)
    with pytest.raises(ValueError, match=r"^result \(top level\) is -inf"):
        dumps_result(-np.inf)
