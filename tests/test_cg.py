"""Conjugate gradient against trivial systems and a dense direct-solve oracle."""

import numpy as np
import pytest

from metricflow import DensityField, Grid, SolverConfig, SolverFailure, solve_spd
from metricflow.transport import wfr_normal_operator


def _screened(grid, eps):
    """u - eps lap u: the density normal operator at rho = 1, lam = eps."""
    return wfr_normal_operator(DensityField.constant(grid, 1.0), SolverConfig(lam=eps))


def test_identity_system_one_iteration():
    b = np.arange(1.0, 9.0)[None]
    res = solve_spd(lambda x: x, b, tol=1e-12)
    assert np.allclose(res.x, b)
    assert res.iterations == 1


def test_scaled_identity():
    b = np.linspace(-1, 1, 16)[None]
    res = solve_spd(lambda x: 2.0 * x, b, tol=1e-12)
    assert np.allclose(res.x, b / 2.0, atol=1e-14)


def test_zero_rhs_short_circuits():
    res = solve_spd(lambda x: x, np.zeros((1, 5)), tol=1e-12)
    assert res.iterations == 0
    assert np.all(res.x == 0.0)


def test_cg_matches_dense_direct_solve_oracle():
    # oracle: assemble the operator column by column on an 8x8 torus and
    # solve with LAPACK
    grid = Grid(2, "torus", 8)
    apply_op = _screened(grid, 0.05)
    n = grid.node_count
    dense = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        dense[:, j] = apply_op(e.reshape(grid.shape)).ravel()
    assert np.max(np.abs(dense - dense.T)) <= 1e-14

    rng = np.random.default_rng(123)
    b = rng.normal(size=grid.shape)
    expected = np.linalg.solve(dense, b.ravel()).reshape(grid.shape)
    res = solve_spd(apply_op, b[None], tol=1e-12)
    assert np.max(np.abs(res.x[0] - expected)) <= 1e-8


def test_nonconvergence_raises_with_residual():
    grid = Grid(2, "torus", 8)
    apply_op = _screened(grid, 1.0)
    b = np.random.default_rng(1).normal(size=grid.shape)
    with pytest.raises(SolverFailure) as err:
        solve_spd(apply_op, b[None], tol=1e-14, max_iter=2)
    assert err.value.residual is not None
    assert err.value.residual > 0


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        solve_spd(lambda x: x, np.ones((1, 3)), tol=0.0)


@pytest.mark.parametrize("shape", [(), (8,)])
def test_rhs_without_a_lane_axis_is_refused(shape):
    with pytest.raises(ValueError, match="lane axis"):
        solve_spd(lambda x: x, np.ones(shape), tol=1e-12)


def test_non_finite_operator_fails_at_first_iteration():
    b = np.ones((1, 512))
    with pytest.raises(SolverFailure) as err:
        solve_spd(lambda x: np.full_like(x, np.nan), b, tol=1e-12)
    assert err.value.iterations == 1


def test_overflowing_step_fails_fast():
    # positive definite, but so small that the step length rs / p.Ap overflows
    with pytest.raises(SolverFailure) as err:
        solve_spd(lambda x: 5e-324 * x, np.ones((1, 2)), tol=1e-12)
    assert err.value.iterations == 1


# ---------------------------------------------------------------------------
# preconditioned CG


def test_exact_preconditioner_one_iteration():
    d = np.linspace(1.0, 50.0, 64)
    b = np.random.default_rng(2).normal(size=(1, 64))
    res = solve_spd(lambda x: d * x, b, tol=1e-12, precondition=lambda r: r / d)
    assert res.iterations == 1
    assert np.max(np.abs(res.x - b / d)) <= 1e-14


def _variable_screened(grid):
    # screened Laplacian with a rough positive coefficient, and the SPD
    # Jacobi-like scaling by that coefficient as the preconditioner
    lap = _screened(grid, 0.05)
    w = np.exp(np.random.default_rng(8).normal(size=grid.shape))
    return (lambda x: w * x + lap(x)), (lambda r: r / (w + 1.0))


def test_pcg_matches_dense_direct_solve_oracle():
    grid = Grid(2, "torus", 8)
    apply_op, precondition = _variable_screened(grid)
    n = grid.node_count
    dense = np.stack([apply_op(e.reshape(grid.shape)).ravel() for e in np.eye(n)], axis=1)
    b = np.random.default_rng(9).normal(size=grid.shape)
    expected = np.linalg.solve(dense, b.ravel()).reshape(grid.shape)
    res = solve_spd(apply_op, b[None], tol=1e-12, precondition=precondition)
    assert np.max(np.abs(res.x[0] - expected)) <= 1e-8


def test_pcg_energy_never_rises_as_tol_tightens():
    grid = Grid(2, "torus", 16)
    apply_op, precondition = _variable_screened(grid)
    b = np.random.default_rng(10).normal(size=grid.shape)
    energies = []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        x = solve_spd(apply_op, b[None], tol=tol, precondition=precondition).x[0]
        energies.append(0.5 * float(np.vdot(apply_op(x), x)) - float(np.vdot(b, x)))
    # slack: the roundoff of evaluating the energy itself, not of the iterates
    assert all(
        later <= earlier + 1e-13 * abs(earlier) for earlier, later in zip(energies, energies[1:])
    )


# ---------------------------------------------------------------------------
# lanes


def test_iterations_is_a_plain_int():
    # the benchmark tracer writes it with json.dump and sums it
    b = np.random.default_rng(3).normal(size=(3, 16))
    for res in (
        solve_spd(lambda x: 2.0 * x, b[:1], tol=1e-12),
        solve_spd(lambda x: 2.0 * x, b, tol=1e-12),
        solve_spd(lambda x: x, np.zeros((2, 4)), tol=1e-12),
    ):
        assert type(res.iterations) is int
        assert type(res.residual) is float
        assert res.iterations == max(res.lane_iterations)


def test_lanes_of_a_diagonal_system_stop_on_their_own():
    # CG on diag(d) needs one iteration per distinct eigenvalue the
    # right-hand side touches: 1, 2 and 4 here, and 0 for the zero lane
    d = np.repeat([1.0, 2.0, 3.0, 4.0], 4)
    b = np.zeros((4, 16))
    b[0, :4] = 1.0
    b[1, :8] = np.linspace(1.0, 2.0, 8)
    b[2] = np.cos(np.arange(16.0))
    res = solve_spd(lambda x: d * x, b, tol=1e-12)
    assert res.lane_iterations == (1, 2, 4, 0)
    assert res.iterations == 4
    assert np.max(np.abs(res.x[:3] - b[:3] / d)) <= 1e-12
    assert not np.any(res.x[3])


@pytest.mark.parametrize("where", ["rhs", "overflowing rhs", "operator"])
def test_non_finite_lane_fails_at_first_iteration_and_is_named(where):
    b = np.ones((3, 64))
    scale = np.ones((3, 1))
    if where == "rhs":
        b[1, 5] = np.nan
    elif where == "overflowing rhs":
        # finite entries whose norm overflows: inf <= tol * inf must not
        # count the lane as solved by x = 0
        b[1] = 1e200
    else:
        scale[1] = np.nan
    with pytest.raises(SolverFailure, match="^lane 1: operator returned a non-finite") as err:
        solve_spd(lambda x: scale[: len(x)] * x, b, tol=1e-12)
    assert err.value.iterations == 1
    assert err.value.lane == 1


def test_indefinite_lane_is_named():
    sign = np.array([[1.0], [1.0], [-1.0]])
    with pytest.raises(SolverFailure, match="^lane 2: operator is not positive definite") as err:
        solve_spd(lambda x: sign * x, np.ones((3, 8)), tol=1e-12)
    assert err.value.iterations == 1
    assert err.value.lane == 2


def test_pcg_lane_energies_never_rise_as_tol_tightens():
    grid = Grid(2, "torus", 16)
    apply_op, precondition = _variable_screened(grid)
    b = np.random.default_rng(11).normal(size=(3,) + grid.shape)
    energies = []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        x = solve_spd(apply_op, b, tol=tol, precondition=precondition).x
        ax = apply_op(x)
        energies.append([0.5 * np.vdot(a, xl) - np.vdot(bl, xl) for a, xl, bl in zip(ax, x, b)])
    for lane in zip(*energies):
        pairs = zip(lane, lane[1:])
        assert all(later <= earlier + 1e-13 * abs(earlier) for earlier, later in pairs)
