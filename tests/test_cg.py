"""Conjugate gradient against trivial systems and a dense direct-solve oracle."""

import numpy as np
import pytest

from metricflow import Grid, SolverFailure, solve_spd
from metricflow.certificates import screened_laplacian


def test_identity_system_one_iteration():
    b = np.arange(1.0, 9.0)
    res = solve_spd(lambda x: x, b, tol=1e-12)
    assert np.allclose(res.x, b)
    assert res.iterations == 1


def test_scaled_identity():
    b = np.linspace(-1, 1, 16)
    res = solve_spd(lambda x: 2.0 * x, b, tol=1e-12)
    assert np.allclose(res.x, b / 2.0, atol=1e-14)


def test_zero_rhs_short_circuits():
    res = solve_spd(lambda x: x, np.zeros(5), tol=1e-12)
    assert res.iterations == 0
    assert np.all(res.x == 0.0)


def test_cg_matches_dense_direct_solve_oracle():
    # oracle: assemble the operator column by column on an 8x8 torus and
    # solve with LAPACK
    grid = Grid(2, "torus", 8)
    apply_op = screened_laplacian(grid)
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
    res = solve_spd(apply_op, b, tol=1e-12)
    assert np.max(np.abs(res.x - expected)) <= 1e-8


def test_nonconvergence_raises_with_residual():
    grid = Grid(2, "torus", 8)
    apply_op = screened_laplacian(grid, eps=1.0)
    b = np.random.default_rng(1).normal(size=grid.shape)
    with pytest.raises(SolverFailure) as err:
        solve_spd(apply_op, b, tol=1e-14, max_iter=2)
    assert err.value.residual is not None
    assert err.value.residual > 0


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        solve_spd(lambda x: x, np.ones(3), tol=0.0)


def test_non_finite_operator_fails_at_first_iteration():
    b = np.ones(512)
    with pytest.raises(SolverFailure) as err:
        solve_spd(lambda x: np.full_like(x, np.nan), b, tol=1e-12)
    assert err.value.iterations == 1


def test_overflowing_step_fails_fast():
    # positive definite, but so small that the step length rs / p.Ap overflows
    with pytest.raises(SolverFailure) as err:
        solve_spd(lambda x: 5e-324 * x, np.ones(2), tol=1e-12)
    assert err.value.iterations == 1


# ---------------------------------------------------------------------------
# preconditioned CG


def test_exact_preconditioner_one_iteration():
    d = np.linspace(1.0, 50.0, 64)
    b = np.random.default_rng(2).normal(size=64)
    res = solve_spd(lambda x: d * x, b, tol=1e-12, precondition=lambda r: r / d)
    assert res.iterations == 1
    assert np.max(np.abs(res.x - b / d)) <= 1e-14


def _variable_screened(grid):
    # screened Laplacian with a rough positive coefficient, and the SPD
    # Jacobi-like scaling by that coefficient as the preconditioner
    lap = screened_laplacian(grid)
    w = np.exp(np.random.default_rng(8).normal(size=grid.shape))
    return (lambda x: w * x + lap(x)), (lambda r: r / (w + 1.0))


def test_pcg_matches_dense_direct_solve_oracle():
    grid = Grid(2, "torus", 8)
    apply_op, precondition = _variable_screened(grid)
    n = grid.node_count
    dense = np.stack([apply_op(e.reshape(grid.shape)).ravel() for e in np.eye(n)], axis=1)
    b = np.random.default_rng(9).normal(size=grid.shape)
    expected = np.linalg.solve(dense, b.ravel()).reshape(grid.shape)
    res = solve_spd(apply_op, b, tol=1e-12, precondition=precondition)
    assert np.max(np.abs(res.x - expected)) <= 1e-8


def test_pcg_energy_never_rises_as_tol_tightens():
    grid = Grid(2, "torus", 16)
    apply_op, precondition = _variable_screened(grid)
    b = np.random.default_rng(10).normal(size=grid.shape)
    energies = []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        x = solve_spd(apply_op, b, tol=tol, precondition=precondition).x
        energies.append(0.5 * float(np.vdot(apply_op(x), x)) - float(np.vdot(b, x)))
    # slack: the roundoff of evaluating the energy itself, not of the iterates
    assert all(
        later <= earlier + 1e-13 * abs(earlier) for earlier, later in zip(energies, energies[1:])
    )
