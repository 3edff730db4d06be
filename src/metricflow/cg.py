"""Matrix-free (preconditioned) conjugate gradient for SPD systems, in lanes.

The caller provides the operator as a closure over ndarray unknowns of any
shape; symmetry and positive definiteness on the discrete space are the
caller's contract.  An optional preconditioner ``r -> M^-1 r`` turns the
loop into standard preconditioned CG (PCG); M must be symmetric positive
definite too, so that <r, M^-1 r> is an inner product and the iterates
minimize the energy over the Krylov spaces of M^-1 A.  Either way the stop
rule ||r_k||_2 <= tol ||b||_2 is on the recursively updated residual
r_k = r_(k-1) - alpha_k A p_k, not on a recomputed ||A x_k - b||_2; the two
are equal in exact arithmetic, and for both tangent norms at n = 16 and 32
(tol 1e-10 and 1e-12) they agree to within 1 %, as
``test_transport.py::test_recursive_cg_residual_matches_the_true_residual``
checks (measured: within 1.5e-4 for the metric norm, 6e-5 for the density
norm).  The iteration always starts from x = 0 (there is no initial-guess
argument), which makes the quadratic energy 1/2 <Ax, x> - <b, x>
monotonically nonincreasing along the iterates, which several
competitor-bound checks in the test suite rely on.

Lanes.  ``solve_spd`` solves L independent systems that share the operator
and the preconditioner: the right-hand side has shape (L,) + shape, and
``apply_operator`` and ``precondition`` take and return arrays of shape
(m,) + shape, lane by lane, for the m lanes still iterating.  Every lane has
its own step length, residual, stop rule and iteration count.  A lane that
meets its tolerance is frozen: it leaves the stack, so it stops at exactly
the iteration its one-lane solve would, with the iterate its one-lane solve
returns (the inner products are taken lane by lane, with ``np.vdot``).  A
single system is a one-lane call, ``rhs[None]``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import SolverFailure


class CGResult(NamedTuple):
    """Solution, iteration counts and final residuals.

    ``iterations`` is a Python int: the largest lane count, which is the
    number of operator applies; ``residual`` is the largest final residual.
    ``lane_iterations`` and ``lane_residuals`` hold the per-lane values.
    """

    x: np.ndarray
    iterations: int
    residual: float
    lane_iterations: tuple
    lane_residuals: tuple


def _identity(r):
    return r


def _lane_dots(a, b):
    """<a_l, b_l> for every lane l, each by one np.vdot."""
    return np.array([np.vdot(al, bl).real for al, bl in zip(a, b)])


def solve_spd(
    apply_operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float,
    max_iter: int | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CGResult:
    """Solve A x = rhs to ||r||_2 <= tol * ||rhs||_2, starting from x = 0.

    r is the recursively updated residual, equal to rhs - A x up to
    roundoff.  ``precondition`` applies M^-1 for an SPD M; None is plain
    CG.  The leading axis of rhs and of the returned x indexes independent
    systems (module docstring), so rhs needs at least two axes (ValueError
    otherwise); a zero lane returns x = 0 after 0 iterations.  Raises
    SolverFailure (carrying the final residual) if a lane does not reach the
    tolerance within max_iter iterations (default 10 * unknowns per lane),
    and at once if a lane's p.Ap or residual is not finite or p.Ap <= 0 (a
    lane whose norm is not finite iterates, and so fails at iteration 1);
    the error's ``lane`` is the lane's index, and with more than one lane
    the message names it too.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    b = np.asarray(rhs, dtype=float)
    if b.ndim < 2:
        raise ValueError(f"rhs must have a lane axis and a system axis, got shape {b.shape}")
    n_lanes = b.shape[0]
    if max_iter is None:
        max_iter = 10 * (b[0].size if n_lanes else 0)
    if precondition is None:
        precondition = _identity

    def result():
        return CGResult(
            x,
            int(iters.max(initial=0)),
            float(res.max(initial=0.0)),
            tuple(int(k) for k in iters),
            tuple(float(s) for s in res),
        )

    def fail(message, lane, k):
        where = f"lane {lane}: " if n_lanes > 1 else ""
        return SolverFailure(where + message, residual=float(res[lane]), iterations=k, lane=lane)

    def guard(bad, values, k, template):
        """Fail on the first live lane flagged by ``bad``; {} is its value."""
        if np.any(bad):
            j = int(np.argmax(bad))
            raise fail(template.format(float(values[j])), int(live[j]), k)

    x = np.zeros_like(b)
    norm_b = np.sqrt(_lane_dots(b, b))
    target = tol * norm_b
    res = norm_b.copy()
    iters = np.zeros(n_lanes, dtype=int)
    # zero lanes are solved by x = 0; non-finite lanes iterate, and fail at once
    live = np.flatnonzero(~(np.isfinite(res) & (res <= target)))
    if live.size == 0:
        return result()

    unit = (-1,) + (1,) * (b.ndim - 1)
    r = b[live]
    xs = np.zeros_like(r)
    z = np.asarray(precondition(r), dtype=float)
    p = z.copy()
    rz = _lane_dots(r, z)
    for k in range(1, max_iter + 1):
        ap = np.asarray(apply_operator(p), dtype=float)
        pap = _lane_dots(p, ap)
        guard(~np.isfinite(pap), pap, k, "operator returned a non-finite value (p.Ap={})")
        guard(
            pap <= 0.0,
            pap,
            k,
            "operator is not positive definite along a search direction (p.Ap={})",
        )
        with np.errstate(over="ignore"):  # an infinite step fails the residual guard
            alpha = (rz / pap).reshape(unit)
        xs = xs + alpha * p
        r = r - alpha * ap
        lane_res = np.sqrt(_lane_dots(r, r))
        res[live] = lane_res
        iters[live] = k
        guard(~np.isfinite(lane_res), lane_res, k, f"residual became non-finite at iteration {k}")
        done = lane_res <= target[live]
        if done.any():
            x[live[done]] = xs[done]
            if done.all():
                return result()
            keep = ~done
            live, xs, r, p, rz = live[keep], xs[keep], r[keep], p[keep], rz[keep]
        z = np.asarray(precondition(r), dtype=float)
        rz_new = _lane_dots(r, z)
        p = z + (rz_new / rz).reshape(unit) * p
        rz = rz_new
    lane = int(live[0])
    raise fail(
        f"conjugate gradient did not converge in {max_iter} iterations "
        f"(residual {res[lane]:.3e}, target {target[lane]:.3e})",
        lane,
        max_iter,
    )
