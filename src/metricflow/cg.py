"""Matrix-free (preconditioned) conjugate gradient for SPD systems.

The caller provides the operator as a closure over ndarray unknowns of any
shape; symmetry and positive definiteness on the discrete space are the
caller's contract.  An optional preconditioner ``r -> M^-1 r`` turns the
loop into standard preconditioned CG (PCG); M must be symmetric positive
definite too, so that <r, M^-1 r> is an inner product and the iterates
minimize the energy over the Krylov spaces of M^-1 A.  Either way the stop
rule is on the true residual, ||A x - b||_2 <= tol ||b||_2.  The iteration
always starts from x = 0 (there is no initial-guess argument), which makes
the quadratic energy 1/2 <Ax, x> - <b, x> monotonically nonincreasing along
the iterates, which several competitor-bound checks in the test suite rely
on.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import SolverFailure


class CGResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float


def _identity(r):
    return r


def solve_spd(
    apply_operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CGResult:
    """Solve A x = rhs with ||A x - rhs||_2 <= tol * ||rhs||_2, starting from x = 0.

    ``precondition`` applies M^-1 for an SPD M; None is plain CG.  Raises
    SolverFailure (carrying the final residual) if the tolerance is not
    reached within max_iter iterations (default 10 * unknown count), and at
    once if p.Ap or the residual is not finite.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    b = np.asarray(rhs, dtype=float)
    if max_iter is None:
        max_iter = 10 * b.size
    norm_b = float(np.sqrt(np.vdot(b, b).real))
    if norm_b == 0.0:
        return CGResult(np.zeros_like(b), 0, 0.0)

    x = np.zeros_like(b)
    r = b.copy()
    res = norm_b
    if res <= tol * norm_b:
        return CGResult(x, 0, res)

    if precondition is None:
        precondition = _identity
    z = np.asarray(precondition(r), dtype=float)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    for k in range(1, max_iter + 1):
        ap = np.asarray(apply_operator(p), dtype=float)
        pap = float(np.vdot(p, ap).real)
        if not np.isfinite(pap):
            raise SolverFailure(
                f"operator returned a non-finite value (p.Ap={pap})",
                residual=res,
                iterations=k,
            )
        if pap <= 0.0:
            raise SolverFailure(
                f"operator is not positive definite along a search direction (p.Ap={pap})",
                residual=res,
                iterations=k,
            )
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.vdot(r, r).real)
        res = float(np.sqrt(rs_new))
        if not np.isfinite(res):
            raise SolverFailure(
                f"residual became non-finite at iteration {k}", residual=res, iterations=k
            )
        if res <= tol * norm_b:
            return CGResult(x, k, res)
        z = np.asarray(precondition(r), dtype=float)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverFailure(
        f"conjugate gradient did not converge in {max_iter} iterations "
        f"(residual {res:.3e}, target {tol * norm_b:.3e})",
        residual=res,
        iterations=max_iter,
    )
