"""Computational checks of the submersion identities and the H^1 fiber form.

The main check: for a density tangent (vol(g), drho), the minimizing
transport/growth pair (v, f) lifts to the metric tangent

    dg = -L_v g + (2 f / d) g,

whose metric tangent norm reproduces the density tangent norm, and any
volume-neutral (g-trace-free) perturbation of the lift can only increase it.
``optimal_lift`` is the one path to the lift: ``verify_pi1_submersion`` takes
the lift and the density norm from it.  Both sides are computed by
independent solvers, so the gap is a genuine solver-vs-solver measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    SymTensorField,
    VectorField,
    gradient_array,
    integrate,
    integrate_array,
    require_same_grid,
)
from .tensors import (
    MetricField,
    lie_derivative_metric,
    trace_decompose,
    volume_map,
)
from .transport import (
    SolverConfig,
    we_tangent_norms,
    wfr_tangent_norm,
)
from .randomfields import band_limited_sym_tensor


def optimal_lift(g: MetricField, drho, cfg: SolverConfig = SolverConfig()):
    """Horizontal lift of a density tangent through the volume map.

    Solves the density tangent-norm problem at (vol(g), drho) for the
    minimizers (v, f) and returns ``(dg, result)``: the lift
    dg = -L_v g + (2 f / dim) g and the ``NormResult`` solved, whose value
    is the density norm and whose v and source are the minimizers v and f.  The
    volume tangent of dg reproduces drho up to O(spacing^2) (the finite
    difference defect between div(rho v) and (1/2) tr(g^-1 L_v g) vol(g)).
    ``verify_pi1_submersion`` checks the submersion through this lift.
    """
    require_same_grid(g, drho)
    res = wfr_tangent_norm(volume_map(g), drho, cfg)
    lie = lie_derivative_metric(res.v, g)
    scale = (2.0 / g.grid.dim) * res.source.values
    return SymTensorField(g.grid, -lie.components + scale * g.components), res


# A volume-neutral perturbation of the lift may fall below the density norm
# by at most this much (solver tolerance), or the submersion check fails.
LIFT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class LiftReport:
    """Result of one submersion check.

    gap = metric-norm of the optimal lift minus the density norm;
    perturbation_gaps are the same differences for volume-neutral
    perturbations of the lift and may not fall below -LIFT_TOLERANCE.
    """

    wfr_value: float
    we_value_of_lift: float
    perturbation_gaps: tuple

    @property
    def gap(self):
        return self.we_value_of_lift - self.wfr_value

    def __post_init__(self):
        if any(p < -LIFT_TOLERANCE for p in self.perturbation_gaps):
            worst = min(self.perturbation_gaps)
            raise ValueError(
                f"a perturbed lift fell below the density norm by {-worst:.3e} "
                f"(tolerance {LIFT_TOLERANCE:.1e}): submersion inequality violated"
            )


def trace_free_perturbation(g: MetricField, rng, amplitude=0.2) -> SymTensorField:
    """Smooth band-limited tensor made exactly g-trace-free (volume neutral).

    Its band is 4 modes, or the most the grid resolves (n_per_axis // 4) when
    that is fewer.
    """
    modes = min(4, g.grid.n_per_axis // 4)
    raw = band_limited_sym_tensor(g.grid, rng, modes=modes, amplitude=amplitude)
    z, _ = trace_decompose(g, raw)
    return z


def verify_pi1_submersion(
    g: MetricField, drho, rngs, cfg: SolverConfig = SolverConfig()
) -> LiftReport:
    """Check the density norm against the metric norm of the optimal lift.

    Equality of infima is certified one-sidedly: the lift is explicit, and
    one random trace-free perturbation of it per generator in ``rngs``
    (amplitude 0.2; exactly fiber tangent, independent of finite-difference
    error) must not beat the density norm by more than LIFT_TOLERANCE
    (1e-8).  The full infimum over all lifts is not checkable.  The lift and
    the density norm come from ``optimal_lift``; the lift and its
    perturbations are the len(rngs) + 1 lanes of one metric-norm solve at g.
    """
    dg, wfr = optimal_lift(g, drho, cfg)
    tangents = [dg]
    for rng in rngs:
        z = trace_free_perturbation(g, rng)
        tangents.append(SymTensorField(g.grid, dg.components + z.components))
    we, *perturbed = (res.value for res in we_tangent_norms(g, tangents, cfg))
    return LiftReport(
        wfr_value=wfr.value,
        we_value_of_lift=we,
        perturbation_gaps=tuple(value - wfr.value for value in perturbed),
    )


def euler_alpha_lagrangian(v: VectorField, stencil_order=4):
    """Kinetic and gradient-penalty terms of the flat-background fiber form.

    Returns (trace_form, def_form, kinetic):

        trace_form = (1/4) Int tr((L_v g0)^2),   g0 = I,
        def_form   = Int |Def v|^2,   Def(v)_ij = (d_i v_j + d_j v_i) / 2,
        kinetic    = Int |v|^2.

    Both quadratic forms are assembled from the same derivative arrays, so
    their agreement (asserted to 1e-10) is an algebraic identity of the
    discretization.  The default fourth-order stencil resolves the trig
    benchmark at 64 nodes to ~1e-4; pass stencil_order=2 for the plain
    second-order calculus.
    """
    grid = v.grid
    if grid.topology != "torus":
        raise ValueError("flat-background fiber form is evaluated on torus grids")
    dv = gradient_array(v.components, grid, stencil_order)  # dv[i, j] = d_i v_j
    lie = dv + np.swapaxes(dv, 0, 1)
    trace_sq = np.einsum("ij...,ji...->...", lie, lie)
    trace_form = 0.25 * float(integrate_array(trace_sq, grid))
    deformation = 0.5 * lie
    def_form = float(integrate_array(np.sum(deformation**2, axis=(0, 1)), grid))
    kinetic = integrate(v.euclidean_square())
    if abs(trace_form - def_form) > 1e-10 * (1.0 + abs(def_form)):
        raise AssertionError(
            f"trace and deformation forms disagree: {trace_form} vs {def_form}"
        )
    return trace_form, def_form, kinetic
