"""Relative-entropy-type divergences on metric and density fields.

Pointwise integrands, with A = g1^{-1} g0 and r = vol(g0)/vol(g1):

    kl_met:     (1/2) (tr A - 2 log r - d)            integrated vs vol(g1)
    shape:      (1/2) (tr A - d r^(2/d))              integrated vs vol(g1)
    tilde_kl:   (2/d) KL(vol g0 || vol g1) + shape
    classical KL on densities:  Int log(r0/r1) r0 + Int r1 - Int r0
    density projection:         Int f_d(r0/r1) r1,
                                f_d(r) = (1/2)(d r^(2/d) - 2 log r - d)
    itakura_saito:              Int (r - log r - 1) r1   (= f_2 projection)

Every kind is nonnegative and vanishes only on equal arguments (AM-GM /
s - log s - 1 >= 0 nodewise); the mixed second variation across the diagonal
of the metric kinds recovers half the source-term inner product, which the
probe below measures by central differences with Richardson extrapolation.

The kernels evaluate stacks of pairs with a leading pair axis:
``divergence_stack`` (every kind), ``eigenvalue_gap_stack`` and
``density_ratio_gap_stack`` return one value per pair, with the same
arithmetic, bit for bit, as a pair on its own.  The typed function
``divergence`` is a one-pair call of ``divergence_stack``, and the
second-variation probe evaluates its four shifted pairs per step as one
stack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fields import (
    DensityField,
    VectorField,
    integrate_array,
    require_finite,
    require_same_grid,
)
from .randomfields import band_limited_scalar, band_limited_vector
from .tensors import (
    DisplacementMap,
    MetricField,
    eigenvalues_2x2,
    packed_det,
    packed_volume,
    pushforward_metric,
    relative_trace,
)
from .transport import ebin_inner, wasserstein_orbit_norm

RATIO_FLOOR = 1e-300


class DivergenceKind(Enum):
    KL_MET = "kl_met"
    SHAPE = "shape"
    TILDE_KL_MET = "tilde_kl_met"
    KL_DENSITY_FD = "kl_density_fd"
    CLASSICAL_KL = "classical_kl"
    ITAKURA_SAITO = "itakura_saito"


METRIC_KINDS = (DivergenceKind.KL_MET, DivergenceKind.SHAPE, DivergenceKind.TILDE_KL_MET)
DENSITY_KINDS = (
    DivergenceKind.KL_DENSITY_FD,
    DivergenceKind.CLASSICAL_KL,
    DivergenceKind.ITAKURA_SAITO,
)


def _safe_ratio(num, den):
    ratio = num / den
    if np.any(ratio < RATIO_FLOOR):
        warnings.warn(
            "density ratio clamped at 1e-300 before log/pow evaluation",
            RuntimeWarning,
            stacklevel=3,
        )
        ratio = np.maximum(ratio, RATIO_FLOOR)
    return ratio


def _log_gap(r):
    """r - log r - 1 nodewise: nonnegative, and zero exactly at r = 1."""
    return r - np.log(r) - 1.0


def burg_generator(r, dim):
    """f_d(r) = (1/2)(d r^(2/d) - 2 log r - d); f_2(r) = r - log r - 1."""
    return 0.5 * (dim * r ** (2.0 / dim) - 2.0 * np.log(r) - dim)


def divergence_stack(kind: DivergenceKind, grid, a, b):
    """One divergence per pair of a stack; the pair axis leads.

    Metric kinds take packed metric components of shape (P, C) + grid.shape,
    density kinds density values of shape (P,) + grid.shape; both arguments
    must hold valid fields (SPD, positive, finite), as the typed fields
    check.  Returns the P values.
    """
    kind = DivergenceKind(kind)
    d = grid.dim
    if kind in METRIC_KINDS:
        # component axis first, as the tensor kernels take it
        c0, c1 = a.swapaxes(0, 1), b.swapaxes(0, 1)
        vol0 = require_finite(packed_volume(c0, d))
        vol1 = require_finite(packed_volume(c1, d))
        r = _safe_ratio(vol0, vol1)
        tr = relative_trace(c1, c0, d)
        if kind is DivergenceKind.KL_MET:
            return integrate_array(require_finite(0.5 * (tr - 2.0 * np.log(r) - d)) * vol1, grid)
        shape = integrate_array(require_finite(0.5 * (tr - d * r ** (2.0 / d))) * vol1, grid)
        if kind is DivergenceKind.SHAPE:
            return shape
        # TILDE_KL_MET: (2/d) KL(vol g0 || vol g1) + shape
        kl = integrate_array(require_finite(np.log(r) * vol0 + vol1 - vol0), grid)
        return (2.0 / d) * kl + shape

    r = _safe_ratio(a, b)
    if kind is DivergenceKind.KL_DENSITY_FD:
        return integrate_array(require_finite(burg_generator(r, d)) * b, grid)
    if kind is DivergenceKind.CLASSICAL_KL:
        return integrate_array(require_finite(np.log(r) * a + b - a), grid)
    # ITAKURA_SAITO
    return integrate_array(require_finite(_log_gap(r)) * b, grid)


def divergence(kind: DivergenceKind, a, b) -> float:
    """Evaluate one divergence; metric kinds take metrics, density kinds densities."""
    kind = DivergenceKind(kind)
    grid = require_same_grid(a, b)
    metric = kind in METRIC_KINDS
    field = MetricField if metric else DensityField
    if not isinstance(a, field) or not isinstance(b, field):
        raise TypeError(f"{kind.value} compares {field.__name__}s")
    pair = [(f.components if metric else f.values)[None] for f in (a, b)]
    return float(divergence_stack(kind, grid, *pair)[0])


def conformal_lift(rho0: DensityField, g1: MetricField) -> MetricField:
    """The metric (rho0/vol(g1))^(2/d) g1, the optimal lift of (rho0, vol(g1)).

    The infimum of the metric divergence over lifts with prescribed volumes,
    inf {KL_MET(g0 || g1) : vol(g0) = rho0}, is attained exactly at this
    conformal pair, where it equals the density projection
    ``divergence(KL_DENSITY_FD, rho0, vol(g1))``; d is the grid dimension.
    """
    grid = require_same_grid(rho0, g1)
    factor = (rho0.values / packed_volume(g1.components, grid.dim)) ** (2.0 / grid.dim)
    return MetricField(grid, factor * g1.components)


def _pair_minima(values):
    """Minimum per pair over every axis but the leading pair axis."""
    return np.min(values.reshape(len(values), -1), axis=1)


def eigenvalue_gap_stack(dim, g0, g1):
    """min over nodes and eigenvalues of (lambda - log lambda - 1) for g1^{-1} g0, per pair.

    g0 and g1 are metric stacks (P, C) + shape; zero exactly on equal
    metrics.  The quantity the nonnegativity sweep logs.
    """
    c0, c1 = g0.swapaxes(0, 1), g1.swapaxes(0, 1)
    tr = relative_trace(c1, c0, dim)
    det = packed_det(c0, dim) / packed_det(c1, dim)
    lams = tr[None] if dim == 1 else np.stack(eigenvalues_2x2(tr, det))
    lams = np.maximum(lams, RATIO_FLOOR)
    return _pair_minima(_log_gap(lams).swapaxes(0, 1))


def density_ratio_gap_stack(rho0, rho1):
    """min over nodes of (r - log r - 1), r = rho0/rho1, per pair of density value stacks.

    Zero exactly on equal densities; the density kinds' counterpart of
    ``eigenvalue_gap_stack``.
    """
    return _pair_minima(_log_gap(rho0 / rho1))


# ---------------------------------------------------------------------------
# second-variation probe


def _shifted(g: MetricField, h, s) -> MetricField:
    return MetricField(g.grid, g.components + s * h.components)


def second_variation_probe(kind: DivergenceKind, g: MetricField, h, k, step=1e-2):
    """Mixed second difference of D(g+sh || g+tk) across the diagonal.

    Returns (mixed_second, ebin_half, richardson): the centered estimate at
    the given step, half the source-term inner product Int tr(g^-1 h g^-1 k)
    vol(g) / 2, and the Richardson extrapolation from steps {step, step/2}.
    Probe metrics g +- step h, g +- step k must stay positive definite.
    """
    kind = DivergenceKind(kind)
    if kind not in (DivergenceKind.KL_MET, DivergenceKind.TILDE_KL_MET):
        raise ValueError("the second-variation probe applies to the metric divergences")
    half = step / 2.0
    if not 0.0 < half * half < np.inf:
        raise ValueError(
            f"second-variation step must be finite and large enough that (step/2)**2 > 0, "
            f"got {step!r}"
        )

    def mixed(s):
        # the four shifted metrics, checked in the order the pairs first use them
        hp, kp, km, hm = (_shifted(g, x, t) for x, t in ((h, s), (k, s), (k, -s), (h, -s)))
        a = np.stack([hp.components, hp.components, hm.components, hm.components])
        b = np.stack([kp.components, km.components, kp.components, km.components])
        dpp, dpm, dmp, dmm = divergence_stack(kind, g.grid, a, b)
        return float(-(dpp - dpm - dmp + dmm) / (4.0 * s * s))

    coarse = mixed(step)
    fine = mixed(step / 2.0)
    richardson = (4.0 * fine - coarse) / 3.0
    ebin_half = 0.5 * ebin_inner(g, h, k)
    return coarse, ebin_half, richardson


# ---------------------------------------------------------------------------
# static matching objective


@dataclass(frozen=True)
class StaticProblem:
    """Endpoints, balance weight and divergence choice of the static objective."""

    g0: MetricField
    g1: MetricField
    lambda_balance: float = 1.0
    kind: DivergenceKind = DivergenceKind.KL_MET

    def __post_init__(self):
        require_same_grid(self.g0, self.g1)
        if self.lambda_balance <= 0.0:
            raise ValueError("lambda_balance must be positive")
        if DivergenceKind(self.kind) not in (
            DivergenceKind.KL_MET,
            DivergenceKind.TILDE_KL_MET,
        ):
            raise ValueError("static objective uses the metric divergences")


def static_objective(problem: StaticProblem, gbar0: MetricField, phi: DisplacementMap) -> float:
    """lambda D(g0, gbar0) + straight-line transport cost + lambda D(phi_* gbar0, g1).

    The middle term is sqrt(Int |phi - id|^2 vol(gbar0)), the orbit energy
    (``wasserstein_orbit_norm``) of the displacement phi - id, exact for
    straight-line transport in the flat small-displacement regime; the orbit
    distance itself has no closed form.
    """
    lam = problem.lambda_balance
    term1 = divergence(problem.kind, problem.g0, gbar0)
    disp_sq = wasserstein_orbit_norm(gbar0, phi.displacement)
    pushed = pushforward_metric(phi, gbar0)
    term3 = divergence(problem.kind, pushed, problem.g1)
    return lam * term1 + float(np.sqrt(max(disp_sq, 0.0))) + lam * term3


@dataclass
class SearchTrace:
    values: list
    accepted: int


def static_local_search(problem: StaticProblem, rng, iters=20, modes=2):
    """Coordinate descent on (conformal factor of gbar0, displacement of phi).

    Alternates (i) line-searched steps of gbar0 along band-limited conformal
    directions with a finite-difference directional derivative and (ii) small
    band-limited displacement updates, accepting only decreases.  Every
    iteration draws its two directions from ``rng``, in order.  A baseline,
    not a solver: the returned value never exceeds the starting objective at
    (g0, id) nor any accepted iterate.
    """
    grid = problem.g0.grid
    gbar = problem.g0
    phi = DisplacementMap.identity(grid)
    best = static_objective(problem, gbar, phi)
    trace = SearchTrace(values=[best], accepted=0)

    for _ in range(iters):
        # (i) conformal step on gbar0
        xi = band_limited_scalar(grid, rng, modes=modes, amplitude=1.0).values
        eps = 1e-4
        plus = MetricField(grid, np.exp(eps * xi) * gbar.components)
        minus = MetricField(grid, np.exp(-eps * xi) * gbar.components)
        slope = (
            static_objective(problem, plus, phi) - static_objective(problem, minus, phi)
        ) / (2.0 * eps)
        step, sign = 0.25, -np.sign(slope)
        while step > 1e-4 and slope != 0.0:
            trial = MetricField(grid, np.exp(sign * step * xi) * gbar.components)
            val = static_objective(problem, trial, phi)
            if val < best:
                gbar, best = trial, val
                trace.accepted += 1
                break
            step /= 4.0
        trace.values.append(best)

        # (ii) displacement step on phi
        w = band_limited_vector(grid, rng, modes=modes, amplitude=1.0).components
        step = 0.05 * grid.spacing / max(1e-12, float(np.max(np.abs(w))))
        accepted = False
        for _ in range(4):
            for sign in (+1.0, -1.0):
                cand = phi.displacement.components + sign * step * w
                try:
                    trial_phi = DisplacementMap(
                        VectorField(grid, cand), collar_width=phi.collar_width
                    )
                    val = static_objective(problem, gbar, trial_phi)
                except ValueError:
                    continue
                if val < best:
                    phi, best = trial_phi, val
                    trace.accepted += 1
                    accepted = True
                    break
            if accepted:
                break
            step /= 2.0
        trace.values.append(best)

    return gbar, phi, best, trace
