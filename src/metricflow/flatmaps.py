"""Factorization of flat metrics on a box through a moving frame.

Given a 2D metric that is Euclidean in the FLAT_COLLAR = 2 boundary node
rings, take the pointwise square root s = sqrt(g); its rows form an
orthonormal coframe sigma with g = sigma^T sigma.  The rotation u(theta)
that makes u . sigma exact is then determined by the structure equations

    d sigma_1 = -omega ^ sigma_2,    d sigma_2 = omega ^ sigma_1,

a nodewise 2x2 linear solve for the connection 1-form omega.  Flatness
means d omega = 0, so theta with d theta = -omega is a line integral that
must not depend on the integration path; the map with d phi = u(theta) sigma,
normalized to the identity in the collar, satisfies dphi^T dphi = g.

Everything is one derivative and two cumulative trapezoid integrations, so
the reconstruction error is O(spacing^2); cross-order path disagreement is a
sharp computational flatness test and is checked at every stage.

Only d = 2 is handled: in one dimension the pullback orbit has codimension
two in the positive functions and no such factorization exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClosednessViolationError,
    FlatnessInconsistencyError,
    FrameDegeneracyError,
)
from .fields import BOX, Grid, ScalarField, SymTensorField, VectorField, diff_array, node_at
from .tensors import (
    DisplacementMap,
    MetricField,
    collar_mask,
    collar_max,
    displacement_jacobian,
    jacobian_gram,
    packed_det,
    sqrt_components,
)


FLAT_COLLAR = 2  # boundary node rings where the flat pipeline's metrics are Euclidean


@dataclass(frozen=True)
class FrameData:
    """Pointwise metric square root, connection 1-form omega and its curl."""

    s: SymTensorField
    omega: VectorField
    curvature_residual: ScalarField

    @property
    def grid(self):
        return self.s.grid

    def omega_max(self):
        return float(np.max(np.abs(self.omega.components)))

    def max_curvature(self):
        return float(np.max(np.abs(self.curvature_residual.values)))


def _require_flat_domain(grid: Grid):
    if grid.dim != 2:
        raise ValueError(
            "flat-metric factorization needs d >= 2; in one dimension the "
            "pullback orbit is a codimension-two subset of the positive "
            "functions and no frame construction applies (d = 1 rejected)"
        )
    if grid.topology != BOX:
        raise ValueError("flat-metric factorization runs on box grids")


def frame_and_connection(g: MetricField) -> FrameData:
    """Orthonormal coframe s = sqrt(g) and connection 1-form omega of a metric.

    Each derivative is one stencil call per axis on stacked components.
    """
    grid = g.grid
    _require_flat_domain(grid)
    s = sqrt_components(g.components, 2)
    # c_i = (d sigma_i)(e1, e2) with sigma_i = s_i1 dx1 + s_i2 dx2; s21 = s12
    c1, c2 = diff_array(s[1:], grid, 0) - diff_array(s[:2], grid, 1)
    # [-s22  s21; s12  -s11] [om1, om2]^T = [c1, c2]^T
    det = packed_det(s, 2)
    degenerate = np.abs(det) <= 1e-14 * (1.0 + np.abs(s[0]) + np.abs(s[2]))
    if np.any(degenerate):
        node = node_at(np.argmax(degenerate), grid.shape)
        raise FrameDegeneracyError(f"coframe is singular at node {node}")
    om = np.stack([-s[0] * c1 - s[1] * c2, -s[1] * c1 - s[2] * c2]) / det
    curl = diff_array(om[1], grid, 0) - diff_array(om[0], grid, 1)
    return FrameData(
        s=SymTensorField(grid, s),
        omega=VectorField(grid, om),
        curvature_residual=ScalarField(grid, curl),
    )


def _cumtrap(values, h, axis):
    """Cumulative trapezoid integral from index 0 along one axis."""
    a = np.moveaxis(values, axis, 0)
    out = np.zeros_like(a)
    out[1:] = np.cumsum(0.5 * (a[1:] + a[:-1]), axis=0) * h
    return np.moveaxis(out, 0, axis)


def path_independence_gap(form, grid):
    """(max gap, mean) of form[0] dx1 + form[1] dx2's corner potentials in both axis orders."""
    h = grid.spacing
    f1 = _cumtrap(form[0], h, 0)  # along x1 at each x2
    f2 = _cumtrap(form[1], h, 1)  # along x2 at each x1
    # corner -> (x1, corner) -> (x1, x2)
    pot_a = f1[:, 0][:, None] + f2
    # corner -> (corner, x2) -> (x1, x2)
    pot_b = f2[0, :][None, :] + f1
    return float(np.max(np.abs(pot_a - pot_b))), 0.5 * (pot_a + pot_b)


def flatness_tolerance(grid):
    """Curvature budget 10 (h/L)^2 / L^2, h the spacing, L the half extent (10 h^2 at L = 1).

    The residual, the connection's curl, scales like 1/L^2 and its stencil
    error like (h/L)^2 / L^2, so the budget is the same at every extent.
    """
    return 10.0 * (grid.spacing / grid.half_extent) ** 2 / grid.half_extent**2


def _integration_tolerance(grid, scale):
    return 10.0 * grid.spacing**2 * scale * grid.extent / grid.half_extent**2 + 1e-13


def cartan_develop(frame: FrameData) -> tuple[ScalarField, float]:
    """(theta, gap): the rotation angle with d theta = -omega, integrated from
    the corner, and the largest disagreement of its two axis orders.

    The two orders must agree within
    10 spacing^2 ||omega||_inf extent / L^2 (L the half extent), the
    trapezoid-error budget of a flat connection; disagreement beyond that is
    a flatness inconsistency.
    """
    grid = frame.grid
    gap, theta = path_independence_gap(-frame.omega.components, grid)
    tol = _integration_tolerance(grid, frame.omega_max())
    if gap > tol:
        raise FlatnessInconsistencyError(
            f"rotation integrals disagree across path orders by {gap:.3e} "
            f"(tolerance {tol:.3e}); the connection is not flat at this resolution"
        )
    return ScalarField(grid, theta), gap


def reconstruct_diffeo(frame: FrameData, theta: ScalarField) -> DisplacementMap:
    """Map with dphi = u(theta) sigma, collar-normalized; dphi^T dphi = g.

    Each coordinate of phi is a line integral of one row of u(theta) s; the
    two axis orders must agree within the same trapezoid budget, otherwise
    the developed coframe failed to be closed.
    """
    grid = frame.grid
    s = frame.s.components
    cos_t, sin_t = np.cos(theta.values), np.sin(theta.values)
    # rows of u(theta) . s
    alpha = np.empty((2, 2) + grid.shape)
    alpha[0, 0] = cos_t * s[0] - sin_t * s[1]
    alpha[0, 1] = cos_t * s[1] - sin_t * s[2]
    alpha[1, 0] = sin_t * s[0] + cos_t * s[1]
    alpha[1, 1] = sin_t * s[1] + cos_t * s[2]

    coords = grid.coordinates()
    corner = np.array([coords[0].flat[0], coords[1].flat[0]])
    phi = np.empty((2,) + grid.shape)
    scale = max(1.0, float(np.max(np.abs(alpha))))
    tol = _integration_tolerance(grid, scale)
    for i in range(2):
        gap, pot = path_independence_gap(alpha[i], grid)
        if gap > tol:
            raise ClosednessViolationError(
                f"coordinate {i + 1} integrals disagree across path orders by "
                f"{gap:.3e} (tolerance {tol:.3e}); developed coframe not closed"
            )
        phi[i] = pot + corner[i]

    u = phi - coords
    # remove the constant so the collar sits at the identity
    u -= np.mean(u[:, collar_mask(grid, FLAT_COLLAR)], axis=1)[:, None, None]
    collar_resid = collar_max(u, grid, FLAT_COLLAR)
    return DisplacementMap(
        VectorField(grid, u),
        collar_width=FLAT_COLLAR,
        collar_tol=max(1e-12, 1.05 * collar_resid),
    )


@dataclass(frozen=True)
class FactorizationReport:
    max_curvature: float
    path_independence_gap: float
    reconstruction_error: float


def factorize_flat_metric(g: MetricField):
    """Full pipeline: frame, flatness gate, development, reconstruction.

    g must equal the Euclidean metric in the FLAT_COLLAR boundary rings,
    which pins down the reconstruction's normalization (ValueError otherwise).
    The flatness gate is a curvature residual of at most
    ``flatness_tolerance(grid)`` = 10 (spacing / L)^2 / L^2, L the half
    extent (10 spacing^2 on the default box of extent 2); a metric failing
    it raises FlatnessInconsistencyError.
    Returns (displacement, frame, theta, report).
    """
    grid = g.grid
    _require_flat_domain(grid)
    euclidean = np.array([1.0, 0.0, 1.0])[:, None, None]
    resid = collar_max(g.components - euclidean, grid, FLAT_COLLAR)
    if resid > 1e-12:
        raise ValueError(
            f"metric must equal the Euclidean metric in the {FLAT_COLLAR}-node "
            f"collar (max deviation {resid:.3e})"
        )
    frame = frame_and_connection(g)
    flat_tol = flatness_tolerance(grid)
    curvature = frame.max_curvature()
    if not curvature <= flat_tol:
        raise FlatnessInconsistencyError(
            f"curvature residual {curvature:.3e} "
            f"exceeds {flat_tol:.3e}: metric is not flat at this resolution"
        )
    theta, gap = cartan_develop(frame)
    phi = reconstruct_diffeo(frame, theta)
    err = reconstruction_error(phi, g)
    report = FactorizationReport(
        max_curvature=curvature,
        path_independence_gap=gap,
        reconstruction_error=err,
    )
    return phi, frame, theta, report


def reconstruction_error(phi: DisplacementMap, g: MetricField) -> float:
    """max norm of dphi^T dphi - g with the finite-difference Jacobian."""
    du = displacement_jacobian(phi.displacement)
    return float(np.max(np.abs(jacobian_gram(du) - g.components)))


# ---------------------------------------------------------------------------
# forward-constructed instances


def bump_and_gradient(coords, center, radius):
    """Compactly supported bump (1 - |x-c|^2/R^2)^6 and its exact gradient.

    Returns (psi, dpsi) with dpsi of shape (2,) + grid shape; both vanish
    identically outside the ball |x - c| < R.  The profile is polynomial in
    |x - c|^2 (C^5 at the support edge), so its higher derivatives stay
    moderate and second-order stencils resolve it cleanly at desk-scale
    resolutions.
    """
    try:
        r2 = radius**2
    except OverflowError:
        raise ValueError(
            f"box extent too large: the bump radius {radius:.3g} overflows when squared"
        ) from None
    dx = [coords[i] - center[i] for i in range(2)]
    q = (dx[0] ** 2 + dx[1] ** 2) / r2
    w = np.maximum(1.0 - q, 0.0)
    psi = w**6
    factor = -12.0 * w**5 / r2
    dpsi = np.stack([factor * dx[0], factor * dx[1]])
    return psi, dpsi


def flat_pullback_instance(grid: Grid, rng, amplitude):
    """Pullback of the flat metric by a two-bump compactly supported map, sampled exactly.

    The displacement and its Jacobian are evaluated analytically, so the
    returned metric is a true flat metric sampled on the nodes, not a
    finite-difference artifact.  Each bump's radius, center and direction
    are drawn from ``rng`` in turn; a bump shifts its center by ``amplitude``
    times its radius.  Returns (g, phi0), phi0 the generating displacement.
    """
    _require_flat_domain(grid)
    half = grid.half_extent
    coords = grid.coordinates()
    u = np.zeros((2,) + grid.shape)
    du = np.zeros((2, 2) + grid.shape)
    # wide, gently sloped bumps: the frame solve differentiates the metric
    # twice, so the curvature residual budget 10 h^2 needs |d^3 psi| modest;
    # the geometry is resolution independent so refinement studies compare
    # the same continuum instance
    for _ in range(2):
        radius = half * rng.uniform(0.78, 0.84)
        center = rng.uniform(-0.05, 0.05, size=2) * half
        if float(np.max(np.abs(center))) + radius > half - 3.0 * grid.spacing:
            raise ValueError(
                "bump support would reach the Euclidean collar; "
                "use n_per_axis >= 64 for forward instances"
            )
        direction = rng.normal(size=2)
        direction *= amplitude * radius / np.linalg.norm(direction)
        psi, dpsi = bump_and_gradient(coords, center, radius)
        for i in range(2):
            u[i] += direction[i] * psi
            for j in range(2):
                du[i, j] += direction[i] * dpsi[j]
    g = MetricField(grid, jacobian_gram(du))
    phi0 = DisplacementMap(VectorField(grid, u), collar_width=FLAT_COLLAR)
    return g, phi0


def non_flat_instance(grid: Grid, rng):
    """Collar-Euclidean metric with order-one curvature inside a bump (amplitude 0.4).

    The bump's radius, center and phase are drawn from ``rng``.
    """
    _require_flat_domain(grid)
    half = grid.half_extent
    coords = grid.coordinates()
    radius = half * rng.uniform(0.5, 0.6)
    center = rng.uniform(-0.25 * half, 0.25 * half, size=2)
    psi, _ = bump_and_gradient(coords, center, radius)
    wobble = np.sin(2.0 * np.pi * coords[0] / grid.extent + rng.uniform(0.0, np.pi))
    comps = np.stack(
        [np.ones(grid.shape), np.zeros(grid.shape), 1.0 + 0.4 * psi * wobble]
    )
    return MetricField(grid, comps)
