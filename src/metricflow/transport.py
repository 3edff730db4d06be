"""Tangent-space norms on metrics and densities, path energies, bounds.

The two quadratic minimizations here follow the same discretize-then-optimize
pattern: the objective is discretized with the package's finite-difference
calculus and rectangle-rule quadrature, and the exact Euler-Lagrange system of
that finite-dimensional quadratic is solved by matrix-free conjugate gradient.
The returned value is therefore a true minimum of a well-defined discrete
problem, which makes "infimum <= any feasible competitor" assertions exact up
to solver tolerance.

Density tangent norm (transport velocity v, relative growth f):

    N(rho, drho) = inf_{v} Int |v|^2 rho + Lam Int f^2 rho,
    f = (drho + div(rho v)) / rho.

Metric tangent norm (transport velocity v, source h):

    N(g, dg) = inf_{v} Int |v|^2 vol(g)
               + (d Lam / 4) Int tr(g^-1 H g^-1 H) vol(g),
    H = dg + L_v g.

Both norms return one record, ``NormResult(value, v, source, ...)``: the
minimizing velocity and the source term, f for densities and H for metrics.
A metric path is the list of its samples, uniform in time on [0, 1]; a map
path is generated one checked map at a time by ``map_path``.

Both normal operators are assembled by composing the central-difference
operators with their discrete adjoints, which on the torus are exact
(skew-adjointness under the rectangle rule); the solvers therefore require
torus grids.

Both solves are preconditioned (``cg.solve_spd``) by the inverse of a
constant-coefficient operator, applied by FFT (``fourier_inverse``): on the
torus the central stencils are circulant, so such an operator is one
Hermitian dim x dim matrix per Fourier mode.  Its inverse is SPD whenever
the operator is, and the iteration counts no longer grow with the grid:

  * metric norm: the normal operator at the grid-mean metric;
  * density norm: the normal operator factors as A = R B R with R = diag(rho)
    and B = 1/rho - lam grad (1/rho) div, so M = R Bbar R with Bbar the
    density normal operator at the constant mean(1/rho); B and Bbar are
    spectrally equivalent with ratio at most max rho / min rho, whatever
    the spacing.  (Preconditioning A itself at the mean density barely helps
    on rough densities.)

Every solve is lane-stacked (``cg.solve_spd``): velocities have shape
(L, dim) + grid.shape, and both normal operators and both preconditioners
take that leading lane axis (and work without it too).  Metric tangents stay
packed symmetric tensors, (L, packed) + grid.shape, throughout.  The metric
normal operator is a per-node matrix acting on the velocity's 1-jet (v, D v),
followed by the adjoint of the jet (``MetricNormOperator``).  The jet, its
adjoint and the Lie map K live in ``tensors`` (``velocity_jet``,
``jet_adjoint``, ``lie_jet_matrix``); the jet's size n_jet is read from K.
``we_tangent_norms`` solves several tangents at one metric as the lanes of
one solve: the operator and the preconditioner are built once, and each lane
keeps its own step lengths, stop rule and iteration count.
``we_tangent_norm`` is its one-lane case, and ``wfr_tangent_norm`` a
one-lane solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cg import solve_spd
from .errors import DegeneratePathError, NonInvertibleMapError, PositivityViolation, SolverFailure
from .fields import (
    TORUS,
    DensityField,
    ScalarField,
    SymTensorField,
    VectorField,
    divergence_array,
    gradient_array,
    integrate_array,
    require_same_grid,
)
from .tensors import (
    DisplacementMap,
    MetricField,
    collar_rings,
    ebin_weight,
    jacobian_gram,
    jet_adjoint,
    lie_apply,
    lie_jet_matrix,
    nodewise_einsum,
    packed_volume,
    product_trace,
    velocity_jet,
)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance, iteration cap and source-penalty weight for the solvers.

    ``max_iter`` None is ``solve_spd``'s default of 10 per unknown.  ``lam``
    must be strictly positive: with lam = 0 the source penalty vanishes and
    the infimum over decompositions is degenerate off the transport orbit.
    """

    tol: float = 1e-10
    max_iter: int | None = None
    lam: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lambda must be finite and strictly positive, got {self.lam}")
        if self.max_iter is not None:
            if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int):
                raise ValueError(f"max_iter must be an integer or null, got {self.max_iter!r}")
            if self.max_iter < 1:
                raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


class NormResult(NamedTuple):
    """A tangent norm and its minimizing (v, source) pair.

    ``source`` is the growth rate f (a ScalarField) for the density norm and
    h = dg + L_v g (a SymTensorField) for the metric norm; ``iterations`` and
    ``residual`` are those of the solve.
    """

    value: float
    v: VectorField
    source: ScalarField | SymTensorField
    iterations: int
    residual: float


def _require_torus(grid, what):
    if grid.topology != TORUS:
        raise ValueError(
            f"{what} requires a torus grid: the discrete adjoints the normal "
            "operator is built from are exact only for periodic stencils"
        )


def fourier_inverse(apply_op, grid):
    """r -> A^-1 r for a constant-coefficient SPD operator A on the torus.

    A acts on velocity arrays of shape (dim,) + grid.shape and commutes with
    grid translations, so it is a circular convolution: its symbol at each
    Fourier mode is the dim x dim matrix whose column j is the transform of
    A's response to a unit impulse in component j at node 0.  Symmetric A
    has Hermitian symbols, positive definite A positive definite ones, so the
    returned map (closed-form inverse per mode) is SPD as well.  The map
    takes an optional leading lane axis, (L, dim) + grid.shape.
    """
    d = grid.dim
    axes = tuple(range(-d, 0))
    cols = []
    for j in range(d):
        impulse = np.zeros((d,) + grid.shape)
        impulse[(j,) + (0,) * d] = 1.0
        cols.append(np.fft.rfftn(apply_op(impulse), axes=axes))
    if d == 1:
        inverse = 1.0 / cols[0][None].real
    else:
        a, c, b = cols[0][0].real, cols[1][1].real, cols[1][0]
        det = a * c - (b * b.conj()).real
        inverse = np.stack([np.stack([c, -b]), np.stack([-b.conj(), a])]) / det

    def precondition(r):
        out_hat = nodewise_einsum("ij,...j->...i", d, inverse, np.fft.rfftn(r, axes=axes))
        return np.fft.irfftn(out_hat, s=grid.shape, axes=axes)

    return precondition


def _solve(what, field, apply_op, rhs, cfg, preconditioner):
    """Lane-stacked preconditioned CG; a SolverFailure names the norm and the grid.

    ``preconditioner(field, cfg)`` builds M^-1.  An all-zero right-hand side
    is solved by x = 0 without iterating, so it skips the build (and the FFT).
    """
    precondition = preconditioner(field, cfg) if np.any(rhs) else None
    try:
        return solve_spd(
            apply_op,
            rhs,
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            precondition=precondition,
        )
    except SolverFailure as exc:
        message = f"{what} on {field.grid!r}: {exc}"
        raise SolverFailure(message, exc.residual, exc.iterations, exc.lane) from exc


# ---------------------------------------------------------------------------
# pointwise norms


def ebin_inner(g: MetricField, h, k) -> float:
    """Int tr(g^-1 h g^-1 k) vol(g); a non-finite integrand raises ValueError."""
    trace = product_trace(g, h, k)
    if not np.all(np.isfinite(trace)):
        raise ValueError("the Ebin integrand tr(g^-1 h g^-1 k) is not finite")
    return float(integrate_array(trace * packed_volume(g.components, g.grid.dim), g.grid))


def wasserstein_orbit_norm(g: MetricField, v: VectorField) -> float:
    """Squared transport norm of the orbit tangent -L_v g: Int |v|^2 vol(g).

    Depends on g only through vol(g), which is what makes the volume map a
    submersion onto density space on transport orbits.
    """
    grid = require_same_grid(g, v)
    speed_sq = np.sum(v.components**2, axis=0)
    return float(integrate_array(speed_sq * packed_volume(g.components, grid.dim), grid))


# ---------------------------------------------------------------------------
# density tangent norm


def wfr_normal_operator(rho: DensityField, cfg: SolverConfig):
    """Normal operator of the density tangent norm after eliminating f.

    A v = rho v - lam rho grad(div(rho v)/rho); symmetric positive definite
    w.r.t. plain nodewise sums because the central stencils are mutually
    skew-adjoint under the rectangle rule.  v has shape (dim,) + grid.shape
    with an optional leading lane axis.
    """
    grid = rho.grid
    _require_torus(grid, "wfr_tangent_norm")
    lam, r = cfg.lam, rho.values
    component = -(grid.dim + 1)

    def apply_op(vc):
        q = divergence_array(r * vc, grid) / r
        return r * vc - lam * r * np.moveaxis(gradient_array(q, grid), 0, component)

    return apply_op


def density_norm_preconditioner(rho: DensityField, cfg: SolverConfig):
    """r -> M^-1 r with M = R Bbar R, R = diag(rho).

    Bbar is the normal operator at the constant density mean(1/rho), inverted
    by FFT (the A = R B R factorization is in the module docstring).  Lanes
    are kept, as in ``fourier_inverse``.
    """
    r = rho.values
    mean_inverse = DensityField.constant(rho.grid, np.mean(1.0 / r))
    bbar_inverse = fourier_inverse(wfr_normal_operator(mean_inverse, cfg), rho.grid)
    return lambda res: bbar_inverse(res / r) / r


def wfr_tangent_norm(rho: DensityField, drho: ScalarField, cfg: SolverConfig = SolverConfig()):
    """Minimize Int |v|^2 rho + lam Int f^2 rho over the continuity equation.

    The growth rate is eliminated, f = (drho + div(rho v)) / rho, and the
    remaining convex quadratic in v is solved exactly, as a one-lane solve;
    right-hand side lam rho grad(drho/rho).
    """
    grid = require_same_grid(rho, drho)
    lam = cfg.lam
    r = rho.values
    dr = drho.values
    apply_op = wfr_normal_operator(rho, cfg)
    rhs = lam * r * gradient_array(dr / r, grid)
    sol = _solve("wfr_tangent_norm", rho, apply_op, rhs[None], cfg, density_norm_preconditioner)
    x = sol.x[0]
    v = VectorField(grid, x)
    f = ScalarField(grid, (dr + divergence_array(r * x, grid)) / r)
    value = integrate_array(np.sum(x**2, axis=0) * r, grid) + lam * integrate_array(
        f.values**2 * r, grid
    )
    return NormResult(float(value), v, f, sol.iterations, sol.residual)


# ---------------------------------------------------------------------------
# metric tangent norm


def _metric_norm_coefficients(comps, grid, lam):
    """Per-node matrices of the metric tangent norm for packed metric comps.

    Returns (K, C, Q, vol(g)), K, C and Q as in ``MetricNormOperator``.
    comps may have size-1 spatial axes (a constant metric); the matrices keep
    that shape.
    """
    d = grid.dim
    vol = packed_volume(comps, d)
    jet_map = lie_jet_matrix(comps, grid)
    source_weight = ebin_weight(comps, d) * vol
    weighted_lie = np.einsum("pr...,rs...->ps...", source_weight, jet_map)
    weight, n_jet = d * lam / 4.0, jet_map.shape[1]
    normal = np.empty((n_jet, n_jet) + vol.shape)
    for q in range(n_jet):
        for s in range(q, n_jet):
            entry = weight * sum(jet_map[p, q] * weighted_lie[p, s] for p in range(len(jet_map)))
            if s < d and q == s:
                entry += vol
            normal[q, s] = normal[s, q] = entry
    return jet_map, source_weight, normal, vol


def _apply_normal(normal, vc, grid):
    """A v = J^T (Q u) with u the velocity jet of vc (lanes kept)."""
    y = nodewise_einsum("qr,...r->...q", grid.dim, normal, velocity_jet(vc, grid))
    return jet_adjoint(y, grid)


class MetricNormOperator:
    """Normal operator and objective of the discrete metric tangent norm.

    Per node the Lie derivative is linear in the velocity's 1-jet
    u = (v, D v) (``tensors.velocity_jet``), packed L_v g = K u, and the
    source weight is C = vol(g) W with W the packed Ebin form
    (``tensors.ebin_weight``), h . C h = tr(g^-1 h g^-1 h) vol(g).  So

        A v = J^T (Q u),   Q = vol (identity on the v block) + w K^T C K,

    with w = dim lam / 4 and J^T the adjoint of v -> u (``tensors.jet_adjoint``).
    Q is one symmetric n_jet-square matrix per node, n_jet = dim + dim^2, so
    an apply is one stencil call per axis for u, one per axis for J^T and one
    einsum, for any lane count.

    Velocities have shape (dim,) + grid.shape and metric tangents are packed
    symmetric tensors, (packed,) + grid.shape, each with an optional leading
    lane axis that every method keeps (``objective`` and ``energy`` then
    return one value per lane).
    """

    def __init__(self, g: MetricField, cfg: SolverConfig):
        grid = g.grid
        _require_torus(grid, "we_tangent_norm")
        self.grid = grid
        self.dim = grid.dim
        self.weight = (grid.dim * cfg.lam) / 4.0
        self.jet_map, self.source_weight, self.normal, self.vol = _metric_norm_coefficients(
            g.components, grid, cfg.lam
        )

    def lie(self, vc):
        """Packed L_v g = K u for velocity components vc."""
        return lie_apply(self.jet_map, vc, self.grid)

    def apply(self, vc):
        return _apply_normal(self.normal, vc, self.grid)

    def rhs(self, dg):
        """-w J^T K^T (C dg) for packed tangents dg."""
        weighted = nodewise_einsum("pq,...q->...p", self.dim, self.source_weight, dg)
        lie_adjoint = nodewise_einsum("pq,...p->...q", self.dim, self.jet_map, weighted)
        return -self.weight * jet_adjoint(lie_adjoint, self.grid)

    def objective(self, vc, dg):
        """The discrete energy of velocity vc for packed tangent dg; one value per lane."""
        return self.energy(vc, dg + self.lie(vc))

    def energy(self, vc, h):
        """``objective`` with its source h = dg + L_v g already formed."""
        d = self.dim
        weighted = nodewise_einsum("pq,...q->...p", d, self.source_weight, h)
        quad = np.sum(weighted * h, axis=-(d + 1))
        kinetic = self.vol * np.sum(np.asarray(vc) ** 2, axis=-(d + 1))
        value = integrate_array(kinetic + self.weight * quad, self.grid)
        return float(value) if value.ndim == 0 else value


def metric_norm_preconditioner(g: MetricField, cfg: SolverConfig):
    """r -> M^-1 r with M the metric normal operator at the grid-mean metric.

    The mean of SPD matrices is SPD, and at a constant metric the operator
    has constant coefficients, so FFT inverts it exactly.  Its normal matrix
    is built once, at one node, and broadcast over the grid.
    """
    grid = g.grid
    mean = np.mean(g.components, axis=tuple(range(1, grid.dim + 1)), keepdims=True)
    normal = _metric_norm_coefficients(mean, grid, cfg.lam)[2]
    return fourier_inverse(lambda vc: _apply_normal(normal, vc, grid), grid)


def we_tangent_norm(g: MetricField, dg: SymTensorField, cfg: SolverConfig = SolverConfig()):
    """Minimize the transport + source energy over velocities v.

    Returns the ``NormResult`` of the minimum: the velocity v and the source
    h = dg + L_v g defined from it, so dg = -L_v g + h holds by construction.
    A one-lane ``we_tangent_norms``.
    """
    return we_tangent_norms(g, [dg], cfg)[0]


def we_tangent_norms(g: MetricField, dgs, cfg: SolverConfig = SolverConfig()):
    """``we_tangent_norm`` of several tangents at one metric, in one solve.

    The normal operator and its preconditioner are built once, and each
    tangent is one lane of ``cg.solve_spd``, so each gets the value and the
    iteration count of its own solve.  Returns a list of NormResult.
    """
    grid = require_same_grid(g, *dgs)
    op = MetricNormOperator(g, cfg)
    dg = np.stack([t.components for t in dgs])
    sol = _solve("we_tangent_norm", g, op.apply, op.rhs(dg), cfg, metric_norm_preconditioner)
    h = dg + op.lie(sol.x)
    values = op.energy(sol.x, h)
    return [
        NormResult(
            float(values[lane]),
            VectorField(grid, sol.x[lane]),
            SymTensorField(grid, h[lane]),
            sol.lane_iterations[lane],
            sol.lane_residuals[lane],
        )
        for lane in range(len(dgs))
    ]


# ---------------------------------------------------------------------------
# paths


def linear_metric_path(g0: MetricField, g1: MetricField, n_t=16):
    """Componentwise linear interpolation between two metrics: its n_t + 1 samples."""
    grid = require_same_grid(g0, g1)
    return [
        MetricField(grid, (1.0 - t) * g0.components + t * g1.components)
        for t in np.linspace(0.0, 1.0, n_t + 1)
    ]


def _midpoint_metric(a: MetricField, b: MetricField, t_mid) -> MetricField:
    comps = 0.5 * (a.components + b.components)
    try:
        return MetricField(a.grid, comps)
    except PositivityViolation as exc:
        raise DegeneratePathError(
            f"midpoint average at t = {t_mid} is not positive definite", time=t_mid
        ) from exc


def path_interval_norms(path, cfg: SolverConfig, which="we"):
    """Squared tangent norm of each interval's difference quotient.

    ``path`` is the list of a metric path's samples, uniform on [0, 1] (at
    least two, on one grid), as ``linear_metric_path`` returns it.
    which: "we" (transport + source), "ebin" (pure source) or "wfr"
    (transport + growth of the volume-projected path vol(g(t)): midpoint
    density and difference quotient of the sampled volumes).  The three
    bracket the submersion: E_wfr <= E_we <= (d lam / 4) E_ebin.
    """
    if len(path) < 2:
        raise ValueError("a path needs at least two samples (n_t >= 1)")
    grid = require_same_grid(*path)
    if which not in ("we", "ebin", "wfr"):
        raise ValueError(f"unknown energy kind {which!r}")
    times = np.linspace(0.0, 1.0, len(path))
    dt = 1.0 / (len(path) - 1)
    if which == "wfr":
        vols = [packed_volume(m.components, grid.dim) for m in path]
    norms = []
    for i in range(len(path) - 1):
        if which == "wfr":
            mid = DensityField(grid, 0.5 * (vols[i] + vols[i + 1]))
            delta = ScalarField(grid, (vols[i + 1] - vols[i]) / dt)
            norms.append(wfr_tangent_norm(mid, delta, cfg).value)
            continue
        t_mid = (times[i] + times[i + 1]) / 2.0
        gbar = _midpoint_metric(path[i], path[i + 1], t_mid)
        gdot = SymTensorField(grid, (path[i + 1].components - path[i].components) / dt)
        if which == "ebin":
            norms.append(ebin_inner(gbar, gdot, gdot))
        else:
            norms.append(we_tangent_norm(gbar, gdot, cfg).value)
    return np.array(norms)


def path_energy(path, cfg: SolverConfig = SolverConfig(), which="we") -> float:
    """Midpoint-rule action integral of the squared tangent norm."""
    norms = path_interval_norms(path, cfg, which)
    return float(np.sum(norms) / len(norms))


def path_length(path, cfg: SolverConfig = SolverConfig(), which="we") -> float:
    norms = path_interval_norms(path, cfg, which)
    return float(np.sum(np.sqrt(np.maximum(norms, 0.0))) / len(norms))


# ---------------------------------------------------------------------------
# transport orbit paths on the box (material form)


def displacement_path_interval_energies(displacements, grid, n_t):
    """Material-coordinates transport energy of each interval of a map path.

    ``displacements`` yields the n_t + 1 arrays u(t) of phi(t) = id + u(t) at
    the uniform times t = 0, 1/n_t, ..., 1, and is read one array at a time.
    Each interval gives Int |phi_dot|^2 vol(g0) with phi_dot its difference
    quotient; the change of variables to material coordinates is exact
    nodewise, so no inversion or interpolation enters.
    """
    dt = 1.0 / n_t
    out, prev = [], None
    for u in displacements:
        if prev is not None:
            du = (u - prev) / dt
            out.append(integrate_array(np.sum(du**2, axis=0), grid))
        prev = u
    return np.array(out)


def displacement_path_energy(displacements, grid, n_t) -> float:
    """Midpoint-rule action of a map path; see displacement_path_interval_energies."""
    return float(np.sum(displacement_path_interval_energies(displacements, grid, n_t)) / n_t)


class ToyGeodesic(NamedTuple):
    """Per-interval transport energies of a toy geodesic and its action.

    ``interval_energies`` are material, ``interval_energies_eulerian`` the
    independent Eulerian cross-check; ``energy`` is the material action.
    """

    interval_energies: np.ndarray
    interval_energies_eulerian: np.ndarray
    energy: float


def map_path(grid, ts, terms, name, collar_width=1):
    """The maps id + sum_j c_j(t) u_j at the times ``ts``, one checked map at a time.

    Each term is (c, u, Du): a coefficient function of t, displacement
    components u and their stencil Jacobian Du[k][i] = d_k u^i.  Since
    D(sum_j c_j u_j) = sum_j c_j Du_j, each ``DisplacementMap`` (collar width
    ``collar_width``) is checked with no stencil of its own.  A map that is
    not orientation preserving raises DegeneratePathError naming ``name`` and t.
    """
    for t in ts:
        (c, u, du), *rest = [(coeff(t), v, dv) for coeff, v, dv in terms]
        u, jacobian = c * u, [c * d for d in du]
        for c, v, dv in rest:
            u = u + c * v
            jacobian = [d + c * e for d, e in zip(jacobian, dv)]
        try:
            yield DisplacementMap(VectorField(grid, u), collar_width, jacobian=jacobian)
        except NonInvertibleMapError as exc:
            raise DegeneratePathError(
                f"{name} is not orientation preserving at t = {t}: {exc}", time=float(t)
            ) from exc


def toy_geodesic(f: VectorField, n_t=16):
    """Straight transport path phi(t) = id + t f pushing the flat metric g0 = I.

    Returns the per-interval transport energies of the path of pushforward
    metrics g(t) = phi(t)_* g0.  They are computed in material coordinates,
    where they equal Int |f|^2 vol(g0) identically in t.  An independent
    Eulerian evaluation is reported alongside: at each interval midpoint,
    Int |f o phi^{-1}|^2 vol(phi_* g0) with the inverse map and the
    interpolation; it agrees to O(spacing^2).  The maps' collar is the widest
    boundary ring on which f vanishes.  Path and midpoint maps come from
    ``map_path`` on one Df; a fold or a failed inversion names its time.
    """
    grid = f.grid
    if grid.topology != "box":
        raise ValueError("toy geodesics are defined on box grids")
    collar_width = _detect_collar(f)
    ts = np.linspace(0.0, 1.0, n_t + 1)
    t_mids = (ts[:-1] + ts[1:]) / 2.0
    straight = [(lambda t: t, f.components, gradient_array(f.components, grid))]

    path = map_path(grid, ts, straight, "id + t f", collar_width)
    material = displacement_path_interval_energies(
        (m.displacement.components for m in path), grid, n_t
    )

    eulerian = []
    for t_mid, phi_mid in zip(t_mids, map_path(grid, t_mids, straight, "id + t f", collar_width)):
        try:
            inv_mid = phi_mid.inverse
        except NonInvertibleMapError as exc:
            raise DegeneratePathError(
                f"id + t f has no inverse at t = {t_mid}: {exc}", time=float(t_mid)
            ) from exc
        g_mid = MetricField(grid, jacobian_gram(inv_mid.jacobian))
        v_mid = VectorField(grid, inv_mid.sample(f.components))
        eulerian.append(wasserstein_orbit_norm(g_mid, v_mid))
    eulerian = np.array(eulerian)

    energy = float(np.sum(material) / n_t)
    return ToyGeodesic(material, eulerian, energy)


def _detect_collar(f: VectorField):
    """Widest collar on which f vanishes: the least ring on f's support, at most n // 2."""
    support = np.any(f.components != 0.0, axis=0)
    width = int(np.min(collar_rings(f.grid)[support], initial=f.grid.n_per_axis // 2))
    if width == 0:
        raise ValueError("displacement field must vanish on the box boundary")
    return width


# ---------------------------------------------------------------------------
# geodesic-distance bounds


class DistanceBounds(NamedTuple):
    projected_wfr: float
    upper: float
    projected_wfr_flag: str
    upper_flag: str
    mass_lower_bound: float


def we_distance_bounds(
    g0: MetricField, g1: MetricField, cfg: SolverConfig = SolverConfig(), n_t=16
) -> DistanceBounds:
    """A certified upper bound on the transport-metric distance between two
    metrics, and the density-transport distance of their volumes.

    upper: sqrt(d lam)/2 times the source-metric length of the linear
    interpolation path (a feasible pure-source path; certified up to the
    midpoint-rule time discretization; flagged "linear-path-upper-bound").

    projected_wfr: d_WFR(vol g0, vol g1).  For proportional volume densities
    it is exact, 2 sqrt(lam) |sqrt(m0) - sqrt(m1)| with m_i the total volumes
    (pure-growth geodesic; path independent; flagged
    "conformal-volumes-exact-wfr").  Otherwise it has no closed form, and the
    slot carries the transport+growth length of the volume-projected linear
    path (flagged "projected-path-wfr-length-estimate"): an upper estimate of
    d_WFR(vol g0, vol g1), which bounds nothing about the transport-metric
    distance.  The certified mass bound 2 sqrt(lam) |sqrt(m0) - sqrt(m1)|
    (Cauchy-Schwarz on the growth term) is always reported alongside as
    mass_lower_bound.
    """
    grid = require_same_grid(g0, g1)
    d, lam = grid.dim, cfg.lam
    path = linear_metric_path(g0, g1, n_t=n_t)
    ebin_length = path_length(path, cfg, which="ebin")
    upper = 0.5 * np.sqrt(d * lam) * ebin_length

    vol0, vol1 = packed_volume(g0.components, d), packed_volume(g1.components, d)
    m0, m1 = integrate_array(vol0, grid), integrate_array(vol1, grid)
    mass_bound = 2.0 * np.sqrt(lam) * abs(np.sqrt(m0) - np.sqrt(m1))

    ratio = vol1 / vol0
    conformal = float(np.max(ratio) - np.min(ratio)) <= 1e-10 * (1.0 + float(np.max(ratio)))
    if conformal:
        projected_wfr = float(mass_bound)
        flag = "conformal-volumes-exact-wfr"
    else:
        projected_wfr = path_length(path, cfg, which="wfr")
        flag = "projected-path-wfr-length-estimate"
    return DistanceBounds(projected_wfr, float(upper), flag,
                          "linear-path-upper-bound", float(mass_bound))
