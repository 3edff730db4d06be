"""Pointwise SPD algebra, Lie derivatives, volume maps and pullbacks.

All 2x2 kernels use closed forms (adjugate inverse, the explicit square
root (A + sqrt(det) I)/sqrt(tr + 2 sqrt(det))); no general eigensolver is
involved.  Each pointwise concept is one kernel on packed components:
``packed_volume`` (the volume form sqrt(det g)), ``relative_trace``
(tr g^-1 h), ``eigenvalues_2x2``, ``ebin_weight`` (the Ebin integrand
tr(g^-1 a g^-1 b)), ``lie_jet_matrix`` (L_v g on the velocity jet, applied
by ``lie_apply``) and ``collar_rings`` (box rings).  The velocity jet
u = (v, D v) and its adjoint live here too, as ``velocity_jet`` and
``jet_adjoint``, so the jet's layout is written in one module.

``MetricField(grid, components)`` is a ``SymTensorField`` that is SPD at every
node, so a metric is accepted wherever a symmetric tensor is.
A map's stencil Jacobian is taken once, by ``DisplacementMap``, and kept as
``phi.jacobian`` in the one layout J[k][i] = d_k u^i that every kernel reads;
its Newton inverse is taken on the first read of ``phi.inverse``, the
package's one way to invert a map, and kept.  A metric moves along a map by
``pullback_metric`` alone; a pushforward phi_* g is ``pullback_metric(phi.inverse, g)``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonInvertibleMapError, OutOfDomainError, PositivityViolation
from .fields import (
    BOX,
    DensityField,
    ScalarField,
    SymTensorField,
    VectorField,
    diff_array,
    gradient_array,
    node_at,
    require_same_grid,
    sample_array,
    sym_component_count,
)

SPD_TOL = 1e-12


def packed_det(comps, dim):
    if dim == 1:
        return comps[0]
    return comps[0] * comps[2] - comps[1] ** 2


def packed_volume(comps, dim):
    """sqrt(det g) per node for packed metric components: the volume form."""
    return np.sqrt(packed_det(comps, dim))


def packed_trace(comps):
    """tr g per node for packed 2-D components."""
    return comps[0] + comps[2]


def eigenvalues_2x2(tr, det):
    """Nodewise eigenvalues (low, high) of a 2x2 matrix with real spectrum.

    A negative discriminant (roundoff) is clipped to zero.
    """
    disc = np.sqrt(np.maximum(tr**2 - 4.0 * det, 0.0))
    return (tr - disc) / 2.0, (tr + disc) / 2.0


def spd_violations(comps, dim):
    """Nodes failing the leading-principal-minor test or with a non-finite
    determinant (see ``spd_check``)."""
    scale = SPD_TOL * (1.0 + np.max(np.abs(comps), axis=0))
    det = packed_det(comps, dim)
    return (comps[0] <= scale) | (det <= scale) | ~np.isfinite(det)


def spd_check(comps, dim, what="tensor"):
    """Leading-principal-minor test with roundoff-aware tolerance.

    Each node must satisfy minor > 1e-12 * (1 + max |entry|) for every
    leading minor, and its determinant must be finite: finite entries whose
    determinant overflows would give an infinite or undefined volume form.
    The first offending node index is reported.
    """
    bad = spd_violations(comps, dim)
    if np.any(bad):
        node = node_at(np.argmax(bad), bad.shape)
        entries = [float(c[node]) for c in comps]
        det = packed_det(comps, dim)[node]
        problem = (
            "is not positive definite" if np.isfinite(det)
            else f"has a determinant that overflows to {det}"
        )
        raise PositivityViolation(f"{what} {problem} at node {node}: components {entries}",
                                  node=node)


class MetricField(SymTensorField):
    """Symmetric positive-definite 2-tensor field; SPD is checked nodewise."""

    def __init__(self, grid, components):
        super().__init__(grid, components)
        spd_check(self.components, grid.dim, what="metric")

    @classmethod
    def euclidean(cls, grid):
        return cls.scaled_identity(grid, 1.0)

    @classmethod
    def scaled_identity(cls, grid, factor):
        comps = np.zeros((sym_component_count(grid.dim),) + grid.shape)
        comps[0] = factor
        if grid.dim == 2:
            comps[2] = factor
        return cls(grid, comps)


class DisplacementMap:
    """Grid diffeomorphism phi(x) = x + u(x).

    The Jacobian I + du must have positive determinant at every node
    (orientation preserving; NonInvertibleMapError otherwise); on box grids
    collar_width must be >= 1 and u must vanish in the boundary collar of
    ``collar_width`` node rings, within ``collar_tol`` (ValueError otherwise).
    ``jacobian``, read by the check and by every consumer of the map, holds
    the read-only outputs ``diff_array(u, grid, k)``: jacobian[k][i] = d_k u^i.
    ``transport.map_path`` passes it in, formed by linearity.
    """

    def __init__(self, displacement: VectorField, collar_width=0, collar_tol=1e-12, jacobian=None):
        self.grid = displacement.grid
        self.displacement = displacement
        self.collar_width = int(collar_width)
        self.collar_tol = float(collar_tol)
        comps = displacement.components
        if jacobian is None:
            jacobian = [diff_array(comps, self.grid, k) for k in range(self.grid.dim)]
        for d in jacobian:
            d.setflags(write=False)
        self.jacobian = tuple(jacobian)
        det = jacobian_det(self.jacobian)
        if np.any(det <= 0.0):
            node = node_at(np.argmin(det), det.shape)
            raise NonInvertibleMapError(
                f"displacement is orientation reversing: det(I+du) = {det[node]} at node {node}"
            )
        if self.grid.topology == BOX:
            if self.collar_width < 1:
                raise ValueError("box displacements must declare a collar_width >= 1")
            resid = collar_max(comps, self.grid, self.collar_width)
            if resid > self.collar_tol:
                raise ValueError(
                    f"displacement does not vanish in the {self.collar_width}-node collar "
                    f"(max |u| = {resid:.3e} > {self.collar_tol:.3e})"
                )

    @functools.cached_property
    def inverse(self) -> DisplacementMap:
        """``invert_displacement(self)``, taken on first read and kept."""
        return invert_displacement(self)

    @classmethod
    def identity(cls, grid, collar_width=1):
        width = collar_width if grid.topology == BOX else 0
        return cls(VectorField.zero(grid), collar_width=width)

    def positions(self):
        """phi evaluated at the nodes, shape (dim,) + grid.shape."""
        return self.grid.coordinates() + self.displacement.components

    def sample(self, values, positions=None, derivative=False):
        """Bilinear samples of node values at positions, by default phi's own.

        On a box grid a collar-identity map can exit the box by up to its
        collar residual; an overshoot within 10 collar_tol + 1e-12 extent is
        clipped to the box, anything larger is a genuine domain violation.
        ``derivative`` also returns the interpolant's gradient, as
        ``sample_array`` does.
        """
        grid = self.grid
        pos = self.positions() if positions is None else positions
        if grid.topology == BOX:
            half = grid.half_extent
            overshoot = float(max(np.max(pos) - half, -half - np.min(pos), 0.0))
            allowed = 10.0 * self.collar_tol + 1e-12 * grid.extent
            if overshoot > allowed:
                raise OutOfDomainError(
                    f"displacement maps positions {overshoot:.3e} beyond the box "
                    f"(collar allowance {allowed:.3e})"
                )
            pos = np.clip(pos, -half, half)
        return sample_array(values, grid, pos, derivative)


def collar_rings(grid):
    """Ring index of each node: the minimum over axes of min(i, n - 1 - i)."""
    i = np.arange(grid.n_per_axis)
    edge = np.minimum(i, i[::-1])
    return edge if grid.dim == 1 else np.minimum.outer(edge, edge)


def collar_mask(grid, width):
    """Boolean mask of the nodes within `width` rings of the box boundary."""
    return collar_rings(grid) < width


def collar_max(comps, grid, width):
    """Max |value| over the nodes within `width` rings of the box boundary."""
    region = np.asarray(comps)[:, collar_mask(grid, width)]
    return float(np.max(np.abs(region), initial=0.0))


def _plus_identity(jacobian):
    """The stacked (I + du) of a map, entry [k, i] = delta_ki + d_k u^i."""
    jac = np.array(jacobian)
    for i in range(len(jac)):
        jac[i, i] += 1.0
    return jac


def jacobian_gram(jacobian):
    """Packed (I + du)^T (I + du), the flat metric pulled back by id + u."""
    jac = _plus_identity(jacobian)
    full = np.einsum("ik...,jk...->ij...", jac, jac)
    del jac
    return full_to_packed(full, len(full))


def jacobian_det(jacobian):
    """det(I + du) of a stencil Jacobian jacobian[k][i] = d_k u^i."""
    det = 1.0 + jacobian[0][0]
    if len(jacobian) == 2:
        det *= 1.0 + jacobian[1][1]
        det -= jacobian[0][1] * jacobian[1][0]
    return det


# ---------------------------------------------------------------------------
# pointwise closed-form algebra


def inverse_components(comps, dim):
    det = packed_det(comps, dim)
    if dim == 1:
        return 1.0 / comps[0:1]
    return np.stack([comps[2], -comps[1], comps[0]]) / det


def sqrt_components(comps, dim):
    if dim == 1:
        return np.sqrt(comps[0:1])
    root_det = packed_volume(comps, dim)
    denom = np.sqrt(packed_trace(comps) + 2.0 * root_det)
    return np.stack([comps[0] + root_det, comps[1], comps[2] + root_det]) / denom

def packed_to_full(comps, dim):
    """(dim, dim) + shape full symmetric matrices from packed components."""
    if dim == 1:
        return comps[0][None, None]
    return np.stack([np.stack([comps[0], comps[1]]), np.stack([comps[1], comps[2]])])


def full_to_packed(full, dim):
    if dim == 1:
        return full[0, 0][None]
    sym = 0.5 * (full[0, 1] + full[1, 0])
    return np.stack([full[0, 0], sym, full[1, 1]])


def packed_pairs(dim):
    """(i, j) of each packed component, in storage order."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def nodewise_einsum(spec, dim, *operands):
    """np.einsum with the dim trailing spatial axes of every operand implied.

    ``spec`` names only the component (and lane ``...``) axes, e.g.
    ``"pq,...q->...p"`` for a per-node matrix applied to lane-stacked vectors.
    """
    spatial = "XYZ"[:dim]
    inputs, output = spec.split("->")
    terms = ",".join(term + spatial for term in inputs.split(","))
    return np.einsum(f"{terms}->{output}{spatial}", *operands)


def relative_trace(g, h, dim):
    """tr(g^{-1} h) per node for packed components g and h."""
    ginv = inverse_components(g, dim)
    if dim == 1:
        return ginv[0] * h[0]
    return ginv[0] * h[0] + 2.0 * ginv[1] * h[1] + ginv[2] * h[2]


def ebin_weight(comps, dim):
    """Packed (C, C) + shape matrix W with a . W . b = tr(g^{-1} a g^{-1} b).

    W S is the packed g^{-1} S g^{-1}, row p scaled by the multiplicity of
    entry p in a full-entry sum (1 on the diagonal, 2 off it).
    """
    ginv = packed_to_full(inverse_components(comps, dim), dim)
    pairs = packed_pairs(dim)
    weight = np.empty((len(pairs),) * 2 + ginv.shape[2:])
    for p, (i, j) in enumerate(pairs):
        for q, (k, l) in enumerate(pairs):
            weight[p, q] = ginv[i, k] * ginv[l, j]
            if k != l:
                weight[p, q] += ginv[i, l] * ginv[k, j]
            if i != j:
                weight[p, q] *= 2.0
    return weight


def product_trace(g: MetricField, a, b):
    """tr(g^{-1} a g^{-1} b) per node, an array of the grid's shape."""
    grid = require_same_grid(g, a, b)
    w = ebin_weight(g.components, grid.dim)
    return nodewise_einsum("p,pq,q->", grid.dim, a.components, w, b.components)


# ---------------------------------------------------------------------------
# volume map and Lie derivatives


def volume_map(g: MetricField) -> DensityField:
    """vol(g) = sqrt(det g) as a density w.r.t. Lebesgue."""
    return DensityField(g.grid, packed_volume(g.components, g.grid.dim))


def volume_tangent(g: MetricField, dg: SymTensorField) -> ScalarField:
    """Derivative of vol at g in direction dg: (1/2) tr(g^{-1} dg) vol(g)."""
    grid = require_same_grid(g, dg)
    tr = relative_trace(g.components, dg.components, grid.dim)
    return ScalarField(grid, 0.5 * tr * packed_volume(g.components, grid.dim))


def velocity_jet(vc, grid):
    """u = (v, D_0 v, ..., D_{dim-1} v) per node.

    vc has shape (dim,) + grid.shape with optional leading lane axes; u has
    shape lanes + (dim + dim^2,) + grid.shape, and entry dim + dim a + k is
    the central difference D_a v^k (one stencil call per axis).
    """
    dim = grid.dim
    vc = np.asarray(vc, dtype=float)
    v = vc.reshape((-1, dim) + grid.shape)
    jet = np.empty((v.shape[0], dim + dim * dim) + grid.shape)
    jet[:, :dim] = v
    for a in range(dim):
        jet[:, dim + dim * a : dim + dim * (a + 1)] = diff_array(v, grid, a)
    return jet.reshape(vc.shape[: -(dim + 1)] + jet.shape[1:])


def jet_adjoint(y, grid):
    """J^T y for jet-shaped y, lanes + (dim + dim^2,) + grid.shape.

    (J^T y)_k = y_k - sum_a D_a y_{dim + dim a + k}: the adjoint of
    ``velocity_jet`` under plain nodewise sums on the torus, where the
    central stencils are skew-adjoint; one stencil call per axis.
    """
    d, shape = grid.dim, grid.shape
    y2 = y.reshape((-1, d + d * d) + shape)
    out = y2[:, :d]
    for a in range(d):
        out = out - diff_array(y2[:, d + d * a : d + d * (a + 1)], grid, a)
    return out.reshape(y.shape[: -(d + 1)] + (d,) + shape)


def lie_jet_matrix(comps, grid):
    """Per-node matrix K of the Lie derivative: packed L_v g = K velocity_jet(v).

    (L_v g)_ij = v^k d_k g_ij + g_kj d_i v^k + g_ik d_j v^k, so K has shape
    (packed components, dim + dim^2) + comps' spatial shape, for packed
    metric components comps (size-1 spatial axes, a constant metric, are kept).
    """
    dim = grid.dim
    gfull = packed_to_full(comps, dim)
    dg = gradient_array(gfull, grid)  # dg[k, i, j] = d_k g_ij
    pairs = packed_pairs(dim)
    jet_map = np.zeros((len(pairs), dim + dim * dim) + gfull.shape[2:])
    for p, (i, j) in enumerate(pairs):
        for k in range(dim):
            jet_map[p, k] = dg[k, i, j]
            jet_map[p, dim + dim * i + k] += gfull[k, j]
            jet_map[p, dim + dim * j + k] += gfull[i, k]
    return jet_map


def lie_apply(jet_map, vc, grid):
    """Packed L_v g = K velocity_jet(v) for K = lie_jet_matrix; lanes of vc are kept."""
    return nodewise_einsum("pq,...q->...p", grid.dim, jet_map, velocity_jet(vc, grid))


def lie_derivative_metric(v: VectorField, g: MetricField) -> SymTensorField:
    """(L_v g)_ij = v^k d_k g_ij + g_kj d_i v^k + g_ik d_j v^k."""
    grid = require_same_grid(v, g)
    return SymTensorField(grid, lie_apply(lie_jet_matrix(g.components, grid), v.components, grid))


def trace_decompose(g: MetricField, h: SymTensorField):
    """Split h = z + (r/dim) g with tr(g^{-1} z) = 0; r = tr(g^{-1} h)."""
    grid = require_same_grid(g, h)
    dim = grid.dim
    hc = h.components
    r = relative_trace(g.components, hc, dim)
    z = hc - (r / dim) * g.components
    return SymTensorField(grid, z), ScalarField(grid, r)


# ---------------------------------------------------------------------------
# pullback and inversion


def pullback_metric(phi: DisplacementMap, g: MetricField) -> MetricField:
    """phi* g = dphi^T (g o phi) dphi with the map's stencil Jacobian."""
    grid = require_same_grid(phi.displacement, g)
    dim = grid.dim
    jac = _plus_identity(phi.jacobian)
    gfull = packed_to_full(phi.sample(g.components), dim)
    pulled = np.einsum("ik...,kl...,jl...->ij...", jac, gfull, jac)
    return MetricField(grid, full_to_packed(pulled, dim))


def _newton_step(ds, residual):
    """Solve (I + J) s = residual per node in closed form, J[i, k] = ds[k][i] = d_k S^i."""
    det = jacobian_det(ds)
    if len(ds) == 1:
        return residual / det
    return np.stack(
        [
            (1.0 + ds[1][1]) * residual[0] - ds[1][0] * residual[1],
            (1.0 + ds[0][0]) * residual[1] - ds[0][1] * residual[0],
        ]
    ) / det


def invert_displacement(phi: DisplacementMap, tol=1e-12) -> DisplacementMap:
    """Newton inverse of phi = id + u: solve F(w) = w + S[u](x + w) = 0 for w.

    phi^{-1} = id + w, and S[u] is the bilinear interpolant of u.  Each step
    solves (I + DS[u](x + w)) s = F(w) and sets w <- w - s, with DS[u] the
    exact derivative of the interpolant: a 2x2 solve per node in closed form
    (a division in 1-D).  A step thus costs one interpolation, which returns
    the derivative from the corners it gathers, and no stencil.  F is
    piecewise bilinear in w, so once the sample points have settled in their
    cells the steps shrink quadratically: the toy map of criterion 9 at box
    n = 128 converges in 5 steps, where the stencil Jacobian of the iterate
    took 9.  The iteration starts from w = -u, requires the contraction
    condition ||du||_inf < 1 (max row sum of ``phi.jacobian``, which the map
    already holds, so the inversion takes no stencil of phi), stops once
    max |step| < tol and gives up after 200 steps.  Only the returned map
    takes a stencil: its own Jacobian, one call per axis.

    The first step covers every node; later steps cover only the nodes
    whose last step was nonzero.  Each node's problem F_x(w) depends on that
    node's w alone, so a node whose step is exactly zero keeps its w, its
    next residual and step are zero again, and it is a fixed point of every
    later step.  Leaving it out changes no value (up to the sign of a zero)
    and no step count: the frozen nodes' steps are zero, so max |step| over
    the moving nodes is max |step| over the grid.  On the toy map at box
    n = 128, t = 0.53, the steps cover 16,384, 3,848, 3,765 and 2,645 nodes.
    The composite phi o phi^{-1} deviates from the identity by <= 10 * tol
    in the interpolated sense, checked on every node by one more
    interpolation.
    """
    grid = phi.grid
    u = phi.displacement.components
    row_sum = sum(np.abs(d) for d in phi.jacobian).max()
    if row_sum >= 1.0:
        raise NonInvertibleMapError(
            f"contraction condition violated: ||du||_inf = {row_sum:.3f} >= 1"
        )
    x = grid.coordinates()
    uinv = np.empty_like(u)  # each node's w, written after each of its steps
    # the moving nodes' flat indices, positions x and iterates w, one column each
    nodes = np.arange(grid.node_count)
    xm, wm = x.reshape(grid.dim, -1), -u.reshape(grid.dim, -1)
    for _ in range(200):
        if nodes.size:  # else every step from here on is zero, as the last one was
            sampled, ds = phi.sample(u, xm + wm, derivative=True)
            step = _newton_step(ds, wm + sampled)
            wm -= step
            size = float(np.max(np.abs(step)))
            for w_all, w in zip(uinv.reshape(grid.dim, -1), wm):
                w_all[nodes] = w
            moving = np.any(step != 0.0, axis=0)
            nodes = nodes[moving]
            xm, wm = np.compress(moving, xm, axis=1), np.compress(moving, wm, axis=1)
        if size < tol:
            break
    else:
        raise NonInvertibleMapError(
            f"Newton inversion stalled (last step {size:.3e} > tol {tol:.3e})"
        )
    dev = float(np.max(np.abs(uinv + phi.sample(u, x + uinv))))
    if dev > 10.0 * tol:
        raise NonInvertibleMapError(
            f"phi o phi^(-1) deviates from identity by {dev:.3e} > 10 tol"
        )
    return DisplacementMap(
        VectorField(grid, uinv),
        collar_width=phi.collar_width,
        collar_tol=max(10.0 * tol, phi.collar_tol, 1e-12),
    )

