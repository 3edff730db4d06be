"""Grids, discrete fields and finite-difference calculus.

Domains are the unit torus (periodic in every axis, extent fixed to 1) or a
centered box [-L, L]^d; ``Grid`` is a frozen dataclass.  All fields store one
value set per grid node in row-major layout; arrays are frozen after
construction so every operation in the package is a pure function of its
inputs.  A constrained field subclasses the field it constrains:
``DensityField`` is a positive ``ScalarField``, ``tensors.MetricField`` an
SPD ``SymTensorField``.

The calculus works on value arrays, not on fields: a caller hands
``field.values`` or ``field.components`` to the array kernel, and every
kernel keeps leading lane or pair axes.  Discretization conventions:
  * derivatives (``diff_array``): second-order central stencils; the torus
    wraps, the box uses second-order one-sided stencils on the boundary; a
    fourth-order central stencil is available on the torus where a probe
    needs the extra accuracy,
  * quadrature (``integrate_array``): rectangle rule on the torus, trapezoid
    weights on the box,
  * interpolation (``sample_array``): bilinear (linear in 1D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, OutOfDomainError, PositivityViolation

TORUS = "torus"
BOX = "box"


@dataclass(frozen=True, slots=True)
class Grid:
    """Uniform grid on the unit torus or a centered box.

    Parameters
    ----------
    dim : 1 or 2
    topology : "torus" or "box"
    n_per_axis : nodes per axis, at least 8
    extent : side length; must be 1.0 on the torus, a finite 2*L > 0 on the box
    """

    dim: int
    topology: str
    n_per_axis: int
    extent: float = 1.0

    def __post_init__(self):
        dim, topology, n_per_axis = self.dim, self.topology, self.n_per_axis
        if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (1, 2):
            raise ValueError(f"dim must be the integer 1 or 2, got {dim!r}")
        if topology not in (TORUS, BOX):
            raise ValueError(f"topology must be '{TORUS}' or '{BOX}', got {topology!r}")
        if isinstance(n_per_axis, bool) or not isinstance(n_per_axis, int):
            raise ValueError(f"n_per_axis must be an integer, got {n_per_axis!r}")
        if n_per_axis < 8:
            raise ValueError(f"n_per_axis must be >= 8, got {n_per_axis}")
        extent = float(self.extent)
        if topology == TORUS and extent != 1.0:
            raise ValueError("torus grids have extent fixed to 1.0")
        if not 0.0 < extent < np.inf:
            raise ValueError(f"extent must be positive and finite, got {extent}")
        object.__setattr__(self, "extent", extent)

    @property
    def spacing(self):
        if self.topology == TORUS:
            return self.extent / self.n_per_axis
        return self.extent / (self.n_per_axis - 1)

    @property
    def shape(self):
        return (self.n_per_axis,) * self.dim

    @property
    def node_count(self):
        return self.n_per_axis**self.dim

    @property
    def half_extent(self):
        """Box half side L; the box spans [-L, L] per axis."""
        return self.extent / 2.0

    def axis_coordinates(self):
        """1D node coordinates along one axis."""
        n, h = self.n_per_axis, self.spacing
        if self.topology == TORUS:
            return h * np.arange(n)
        return -self.half_extent + h * np.arange(n)

    def coordinates(self):
        """Node coordinates, shape (dim,) + shape."""
        ax = self.axis_coordinates()
        if self.dim == 1:
            return ax[None, :]
        x0, x1 = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([x0, x1])


def require_finite(values):
    """values, unchanged; ValueError if any entry is not finite, as a field refuses it."""
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return values


def _frozen(values, shape):
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"expected value array of shape {shape}, got {arr.shape}")
    require_finite(arr)
    arr.setflags(write=False)
    return arr


def node_at(flat_index, shape):
    """The node, a tuple of ints, at a flat (argmin or argmax) index into ``shape``."""
    return tuple(int(i) for i in np.unravel_index(int(flat_index), shape))


def sym_component_count(dim):
    return dim * (dim + 1) // 2


class ScalarField:
    """One real per node."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _frozen(values, grid.shape)

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))


class DensityField(ScalarField):
    """One strictly positive real per node (Radon-Nikodym w.r.t. Lebesgue)."""

    def __init__(self, grid, values):
        # positivity comes before finiteness: a 0 next to an inf names the 0
        arr = np.asarray(values, dtype=float)
        if arr.shape == grid.shape and not np.all(arr > 0.0):
            node = node_at(np.argmin(arr), grid.shape)
            raise PositivityViolation(
                f"density must be strictly positive; node {node} has value {arr[node]}",
                node=node,
            )
        super().__init__(grid, arr)


class VectorField:
    """dim reals per node, stored as components[k] = k-th coordinate."""

    def __init__(self, grid, components):
        self.grid = grid
        self.components = _frozen(components, (grid.dim,) + grid.shape)

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    @classmethod
    def constant(cls, grid, vec):
        comps = np.empty((grid.dim,) + grid.shape)
        for k in range(grid.dim):
            comps[k] = vec[k]
        return cls(grid, comps)


class SymTensorField:
    """Symmetric 2-tensor per node; packed components (11,) in 1D, (11, 12, 22) in 2D."""

    def __init__(self, grid, components):
        self.grid = grid
        self.components = _frozen(components, (sym_component_count(grid.dim),) + grid.shape)

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros((sym_component_count(grid.dim),) + grid.shape))

    @classmethod
    def from_matrix_entries(cls, grid, a11, a12=None, a22=None):
        if grid.dim == 1:
            return cls(grid, np.asarray(a11, dtype=float)[None])
        broad = [np.broadcast_to(np.asarray(a, dtype=float), grid.shape) for a in (a11, a12, a22)]
        return cls(grid, np.stack(broad))


def require_same_grid(*fields):
    grids = [f.grid for f in fields]
    for g in grids[1:]:
        if g != grids[0]:
            raise GridMismatchError(f"fields live on different grids: {grids[0]} vs {g}")
    return grids[0]


# ---------------------------------------------------------------------------
# finite differences


def _periodic_shift(a, s, ax):
    """Periodic neighbour array: entry i along axis ax is a[(i + s) mod n].

    Built from two slices, the same values np.roll(a, -s, axis=ax) gives.
    """
    ix = [slice(None)] * a.ndim
    ix[ax] = slice(s, None)
    head = a[tuple(ix)]
    ix[ax] = slice(None, s)
    return np.concatenate((head, a[tuple(ix)]), axis=ax)


def diff_array(values, grid, axis, order=2):
    """Partial derivative of a nodal array along one coordinate axis.

    Works on arrays with arbitrary leading component axes; the trailing
    grid.dim axes are the spatial ones.
    """
    if axis < 0 or axis >= grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    a = np.asarray(values, dtype=float)
    h = grid.spacing
    ax = a.ndim - grid.dim + axis
    if grid.topology == TORUS:
        fwd = _periodic_shift(a, 1, ax)
        bwd = _periodic_shift(a, -1, ax)
        if order == 2:
            return (fwd - bwd) / (2.0 * h)
        fwd2 = _periodic_shift(a, 2, ax)
        bwd2 = _periodic_shift(a, -2, ax)
        return (8.0 * (fwd - bwd) - (fwd2 - bwd2)) / (12.0 * h)
    if order == 4:
        raise ValueError("fourth-order stencils are only available on torus grids")
    out = np.empty_like(a)
    ix = [slice(None)] * a.ndim

    def sl(idx):
        ix[ax] = idx
        return tuple(ix)

    inner = out[sl(slice(1, -1))]
    np.subtract(a[sl(slice(2, None))], a[sl(slice(0, -2))], out=inner)
    inner /= 2.0 * h
    out[sl(0)] = (-3.0 * a[sl(0)] + 4.0 * a[sl(1)] - a[sl(2)]) / (2.0 * h)
    out[sl(-1)] = (3.0 * a[sl(-1)] - 4.0 * a[sl(-2)] + a[sl(-3)]) / (2.0 * h)
    return out


def gradient_array(values, grid, order=2):
    """Stack of all partial derivatives, shape (dim,) + value shape."""
    return np.stack([diff_array(values, grid, k, order) for k in range(grid.dim)])


def divergence_array(components, grid):
    """Sum_k d_k components[k] for an array of shape (dim,)+grid.shape.

    Leading lane axes are kept: the component axis is read as -(dim + 1).
    """
    comps = np.moveaxis(np.asarray(components, dtype=float), -(grid.dim + 1), 0)
    out = diff_array(comps[0], grid, 0)
    for k in range(1, grid.dim):
        out = out + diff_array(comps[k], grid, k)
    return out


# ---------------------------------------------------------------------------
# quadrature


def quadrature_weights(grid):
    """Nodal quadrature weights; rectangle rule (torus) or trapezoid (box)."""
    h = grid.spacing
    if grid.topology == TORUS:
        return np.full(grid.shape, h**grid.dim)
    w1 = np.full(grid.n_per_axis, h)
    w1[0] = w1[-1] = h / 2.0
    if grid.dim == 1:
        return w1
    return np.outer(w1, w1)


def integrate_array(values, grid):
    """Nodal quadrature of an array over its trailing grid.dim axes; leading axes are kept."""
    return np.sum(values * quadrature_weights(grid), axis=tuple(range(-grid.dim, 0)))


# ---------------------------------------------------------------------------
# interpolation

_DOMAIN_SLACK = 1e-9


def sample_array(values, grid, positions, derivative=False):
    """Bilinear (linear in 1D) interpolation of a nodal array at positions.

    ``values`` may carry leading component axes; ``positions`` has shape
    (dim,) + S for any S.  Torus positions wrap; box positions must lie in
    [-L, L] up to a small roundoff slack.  With ``derivative`` the result is
    ``(samples, gradient)``: gradient[k] is the exact derivative of the
    interpolant along axis k, shape (dim,) + samples.shape, formed from the
    same four corners (on a cell face, the cell on the higher side except at
    the box's upper edge).
    """
    a = np.asarray(values, dtype=float)
    pos = np.asarray(positions, dtype=float)
    if pos.shape[0] != grid.dim:
        raise ValueError(f"positions must have leading dim {grid.dim}")
    n, h = grid.n_per_axis, grid.spacing
    lead = a.shape[: a.ndim - grid.dim]
    # corners are gathered by flat node index (row * n + column): one np.take
    # per corner costs about half of a two-array fancy index on the node axes
    flat = a.reshape(-1, grid.node_count)

    if grid.topology == TORUS:
        t = np.mod(pos, grid.extent) / h
        i0 = np.floor(t).astype(int)
        frac = t - i0
        i0 = np.mod(i0, n)
        i1 = np.mod(i0 + 1, n)
    else:
        half = grid.half_extent
        slack = _DOMAIN_SLACK * grid.extent
        if np.any(pos < -half - slack) or np.any(pos > half + slack):
            worst = float(np.max(np.abs(pos)))
            raise OutOfDomainError(
                f"sample position outside box domain [-{half}, {half}] (|x| up to {worst})"
            )
        t = (np.clip(pos, -half, half) + half) / h
        i0 = np.clip(np.floor(t).astype(int), 0, n - 2)
        frac = t - i0
        i1 = i0 + 1

    def corner(index):
        return np.take(flat, index, axis=1)

    if grid.dim == 1:
        c0, c1 = corner(i0[0]), corner(i1[0])
        v = c0 * (1.0 - frac[0]) + c1 * frac[0]
        if derivative:
            slopes = [c1 - c0]
    else:
        f0, f1 = frac[0], frac[1]
        r0, r1 = i0[0] * n, i1[0] * n
        c00, c10 = corner(r0 + i0[1]), corner(r1 + i0[1])
        c01, c11 = corner(r0 + i1[1]), corner(r1 + i1[1])
        v = (
            c00 * (1.0 - f0) * (1.0 - f1)
            + c10 * f0 * (1.0 - f1)
            + c01 * (1.0 - f0) * f1
            + c11 * f0 * f1
        )
        if derivative:
            slopes = [
                (c10 - c00) * (1.0 - f1) + (c11 - c01) * f1,
                (c01 - c00) * (1.0 - f0) + (c11 - c10) * f0,
            ]
    v = v.reshape(lead + pos.shape[1:])
    if not derivative:
        return v
    return v, np.stack(slopes).reshape((grid.dim,) + v.shape) / h
