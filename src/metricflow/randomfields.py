"""Seeded band-limited random fields.

Every kernel draws from the ``numpy.random.Generator`` streams it is given
and seeds none itself.  One policy keys the streams: only the experiment
runners call ``substream(cfg.seed, label)``, whose label names the draw and
its index (``"we-norm-g-3"``), so a stream depends only on the 64-bit seed
and the label, never on execution order, and no two seeds share a stream.
Its four entropy words are the first 16 bytes of sha256("seed:label"),
expanded to PCG64's seed by NumPy's ``SeedSequence``.

Scalar fields are truncated Fourier series with modes up to m = ``modes``
per axis (must be resolvable, m <= n_per_axis / 4) rescaled to a prescribed
max amplitude.  The series is synthesized separably: the coefficients of
the wavevectors (k0, k1) fill two (2m+1) x (m+1) matrices A and B, and with
the 1D tables C[k, i] = cos(2 pi k x_i), S[k, i] = sin(2 pi k x_i) the field
is C^T (A C+ + B S+) + S^T (B C+ - A S+), where C+ and S+ are the rows
k >= 0: six small matrix products in place of one full-grid cos/sin per
wavevector (in 1D, one weighted sum of the rows k = 1..m of C and S).  The
tables depend only on the grid and m; they are cached per (grid, m) and
read-only.

SPD fields are built as (I + eps)^T (I + eps) with the perturbation eps
capped strictly below 1/2 in operator norm, so positive definiteness holds
by construction.

The kernels take a sequence of generators and return a stack with a leading
field (or pair) axis: per generator, ``band_limited_values`` returns
``per_generator`` scalar series, ``random_spd_stack`` one metric's packed
components and ``band_limited_density_stack`` one density.  The
coefficients are drawn in the order listed, with one ``normal`` call per
run of consecutive entries that are the same generator object; ``normal``
fills its values in order, so a generator listed k times draws its k
entries as k one-entry draws from it would.  Every field of the stack is
then synthesized in one batched product, bit-identical to drawing the
fields one at a time.  The typed one-field functions
(``band_limited_scalar``, ``band_limited_vector``, ``random_spd_metric``,
...) are one-generator calls of the same kernels.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np

from .fields import (
    TORUS,
    DensityField,
    ScalarField,
    SymTensorField,
    VectorField,
    sym_component_count,
)
from .tensors import MetricField, eigenvalues_2x2, jacobian_gram, spd_violations


def substream(seed, label: str) -> np.random.Generator:
    """Deterministic generator for (seed, label), seeded by NumPy's SeedSequence.

    Its four entropy words are the first 16 bytes of sha256("seed:label").
    """
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode()).digest()[:16]
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


def _check_modes(grid, modes):
    if grid.topology != TORUS:
        raise ValueError("band-limited generators are defined on torus grids")
    if modes < 1 or 4 * modes > grid.n_per_axis:
        raise ValueError(
            f"modes must satisfy 1 <= modes <= n_per_axis/4, got {modes} "
            f"at n_per_axis={grid.n_per_axis}"
        )


@functools.lru_cache(maxsize=64)
def _trig_tables(grid, modes):
    """Read-only cos/sin(2 pi k x) over one axis's coordinates, rows k = -modes..modes."""
    phase = 2.0 * np.pi * np.outer(np.arange(-modes, modes + 1), grid.axis_coordinates())
    tables = np.cos(phase), np.sin(phase)
    for table in tables:
        table.setflags(write=False)
    return tables


def _normal_draws(rngs, size):
    """``size``-shaped normal draws per listed generator, stacked along axis 0.

    One ``normal`` call per run of consecutive entries that are the same
    generator object (identity, not equality): ``normal`` fills its values
    in order, so a run of k entries draws what k calls would.
    """
    runs = [list(run) for _, run in itertools.groupby(rngs, key=id)]
    return np.concatenate(
        [run[0].normal(size=(len(run) * size[0],) + size[1:]) for run in runs]
    )


def band_limited_values(grid, rngs, modes=4, amplitude=1.0, *, per_generator=1):
    """``per_generator`` truncated Fourier series per generator, each at the max amplitude.

    Returns shape (len(rngs) * per_generator,) + grid.shape, a generator's
    fields next to each other.  The coefficients are drawn in the order
    given, with one ``normal`` call per run of consecutive entries that are
    the same generator object, so a generator listed k times draws its k
    entries in order, as k calls with it would; then every field is
    synthesized in one batched product.  A single field is
    ``band_limited_values(grid, [rng], ...)[0]``.
    """
    _check_modes(grid, modes)
    cos, sin = _trig_tables(grid, modes)
    if grid.dim == 1:
        coeffs = _normal_draws(rngs, (per_generator, modes, 2))
        # one (1, m) row per field: a stacked (F, m) @ (m, n) product rounds
        # differently from the one-field vector-matrix product
        out = (
            coeffs[:, None, :, 0] @ cos[modes + 1 :] + coeffs[:, None, :, 1] @ sin[modes + 1 :]
        )[:, 0]
    else:
        # coefficients of the wavevectors (k0, k1), k0 in [-m, m], k1 in [0, m],
        # drawn in row-major order over the half plane that skips (k0 <= 0, k1 = 0)
        kept = np.ones((2 * modes + 1, modes + 1), dtype=bool)
        kept[: modes + 1, 0] = False
        coeffs = _normal_draws(rngs, (per_generator, int(kept.sum()), 2))
        a = np.zeros((len(coeffs),) + kept.shape)
        b = np.zeros((len(coeffs),) + kept.shape)
        a[:, kept] = coeffs[..., 0]
        b[:, kept] = coeffs[..., 1]
        cos1, sin1 = cos[modes:], sin[modes:]
        # cos(p + q) = cos p cos q - sin p sin q, sin(p + q) = sin p cos q + cos p sin q
        out = cos.T @ (a @ cos1 + b @ sin1) + sin.T @ (b @ cos1 - a @ sin1)
    amplitude = float(amplitude)
    if amplitude == 0.0:
        out[:] = 0.0
    else:
        peak = np.max(np.abs(out), axis=tuple(range(1, out.ndim)), keepdims=True)
        # a field that is zero everywhere stays as it is
        out *= np.divide(amplitude, peak, out=np.ones_like(peak), where=peak > 0.0)
    return out


def band_limited_scalar(grid, rng, modes=4, amplitude=1.0) -> ScalarField:
    return ScalarField(grid, band_limited_values(grid, [rng], modes, amplitude)[0])


def band_limited_vector(grid, rng, modes=4, amplitude=1.0) -> VectorField:
    values = band_limited_values(grid, [rng], modes, amplitude, per_generator=grid.dim)
    return VectorField(grid, values)


def band_limited_sym_tensor(grid, rng, modes=4, amplitude=1.0) -> SymTensorField:
    count = sym_component_count(grid.dim)
    values = band_limited_values(grid, [rng], modes, amplitude, per_generator=count)
    return SymTensorField(grid, values)


def _checked(stack, valid, field):
    """``stack`` if ``valid``; else ``field`` of each entry in turn.

    The first invalid entry then raises its own field's error, as a
    one-field draw would.
    """
    if not valid:
        for values in stack:
            field(values)
    return stack


def band_limited_density_stack(grid, rngs, modes=4, amplitude=0.5):
    """exp of ``band_limited_values``: values (len(rngs),) + grid.shape, checked as densities."""
    values = np.exp(band_limited_values(grid, rngs, modes, amplitude))
    valid = np.all(values > 0.0) and np.all(np.isfinite(values))
    return _checked(values, valid, lambda v: DensityField(grid, v))


def band_limited_density(grid, rng, modes=4, amplitude=0.5) -> DensityField:
    """exp of a band-limited field; amplitude bounds |log density|."""
    return DensityField(grid, band_limited_density_stack(grid, [rng], modes, amplitude)[0])


def random_spd_stack(grid, rngs, modes=4, amplitude=0.3):
    """Packed components of one metric per generator, shape (len(rngs), C) + grid.shape.

    Each metric is (I + eps)^T (I + eps) with ||eps||_op <= min(amplitude,
    0.499) nodewise, its entries drawn from its own generator, and is
    checked as MetricField checks it.
    """
    cap = min(float(amplitude), 0.499)
    if grid.dim == 1:
        eps = band_limited_values(grid, rngs, modes, cap)
        comps = ((1.0 + eps) ** 2)[:, None]
    else:
        # four entries per metric; the matrix axes go first, as the tensor kernels take them
        entries = band_limited_values(grid, rngs, modes, 1.0, per_generator=4)
        entries = entries.reshape(len(rngs), 2, 2, *grid.shape).transpose(1, 2, 0, 3, 4)
        # exact nodewise spectral norm of a 2x2 matrix via its singular values
        sq = np.einsum("ki...,kj...->ij...", entries, entries)
        tr = sq[0, 0] + sq[1, 1]
        det = sq[0, 0] * sq[1, 1] - sq[0, 1] * sq[1, 0]
        sigma_max = np.sqrt(np.maximum(eigenvalues_2x2(tr, det)[1], 0.0))
        peak = np.max(sigma_max, axis=(1, 2), keepdims=True)
        entries *= np.divide(cap, peak, out=np.ones_like(peak), where=peak > 0.0)
        comps = jacobian_gram(entries).swapaxes(0, 1)
    valid = np.all(np.isfinite(comps)) and not np.any(
        spd_violations(comps.swapaxes(0, 1), grid.dim)
    )
    return _checked(comps, valid, lambda c: MetricField(grid, c))


def random_spd_metric(grid, rng, modes=4, amplitude=0.3) -> MetricField:
    """One metric of ``random_spd_stack``."""
    return MetricField(grid, random_spd_stack(grid, [rng], modes, amplitude)[0])
