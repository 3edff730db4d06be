"""Acceptance certificates: each measurement behind an acceptance criterion, once.

Every function returns measured quantities only; the tolerances they are
held to are pinned in ``tests/test_acceptance.py``.  The CLI reports the
same measurements: criterion 10 as we-norm's ``substrate`` block, criterion 2
as divergence-sweep's ``closed_forms`` block and criterion 9 as toy-geodesic's
spread and perturbation increases.
"""

from __future__ import annotations

import numpy as np

from .cg import solve_spd
from .divergences import DivergenceKind, divergence
from .fields import (
    DensityField,
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    diff_array,
    divergence_array,
    gradient_array,
    integrate_array,
    sample_array,
)
from .flatmaps import bump_and_gradient
from .tensors import MetricField
from .transport import (
    SolverConfig,
    displacement_path_energy,
    map_path,
    toy_geodesic,
    we_tangent_norm,
    wfr_normal_operator,
)

# ---------------------------------------------------------------------------
# criterion 10: the discrete calculus


def _derivative_err(n):
    g = Grid(2, "torus", n)
    x = g.coordinates()
    d = diff_array(np.sin(2 * np.pi * x[0]), g, 0)
    return float(np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x[0]))))


def _box_derivative_err(n):
    g = Grid(2, "box", n, extent=2.0)
    x = g.coordinates()
    d = diff_array(np.sin(x[0] + 0.3), g, 0)
    return float(np.max(np.abs(d - np.cos(x[0] + 0.3))))


def _quadrature_err(n):
    g = Grid(2, "box", n, extent=2.0)
    x = g.coordinates()
    val = float(integrate_array(np.exp(x[0]) * np.exp(x[1]), g))
    return abs(val - (np.e - np.exp(-1.0)) ** 2)


def _interpolation_err(n):
    g = Grid(2, "torus", n)
    x = g.coordinates()
    mids = (x + g.spacing / 2.0).reshape(2, -1)
    got = sample_array(np.sin(2 * np.pi * x[0]), g, mids)
    return float(np.max(np.abs(got - np.sin(2 * np.pi * mids[0]))))


# name -> (error at n nodes per axis, coarse n, fine n)
_REFINEMENT_PROBES = {
    "derivative": (_derivative_err, 32, 64),
    "box_derivative": (_box_derivative_err, 33, 65),
    "quadrature": (_quadrature_err, 33, 65),
    "interpolation": (_interpolation_err, 32, 64),
}


def refinement_ratio(name):
    """Coarse-to-fine error ratio of one calculus probe: 4 for a second-order stencil."""
    err, coarse, fine = _REFINEMENT_PROBES[name]
    return float(err(coarse) / err(fine))


def discrete_calculus(f: ScalarField, w, rng):
    """Adjointness, CG-vs-dense agreement and order-2 refinement of the stencils.

    ``f`` is a scalar field and ``w`` an array of vector components on the
    same torus grid; ``rng`` draws a standard normal right-hand side for the
    density normal operator (``transport.wfr_normal_operator``) at rho = 1,
    lam = 0.05 on the 8x8 torus.  That is the screened Laplacian
    ``u - 0.05 lap u``, so CG is checked on the operator the density norm
    solves.  Returns the integration-by-parts residual
    ``|Int f div w + Int grad f . w|``, the largest difference between the CG
    solve and a dense direct solve, and the coarse-to-fine error ratio of four
    calculus probes (4 for second order).
    """
    grid = f.grid
    ibp = float(integrate_array(f.values * divergence_array(w, grid), grid)) + float(
        integrate_array(np.sum(gradient_array(f.values, grid) * w, axis=0), grid)
    )

    g8 = Grid(2, "torus", 8)
    screened = wfr_normal_operator(DensityField.constant(g8, 1.0), SolverConfig(lam=0.05))
    rhs = rng.normal(size=g8.shape)
    n = g8.node_count
    # column j is the operator applied to the j-th unit vector, all in one apply
    dense = screened(np.eye(n).reshape((n,) + g8.shape)).reshape(n, n).T
    direct = np.linalg.solve(dense, rhs.ravel()).reshape(g8.shape)
    cg_err = float(np.max(np.abs(solve_spd(screened, rhs[None], tol=1e-12).x[0] - direct)))

    return {
        "ibp_residual": abs(ibp),
        "cg_vs_dense_error": cg_err,
        "refinement_ratios": {name: refinement_ratio(name) for name in _REFINEMENT_PROBES},
    }


# ---------------------------------------------------------------------------
# criterion 2: conformal closed forms


def conformal_closed_forms(cfg):
    """The conformal reference values, each with its exact target.

    Evaluated on the 2-D torus with 16 nodes per axis, where the targets
    hold; on these constant fields the values do not depend on the
    resolution.  ``cfg`` is the SolverConfig of the metric-norm solve.
    """
    grid = Grid(2, "torus", 16)
    d = grid.dim
    eye = MetricField.euclidean(grid)
    e_eye = MetricField.scaled_identity(grid, np.e)
    we_val = we_tangent_norm(eye, SymTensorField(grid, 0.5 * eye.components), cfg).value
    return {
        "we_conformal": {"value": we_val, "target": d * cfg.lam / 4.0 * 0.25 * d},
        "kl_met_conformal": {
            "value": divergence(DivergenceKind.KL_MET, eye, e_eye),
            "target": 1.0,
        },
        "density_projection_conformal": {
            "value": divergence(
                DivergenceKind.KL_DENSITY_FD,
                DensityField.constant(grid, 1.0),
                DensityField.constant(grid, np.e),
            ),
            "target": 1.0,
        },
        "tilde_kl_conformal": {
            "value": divergence(DivergenceKind.TILDE_KL_MET, eye, e_eye),
            "target": np.e - 2.0,
        },
    }


# ---------------------------------------------------------------------------
# criterion 9: straight toy geodesics


def toy_field(grid: Grid, amplitude):
    """The toy displacement on a 2-D box: a centred bump along (1, -1/2)."""
    psi, _ = bump_and_gradient(grid.coordinates(), (0.0, 0.0), 0.55 * grid.half_extent)
    comps = np.zeros((grid.dim,) + grid.shape)
    comps[0] = amplitude * psi
    comps[1] = -0.5 * amplitude * psi
    return VectorField(grid, comps)


def toy_geodesic_probe(grid: Grid, amplitude, n_t, rng, n_perturb):
    """Constant speed and local minimality of the straight toy geodesic.

    Returns ``(toy, relative_spread, increases)``: the ToyGeodesic of
    ``toy_field(grid, amplitude)`` over ``n_t`` intervals, the spread of its
    interval energies relative to the largest one, and the energy increase of
    each of ``n_perturb`` perturbed paths.  Each perturbation adds
    ``sin(pi t)`` times a bump of random centre and radius, drawn from ``rng``,
    pointing in a random direction of length ``0.2 * amplitude``; it vanishes
    at both ends of the path.

    Every map id + t f + sin(pi t) b of a perturbed path comes from
    ``transport.map_path`` with the two terms (t, f, Df) and
    (sin(pi t), b, Db), so it is held to the conditions of
    ``DisplacementMap`` (collar width 1) with Df and each Db taken once; a
    map that is not orientation preserving raises DegeneratePathError naming
    the perturbed path and its time.
    """
    f = toy_field(grid, amplitude)
    toy = toy_geodesic(f, n_t=n_t)
    energies = toy.interval_energies
    spread = float(np.max(energies) - np.min(energies))
    relative_spread = spread / max(float(np.max(energies)), 1e-300)

    coords = grid.coordinates()
    he = grid.half_extent
    ts = np.linspace(0.0, 1.0, n_t + 1)
    along_f = (lambda t: t, f.components, gradient_array(f.components, grid))
    increases = []
    for j in range(n_perturb):
        center = rng.uniform(-0.2 * he, 0.2 * he, size=2)
        radius = he * rng.uniform(0.35, 0.5)
        wpsi, _ = bump_and_gradient(coords, center, radius)
        direction = rng.normal(size=2)
        direction *= 0.2 * amplitude / np.linalg.norm(direction)
        bump = np.stack([direction[0] * wpsi, direction[1] * wpsi])
        terms = [along_f, (lambda t: np.sin(np.pi * t), bump, gradient_array(bump, grid))]
        path = map_path(grid, ts, terms, f"perturbed path {j}")
        energy = displacement_path_energy((m.displacement.components for m in path), grid, n_t)
        increases.append(energy - toy.energy)
    return toy, relative_spread, increases
