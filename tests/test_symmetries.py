"""The discrete torus inherits the symmetries of the continuum, and the norms see them.

A (3, 5)-cell translation and the 8 symmetries of the square map the nodes
of the torus n = 32 onto themselves and commute with the central stencils
and the rectangle rule.  So every quantity built from them must be invariant
when its fields are carried along: scalars as f(R^T x), vectors as
R v(R^T x), symmetric tensors as R g(R^T x) R^T.  Each value may move by
roundoff only (1e-13 relative; the pi1 lift gap relative to the norms it
is the difference of), and each solve by at most one iteration.
Hypothesis also draws translations and draw seeds for the WE and WFR norms:
the FFT preconditioners are exactly what a translation must commute with.
The scaling laws WE(c g, c dg) = c^(d/2) WE and WFR(c rho, c drho) = c WFR
hold to the same tolerance, and so do the WE, Ebin and WFR energies of a
linear metric path under each symmetry.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricflow import (
    DensityField,
    DivergenceKind,
    Grid,
    MetricField,
    ScalarField,
    SymTensorField,
    divergence,
    ebin_inner,
    linear_metric_path,
    path_energy,
    verify_pi1_submersion,
    we_tangent_norm,
    wfr_tangent_norm,
)
from metricflow.randomfields import (
    band_limited_density,
    band_limited_scalar,
    band_limited_sym_tensor,
    random_spd_metric,
    substream,
)
from metricflow.tensors import full_to_packed, packed_to_full

GRID = Grid(2, "torus", 32)
REL = 1e-13

# the 8 signed permutation matrices of the square, then the translation
SQUARE = [
    sign[:, None] * np.eye(2)[list(perm)]
    for perm in itertools.permutations(range(2))
    for sign in (np.array(s, dtype=float) for s in itertools.product((1, -1), repeat=2))
]
SYMMETRIES = [(r, (0, 0)) for r in SQUARE] + [(np.eye(2), (3, 5))]
IDS = [f"square{k}" for k in range(len(SQUARE))] + ["translate(3,5)"]


def _source_nodes(rotation, shift):
    """Index arrays i with node j = R i + shift, so a carried scalar reads f[i] at j."""
    j = np.indices(GRID.shape).reshape(2, -1) - np.array(shift)[:, None]
    i = np.rint(rotation.T @ j).astype(int) % GRID.n_per_axis
    return tuple(i.reshape((2,) + GRID.shape))


def _carry(field, rotation, shift):
    """The field carried by x -> R x + shift, of the same kind."""
    idx = _source_nodes(rotation, shift)
    if isinstance(field, ScalarField):
        return type(field)(GRID, field.values[idx])
    full = packed_to_full(field.components, 2)[(slice(None), slice(None)) + idx]
    turned = np.einsum("ab,bc...,dc->ad...", rotation, full, rotation)
    return type(field)(GRID, full_to_packed(turned, 2))


@pytest.fixture(scope="module")
def problem():
    g0 = random_spd_metric(GRID, substream(3, "sym-g0"), modes=3, amplitude=0.25)
    g1 = random_spd_metric(GRID, substream(3, "sym-g1"), modes=3, amplitude=0.25)
    dg = band_limited_sym_tensor(GRID, substream(3, "sym-dg"), modes=3, amplitude=0.25)
    rho0 = band_limited_density(GRID, substream(3, "sym-rho0"), modes=3, amplitude=0.4)
    rho1 = band_limited_density(GRID, substream(3, "sym-rho1"), modes=3, amplitude=0.4)
    drho = band_limited_scalar(GRID, substream(3, "sym-drho"), modes=3, amplitude=0.4)
    return g0, g1, dg, rho0, rho1, drho


def _measure(g0, g1, dg, rho0, rho1, drho):
    """(values, iteration counts) of every quantity under test."""
    we = we_tangent_norm(g0, dg)
    wfr = wfr_tangent_norm(rho0, drho)
    lift = verify_pi1_submersion(g0, drho, ())
    values = {
        "we": we.value,
        "wfr": wfr.value,
        "ebin": ebin_inner(g0, dg, dg),
        "kl_met": divergence(DivergenceKind.KL_MET, g0, g1),
        "classical_kl": divergence(DivergenceKind.CLASSICAL_KL, rho0, rho1),
        "lift_we": lift.we_value_of_lift,
        "lift_wfr": lift.wfr_value,
    }
    return values, {"we": we.iterations, "wfr": wfr.iterations}


@pytest.fixture(scope="module")
def reference(problem):
    return _measure(*problem)


@pytest.mark.parametrize("rotation, shift", SYMMETRIES, ids=IDS)
def test_norms_and_divergences_are_invariant(problem, reference, rotation, shift):
    values, iterations = _measure(*(_carry(f, rotation, shift) for f in problem))
    ref_values, ref_iterations = reference
    for name, value in values.items():
        assert abs(value - ref_values[name]) <= REL * abs(ref_values[name]), name
    for name, count in iterations.items():
        assert abs(count - ref_iterations[name]) <= 1, name
    # the lift gap is a small difference of two norms, so it is measured
    # against the norms it is the difference of
    gap, ref_gap = (v["lift_we"] - v["lift_wfr"] for v in (values, ref_values))
    assert abs(gap - ref_gap) <= REL * ref_values["lift_we"]


@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(
    shift=st.tuples(*[st.integers(0, GRID.n_per_axis - 1)] * 2).filter(any),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_translations_keep_both_norms(shift, seed):
    g = random_spd_metric(GRID, substream(seed, "sym-g"), modes=3, amplitude=0.25)
    dg = band_limited_sym_tensor(GRID, substream(seed, "sym-dg"), modes=3, amplitude=0.25)
    rho = band_limited_density(GRID, substream(seed, "sym-rho"), modes=3, amplitude=0.4)
    drho = band_limited_scalar(GRID, substream(seed, "sym-drho"), modes=3, amplitude=0.4)
    for norm, base, tangent in ((we_tangent_norm, g, dg), (wfr_tangent_norm, rho, drho)):
        ref = norm(base, tangent)
        moved = norm(*(_carry(f, np.eye(2), shift) for f in (base, tangent)))
        assert abs(moved.value - ref.value) <= REL * abs(ref.value), norm.__name__
        assert abs(moved.iterations - ref.iterations) <= 1, norm.__name__


@pytest.mark.parametrize("c", [0.5, 3.0])
def test_scaling_laws(problem, reference, c):
    g0, _, dg, rho0, _, drho = problem
    ref_values, ref_iterations = reference
    we = we_tangent_norm(
        MetricField(GRID, c * g0.components), SymTensorField(GRID, c * dg.components)
    )
    wfr = wfr_tangent_norm(DensityField(GRID, c * rho0.values), ScalarField(GRID, c * drho.values))
    for value, expected in (
        (we.value, c ** (GRID.dim / 2) * ref_values["we"]),
        (wfr.value, c * ref_values["wfr"]),
    ):
        assert abs(value - expected) <= REL * abs(expected)
    assert abs(we.iterations - ref_iterations["we"]) <= 1
    assert abs(wfr.iterations - ref_iterations["wfr"]) <= 1


def test_path_energies_are_invariant(problem):
    g0, g1 = problem[:2]

    def energies(a, b):
        path = linear_metric_path(a, b, n_t=4)
        return {which: path_energy(path, which=which) for which in ("we", "ebin", "wfr")}

    reference = energies(g0, g1)
    for (rotation, shift), name in zip(SYMMETRIES, IDS):
        moved = energies(_carry(g0, rotation, shift), _carry(g1, rotation, shift))
        for which, value in moved.items():
            assert abs(value - reference[which]) <= REL * abs(reference[which]), (name, which)
