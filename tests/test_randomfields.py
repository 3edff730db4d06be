"""Determinism and construction guarantees of the seeded field generators."""

import pathlib
import re

import numpy as np
import pytest

import metricflow
from metricflow import Grid, substream
from metricflow.randomfields import (
    _trig_tables,
    band_limited_density,
    band_limited_density_stack,
    band_limited_scalar,
    band_limited_sym_tensor,
    band_limited_values,
    band_limited_vector,
    random_spd_metric,
    random_spd_stack,
)
from metricflow.tensors import packed_det


def test_same_seed_bitwise_identical(torus16):
    a = random_spd_metric(torus16, substream(99, "demo"))
    b = random_spd_metric(torus16, substream(99, "demo"))
    assert np.array_equal(a.components, b.components)
    c = random_spd_metric(torus16, substream(100, "demo"))
    assert not np.array_equal(a.components, c.components)


def test_substream_depends_on_label_not_call_order():
    a1 = substream(5, "alpha").normal(size=4)
    b1 = substream(5, "beta").normal(size=4)
    b2 = substream(5, "beta").normal(size=4)
    a2 = substream(5, "alpha").normal(size=4)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def test_only_the_runners_seed_streams():
    # substream is defined in randomfields and called by the experiment runners
    # alone; library code takes generators and builds none
    seeding = re.compile(r"\b(substream|SeedSequence|default_rng)\(")
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in pathlib.Path(metricflow.__file__).parent.glob("*.py")
    }
    assert {name for name, text in sources.items() if seeding.search(text)} == {
        "randomfields.py",
        "experiments.py",
    }
    assert not any("seed +" in text for text in sources.values())


def test_amplitude_zero_gives_background(torus16):
    f = band_limited_scalar(torus16, substream(1, "scalar"), amplitude=0.0)
    assert np.all(f.values == 0.0)
    g = random_spd_metric(torus16, substream(1, "metric"), amplitude=0.0)
    assert np.allclose(g.components[0], 1.0)
    assert np.all(g.components[1] == 0.0)
    rho = band_limited_density(torus16, substream(1, "density"), amplitude=0.0)
    assert np.all(rho.values == 1.0)


def test_amplitude_controls_max(torus16):
    f = band_limited_scalar(torus16, substream(2, "scalar"), amplitude=0.37)
    assert np.max(np.abs(f.values)) == pytest.approx(0.37, abs=1e-12)


def test_spd_by_construction_sweep(torus16):
    # eigenvalue floor (1 - 0.499)^2 over a seed sweep
    for seed in range(200):
        g = random_spd_metric(torus16, substream(seed, "spd-sweep"), modes=3, amplitude=0.499)
        det = packed_det(g.components, 2)
        assert np.all(det > 1e-4)


def test_unresolvable_modes_rejected(torus16):
    with pytest.raises(ValueError):
        band_limited_values(torus16, [substream(1, "x")], modes=5)  # 4*5 > 16


def test_generators_require_torus():
    grid = Grid(2, "box", 16, extent=2.0)
    with pytest.raises(ValueError):
        band_limited_scalar(grid, substream(1, "scalar"))


def _loop_band_limited_values(grid, rng, modes, amplitude):
    """Reference: one full-grid cos/sin per wavevector, in the draw order."""
    x = grid.coordinates()
    out = np.zeros(grid.shape)
    if grid.dim == 1:
        wavevectors = [(k,) for k in range(1, modes + 1)]
    else:
        wavevectors = [
            (k0, k1)
            for k0 in range(-modes, modes + 1)
            for k1 in range(0, modes + 1)
            if not (k0 == 0 and k1 == 0) and not (k1 == 0 and k0 < 0)
        ]
    coeffs = rng.normal(size=(len(wavevectors), 2))
    for kvec, (a, b) in zip(wavevectors, coeffs):
        phase = 2.0 * np.pi * sum(k * x[i] for i, k in enumerate(kvec))
        out += a * np.cos(phase) + b * np.sin(phase)
    peak = float(np.max(np.abs(out)))
    if peak > 0.0 and amplitude != 0.0:
        out *= amplitude / peak
    elif amplitude == 0.0:
        out[:] = 0.0
    return out


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("amplitude", [0.0, 0.3, 1.0])
def test_separable_synthesis_matches_loop_oracle(dim, n, amplitude):
    grid = Grid(dim, "torus", n)
    for modes in sorted({1, 3, n // 4}):
        label = f"oracle-{dim}-{n}-{modes}-{amplitude}"
        rng_new, rng_ref = substream(3, label), substream(3, label)
        values = band_limited_values(grid, [rng_new], modes, amplitude)[0]
        expected = _loop_band_limited_values(grid, rng_ref, modes, amplitude)
        assert values.shape == grid.shape
        assert np.max(np.abs(values - expected)) <= 1e-13
        # both consumed the same stretch of the stream
        assert rng_new.normal() == rng_ref.normal()


def test_trig_tables_are_read_only(torus16):
    band_limited_values(torus16, [substream(1, "x")], modes=3)
    for table in _trig_tables(torus16, 3):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


@pytest.mark.parametrize(
    "dim, n, modes", [(1, 8, 2), (1, 20, 3), (1, 64, 16), (2, 8, 2), (2, 12, 3), (2, 40, 10)]
)
@pytest.mark.parametrize("amplitude", [0.0, 0.45, -2.0])
def test_stacked_draws_match_per_generator_calls(dim, n, modes, amplitude):
    grid = Grid(dim, "torus", n)

    def streams():
        return [substream(seed, f"stack-{dim}-{n}") for seed in range(3)]

    stacked, single = streams(), streams()
    values = band_limited_values(grid, stacked, modes, amplitude)
    assert values.shape == (3,) + grid.shape
    for field, rng in zip(values, single):
        assert np.array_equal(field, band_limited_values(grid, [rng], modes, amplitude)[0])
    assert [rng.normal() for rng in stacked] == [rng.normal() for rng in single]

    stacked, single = streams(), streams()
    metrics = random_spd_stack(grid, stacked, modes, amplitude)
    for comps, rng in zip(metrics, single):
        assert np.array_equal(comps, random_spd_metric(grid, rng, modes, amplitude).components)
    assert [rng.normal() for rng in stacked] == [rng.normal() for rng in single]

    stacked, single = streams(), streams()
    densities = band_limited_density_stack(grid, stacked, modes, amplitude)
    for rho, rng in zip(densities, single):
        assert np.array_equal(rho, band_limited_density(grid, rng, modes, amplitude).values)
    assert [rng.normal() for rng in stacked] == [rng.normal() for rng in single]


@pytest.mark.parametrize("dim, n, modes", [(1, 16, 2), (1, 32, 8), (2, 12, 3), (2, 16, 4)])
@pytest.mark.parametrize("per_generator", [1, 2, 3, 4])
def test_fields_per_generator_match_repeated_listing(dim, n, modes, per_generator):
    grid = Grid(dim, "torus", n)

    def streams():
        return [substream(seed, f"per-gen-{dim}-{n}") for seed in range(3)]

    # k fields per generator in one draw equal the generator listed k times in a row
    merged, listed = streams(), streams()
    values = band_limited_values(grid, merged, modes, 0.4, per_generator=per_generator)
    expected = band_limited_values(
        grid, [rng for rng in listed for _ in range(per_generator)], modes, 0.4
    )
    assert values.shape == (3 * per_generator,) + grid.shape
    assert np.array_equal(values, expected)
    assert [rng.normal() for rng in merged] == [rng.normal() for rng in listed]


@pytest.mark.parametrize("dim, n, modes", [(1, 16, 3), (2, 16, 3)])
@pytest.mark.parametrize("per_generator", [1, 4])
def test_runs_of_one_generator_match_one_field_draws_in_listing_order(dim, n, modes, per_generator):
    grid = Grid(dim, "torus", n)

    def streams():
        return [substream(seed, f"runs-{dim}") for seed in range(2)]

    grouped, single = streams(), streams()
    order = [0, 0, 1, 0, 1, 1]
    values = band_limited_values(
        grid, [grouped[i] for i in order], modes, 0.4, per_generator=per_generator
    )
    expected = [
        band_limited_values(grid, [single[i]], modes, 0.4)[0]
        for i in order
        for _ in range(per_generator)
    ]
    assert values.shape == (len(expected),) + grid.shape
    assert all(np.array_equal(v, e) for v, e in zip(values, expected))
    assert [rng.normal() for rng in grouped] == [rng.normal() for rng in single]

    # runs merge by identity only: two equal-seeded generators each draw their first entry
    twins = [substream(9, f"twin-{dim}"), substream(9, f"twin-{dim}")]
    first = band_limited_values(grid, [substream(9, f"twin-{dim}")], modes, 0.4)[0]
    for field in band_limited_values(grid, twins, modes, 0.4):
        assert np.array_equal(field, first)


@pytest.mark.parametrize("dim", [1, 2])
def test_typed_multi_field_draws_match_repeated_listing(dim):
    grid = Grid(dim, "torus", 16)
    count = {1: 1, 2: 3}[dim]
    rng = substream(4, f"typed-{dim}")
    v = band_limited_vector(grid, rng, 3, 0.5).components
    h = band_limited_sym_tensor(grid, rng, 3, 0.5).components
    ref = substream(4, f"typed-{dim}")
    assert np.array_equal(v, band_limited_values(grid, [ref] * dim, 3, 0.5))
    assert np.array_equal(h, band_limited_values(grid, [ref] * count, 3, 0.5))
