"""Infimal-convolution speeds, detour lengths, baseline distances."""

import numpy as np
import pytest

from metricflow import SeqSpace, baseline_distances, ic_speed, three_segment_length
from metricflow.seqdemo import (
    ic_speed_grid_search,
    segment_length,
    vanishing_sweep,
)


@pytest.fixture(scope="module")
def space():
    return SeqSpace()


def test_default_weights_name_n_max_where_they_underflow():
    assert SeqSpace(n_max=1074).weights[-1] > 0.0
    with pytest.raises(ValueError, match="n_max = 1075"):
        SeqSpace(n_max=1075)


def test_speed_of_zero_vector(space):
    assert ic_speed(space, space.vector([0.3, -0.2]), np.zeros(space.n_max)) == 0.0


def test_single_coordinate_harmonic_mean(space):
    # at the origin: speed = m_n f(0) / (m_n + f(0))
    for n in (1, 5, 20):
        u = space.basis(n)
        m_n = space.weights[n - 1]
        f0 = float(space.conformal_f(0.0))
        expected = m_n * f0 / (m_n + f0)
        assert ic_speed(space, space.vector([0.0]), u) == pytest.approx(expected, rel=1e-14)
        # brute-force split search approaches the same value from above
        brute = ic_speed_grid_search(space, space.vector([0.0]), u, split_grid=1000)
        assert 0.0 <= brute - expected <= (m_n + f0) / 4.0 * 1e-6 + 1e-15


def test_harmonic_mean_vs_grid_search_random(space):
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = space.vector(rng.normal(size=8) * 0.5)
        u = space.vector(rng.normal(size=12))
        closed = ic_speed(space, x, u)
        brute = ic_speed_grid_search(space, x, u, split_grid=1000)
        assert brute >= closed - 1e-12
        f_val = float(space.conformal_f(float(np.dot(x, x))))
        slack = np.dot(space.weights + f_val, u**2) / 4.0 * 1e-6
        assert brute - closed <= slack + 1e-12


def test_speed_below_both_factors(space):
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = space.vector(rng.normal(size=6))
        u = space.vector(rng.normal(size=10))
        speed = ic_speed(space, x, u)
        flat = float(np.dot(space.weights, u**2))
        conf = float(space.conformal_f(float(np.dot(x, x)))) * float(np.dot(u, u))
        assert speed <= flat + 1e-12
        assert speed <= conf + 1e-12


def test_three_segments_degenerate_middle(space):
    x = space.vector([0.4, -0.1])
    seg = three_segment_length(space, x, x, n=12)
    assert seg.len2 == 0.0
    assert seg.total == pytest.approx(seg.len1 + seg.len3)
    assert seg.total <= 2.0 * space.weights[11] ** 0.25


def test_detour_bounds_at_n20(space):
    # x = 0, y = e1: the reverse-triangle bound gives |c2|^2 >= 960
    seg = three_segment_length(space, [0.0], space.basis(1), n=20)
    assert seg.middle_norm_bound == pytest.approx(960.0)
    assert seg.len1 <= seg.bound_outer + 1e-12
    assert seg.len3 <= seg.bound_outer + 1e-12
    assert seg.len2 <= seg.bound_middle + 1e-12
    assert seg.total <= 2.0 * 2.0**-5 + 0.04  # about 0.1


def test_lengths_never_exceed_analytic_bounds(space):
    for n in (8, 12, 16, 20, 24):
        seg = three_segment_length(space, [0.0], space.basis(1), n=n)
        assert seg.total <= seg.analytic_bound + 1e-12


def test_totals_decrease_while_baselines_stay_fixed(space):
    rows = vanishing_sweep(space, [0.0], space.basis(1), ns=(8, 12, 16, 20, 24))
    totals = [r["total"] for r in rows]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert totals[-1] <= 0.05
    assert rows[0]["d1"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert rows[0]["d2_lower"] >= 0.02
    assert len({r["d1"] for r in rows}) == 1
    assert len({r["d2_lower"] for r in rows}) == 1


def test_baseline_distances_coincident_points(space):
    base = baseline_distances(space, [0.2, 0.1], [0.2, 0.1])
    assert base.d1 == 0.0
    assert base.d2_lower == 0.0


def test_baseline_flat_distance_single_coordinate(space):
    base = baseline_distances(space, [0.0], space.basis(1))
    assert base.d1 == pytest.approx(np.sqrt(0.5), abs=1e-15)
    # tube reaches |z| <= 2, f decreasing: lower bound sqrt(f(4)) * 1
    assert base.d2_lower == pytest.approx(np.sqrt(1.0 / 5.0), rel=1e-12)


def test_simpson_quadrature_converges():
    space = SeqSpace()
    x = space.vector([0.0])
    vals = [
        segment_length(space, x + space.basis(8) * 2.0 ** (8 / 4.0), space.basis(1), q)
        for q in (33, 2049)
    ]
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)

