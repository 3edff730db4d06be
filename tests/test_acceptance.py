"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import time

import numpy as np

from metricflow import (
    DivergenceKind,
    Grid,
    MetricField,
    SeqSpace,
    SolverConfig,
    VectorField,
    divergence,
    euler_alpha_lagrangian,
    factorize_flat_metric,
    flat_pullback_instance,
    frame_and_connection,
    linear_metric_path,
    non_flat_instance,
    path_energy,
    second_variation_probe,
    vanishing_sweep,
    verify_pi1_submersion,
    volume_map,
)
from metricflow.certificates import (
    conformal_closed_forms,
    discrete_calculus,
    toy_geodesic_probe,
)
from metricflow.divergences import (
    METRIC_KINDS,
    conformal_lift,
    density_ratio_gap_stack,
    divergence_stack,
    eigenvalue_gap_stack,
)
from metricflow.randomfields import (
    band_limited_density,
    band_limited_density_stack,
    band_limited_scalar,
    band_limited_sym_tensor,
    band_limited_vector,
    random_spd_metric,
    random_spd_stack,
    substream,
)

CFG = SolverConfig()
K = DivergenceKind


def report(number, description, ok, detail="", elapsed=None):
    """Print the criterion's ACCEPTANCE line and assert ``ok``.

    A timed criterion prints its wall time on a TIMING line of its own, so
    the ACCEPTANCE lines of two runs of one tree are identical; the time is
    also in the assertion message, as the time gate may be what failed.
    """
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {description} {detail}")
    timing = ""
    if elapsed is not None:
        print(f"TIMING {number:02d} {elapsed:.1f}s")
        timing = f" in {elapsed:.1f}s"
    assert ok, f"criterion {number}: {description} {detail}{timing}"


def test_criterion_01_submersion_identity():
    grid = Grid(2, "torus", 16)
    started = time.perf_counter()
    worst_gap = 0.0
    worst_pert = np.inf
    for trial in range(20):
        g = random_spd_metric(grid, substream(1000 + trial, "acc1-g"), 3, 0.15)
        drho = band_limited_scalar(grid, substream(1000 + trial, "acc1-dr"), 3, 0.15)
        rngs = [substream(trial, f"pi1-perturbation-{j}") for j in range(10)]
        rep = verify_pi1_submersion(g, drho, rngs, CFG)
        worst_gap = max(worst_gap, abs(rep.gap) / (1.0 + rep.wfr_value))
        worst_pert = min(worst_pert, min(rep.perturbation_gaps))
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-5 and worst_pert >= -1e-8 and elapsed <= 60.0
    report(
        1,
        "volume map is a submersion onto the density geometry:",
        ok,
        f"(max rel gap {worst_gap:.2e}, min perturbation gap {worst_pert:.2e})",
        elapsed,
    )


def test_criterion_02_conformal_closed_forms():
    forms = conformal_closed_forms(CFG)
    we = forms["we_conformal"]["value"]
    checks = [
        abs(we - 0.25) <= 1e-8,
        abs(forms["kl_met_conformal"]["value"] - 1.0) <= 1e-10,
        abs(forms["density_projection_conformal"]["value"] - 1.0) <= 1e-10,
        abs(forms["tilde_kl_conformal"]["value"] - (np.e - 2.0)) <= 1e-10,
    ]
    report(
        2,
        "conformal closed forms reproduced:",
        all(checks),
        f"(we {we:.2e}-0.25, checks {checks})",
    )


def test_criterion_03_second_variation_recovers_half_ebin():
    grid = Grid(2, "torus", 16)
    worst = 0.0
    for trial in range(50):
        g = random_spd_metric(grid, substream(3000 + trial, "acc3-g"), 3, 0.3)
        h = band_limited_sym_tensor(grid, substream(3000 + trial, "acc3-h"), 3, 0.4)
        k = band_limited_sym_tensor(grid, substream(3000 + trial, "acc3-k"), 3, 0.4)
        for kind in (K.KL_MET, K.TILDE_KL_MET):
            _, ebin_half, rich = second_variation_probe(kind, g, h, k, step=1e-2)
            worst = max(worst, abs(rich - ebin_half) / max(abs(ebin_half), 1e-14))
    report(
        3,
        "mixed second variation recovers half the source inner product:",
        worst <= 1e-4,
        f"(max relative error {worst:.2e} over 50 triples x 2 kinds)",
    )


def generators(keys):
    """The ``substream`` of each (seed, label)."""
    return [substream(seed, label) for seed, label in keys]


def test_criterion_04_divergence_axioms():
    grid = Grid(2, "torus", 16)
    min_value = np.inf
    positive_sep = True
    for kind in K:
        metric_kind = kind in METRIC_KINDS
        draw = random_spd_stack if metric_kind else band_limited_density_stack
        amplitude = 0.45 if metric_kind else 0.5
        labels = [f"acc4-{kind.value}-{trial}" for trial in range(1000)]
        a, b = (
            draw(grid, generators((trial, label + side) for trial, label in enumerate(labels)),
                 3, amplitude)
            for side in ("-a", "-b")
        )
        values = divergence_stack(kind, grid, a, b)
        sep = eigenvalue_gap_stack(2, a, b) if metric_kind else density_ratio_gap_stack(a, b)
        min_value = min(min_value, float(np.min(values)))
        if np.any((sep > 1e-8) & (values <= 0.0)):
            positive_sep = False
        # diagonal vanishes, at the last trial's first field
        diag = float(divergence_stack(kind, grid, a[-1:], a[-1:])[0])
        min_value = min(min_value, diag)
        if abs(diag) > 1e-12:
            positive_sep = False

    # conformal-lift optimality: 20 random non-conformal lifts never beat it
    rho0 = band_limited_density(grid, substream(4, "acc4-rho0"), 3, 0.4)
    g1 = random_spd_metric(grid, substream(4, "acc4-g1"), 3, 0.3)
    floor = divergence(K.KL_DENSITY_FD, rho0, volume_map(g1))
    lift_gap = abs(divergence(K.KL_MET, conformal_lift(rho0, g1), g1) - floor)
    dominates = True
    for trial in range(20):
        shape = random_spd_metric(grid, substream(trial, "acc4-lift"), 3, 0.45)
        det = shape.components[0] * shape.components[2] - shape.components[1] ** 2
        lift = MetricField(grid, rho0.values * shape.components / np.sqrt(det))
        if divergence(K.KL_MET, lift, g1) < floor - 1e-9:
            dominates = False
    ok = min_value >= -1e-12 and positive_sep and lift_gap <= 1e-9 and dominates
    report(
        4,
        "divergence axioms over 1000 seeded pairs per kind:",
        ok,
        f"(min value {min_value:.2e}, conformal-lift gap {lift_gap:.2e})",
    )


FLAT_TAG, NON_FLAT_TAG = 0x666C6174, 0x63757276


def legacy_rng(seed, tag):
    """The stream this criterion has always drawn instance ``seed`` of a kind from."""
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def test_criterion_05_flat_factorization():
    started = time.perf_counter()
    errors = {}
    for n in (64, 128):
        grid = Grid(2, "box", n, extent=2.0)
        errors[n] = []
        for seed in range(5):
            g, _ = flat_pullback_instance(grid, legacy_rng(seed, FLAT_TAG), 0.008)
            _, _, _, rep = factorize_flat_metric(g)
            errors[n].append(rep.reconstruction_error)
    ratios = [a / b for a, b in zip(errors[64], errors[128])]
    grid = Grid(2, "box", 64, extent=2.0)
    rejected = 0
    for seed in range(3):
        g = non_flat_instance(grid, legacy_rng(seed, NON_FLAT_TAG))
        frame = frame_and_connection(g)
        rejected += int(not frame.max_curvature() <= 10.0 * grid.spacing**2)
    elapsed = time.perf_counter() - started
    ok = (
        max(errors[64]) <= 1e-3
        and all(3.0 <= r <= 5.0 for r in ratios)
        and rejected == 3
        and elapsed <= 120.0
    )
    report(
        5,
        "flat metrics factor through a reconstructed diffeomorphism:",
        ok,
        f"(max error {max(errors[64]):.2e}, ratios {[round(r, 2) for r in ratios]}, "
        f"{rejected}/3 non-flat rejected)",
        elapsed,
    )


def test_criterion_06_vanishing_distance():
    space = SeqSpace()
    rows = vanishing_sweep(space, [0.0], space.basis(1), ns=(8, 12, 16, 20, 24))
    totals = [r["total"] for r in rows]
    bounds_ok = all(r["total"] <= r["analytic_bound"] + 1e-12 for r in rows)
    ok = (
        totals[-1] <= 0.05
        and abs(rows[0]["d1"] - np.sqrt(0.5)) <= 1e-12
        and rows[0]["d2_lower"] >= 0.02
        and all(a > b for a, b in zip(totals, totals[1:]))
        and bounds_ok
    )
    report(
        6,
        "three-segment detours vanish while factor distances stay fixed:",
        ok,
        f"(total(24) = {totals[-1]:.4f}, d1 = {rows[0]['d1']:.4f}, "
        f"d2_lower = {rows[0]['d2_lower']:.4f})",
    )


def test_criterion_07_flat_fiber_identity():
    grid = Grid(2, "torus", 64)
    x = grid.coordinates()
    comps = np.zeros((2,) + grid.shape)
    comps[0] = np.sin(2 * np.pi * x[1])
    trace_form, def_form, kinetic = euler_alpha_lagrangian(VectorField(grid, comps))
    ok = (
        abs(trace_form - np.pi**2) <= 2e-3
        and abs(def_form - np.pi**2) <= 2e-3
        and abs(trace_form - def_form) <= 1e-10
        and abs(kinetic - 0.5) <= 1e-12
    )
    report(
        7,
        "trace form equals deformation energy on the flat background:",
        ok,
        f"(trace {trace_form:.6f}, kinetic {kinetic:.12f})",
    )


def test_criterion_08_distance_bound_sanity():
    grid = Grid(2, "torus", 16)
    d_lam_quarter = grid.dim * CFG.lam / 4.0
    ok = True
    details = []
    for trial in range(10):
        g0 = random_spd_metric(grid, substream(8000 + trial, "acc8-a"), 3, 0.2)
        g1 = random_spd_metric(grid, substream(8000 + trial, "acc8-b"), 3, 0.2)
        path = linear_metric_path(g0, g1, n_t=6)
        we = path_energy(path, CFG, which="we")
        ebin = path_energy(path, CFG, which="ebin")
        wfr = path_energy(path, CFG, which="wfr")
        lower_ok = we >= wfr - 1e-8
        upper_ok = we <= d_lam_quarter * ebin + 1e-8
        ok = ok and lower_ok and upper_ok
        details.append((we - wfr, d_lam_quarter * ebin - we))
    margins = np.array(details)
    report(
        8,
        "path energies sandwich between projected and pure-source energies:",
        ok,
        f"(min lower margin {margins[:, 0].min():.2e}, min upper margin {margins[:, 1].min():.2e})",
    )


def test_criterion_09_toy_geodesic():
    grid = Grid(2, "box", 64, extent=2.0)
    _, rel_spread, increases = toy_geodesic_probe(
        grid, 0.08, n_t=16, rng=substream(9, "acc9"), n_perturb=10
    )
    ok = rel_spread <= 1e-6 and all(inc > 0.0 for inc in increases)
    report(
        9,
        "straight transport paths have constant speed and are locally minimal:",
        ok,
        f"(relative spread {rel_spread:.2e}, min increase {min(increases):.2e})",
    )


def test_criterion_10_discrete_calculus_base():
    grid = Grid(2, "torus", 24)
    fs = band_limited_scalar(grid, substream(10, "acc10-f"), 4, 1.0)
    ws = band_limited_vector(grid, substream(10, "acc10-w"), 4, 1.0)
    calc = discrete_calculus(fs, ws.components, np.random.default_rng(10))
    ibp, cg_err = calc["ibp_residual"], calc["cg_vs_dense_error"]
    ratios = calc["refinement_ratios"]
    ok = ibp <= 1e-10 and cg_err <= 1e-8 and all(3.2 <= r <= 4.8 for r in ratios.values())
    report(
        10,
        "discrete calculus: adjoints, direct-solve agreement, order-2 refinement:",
        ok,
        f"(ibp {ibp:.1e}, cg-vs-dense {cg_err:.1e}, "
        f"ratios {dict((k, round(v, 2)) for k, v in ratios.items())})",
    )
