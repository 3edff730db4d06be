"""Experiment registry and runner behind the command-line front end.

Each experiment function takes a validated ExperimentConfig and returns
(results, rows); flat-factorize, which writes extra files, returns
(results, rows, artifacts).  The keys of the first row, in order, are the CSV
columns.  The runner adds the config echo, a version string and the wall
time, and writes the manifest plus CSV atomically (temp file + rename).
Given identical config and seed the manifest is bit-identical up to the
wall-time field.

EXPERIMENTS is the one registry of experiment names: the CLI subcommands,
the config schema and the dispatch in run_experiment are all read from it.

Only the runners seed random streams: each draw comes from
``substream(cfg.seed, label)``, whose label names the draw and its index,
and library functions take the generators, so two seeds share no draw.
divergence-sweep draws each kind's pairs in the order a0, b0, a1, b1, ...
from ``substream(cfg.seed, "div-<kind>")``; its ``pair`` column is the
0-based index, so a run of n pairs is a prefix of a longer run at the same
seed.  It evaluates the pairs in blocks of stacked pairs, about
SWEEP_BLOCK_NODES grid nodes each (16 pairs at n = 16), and its rows do not
depend on the block size, except its ``runtime_ms`` column: the time of a
pair's block divided by the number of pairs in that block, not a per-pair
time.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import tempfile
import time
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .certificates import conformal_closed_forms, discrete_calculus, toy_geodesic_probe
from .divergences import (
    METRIC_KINDS,
    DivergenceKind,
    StaticProblem,
    density_ratio_gap_stack,
    divergence_stack,
    eigenvalue_gap_stack,
    second_variation_probe,
    static_local_search,
)
from .fiber import euler_alpha_lagrangian, verify_pi1_submersion
from .fields import Grid, VectorField
from .flatmaps import (
    factorize_flat_metric,
    flat_pullback_instance,
    flatness_tolerance,
    frame_and_connection,
    non_flat_instance,
)
from .randomfields import (
    band_limited_density,
    band_limited_density_stack,
    band_limited_scalar,
    band_limited_sym_tensor,
    random_spd_metric,
    random_spd_stack,
    substream,
)
from .seqdemo import SeqSpace, vanishing_sweep
from .serialization import dumps_result, field_to_json
from .transport import (
    ebin_inner,
    linear_metric_path,
    path_energy,
    we_distance_bounds,
    we_tangent_norm,
    wfr_tangent_norm,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig


# ---------------------------------------------------------------------------
# experiment bodies


def _draw(make, cfg: ExperimentConfig, label):
    """make(grid, rng, modes, amplitude) with the experiment's modes and amplitude."""
    p = cfg.params
    return make(cfg.grid, substream(cfg.seed, label), p["modes"], p["amplitude"])


def run_we_norm(cfg: ExperimentConfig):
    p = cfg.params
    rows = []
    for trial in range(p["n_trials"]):
        g = _draw(random_spd_metric, cfg, f"we-norm-g-{trial}")
        dg = _draw(band_limited_sym_tensor, cfg, f"we-norm-dg-{trial}")
        res = we_tangent_norm(g, dg, cfg.solver)
        rows.append(
            {
                "trial": trial,
                "value": res.value,
                "iters": res.iterations,
                "residual": res.residual,
            }
        )
    grid24 = Grid(2, "torus", 24)
    fs = band_limited_scalar(grid24, substream(cfg.seed, "substrate-f"), 4, 1.0)
    ws = band_limited_sym_tensor(grid24, substream(cfg.seed, "substrate-w"), 4, 1.0)
    results = {
        "values": [r["value"] for r in rows],
        "max_iters": max(r["iters"] for r in rows),
        "substrate": discrete_calculus(
            fs, ws.components[:2], substream(cfg.seed, "substrate-rhs")
        ),
    }
    return results, rows


def run_wfr_norm(cfg: ExperimentConfig):
    p = cfg.params
    rows = []
    for trial in range(p["n_trials"]):
        rho = _draw(band_limited_density, cfg, f"wfr-rho-{trial}")
        drho = _draw(band_limited_scalar, cfg, f"wfr-drho-{trial}")
        res = wfr_tangent_norm(rho, drho, cfg.solver)
        rows.append(
            {"trial": trial, "value": res.value, "iters": res.iterations, "residual": res.residual}
        )
    return {"values": [r["value"] for r in rows]}, rows


def run_submersion(cfg: ExperimentConfig):
    p = cfg.params
    rows = []
    for trial in range(p["n_trials"]):
        g = _draw(random_spd_metric, cfg, f"submersion-g-{trial}")
        drho = _draw(band_limited_scalar, cfg, f"submersion-drho-{trial}")
        rngs = [substream(cfg.seed, f"submersion-z-{trial}-{j}") for j in range(p["n_perturb"])]
        report = verify_pi1_submersion(g, drho, rngs, cfg.solver)
        rows.append(
            {
                "trial": trial,
                "wfr_value": report.wfr_value,
                "we_value_of_lift": report.we_value_of_lift,
                "gap": report.gap,
                "relative_gap": abs(report.gap) / (1.0 + report.wfr_value),
                "min_perturbation_gap": min(report.perturbation_gaps),
            }
        )
    results = {
        "max_relative_gap": max(r["relative_gap"] for r in rows),
        "min_perturbation_gap": min(r["min_perturbation_gap"] for r in rows),
        "trials": len(rows),
    }
    return results, rows


# The divergence sweep draws and evaluates its pairs in blocks of about this
# many grid nodes (16 pairs at torus n = 16): per-call overhead is shared by a
# block, while its arrays stay small however many pairs are swept.  On the
# benchmark's sweep at n = 16, against 1024 nodes, 2048 cut the wall time by
# 24 % and 4096 by 33 % for +1.6 MB (+4 %) of peak RSS; 8192 cut 5 % more
# but added another 1.6 MB, near the benchmark's 10 % bound on peak RSS.
SWEEP_BLOCK_NODES = 4096


def _sweep_block(cfg: ExperimentConfig, kind, rng, pairs):
    """Rows of the sweep's ``pairs`` (indices), drawn from ``rng`` and evaluated as stacks.

    Their fields are the next 2 * len(pairs) draws of ``rng``: a0, b0, a1, b1, ...
    """
    grid, p = cfg.grid, cfg.params
    metric = kind in METRIC_KINDS
    draw = random_spd_stack if metric else band_limited_density_stack
    t0 = time.perf_counter()
    fields = draw(grid, [rng], p["modes"], p["amplitude"], count=2 * len(pairs))
    a, b = fields[0::2], fields[1::2]
    values = divergence_stack(kind, grid, a, b)
    gaps = eigenvalue_gap_stack(grid.dim, a, b) if metric else density_ratio_gap_stack(a, b)
    runtime_ms = (time.perf_counter() - t0) * 1e3 / len(pairs)
    return [
        {"kind": kind.value, "pair": pair, "value": value, "min_eigen_gap": gap,
         "runtime_ms": runtime_ms}
        for pair, value, gap in zip(pairs, values.tolist(), gaps.tolist())
    ]


def run_divergence_sweep(cfg: ExperimentConfig):
    p = cfg.params
    block = max(1, SWEEP_BLOCK_NODES // cfg.grid.node_count)
    pairs = range(p["n_pairs"])
    rows = []
    for kind in DivergenceKind:
        rng = substream(cfg.seed, f"div-{kind.value}")
        for start in range(0, len(pairs), block):
            rows += _sweep_block(cfg, kind, rng, pairs[start : start + block])
    min_value = min(r["value"] for r in rows)
    results = {
        "min_value": min_value,
        "pairs_per_kind": p["n_pairs"],
        "nonnegative": min_value >= -1e-12,
        "closed_forms": conformal_closed_forms(cfg.solver),
    }
    return results, rows


def run_second_variation(cfg: ExperimentConfig):
    """Rows of the second-variation probe, two kinds per triple (g, h, k).

    ``relative_error`` divides by |ebin_half|, which vanishes when h and k are
    Ebin-orthogonal however accurate the probe is; ``cs_relative_error``
    divides by the Cauchy-Schwarz bound (1/2) sqrt(Ebin(h, h) Ebin(k, k)) of
    |ebin_half| instead.
    """
    p = cfg.params
    rows = []
    for trial in range(p["n_triples"]):
        g = _draw(random_spd_metric, cfg, f"sv-g-{trial}")
        h = _draw(band_limited_sym_tensor, cfg, f"sv-h-{trial}")
        k = _draw(band_limited_sym_tensor, cfg, f"sv-k-{trial}")
        cs_bound = 0.5 * np.sqrt(ebin_inner(g, h, h) * ebin_inner(g, k, k))
        for kind in (DivergenceKind.KL_MET, DivergenceKind.TILDE_KL_MET):
            mixed, ebin_half, richardson = second_variation_probe(kind, g, h, k, p["step"])
            error = abs(richardson - ebin_half)
            rows.append(
                {
                    "trial": trial,
                    "kind": kind.value,
                    "mixed_second": mixed,
                    "ebin_half": ebin_half,
                    "richardson": richardson,
                    "relative_error": error / max(abs(ebin_half), 1e-14),
                    "cs_relative_error": float(error / max(cs_bound, 1e-14)),
                }
            )
    results = {
        "max_relative_error": max(r["relative_error"] for r in rows),
        "max_cs_relative_error": max(r["cs_relative_error"] for r in rows),
        "triples": p["n_triples"],
    }
    return results, rows


def run_flat_factorize(cfg: ExperimentConfig):
    p = cfg.params
    rows = []
    # Each instance's arrays are dropped before the next is built; between
    # instances only the rows and instance 0's displacement and report,
    # written out at the end, are kept.  The peak is the Gram of the
    # reconstruction error (8 grid planes) on top of g, the generating
    # displacement, the reconstructed map with its Jacobian and instance 0's
    # displacement (13 planes).
    for i in range(p["n_instances"]):
        g, phi0 = flat_pullback_instance(cfg.grid, substream(cfg.seed, f"flat-{i}"), p["amplitude"])
        u0 = phi0.displacement.components
        del phi0
        phi, report = factorize_flat_metric(g)
        del g
        recovery = float(np.max(np.abs(phi.displacement.components - u0)))
        rows.append(
            {"instance": i, "flat": True, **dataclasses.asdict(report), "recovery_error": recovery}
        )
        if i == 0:
            first = phi.displacement, phi.collar_width, report
        del phi, u0
    rejected = 0
    for i in range(p["n_non_flat"]):
        g = non_flat_instance(cfg.grid, substream(cfg.seed, f"non-flat-{i}"))
        curvature = frame_and_connection(g).max_curvature()
        del g
        flat = curvature <= flatness_tolerance(cfg.grid)
        rejected += int(not flat)
        rows.append(
            {
                "instance": p["n_instances"] + i,
                "flat": flat,
                "max_curvature": curvature,
                "path_independence_gap": float("nan"),
                "reconstruction_error": float("nan"),
                "recovery_error": float("nan"),
            }
        )
    results = {
        "max_reconstruction_error": max(
            r["reconstruction_error"] for r in rows if r["flat"] is True
        ),
        "non_flat_rejected": rejected,
        "non_flat_total": p["n_non_flat"],
    }
    u, collar_width, report = first
    artifacts = {
        "displacement.json": field_to_json(u, collar_width),
        "report.json": dumps_result(dataclasses.asdict(report)),
    }
    return results, rows, artifacts


def run_seq_demo(cfg: ExperimentConfig):
    p = cfg.params
    space = SeqSpace(n_max=p["n_max"])
    x = space.vector([0.0])
    y = space.basis(1)
    rows = vanishing_sweep(space, x, y, p["ns"], quad_points=p["quad_points"])
    totals = [r["total"] for r in rows]
    results = {
        "totals": totals,
        "monotone_decreasing": bool(all(a > b for a, b in zip(totals, totals[1:]))),
        "d1": rows[0]["d1"],
        "d2_lower": rows[0]["d2_lower"],
    }
    return results, rows


def run_euler_alpha(cfg: ExperimentConfig):
    """The 2-D shear v = (sin 2 pi y, 0), whose trace form is pi^2 (criterion 7).

    Any other dimension is refused: in 1-D, v = sin 2 pi x gives 2 pi^2.
    """
    p = cfg.params
    if cfg.grid.dim != 2:
        raise ValueError(f"{cfg.experiment} requires a 2-D grid")
    x = cfg.grid.coordinates()
    comps = np.zeros((2,) + cfg.grid.shape)
    comps[0] = np.sin(2.0 * np.pi * x[1])
    v = VectorField(cfg.grid, comps)
    trace_form, def_form, kinetic = euler_alpha_lagrangian(v, stencil_order=p["stencil_order"])
    rows = [
        {
            "trace_form": trace_form,
            "def_form": def_form,
            "kinetic": kinetic,
            "identity_residual": abs(trace_form - def_form),
            "pi_squared_error": abs(trace_form - np.pi**2),
        }
    ]
    return rows[0], rows


def run_path_energy(cfg: ExperimentConfig):
    p = cfg.params
    rows = []
    for trial in range(p["n_paths"]):
        g0 = _draw(random_spd_metric, cfg, f"path-g0-{trial}")
        g1 = _draw(random_spd_metric, cfg, f"path-g1-{trial}")
        path = linear_metric_path(g0, g1, n_t=p["n_t"])
        we = path_energy(path, cfg.solver, which="we")
        ebin = path_energy(path, cfg.solver, which="ebin")
        wfr = path_energy(path, cfg.solver, which="wfr")
        d, lam = cfg.grid.dim, cfg.solver.lam
        rows.append(
            {
                "trial": trial,
                "we_energy": we,
                "ebin_energy": ebin,
                "wfr_projected_energy": wfr,
                "pure_source_bound": d * lam / 4.0 * ebin,
                "sandwich_ok": wfr - 1e-8 <= we <= d * lam / 4.0 * ebin + 1e-8,
            }
        )
    return {"all_sandwich_ok": all(r["sandwich_ok"] for r in rows)}, rows


def run_static_eval(cfg: ExperimentConfig):
    p = cfg.params
    g0 = random_spd_metric(cfg.grid, substream(cfg.seed, "static-g0"), p["modes"], 0.2)
    g1 = random_spd_metric(cfg.grid, substream(cfg.seed, "static-g1"), p["modes"], 0.2)
    problem = StaticProblem(
        g0, g1, lambda_balance=p["lambda_balance"], kind=DivergenceKind(p["kind"])
    )
    gbar, phi, value, trace = static_local_search(
        problem, substream(cfg.seed, "static-search"), iters=p["iters"], modes=p["modes"]
    )
    rows = [{"step": i, "value": v} for i, v in enumerate(trace.values)]
    results = {
        "start_value": trace.values[0],
        "final_value": value,
        "accepted_moves": trace.accepted,
        "monotone": bool(all(a >= b - 1e-12 for a, b in zip(trace.values, trace.values[1:]))),
    }
    return results, rows


def run_toy_geodesic(cfg: ExperimentConfig):
    p = cfg.params
    if cfg.grid.topology != "box" or cfg.grid.dim != 2:
        raise ValueError(f"{cfg.experiment} requires a 2-D box grid")
    toy, rel_spread, increases = toy_geodesic_probe(
        cfg.grid, p["amplitude"], p["n_t"], substream(cfg.seed, "toy-perturb"), p["n_perturb"]
    )
    rows = [
        {
            "interval": i,
            "energy": float(toy.interval_energies[i]),
            "energy_eulerian": float(toy.interval_energies_eulerian[i]),
        }
        for i in range(len(toy.interval_energies))
    ]
    results = {
        "energy": toy.energy,
        "relative_spread": rel_spread,
        "min_perturbation_increase": min(increases),
        "all_perturbations_increase": bool(all(inc > 0 for inc in increases)),
    }
    return results, rows


def run_bounds(cfg: ExperimentConfig):
    p = cfg.params
    rows = []
    for trial in range(p["n_pairs"]):
        g0 = _draw(random_spd_metric, cfg, f"bounds-g0-{trial}")
        g1 = _draw(random_spd_metric, cfg, f"bounds-g1-{trial}")
        b = we_distance_bounds(g0, g1, cfg.solver, n_t=p["n_t"])
        rows.append(
            {
                "trial": trial,
                "projected_wfr": b.projected_wfr,
                "upper": b.upper,
                "mass_lower_bound": b.mass_lower_bound,
                "projected_wfr_flag": b.projected_wfr_flag,
                "upper_flag": b.upper_flag,
            }
        )
    return {"pairs": p["n_pairs"]}, rows


class Experiment(NamedTuple):
    """A runner and its params' defaults; each default also fixes its param's JSON type.

    Integer params are counts: each one, and each entry of a list param, must
    be at least 1 unless ``minimums`` gives another least value.  A list
    param must not be empty.
    """

    run: Callable
    defaults: dict
    minimums: dict = {}


EXPERIMENTS = {
    "we-norm": Experiment(run_we_norm, {"n_trials": 3, "modes": 3, "amplitude": 0.2}),
    "wfr-norm": Experiment(run_wfr_norm, {"n_trials": 3, "modes": 3, "amplitude": 0.3}),
    "submersion": Experiment(
        run_submersion, {"n_trials": 20, "n_perturb": 10, "modes": 3, "amplitude": 0.15}
    ),
    "divergence-sweep": Experiment(
        run_divergence_sweep, {"n_pairs": 1000, "modes": 3, "amplitude": 0.3}
    ),
    "second-variation": Experiment(
        run_second_variation, {"n_triples": 50, "step": 1e-2, "modes": 3, "amplitude": 0.3}
    ),
    "flat-factorize": Experiment(
        run_flat_factorize,
        {"n_instances": 5, "n_non_flat": 3, "amplitude": 0.006},
        minimums={"n_non_flat": 0},
    ),
    "seq-demo": Experiment(
        run_seq_demo,
        {"ns": [8, 12, 16, 20, 24], "n_max": 64, "quad_points": 2049},
        minimums={"quad_points": 2},
    ),
    "euler-alpha": Experiment(run_euler_alpha, {"stencil_order": 4}),
    "path-energy": Experiment(
        run_path_energy, {"n_paths": 10, "n_t": 8, "modes": 3, "amplitude": 0.2}
    ),
    "static-eval": Experiment(
        run_static_eval,
        {"iters": 12, "modes": 2, "lambda_balance": 1.0, "kind": "kl_met"},
        minimums={"iters": 0},
    ),
    "toy-geodesic": Experiment(
        run_toy_geodesic, {"n_t": 16, "amplitude": 0.08, "n_perturb": 10}
    ),
    "bounds": Experiment(run_bounds, {"n_pairs": 5, "n_t": 16, "modes": 3, "amplitude": 0.3}),
}


# ---------------------------------------------------------------------------
# runner


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".metricflow-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows):
    """CSV of the rows; the first row's keys, in order, are the columns."""
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Execute one experiment; returns (manifest dict, artifact paths)."""
    out_dir = out_dir or cfg.output_path or "."
    started = time.perf_counter()
    results, rows, *artifacts = EXPERIMENTS[cfg.experiment].run(cfg)
    wall = time.perf_counter() - started

    manifest = {
        "config": cfg.to_dict(),
        "version": f"metricflow-{__version__}",
        "wall_time_s": wall,
        "results": results,
    }
    base = cfg.experiment.replace("-", "_")
    paths = {}
    manifest_path = os.path.join(out_dir, f"{base}_manifest.json")
    _atomic_write(manifest_path, dumps_result(manifest))
    paths["manifest"] = manifest_path
    csv_path = os.path.join(out_dir, f"{base}.csv")
    _atomic_write(csv_path, _csv_text(rows))
    paths["csv"] = csv_path
    for name, text in dict(*artifacts).items():
        extra_path = os.path.join(out_dir, f"{base}_{name}")
        _atomic_write(extra_path, text)
        paths[name] = extra_path
    return manifest, paths
