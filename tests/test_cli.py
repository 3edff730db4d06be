"""Config schema, experiment runner, manifests, determinism, exit codes."""

import csv
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import metricflow
from metricflow import cli, experiments, tensors
from metricflow.cli import main
from metricflow.config import load_config, parse_config
from metricflow.divergences import (
    METRIC_KINDS,
    DivergenceKind,
    divergence,
    eigenvalue_gap_stack,
)
from metricflow.errors import ConfigError
from metricflow.experiments import (
    EXPERIMENTS,
    run_divergence_sweep,
    run_experiment,
    run_flat_factorize,
)
from metricflow.fiber import trace_free_perturbation
from metricflow.randomfields import band_limited_density, random_spd_metric, substream


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


BASE = {
    "experiment": "wfr-norm",
    "grid": {"dim": 2, "topology": "torus", "n_per_axis": 16},
    "seed": 42,
    "params": {"n_trials": 2},
}


def test_parse_minimal_config():
    cfg = parse_config({"experiment": "seq-demo", "seed": 1})
    assert cfg.grid.n_per_axis == 16
    assert cfg.solver.lam == 1.0
    assert cfg.params["n_max"] == 64


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "seq-demo", "seed": 1, "surprise": True})


def test_unknown_param_rejected():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "seq-demo", "seed": 1, "params": {"bogus": 3}})


def test_missing_seed_rejected():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "seq-demo"})


def test_negative_lambda_rejected():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "seq-demo", "seed": 1, "solver": {"lambda": -1.0}})


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "warp-drive", "seed": 1})


def test_seed_must_be_integer():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "seq-demo", "seed": 1.5})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "seq-demo", "seed": True})


def test_validate_command(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"solver": {"lambda": -2.0}}, id="lambda-negative"),
        pytest.param({"solver": {"lambda": float("inf")}}, id="lambda-inf"),
        pytest.param({"solver": {"tol": float("nan")}}, id="tol-nan"),
        pytest.param({"solver": {"tol": "1e-8"}}, id="tol-string"),
        pytest.param({"solver": {"tol": 10**400}}, id="tol-overflow"),
        pytest.param({"solver": {"max_iter": 1.5}}, id="max_iter-float"),
        pytest.param({"solver": {"max_iter": True}}, id="max_iter-bool"),
        pytest.param({"grid": {"dim": 2.0}}, id="dim-float"),
        pytest.param({"grid": {"n_per_axis": 16.5}}, id="n_per_axis-float"),
        pytest.param(
            {"grid": {"topology": "box", "extent": float("inf")}}, id="extent-inf"
        ),
        pytest.param({"grid": {"topology": "box", "extent": "2.0"}}, id="extent-string"),
        pytest.param({"grid": {"topology": "box", "extent": True}}, id="extent-bool"),
        pytest.param({"params": {"n_trials": "3"}}, id="n_trials-string"),
        pytest.param({"params": {"n_trials": 0}}, id="n_trials-zero"),
        pytest.param({"experiment": "seq-demo", "params": {"ns": []}}, id="ns-empty"),
        pytest.param({"experiment": "seq-demo", "params": {"ns": [8, 0]}}, id="ns-entry-zero"),
        pytest.param(
            {"experiment": "seq-demo", "params": {"quad_points": 1}}, id="quad_points-one"
        ),
        pytest.param(
            {"experiment": "divergence-sweep", "params": {"n_pairs": -1}}, id="n_pairs-negative"
        ),
        pytest.param(
            {"experiment": "second-variation", "params": {"step": 10**400}}, id="step-overflow"
        ),
    ],
)
def test_invalid_config_exits_2_without_artifacts(tmp_path, capsys, overrides):
    bad = {**BASE, **overrides}
    path = write_config(tmp_path, bad)
    out_dir = tmp_path / "out"
    code = main([bad["experiment"], "--config", path, "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("static-eval", "lambda_balance", float("nan")),
        ("second-variation", "amplitude", float("inf")),
        ("path-energy", "amplitude", float("-inf")),
    ],
)
def test_non_finite_param_rejected(tmp_path, capsys, experiment, key, value):
    # json.load reads the non-JSON numbers NaN, Infinity and -Infinity
    cfg = {"experiment": experiment, "seed": 1, "params": {key: value}}
    with pytest.raises(ConfigError, match=f"param '{key}' for {experiment} must be finite"):
        parse_config(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(
            {"experiment": "second-variation", "params": {"n_triples": 1, "step": 0.0}},
            id="step-zero",
        ),
        pytest.param(
            {"experiment": "second-variation", "params": {"n_triples": 1, "step": 1e-300}},
            id="step-underflow",
        ),
        pytest.param(
            {
                "experiment": "toy-geodesic",
                "grid": {"dim": 1, "topology": "box", "n_per_axis": 16},
                "params": {"n_t": 2, "n_perturb": 1},
            },
            id="toy-geodesic-dim1",
        ),
        pytest.param(
            # the 1-D field sin 2 pi x has trace form 2 pi^2, not criterion 7's pi^2
            {"experiment": "euler-alpha", "grid": {"dim": 1, "n_per_axis": 64}},
            id="euler-alpha-dim1",
        ),
        pytest.param(
            {"experiment": "seq-demo", "params": {"n_max": 1075}},
            id="seq-demo-weights-underflow",
        ),
    ],
)
def test_violated_precondition_exits_2_without_artifacts(tmp_path, capsys, cfg):
    path = write_config(tmp_path, {**cfg, "seed": 1})
    out_dir = tmp_path / "out"
    code = main([cfg["experiment"], "--config", path, "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("precondition error") and err.count("\n") == 1


@pytest.mark.parametrize("seed", [0, 1, 3, 6])
def test_default_flat_factorize_meets_criterion_5_bound(seed):
    # the reconstruction error grows linearly with the amplitude; at 0.008
    # these seeds read 1.03e-3 to 1.09e-3 on box 64
    grid = {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 2.0}
    cfg = parse_config({"experiment": "flat-factorize", "grid": grid, "seed": seed})
    results, _, _ = run_flat_factorize(cfg)
    assert results["max_reconstruction_error"] <= 1e-3


def test_least_param_values_accepted():
    cfg = parse_config(
        {"experiment": "flat-factorize", "seed": 1, "params": {"n_non_flat": 0}}
    )
    assert cfg.params["n_non_flat"] == 0
    cfg = parse_config({"experiment": "seq-demo", "seed": 1, "params": {"quad_points": 2}})
    assert cfg.params["quad_points"] == 2


def test_non_finite_result_exits_2_without_artifacts(tmp_path, capsys, monkeypatch):
    from metricflow import experiments

    def run_inf(cfg):
        return {"values": [1.0, float("inf")]}, [{"trial": 0, "value": 1.0}]

    spec = experiments.EXPERIMENTS["wfr-norm"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "wfr-norm", spec._replace(run=run_inf))
    path = write_config(tmp_path, BASE)
    out_dir = tmp_path / "out"
    assert main(["wfr-norm", "--config", path, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "results.values[1] is inf" in err
    assert err.startswith("invalid result: ") and "precondition error" not in err


def test_experiment_name_mismatch_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code = main(["seq-demo", "--config", path])
    assert code == 2


def test_run_writes_manifest_and_csv(tmp_path):
    path = write_config(tmp_path, BASE)
    out_dir = tmp_path / "artifacts"
    assert main(["wfr-norm", "--config", path, "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "wfr_norm_manifest.json").read_text())
    assert manifest["config"]["experiment"] == "wfr-norm"
    assert manifest["config"]["seed"] == 42
    assert manifest["version"].startswith("metricflow-")
    assert manifest["wall_time_s"] >= 0.0
    with open(out_dir / "wfr_norm.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2


def test_seed_override(tmp_path):
    path = write_config(tmp_path, BASE)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["wfr-norm", "--config", path, "--out", str(out_a), "--seed", "7"]) == 0
    assert main(["wfr-norm", "--config", path, "--out", str(out_b)]) == 0
    man_a = json.loads((out_a / "wfr_norm_manifest.json").read_text())
    man_b = json.loads((out_b / "wfr_norm_manifest.json").read_text())
    assert man_a["config"]["seed"] == 7
    assert man_b["config"]["seed"] == 42
    assert man_a["results"] != man_b["results"]


def test_manifest_deterministic_up_to_wall_time(tmp_path):
    path = write_config(tmp_path, BASE)
    manifests = []
    for name in ("r1", "r2"):
        cfg = load_config(path)
        manifest, _ = run_experiment(cfg, out_dir=str(tmp_path / name))
        manifest.pop("wall_time_s")
        manifests.append(json.dumps(manifest, sort_keys=True))
    assert manifests[0] == manifests[1]
    csv_a = (tmp_path / "r1" / "wfr_norm.csv").read_text()
    csv_b = (tmp_path / "r2" / "wfr_norm.csv").read_text()
    assert csv_a == csv_b


def test_seq_demo_csv_monotone(tmp_path):
    path = write_config(tmp_path, {"experiment": "seq-demo", "seed": 3})
    out_dir = tmp_path / "seq"
    assert main(["seq-demo", "--config", path, "--out", str(out_dir)]) == 0
    with open(out_dir / "seq_demo.csv") as fh:
        totals = [float(r["total"]) for r in csv.DictReader(fh)]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_submersion_manifest_gap(tmp_path):
    path = write_config(
        tmp_path,
        {
            "experiment": "submersion",
            "grid": {"dim": 2, "topology": "torus", "n_per_axis": 16},
            "seed": 42,
            "params": {"n_trials": 2, "n_perturb": 2},
        },
    )
    out_dir = tmp_path / "sub"
    assert main(["submersion", "--config", path, "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "submersion_manifest.json").read_text())
    assert manifest["results"]["max_relative_gap"] <= 1e-5
    assert manifest["results"]["min_perturbation_gap"] >= -1e-8


def test_flat_factorize_artifacts(tmp_path):
    path = write_config(
        tmp_path,
        {
            "experiment": "flat-factorize",
            "grid": {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 2.0},
            "seed": 5,
            "params": {"n_instances": 1, "n_non_flat": 1},
        },
    )
    out_dir = tmp_path / "flat"
    assert main(["flat-factorize", "--config", path, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "flat_factorize_report.json").read_text())
    assert set(report) == {"max_curvature", "path_independence_gap", "reconstruction_error"}
    disp = json.loads((out_dir / "flat_factorize_displacement.json").read_text())
    assert disp["kind"] == "displacement"
    assert disp["collar_width"] == 2


def test_toy_geodesic_run(tmp_path):
    path = write_config(
        tmp_path,
        {
            "experiment": "toy-geodesic",
            "grid": {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 2.0},
            "seed": 1,
            "params": {"n_t": 4, "n_perturb": 2},
        },
    )
    out_dir = tmp_path / "toy"
    assert main(["toy-geodesic", "--config", path, "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "toy_geodesic_manifest.json").read_text())
    assert manifest["results"]["relative_spread"] <= 1e-6
    assert manifest["results"]["all_perturbations_increase"]


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2


def test_divergence_sweep_csv_columns(tmp_path):
    path = write_config(
        tmp_path,
        {
            "experiment": "divergence-sweep",
            "grid": {"dim": 2, "topology": "torus", "n_per_axis": 16},
            "seed": 11,
            "params": {"n_pairs": 3},
        },
    )
    out_dir = tmp_path / "div"
    assert main(["divergence-sweep", "--config", path, "--out", str(out_dir)]) == 0
    with open(out_dir / "divergence_sweep.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["kind", "pair", "value", "min_eigen_gap", "runtime_ms"]
        rows = list(reader)
    assert len(rows) == 18  # 3 pairs x 6 kinds
    assert all(float(r["value"]) >= -1e-12 for r in rows)


def per_pair_sweep_rows(cfg):
    """The divergence-sweep rows, without runtime_ms, drawn and evaluated one pair at a time.

    Each kind draws its pairs in order from one stream: a0, b0, a1, b1, ...
    """
    p = cfg.params
    rows = []
    for kind in DivergenceKind:
        metric = kind in METRIC_KINDS
        make = random_spd_metric if metric else band_limited_density
        rng = substream(cfg.seed, f"div-{kind.value}")
        for pair in range(p["n_pairs"]):
            a = make(cfg.grid, rng, p["modes"], p["amplitude"])
            b = make(cfg.grid, rng, p["modes"], p["amplitude"])
            if metric:
                stacks = (a.components[None], b.components[None])
                gap = float(eigenvalue_gap_stack(cfg.grid.dim, *stacks)[0])
            else:
                ratio = a.values / b.values
                gap = float(np.min(ratio - np.log(ratio) - 1.0))
            rows.append(
                {"kind": kind.value, "pair": pair, "value": divergence(kind, a, b),
                 "min_eigen_gap": gap}
            )
    return rows


def sweep_config(grid, n_pairs):
    return parse_config(
        {"experiment": "divergence-sweep", "grid": grid, "seed": 5, "params": {"n_pairs": n_pairs}}
    )


@pytest.mark.parametrize("dim, n", [(2, 16), (1, 32)])
@pytest.mark.parametrize("extra", [None, 0, 1])
def test_sweep_blocks_match_per_pair_oracle(dim, n, extra):
    grid = {"dim": dim, "topology": "torus", "n_per_axis": n}
    block = experiments.SWEEP_BLOCK_NODES // n**dim
    # one pair, one block, one block and one pair
    cfg = sweep_config(grid, 1 if extra is None else block + extra)
    _, rows = run_divergence_sweep(cfg)
    assert [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows] == (
        per_pair_sweep_rows(cfg)
    )
    # runtime_ms is the block's time over its pairs, the same for each pair of a block
    n_pairs = cfg.params["n_pairs"]
    for start in range(0, len(rows), n_pairs):
        first = [r["runtime_ms"] for r in rows[start : start + min(block, n_pairs)]]
        assert len(set(first)) == 1 and first[0] > 0.0


def test_sweep_of_n_pairs_is_a_prefix_of_more_pairs(monkeypatch):
    monkeypatch.setattr(experiments, "conformal_closed_forms", lambda solver: {})
    grid = {"dim": 2, "topology": "torus", "n_per_axis": 16}

    def rows_by_kind(n_pairs):
        cfg = parse_config({"experiment": "divergence-sweep", "grid": grid, "seed": 7,
                            "params": {"n_pairs": n_pairs}})
        rows = [{k: v for k, v in r.items() if k != "runtime_ms"}
                for r in run_divergence_sweep(cfg)[1]]
        return [rows[i : i + n_pairs] for i in range(0, len(rows), n_pairs)]

    assert [kind[:3] for kind in rows_by_kind(9)] == rows_by_kind(3)


@pytest.mark.parametrize("block_nodes", [256, 768, 1024])
def test_sweep_rows_do_not_depend_on_the_block_size(monkeypatch, block_nodes):
    # 1 pair per block, 3 pairs (37 is no multiple of 3), the former 4 pairs
    monkeypatch.setattr(experiments, "conformal_closed_forms", lambda solver: {})
    cfg = sweep_config({"dim": 2, "topology": "torus", "n_per_axis": 16}, 37)

    def rows():
        return [{k: v for k, v in r.items() if k != "runtime_ms"}
                for r in run_divergence_sweep(cfg)[1]]

    default = rows()
    monkeypatch.setattr(experiments, "SWEEP_BLOCK_NODES", block_nodes)
    assert rows() == default


def test_runs_at_different_seeds_share_no_draws(monkeypatch):
    monkeypatch.setattr(experiments, "conformal_closed_forms", lambda solver: {})

    def rows(experiment, grid, seed, params):
        cfg = parse_config(
            {"experiment": experiment, "grid": grid, "seed": seed, "params": params}
        )
        return EXPERIMENTS[experiment].run(cfg)[1]

    # every flat-factorize row, flat or not, has its own curvature
    curvatures = [
        {r["max_curvature"] for r in rows("flat-factorize", BOX64, seed, {})} for seed in (7, 11)
    ]
    assert len(curvatures[0]) == 8 and not curvatures[0] & curvatures[1]
    values = [
        {r["value"] for r in rows("divergence-sweep", TORUS12, seed, {"n_pairs": 3})}
        for seed in (7, 8)
    ]
    assert len(values[0]) == 18 and not values[0] & values[1]


def test_sweep_memory_does_not_grow_with_pairs(monkeypatch):
    # the closed forms are evaluated once per run, whatever the pair count
    monkeypatch.setattr(experiments, "conformal_closed_forms", lambda solver: {})
    grid = {"dim": 2, "topology": "torus", "n_per_axis": 16}

    def traced_peak(n_pairs):
        cfg = sweep_config(grid, n_pairs)
        run_divergence_sweep(cfg)  # fills the trig-table cache
        tracemalloc.start()
        try:
            run_divergence_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = experiments.SWEEP_BLOCK_NODES // 256
    # the slack holds the rows of the extra pairs (about 32 KB), not a larger block
    assert traced_peak(64) <= traced_peak(block) + 128 * 1024


def test_submersion_runs_on_grids_below_16_nodes(tmp_path):
    # the trace-free perturbations resolve on the grid whatever the config's modes
    path = write_config(
        tmp_path,
        {
            "experiment": "submersion",
            "grid": {"dim": 2, "topology": "torus", "n_per_axis": 12},
            "seed": 7,
            "params": {"modes": 1, "n_trials": 1, "n_perturb": 1},
        },
    )
    assert main(["submersion", "--config", path, "--out", str(tmp_path / "sub")]) == 0
    manifest = json.loads((tmp_path / "sub" / "submersion_manifest.json").read_text())
    assert manifest["results"]["trials"] == 1


TORUS12 = {"dim": 2, "topology": "torus", "n_per_axis": 12}
BOX64 = {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 2.0}

# each experiment's CSV columns, in order, with a config small enough to run in
# milliseconds; the runners' row keys define the columns, so this pins them
CSV_SCHEMA = {
    "we-norm": (
        ["trial", "value", "iters", "residual"],
        TORUS12, {"n_trials": 1},
    ),
    "wfr-norm": (["trial", "value", "iters", "residual"], TORUS12, {"n_trials": 1}),
    "submersion": (
        ["trial", "wfr_value", "we_value_of_lift", "gap", "relative_gap",
         "min_perturbation_gap"],
        {**TORUS12, "n_per_axis": 16}, {"n_trials": 1, "n_perturb": 1},
    ),
    "divergence-sweep": (
        ["kind", "pair", "value", "min_eigen_gap", "runtime_ms"], TORUS12, {"n_pairs": 1},
    ),
    "second-variation": (
        ["trial", "kind", "mixed_second", "ebin_half", "richardson", "relative_error",
         "cs_relative_error"],
        TORUS12, {"n_triples": 1},
    ),
    "flat-factorize": (
        ["instance", "flat", "max_curvature", "path_independence_gap",
         "reconstruction_error", "recovery_error"],
        BOX64, {"n_instances": 2, "n_non_flat": 1},
    ),
    "seq-demo": (
        ["n", "len1", "len2", "len3", "total", "analytic_bound", "d1", "d2_lower"],
        TORUS12, {"ns": [8, 12], "n_max": 16, "quad_points": 33},
    ),
    "euler-alpha": (
        ["trace_form", "def_form", "kinetic", "identity_residual", "pi_squared_error"],
        TORUS12, {},
    ),
    "path-energy": (
        ["trial", "we_energy", "ebin_energy", "wfr_projected_energy", "pure_source_bound",
         "sandwich_ok"],
        TORUS12, {"n_paths": 1, "n_t": 2},
    ),
    "static-eval": (["step", "value"], TORUS12, {"iters": 1}),
    "toy-geodesic": (
        ["interval", "energy", "energy_eulerian"],
        {**BOX64, "n_per_axis": 16}, {"n_t": 2, "n_perturb": 1},
    ),
    "bounds": (
        ["trial", "projected_wfr", "upper", "mass_lower_bound", "projected_wfr_flag",
         "upper_flag"],
        TORUS12, {"n_pairs": 1, "n_t": 2},
    ),
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_csv_columns_are_pinned(tmp_path, name):
    """Pinned columns, and the determinism contract: a second run writes the same
    manifest apart from wall_time_s, the same CSV apart from runtime_ms, and
    every other artifact byte for byte."""
    columns, grid, params = CSV_SCHEMA[name]
    cfg = parse_config({"experiment": name, "grid": grid, "seed": 3, "params": params})
    runs = []
    for run in ("a", "b"):
        manifest, paths = run_experiment(cfg, out_dir=str(tmp_path / run))
        manifest.pop("wall_time_s")
        with open(paths.pop("csv")) as fh:
            header, *rows = csv.reader(fh)
        assert header == columns
        assert rows and all(len(row) == len(columns) for row in rows)
        timing = [i for i, column in enumerate(header) if column == "runtime_ms"]
        rows = [[v for i, v in enumerate(row) if i not in timing] for row in rows]
        paths.pop("manifest")
        others = {key: pathlib.Path(path).read_bytes() for key, path in paths.items()}
        runs.append((json.dumps(manifest, sort_keys=True), rows, others))
    assert runs[0] == runs[1]


def test_flat_factorize_holds_one_instance_at_a_time():
    def traced_peak(n_instances):
        cfg = parse_config({"experiment": "flat-factorize", "grid": BOX64, "seed": 3,
                            "params": {"n_instances": n_instances, "n_non_flat": 0}})
        run_flat_factorize(cfg)  # loads numpy.random outside the trace
        tracemalloc.start()
        try:
            run_flat_factorize(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the slack holds instance 0's map (64 KB) and the rows, not a second
    # instance's fields (about 500 KB at box 64)
    assert traced_peak(3) <= traced_peak(1) + 96 * 1024


def test_flat_factorize_artifacts_are_instance_zeros(tmp_path):
    # instance 0's map and report are written, however many instances follow
    texts = []
    for n in (1, 3):
        cfg = parse_config({"experiment": "flat-factorize", "grid": BOX64, "seed": 3,
                            "params": {"n_instances": n, "n_non_flat": 0}})
        _, paths = run_experiment(cfg, out_dir=str(tmp_path / str(n)))
        texts.append([pathlib.Path(paths[k]).read_text() for k in ("displacement.json",
                                                                    "report.json")])
    assert texts[0] == texts[1]


def test_cs_relative_error_holds_where_ebin_half_vanishes(monkeypatch):
    # h = g and a g-trace-free k are Ebin-orthogonal, Ebin(g, k) = Int tr(g^-1 k) vol(g) = 0,
    # so relative_error divides roundoff by roundoff; the Cauchy-Schwarz form does not
    draw = experiments._draw
    metrics = {}

    def orthogonal_draw(make, cfg, label):
        trial = label.rsplit("-", 1)[1]
        if label.startswith("sv-g"):
            metrics[trial] = draw(make, cfg, label)
            return metrics[trial]
        if label.startswith("sv-h"):
            return metrics[trial]
        return trace_free_perturbation(metrics[trial], substream(cfg.seed, label))

    monkeypatch.setattr(experiments, "_draw", orthogonal_draw)
    for seed in (0, 1, 2):
        cfg = parse_config({"experiment": "second-variation", "seed": seed,
                            "params": {"n_triples": 1}})
        results, rows = experiments.run_second_variation(cfg)
        assert all(abs(r["ebin_half"]) <= 1e-15 for r in rows)
        assert results["max_relative_error"] > 1e-4  # criterion 03's bound
        assert results["max_cs_relative_error"] <= 1e-9


def test_we_norm_manifest_carries_substrate_and_closed_forms(tmp_path):
    path = write_config(
        tmp_path,
        {
            "experiment": "we-norm",
            "grid": {"dim": 2, "topology": "torus", "n_per_axis": 16},
            "seed": 9,
            "params": {"n_trials": 1},
        },
    )
    out_dir = tmp_path / "we"
    assert main(["we-norm", "--config", path, "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "we_norm_manifest.json").read_text())
    sub = manifest["results"]["substrate"]
    assert sub["ibp_residual"] <= 1e-10
    assert sub["cg_vs_dense_error"] <= 1e-8
    ratios = sub["refinement_ratios"]
    assert set(ratios) == {"derivative", "box_derivative", "quadrature", "interpolation"}
    assert all(3.2 <= r <= 4.8 for r in ratios.values())


def test_divergence_sweep_manifest_closed_forms(tmp_path):
    # the closed forms hold whatever grid the sweep itself runs on, 1-D included
    for dim in (2, 1):
        path = write_config(
            tmp_path,
            {
                "experiment": "divergence-sweep",
                "grid": {"dim": dim, "topology": "torus", "n_per_axis": 16},
                "seed": 2,
                "params": {"n_pairs": 2},
            },
        )
        out_dir = tmp_path / f"divcf{dim}"
        assert main(["divergence-sweep", "--config", path, "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "divergence_sweep_manifest.json").read_text())
        forms = manifest["results"]["closed_forms"]
        for entry in forms.values():
            assert abs(entry["value"] - entry["target"]) <= 1e-8


def test_solver_failure_exits_3(tmp_path, capsys):
    # an iteration cap of 1 cannot converge the tangent-norm solve
    path = write_config(
        tmp_path,
        {
            "experiment": "wfr-norm",
            "grid": {"dim": 2, "topology": "torus", "n_per_axis": 16},
            "solver": {"max_iter": 1},
            "seed": 42,
            "params": {"n_trials": 1},
        },
    )
    code = main(["wfr-norm", "--config", path, "--out", str(tmp_path / "sf")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure") and err.count("\n") == 1
    # the message names the norm and the grid it was solved on
    assert "wfr_tangent_norm" in err
    assert "Grid(dim=2, topology='torus', n_per_axis=16, extent=1.0)" in err


def run_cli_process(tmp_path, cfg):
    # a fresh process, so that NumPy's floating-point warnings and Python
    # warnings would reach stderr as they do from the command line
    path = write_config(tmp_path, {**cfg, "seed": 1})
    src = os.path.dirname(os.path.dirname(metricflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "metricflow.cli", cfg["experiment"], "--config", path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "cfg, code, prefix",
    [
        pytest.param(
            {"experiment": "we-norm", "params": {"amplitude": 1e308, "n_trials": 1}},
            3,
            "solver failure: ",
            id="we-norm-overflow",
        ),
        pytest.param(
            # every entry is finite, but the right-hand side's norm overflows
            {"experiment": "we-norm", "params": {"amplitude": 1e200, "n_trials": 1}},
            3,
            "solver failure: ",
            id="we-norm-overflowing-norm",
        ),
        pytest.param(
            {"experiment": "divergence-sweep", "params": {"amplitude": 800.0, "n_pairs": 1}},
            2,
            "precondition error: ",
            id="divergence-sweep-exp-overflow",
        ),
        pytest.param(
            # the density ratio is clamped (a Python warning) before the
            # non-finite field is refused
            {"experiment": "divergence-sweep", "params": {"amplitude": 600.0, "n_pairs": 1}},
            2,
            "precondition error: ",
            id="divergence-sweep-ratio-clamp",
        ),
        pytest.param(
            # the Ebin product of a direction this large with itself overflows
            {"experiment": "second-variation", "params": {"amplitude": 1e200, "n_triples": 1}},
            2,
            "precondition error: the Ebin integrand tr(g^-1 h g^-1 k) is not finite",
            id="second-variation-overflow",
        ),
        pytest.param(
            # the bump radius of a box this large overflows when squared
            {"experiment": "toy-geodesic",
             "grid": {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 1e200}},
            2,
            "precondition error: ",
            id="toy-geodesic-huge-box",
        ),
        pytest.param(
            # every path map is orientation preserving, but a midpoint map
            # breaks the inversion's contraction condition
            {"experiment": "toy-geodesic", "grid": BOX64, "params": {"amplitude": 0.2}},
            2,
            "precondition error: id + t f has no inverse at t = 0.90625: "
            "contraction condition violated",
            id="toy-geodesic-midpoint-inversion",
        ),
        pytest.param(
            {"experiment": "flat-factorize",
             "grid": {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 1e200}},
            2,
            "precondition error: ",
            id="flat-factorize-huge-box",
        ),
        pytest.param(
            # the 2^44-double node meshgrid (128 TiB) exceeds the 47-bit user
            # address space, so the allocation fails at once
            {"experiment": "euler-alpha",
             "grid": {"dim": 2, "topology": "torus", "n_per_axis": 4194304}},
            2,
            "resource error: ",
            id="euler-alpha-grid-beyond-memory",
        ),
    ],
)
def test_overflowing_run_prints_one_stderr_line(tmp_path, cfg, code, prefix):
    proc = run_cli_process(tmp_path, cfg)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr


def test_clamped_ratio_run_succeeds_silently(tmp_path):
    # the ratio clamp warns at this amplitude, yet every value stays finite
    cfg = {"experiment": "divergence-sweep", "params": {"amplitude": 400.0, "n_pairs": 1}}
    proc = run_cli_process(tmp_path, cfg)
    assert proc.returncode == 0
    assert proc.stderr == ""


class _RecordingLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class _LibcWithoutMallopt:
    pass


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("library", ["recording", "unloadable", "without-mallopt"])
def test_only_main_sets_the_allocator_policy(tmp_path, monkeypatch, library):
    libc = _RecordingLibc()
    loaders = {
        "recording": lambda name: libc,
        "unloadable": _no_libc,
        "without-mallopt": lambda name: _LibcWithoutMallopt(),
    }
    monkeypatch.setattr(cli.ctypes, "CDLL", loaders[library])
    path = write_config(tmp_path, BASE)
    run_experiment(load_config(path), out_dir=str(tmp_path / "library"))
    assert libc.calls == []
    out_dir = tmp_path / "cli"
    assert main(["wfr-norm", "--config", path, "--out", str(out_dir)]) == 0
    assert (out_dir / "wfr_norm_manifest.json").is_file()
    assert (out_dir / "wfr_norm.csv").is_file()
    # glibc's M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD -3 (malloc.h)
    expected = [(-1, 64 * 2**20), (-3, 32 * 2**20)] if library == "recording" else []
    assert libc.calls == expected


def test_static_eval_inverts_no_map_twice(monkeypatch):
    # every inversion goes through phi.inverse, so the patched module-level
    # function sees them all: static-eval's and the toy-geodesic midpoints'
    inverted = []
    invert = tensors.invert_displacement

    def recording(phi, *args, **kwargs):
        inverted.append(phi)  # kept alive, so no two entries share an id
        return invert(phi, *args, **kwargs)

    monkeypatch.setattr(tensors, "invert_displacement", recording)
    box64 = {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 2.0}
    cases = (
        (experiments.run_static_eval, {"experiment": "static-eval"}, 97),
        (experiments.run_toy_geodesic, {"experiment": "toy-geodesic", "grid": box64}, 16),
    )
    for run, config, count in cases:
        inverted.clear()
        run(parse_config({**config, "seed": 7}))
        assert len({id(phi) for phi in inverted}) == len(inverted) == count, config
