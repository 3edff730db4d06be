"""One sha256 per artifact of a fixed set of metricflow runs.

    python3 tools/artifact_digests.py SRC

SRC is the ``src`` directory of a metricflow checkout; the package is
imported from there, so two trees compare with one ``diff``:

    diff <(python3 tools/artifact_digests.py old/src) \\
         <(python3 tools/artifact_digests.py src)

The runs are the 12 experiments at seeds 7 and 11, at registry defaults on
the torus n = 16, except euler-alpha (torus 64) and flat-factorize and
toy-geodesic (box 64, extent 2); then, at seed 7, the experiments of
``DIM1`` on the 1-D torus n = 32, which take the 1-D branches of the field
synthesis; static-eval at lambda_balance 10 (torus n = 16, seed 7), where
the search accepts displacement steps, so the objective's map term moves the
digests; flat-factorize on the box 64 of extent 0.02 (seed 7), where its
flatness and integration budgets differ from those at extent 2;
toy-geodesic at amplitude 0.18 (box 64, seed 7), whose late midpoint maps
take the most Newton steps to invert, so the set of nodes still moving
shrinks over six steps; wfr-norm at amplitude 2 (torus n = 32, seed 7),
whose high-contrast densities make the density norm's preconditioner work
hardest, at about 40-80 iterations per solve; and the steps of the benchmark's declared workloads
(``BENCHMARK.json``, configs from ``perfbench/run.py``).
The digests skip what a run does not compute: manifests drop ``wall_time_s``
and ``output_path``.  Each line reads ``<run>/<artifact> <sha256>``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 11)
TORUS16 = {"dim": 2, "topology": "torus", "n_per_axis": 16}
GRIDS = {
    "euler-alpha": {"dim": 2, "topology": "torus", "n_per_axis": 64},
    "flat-factorize": {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 2.0},
    "toy-geodesic": {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 2.0},
}
SMALL_BOX64 = {"dim": 2, "topology": "box", "n_per_axis": 64, "extent": 0.02}
TORUS1D = {"dim": 1, "topology": "torus", "n_per_axis": 32}
TORUS32 = {"dim": 2, "topology": "torus", "n_per_axis": 32}
DIM1 = (
    "we-norm", "wfr-norm", "submersion", "divergence-sweep", "second-variation", "path-energy",
    "static-eval", "bounds",
)


def benchmark_steps():
    """(label, experiment, grid, params) of each declared workload's steps."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for workload in (w["name"] for w in declared):
        for step in WORKLOADS[workload]:
            yield f"{workload}/{step.experiment}", step.experiment, step.grid, step.params


def runs(experiments):
    for seed in SEEDS:
        for name in experiments:
            yield f"seed{seed}/{name}", name, GRIDS.get(name, TORUS16), {}, seed
    for name in DIM1:
        yield f"dim1/{name}", name, TORUS1D, {}, 7
    yield "lambda10/static-eval", "static-eval", TORUS16, {"lambda_balance": 10.0}, 7
    yield "extent0.02/flat-factorize", "flat-factorize", SMALL_BOX64, {}, 7
    yield "amp0.18/toy-geodesic", "toy-geodesic", GRIDS["toy-geodesic"], {"amplitude": 0.18}, 7
    yield "amp2/wfr-norm", "wfr-norm", TORUS32, {"amplitude": 2.0}, 7
    for label, name, grid, params in benchmark_steps():
        yield label, name, grid, params, 7


def canonical(name, text):
    """The artifact's bytes without the fields that vary from run to run."""
    if name.endswith("_manifest.json"):
        manifest = json.loads(text)
        del manifest["wall_time_s"]
        del manifest["config"]["output_path"]
        return json.dumps(manifest, sort_keys=True)
    return text


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from metricflow.config import parse_config
    from metricflow.experiments import EXPERIMENTS, run_experiment

    for label, name, grid, params, seed in runs(EXPERIMENTS):
        with tempfile.TemporaryDirectory() as out:
            cfg = {"experiment": name, "seed": seed, "grid": grid, "params": params}
            _, paths = run_experiment(parse_config({**cfg, "output_path": out}))
            for path in sorted(paths.values()):
                path = Path(path)
                text = canonical(path.name, path.read_text(encoding="utf-8"))
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                print(f"{label}/{path.name} {digest}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
