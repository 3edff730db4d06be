"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py              # tiny workloads, about a minute
    python3 perfbench/selftest.py WORKLOAD     # count cross-check at full size

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a held-out seed runs with no failures, that counters repeat exactly
between traced runs, and that the tracer's call counts equal cProfile's.
Exits 1 on the first failed check.
"""

import cProfile
import contextlib
import io
import json
import os
import pstats
import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracer

HELD_OUT_SEED = 11  # any seed but 7, the default

TINY = {
    "submersion-n32": (run.Step("submersion", run.torus(16), {"n_trials": 2, "n_perturb": 2}),),
    "we-norm-n128": (run.Step("we-norm", run.torus(12), {"n_trials": 1}),),
    "divergence-sweep-n16": (run.Step("divergence-sweep", run.torus(12), {"n_pairs": 3}),),
    "box-geodesic": (
        run.Step("toy-geodesic", run.box(32), {"n_t": 4, "n_perturb": 2}),
        run.Step("flat-factorize", run.box(64), {"n_instances": 1, "n_non_flat": 1}),
    ),
}


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def declared(section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if section == "workloads":
        return {w["name"] for w in spec[section]}
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def profile_counts(steps, seed):
    """Run the steps in this process, traced and under cProfile.

    cProfile sees only the thread that enabled it, so the trial pool is
    pinned to one thread here; the benchmark itself never pins it.
    """
    os.environ["METRICFLOW_THREADS"] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    import metricflow.cli

    t = tracer.Tracer()
    t.install()
    originals = {  # span name -> code object of the unwrapped function
        f"{module_name}.{attr}":
            getattr(sys.modules[f"metricflow.{module_name}"], attr).__wrapped__.__code__
        for module_name, attr in tracer.TARGETS
    }
    transport = sys.modules["metricflow.transport"]
    originals["transport.we_apply"] = transport.MetricNormOperator.apply.__wrapped__.__code__
    factory = transport.wfr_normal_operator.__wrapped__.__code__
    originals["transport.wfr_apply"] = next(
        c for c in factory.co_consts if getattr(c, "co_name", None) == "apply_op")
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        for i, step in enumerate(steps):
            config = Path(tmp) / f"config{i}.json"
            config.write_text(json.dumps({"experiment": step.experiment, "grid": step.grid,
                                          "seed": seed, "params": step.params}))
            args = [step.experiment, "--config", str(config), "--out", tmp]
            with contextlib.redirect_stdout(io.StringIO()):
                status = profile.runcall(metricflow.cli.main, args)
            expect(status == 0, f"{step.experiment} exits 0 in process")
    stats = pstats.Stats(profile).stats
    traced = {}
    for span in t.spans:
        traced[span[tracer.NAME]] = traced.get(span[tracer.NAME], 0) + 1
    keys = {name: (c.co_filename, c.co_firstlineno, c.co_name) for name, c in originals.items()}
    profiled = {name: stats[key][1] if key in stats else 0 for name, key in keys.items()}
    return {name: traced.get(name, 0) for name in originals}, profiled


def main(argv):
    if argv:
        traced, profiled = profile_counts(run.WORKLOADS[argv[0]], 7)
        for name in sorted(traced):
            print(f"{name:<36} traced {traced[name]:>7}  cProfile {profiled[name]:>7}")
        expect(traced == profiled, f"{argv[0]}: traced call counts equal cProfile's")
        return 0

    e2e, layers = declared("end_to_end"), declared("per_layer")
    expect(declared("workloads") <= set(run.WORKLOADS), "every declared workload exists")
    expect(set(TINY) == set(run.WORKLOADS), "every workload has a tiny version")
    workroot = run.ROOT / ".perfbench_runs" / f"selftest-{os.getpid()}"
    try:
        for name, steps in TINY.items():
            metrics, ok, attempted, failed = run.run_workload(
                name, steps, HELD_OUT_SEED, 0, False, workroot / f"{name}-plain")
            expect(ok and failed == 0 and attempted > 0,
                   f"{name}: held-out seed {HELD_OUT_SEED} has no failures")
            expect(emitted(metrics) == e2e, f"{name}: end-to-end metrics and units as declared")
            counts = []
            for k in range(2):
                metrics, ok, _, failed = run.run_workload(
                    name, steps, HELD_OUT_SEED, 0, True, workroot / f"{name}-trace{k}")
                expect(ok and failed == 0, f"{name}: traced run {k} correct")
                expect(emitted(metrics) == layers, f"{name}: per-layer metrics as declared")
                counts.append({c: metrics[c]["value"] for c in tracer.COUNTERS})
            expect(counts[0] == counts[1], f"{name}: counters repeat between runs")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    traced, profiled = profile_counts([s for steps in TINY.values() for s in steps],
                                      HELD_OUT_SEED)
    expect(traced == profiled, "traced call counts equal cProfile's")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
