"""metricflow benchmark: four command-line workloads, each loading one layer.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a metricflow checkout; the program is imported from
./src.  Each workload is one closed-loop client: its processes run one
after another, each a fresh ``python3 perfbench/child.py`` that imports
metricflow and calls the ``metricflow`` CLI entry point on a fixed config
and the given seed.  Every process's artifacts are checked against the
acceptance tolerances (restated below from tests/test_acceptance.py).

The last stdout line is one JSON object: ``correct``, ``attempted`` (CLI
processes run), ``failed`` (processes with a non-zero exit, an artifact
that does not parse, or a certificate outside its tolerance) and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end medians;
with ``--trace 1`` untraced and traced items alternate and the metrics are
the per-layer numbers of the traced items (see tracer.py) plus
``trace_overhead``.  Lines before it give the same numbers with sample
counts, the failure fraction, result digests and an environment stamp.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

SETUP_SPAWNS = 5  # set-up-only processes per run, besides one warm-up
PROCESS_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Step:
    experiment: str
    grid: dict
    params: dict


def torus(n):
    return {"dim": 2, "topology": "torus", "n_per_axis": n}


def box(n):
    return {"dim": 2, "topology": "box", "n_per_axis": n, "extent": 2.0}


# Why each workload is here: the layer it loads, and the one it leaves idle.
WORKLOADS = {
    # Many medium CG solves bound by per-call overhead (diff_array/np.roll);
    # also fiber and the trial thread pool.
    "submersion-n32": (Step("submersion", torus(32), {"n_trials": 4, "n_perturb": 5}),),
    # Few large solves of hundreds of iterations: CG vector updates and
    # iteration count dominate; no thread pool.  Run by name only: it is not
    # among BENCHMARK.json's workloads because on a shared 2-vCPU host its
    # run-to-run spread came close to the largest allowed bound.
    "we-norm-n128": (Step("we-norm", torus(128), {"n_trials": 3}),),
    # Almost no solver work: band-limited field synthesis, pointwise SPD
    # algebra, 1,200 tiny pool tasks and a 1,200-row CSV.
    "divergence-sweep-n16": (Step("divergence-sweep", torus(16), {"n_pairs": 200}),),
    # The only box grids: one-sided stencils, bilinear sampling, Newton
    # inversion and the flat factorization; no CG, random fields or pool.
    "box-geodesic": (
        Step("toy-geodesic", box(128), {}),
        Step("flat-factorize", box(256), {}),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# correctness gate


def certificate_failures(experiment, results):
    """Acceptance checks on one manifest's results block.

    The tolerances are those pinned in tests/test_acceptance.py: criterion 1
    (submersion), 2 and 4 (divergence sweep), 10 (we-norm substrate block),
    9 (toy geodesic) and 5 (flat factorization).
    """
    r = results
    if experiment == "submersion":
        checks = {
            "max_relative_gap <= 1e-5": r["max_relative_gap"] <= 1e-5,
            "min_perturbation_gap >= -1e-8": r["min_perturbation_gap"] >= -1e-8,
        }
    elif experiment == "divergence-sweep":
        forms = r["closed_forms"]
        checks = {"min_value >= -1e-12": r["min_value"] >= -1e-12}
        for name, tol in (
            ("we_conformal", 1e-8),
            ("kl_met_conformal", 1e-10),
            ("density_projection_conformal", 1e-10),
            ("tilde_kl_conformal", 1e-10),
        ):
            form = forms[name]
            checks[f"{name} within {tol:g}"] = abs(form["value"] - form["target"]) <= tol
    elif experiment == "we-norm":
        sub = r["substrate"]
        checks = {
            "ibp_residual <= 1e-10": sub["ibp_residual"] <= 1e-10,
            "cg_vs_dense_error <= 1e-8": sub["cg_vs_dense_error"] <= 1e-8,
        }
    elif experiment == "toy-geodesic":
        checks = {
            "relative_spread <= 1e-6": r["relative_spread"] <= 1e-6,
            "every perturbation increases the energy": r["all_perturbations_increase"] is True
            and r["min_perturbation_increase"] > 0.0,
        }
    elif experiment == "flat-factorize":
        checks = {
            "max_reconstruction_error <= 1e-3": r["max_reconstruction_error"] <= 1e-3,
            "all non-flat instances rejected": r["non_flat_rejected"] == r["non_flat_total"],
        }
    else:
        raise ValueError(f"no certificate for experiment {experiment!r}")
    return [name for name, ok in checks.items() if not ok]


def check_artifacts(experiment, out_dir):
    """Parse every artifact; return (failures, digest of the results block)."""
    base = experiment.replace("-", "_")
    failures = []
    try:
        for path in sorted(out_dir.glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        with open(out_dir / f"{base}_manifest.json", encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        with open(out_dir / f"{base}.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError, KeyError) as exc:
        return [f"artifact: {exc}"], None
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        failures.append("csv: ragged or empty table")
    # Not gated: lets a refactor show its results are bit-identical.
    digest = hashlib.sha256(
        json.dumps(results, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    try:
        failures += certificate_failures(experiment, results)
    except (KeyError, TypeError) as exc:
        failures.append(f"results block: missing {exc}")
    return failures, digest


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = dict(os.environ)
    # The program runs with its default worker count.
    env.pop("METRICFLOW_THREADS", None)
    return env


def spawn(workdir, tag, config, step=None, seed=None, trace=False):
    """Run one child process; returns its record plus the parent's view."""
    result = workdir / f"{tag}.json"
    args = [sys.executable, str(CHILD), str(result), str(ROOT / "src"), str(config)]
    out_dir = workdir / tag
    if step is not None:
        args += [step.experiment, str(seed), str(out_dir)] + (["trace"] if trace else [])
    with open(workdir / f"{tag}.err", "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(args, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        status, usage = wait(proc)
        err.seek(0)
        stderr_tail = err.read().decode("utf-8", "replace").strip().splitlines()[-1:]
    sample = {"failures": [], "rss_mb": usage.ru_maxrss / 1024.0}
    if status != 0:
        sample["failures"].append(f"exit status {status}: {' '.join(stderr_tail)}")
        return sample
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    sample["setup_s"] = record["ready"] - spawned
    if step is None:
        return sample
    sample.update(wall_s=record["wall_s"], cpu_s=record["cpu_s"], env=record["env"])
    sample["spans"] = record.get("spans")
    sample["untraced"] = record.get("untraced", [])
    failures, sample["digest"] = check_artifacts(step.experiment, out_dir)
    sample["failures"] += failures
    return sample


def wait(proc):
    """Reap proc with its resource usage; a timer kills it if it overruns.

    The wait blocks, so the parent takes no CPU from the measured process.
    """
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


# ---------------------------------------------------------------------------
# measurement


class CannotRun(Exception):
    """The program is absent or no item of a workload ran to the end."""


def measure(steps, seed, seconds, trace, workdir):
    """Closed-loop run of one workload; returns the raw samples."""
    if not (ROOT / "src" / "metricflow" / "__init__.py").is_file():
        raise CannotRun(f"no metricflow sources under {ROOT / 'src'}")
    workdir.mkdir(parents=True)
    configs = []
    for i, step in enumerate(steps):
        path = workdir / f"config{i}.json"
        path.write_text(json.dumps(
            {"experiment": step.experiment, "grid": step.grid, "seed": seed,
             "params": step.params}
        ))
        configs.append(path)

    # The first process after a checkout compiles bytecode; users pay that once.
    warm = spawn(workdir, "warmup", configs[0])
    if warm["failures"]:
        raise CannotRun(f"metricflow does not import: {warm['failures'][0]}")
    setups = [spawn(workdir, f"setup{i}", configs[0]) for i in range(SETUP_SPAWNS)]
    plain, traced = [], []
    started = time.monotonic()
    deadline = started + seconds
    kinds = (False, True) if trace else (False,)
    longest = 0.0
    # Stop before an item would overrun the deadline, so a run never takes
    # much longer than --seconds; at least one round always runs.
    while True:
        round_start = time.monotonic()
        for traced_item in kinds:
            n = len(plain) + len(traced)
            item = [
                spawn(workdir, f"p{n}-{i}", config, step, seed, traced_item)
                for i, (step, config) in enumerate(zip(steps, configs))
            ]
            (traced if traced_item else plain).append(item)
        longest = max(longest, time.monotonic() - round_start)
        if time.monotonic() + longest > deadline:
            break
    return {"setups": setups, "plain": plain, "traced": traced,
            "elapsed": time.monotonic() - started}


def completed(items):
    """Items whose processes all ran to the end (certificates aside)."""
    return [item for item in items if all("wall_s" in p for p in item)]


def item_total(item, key, combine=sum):
    return combine(p[key] for p in item)


def end_to_end(raw):
    """Samples of the end-to-end metrics; an item sums its processes."""
    plain = completed(raw["plain"])
    processes = [p for item in raw["plain"] + raw["traced"] for p in item]
    return {
        "wall_s": [item_total(i, "wall_s") for i in plain],
        "cpu_s": [item_total(i, "cpu_s") for i in plain],
        "peak_rss_mb": [item_total(i, "rss_mb", max) for i in plain],
        "setup_s": [p["setup_s"] for p in raw["setups"] + processes if "setup_s" in p],
    }


def per_layer(raw):
    """Per-layer metrics of the traced items and whether their counters repeat."""
    traced = completed(raw["traced"])
    summaries = [
        combine_summaries([tracer.summarize(p["spans"], p["wall_s"]) for p in item],
                          [p["wall_s"] for p in item])
        for item in traced
    ]
    counts = [{k: s[k] for k in tracer.COUNTERS} for s in summaries]
    metrics = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    metrics.update(counts[0])
    metrics["trace_overhead"] = (
        statistics.median(item_total(i, "wall_s") for i in traced)
        / statistics.median(item_total(i, "wall_s") for i in completed(raw["plain"]))
    )
    return metrics, all(c == counts[0] for c in counts)


def combine_summaries(parts, walls):
    """One item's metrics from the summaries of its processes."""
    out = {}
    for key in parts[0]:
        values = [p[key] for p in parts]
        if key in ("cg.iters_per_solve.max", "experiments.workers"):
            out[key] = max(values)
        elif key == "experiments.trial_overlap":
            out[key] = sum(v * w for v, w in zip(values, walls)) / sum(walls)
        else:
            out[key] = sum(values)
    return out


# ---------------------------------------------------------------------------
# reporting


def describe(values, unit):
    """Median with its sample count, plus the highest percentile that has
    at least ten samples beyond it."""
    n = len(values)
    text = f"{statistics.median(values):.6g} {unit} median of {n}"
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            text += f", p{p} {q:.6g} {unit}"
            break
    return text


def units_of(name):
    if name.endswith(".self_s"):
        return "s"
    if name in ("trace_overhead", "experiments.trial_overlap"):
        return "ratio"
    if name == "serialization.bytes":
        return "B"
    return "count"


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(name, steps, seed, seconds, trace, workdir):
    """Measure one workload and print its report lines.

    Returns (metrics, correct, processes attempted, processes failed).
    """
    load_start = loadavg()
    raw = measure(steps, seed, seconds, trace, workdir)
    load_end = loadavg()
    processes = [p for item in raw["plain"] + raw["traced"] for p in item]
    failed = [p for p in processes if p["failures"]]
    if not completed(raw["plain"]) or (trace and not completed(raw["traced"])):
        raise CannotRun(f"{name}: no item ran to the end: {failed[0]['failures']}")
    samples = end_to_end(raw)
    print(f"{name}: seed {seed}, closed loop, 1 client, {len(raw['plain'])} untraced and "
          f"{len(raw['traced'])} traced items in {raw['elapsed']:.1f} s")
    metrics = {}
    for key, unit in END_TO_END_UNITS.items():
        metrics[key] = {"value": statistics.median(samples[key]), "unit": unit}
        print(f"  {key:<12} {describe(samples[key], unit)}")
    print(f"  failed_frac  {len(failed) / len(processes):.6g} ({len(failed)} of "
          f"{len(processes)} processes)")
    for p in failed:
        print(f"    failure: {'; '.join(p['failures'])}")
    for i, step in enumerate(steps):
        digests = {item[i].get("digest") for item in raw["plain"] + raw["traced"]}
        print(f"  results digest {step.experiment}: {', '.join(sorted(map(str, digests)))}")

    correct = not failed
    if trace:
        layers, repeat = per_layer(raw)
        print(f"  counters repeat exactly over {len(raw['traced'])} traced items: {repeat}")
        untraced = sorted({u for p in processes for u in p.get("untraced") or ()})
        if untraced:
            print(f"  not traced (absent from the program): {', '.join(untraced)}")
        for key in sorted(layers):
            print(f"  {key:<40} {layers[key]:.6g} {units_of(key)}")
        metrics = {k: {"value": v, "unit": units_of(k)} for k, v in layers.items()}
        correct = correct and repeat

    nproc = os.cpu_count() or 1
    env = next((p["env"] for p in processes if "env" in p), {})
    stamp = {
        **env,
        "nproc": nproc,
        "git_revision": git_revision(),
        "METRICFLOW_THREADS_cleared": True,
        "METRICFLOW_THREADS_parent": os.environ.get("METRICFLOW_THREADS"),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "overloaded": any(l[0] > nproc for l in (load_start, load_end) if l),
    }
    print(f"  env {json.dumps(stamp)}")
    return metrics, correct, len(processes), len(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    workroot = ROOT / ".perfbench_runs" / str(os.getpid())
    metrics, correct, attempted, failed = {}, True, 0, 0
    try:
        for name in names:
            m, ok, n, bad = run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), workroot / name)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
