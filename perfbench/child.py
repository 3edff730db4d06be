"""One fresh metricflow process of the benchmark.

    python3 perfbench/child.py RESULT.json SRC CONFIG [EXPERIMENT SEED OUT [trace]]

Imports NumPy and metricflow from SRC and parses CONFIG; that is set-up,
and the moment it ends is written as ``ready`` on the system-wide monotonic
clock so the parent can time it from the spawn.  With only three arguments
the process stops there.  Otherwise it runs the experiment through the
command-line entry point ``metricflow.cli.main``, records the wall and CPU
time of that call and an environment stamp, and exits with the CLI's code.
With ``trace`` the public functions are wrapped first (see tracer.py) and
the spans are written out at the end.
"""

import json
import os
import sys
import time


def main(argv):
    result_path, src, config = argv[:3]
    sys.path.insert(0, src)
    import numpy
    import metricflow.cli
    from metricflow import experiments
    from metricflow.config import load_config

    load_config(config)
    record = {"ready": time.monotonic()}
    code = 0
    if len(argv) > 3:
        experiment, seed, out = argv[3:6]
        tracer = None
        if argv[6:] == ["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cli_args = [experiment, "--config", config, "--seed", seed, "--out", out]
        cpu0, wall0 = time.process_time(), time.perf_counter()
        code = metricflow.cli.main(cli_args)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        workers = getattr(experiments, "worker_count", None)
        record.update(
            wall_s=wall,
            cpu_s=cpu,
            env={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "worker_count": workers() if workers else None,
            },
        )
        if tracer is not None:
            record["spans"] = tracer.spans
            record["untraced"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    with open(os.devnull, "w") as quiet:
        sys.stdout = quiet
        sys.exit(main(sys.argv[1:]))
