"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json LAUNCH_TIME  (src/ on PYTHONPATH)

LAUNCH_TIME is the parent's ``time.perf_counter()`` reading taken just
before this process was started; on Linux both processes read the same
monotonic clock. The child sets up the way the CLI does (imports rteuler,
numpy and yaml, loads the config, builds the model), then runs SPEC's CLI
argument lists in order, optionally under the layer tracer, and writes its
timings, exit codes and versions to SPEC's result path.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(spec_path: str, launched: float) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import multiprocessing

    import numpy
    from rteuler import cli
    from rteuler.model import build_model

    model = cli.load_config(spec["config"])["model"]
    build_model(model["preset"], model.get("params"))
    ready = perf_counter()

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"])
        tracer.install()
    cpu0 = _cpu_s()
    start = perf_counter()
    codes = []
    for argv in spec["calls"]:
        if tracer is None:
            codes.append(cli.main(argv))
        else:
            codes.append(tracer.call(spans.ROOT, cli.main, argv))
    wall = perf_counter() - start
    cpu = _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["span_file"])

    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped pool workers
    rss = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "setup_s": ready - launched,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss / 1024.0,
        "codes": codes,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }
    with open(spec["result_file"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
