"""Summarise or compare benchmark result records.

    python3 perfbench/compare.py DIR            # spread of each metric per workload
    python3 perfbench/compare.py BASE_DIR NEW_DIR

DIR holds the JSON records that perfbench/run.py writes to
.perfbench_work/results/. With one directory, each metric is reported as its
median, quartiles and spread (quartile distance over median) next to its
bound. With two, each metric's median in NEW_DIR is compared with BASE_DIR's
against the bound in BENCHMARK.json; records whose environments differ
(nproc, CPU model, Python, numpy, start method) are refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
ENV_KEYS = ("nproc", "cpu_model", "python", "numpy", "start_method")


def load(directory: str) -> tuple[dict, set]:
    """(workload, trace) -> metric -> values, and the environments seen."""
    values: dict = defaultdict(lambda: defaultdict(list))
    envs = set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        envs.add(tuple(record["env"][k] for k in ENV_KEYS))
        for name, metric in record["result"]["metrics"].items():
            values[(record["workload"], record["trace"])][name].append(metric["value"])
    return values, envs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(values: dict) -> int:
    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    worst = 0
    for (workload, trace), metrics in sorted(values.items()):
        for name, vals in metrics.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER BOUND" if spread > bound else ("ok" if spread < bound / 3 else "> bound/3")
                worst = max(worst, spread > bound)
            print(f"{workload:18s} trace={int(trace)} {name:42s} n={len(vals):2d} "
                  f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} "
                  f"bound={bound} {flag}")
    return worst


def compare(base: dict, new: dict) -> int:
    regressions = 0
    for metric in BENCH["end_to_end"]:
        name, bound, sign = metric["name"], metric["bound"], 1 if metric["better"] == "lower" else -1
        for key in sorted(set(base) & set(new)):
            if name not in base[key] or name not in new[key]:
                continue
            b, n = statistics.median(base[key][name]), statistics.median(new[key][name])
            worse = sign * (n - b) / abs(b)
            verdict = "REGRESSION" if worse > bound else "within bound"
            regressions += worse > bound
            print(f"{key[0]:18s} {name:18s} base={b:.6g} new={n:.6g} "
                  f"worse_by={worse:+.4f} bound={bound} {verdict}")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return summarise(load(argv[0])[0])
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_env), (new, new_env) = load(argv[0]), load(argv[1])
    if len(base_env | new_env) > 1:
        print(f"refusing to compare results from different environments: {base_env | new_env}",
              file=sys.stderr)
        return 2
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
