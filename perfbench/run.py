"""rteuler benchmark: the real CLI on seeded desk-model workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload converge-desk --seed 1 --seconds 20 --trace 0

Each iteration starts a fresh interpreter (perfbench/child.py) that sets up
like the CLI does and then runs the workload's CLI calls. Iterations repeat
until --seconds have passed and every metric is the median over them. With
--trace 1, untraced and traced iterations alternate; the per-layer metrics
come from the traced ones and ``trace.overhead_frac`` compares the two.

Every output file is checked. For the seeds in spec.json the sha256 of each
file must match the committed digest (when the Python and numpy versions
match too); on any seed the outputs must pass content checks, repeat byte
for byte across iterations, and on converge-desk-w2 equal a workers=1 run.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A full record with the environment goes to .perfbench_work/results/
and, for --trace 1, the spans of the traced iterations to
.perfbench_work/spans/. Exit code 2 means the checkout is unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import yaml

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESK = "configs/double_well_desk.yaml"
SPEC = json.loads((HERE / "spec.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ("converge-desk", "moments-wide", "converge-desk-w2", "simulate-single")
# Paths per iteration, below the desk study's 2000 and 10000 so that a run of
# --seconds holds several iterations to take the median of. Block sizes and
# levels stay the desk study's.
CONVERGE_PATHS = 1000  # four blocks of the study's 250
MOMENTS_PATHS = 4096  # two blocks of the probe's 2048
SIM_N = 16384
SIM_SERIES = 2  # trajectories per iteration; even ones plain, odd ones SDDE
SDDE = {
    "delay": 0.125,
    "initial_segment": 2.0,
    "alpha0": 1,
    "generator": [[-3.0, 3.0], [3.0, -3.0]],
    "params_by_regime": {2: {"beta_hat": 1.0}},
}
SETUP_SAMPLES = 4  # set-up-only launches per run, after one warm-up launch
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Unusable(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class Plan:
    command: str  # CLI subcommand
    config: Path
    calls: list[list[str]]
    outputs: list[str]  # output files, relative to the work directory
    path_steps: int  # scheme steps summed over paths and levels
    doc: dict  # the config the calls run on


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def workload_doc(seed: int) -> dict:
    """The desk config at the benchmark's sizes, seeded."""
    doc = yaml.safe_load((ROOT / DESK).read_text())
    doc["seed"] = seed
    doc["study"]["num_paths"] = CONVERGE_PATHS
    doc["moments"]["num_paths"] = MOMENTS_PATHS
    doc["simulate"]["n"] = SIM_N
    return doc


def plan(workload: str, doc: dict, work: Path, workers: int) -> Plan:
    """The CLI calls of one iteration, with configs written under ``work``."""
    seed = doc["seed"]
    command = workload.split("-")[0]
    config = work / f"{command}.yaml"
    if command == "converge":
        study = doc["study"]
        calls = [["converge", "--config", str(config), "--out", str(work / "out"),
                  "--workers", str(workers)]]
        outputs = ["out/errors.csv", "out/rates.json"]
        steps = study["num_paths"] * (study["reference_n"] + sum(study["levels"]))
    elif command == "moments":
        mom = doc["moments"]
        calls = [["moments", "--config", str(config), "--out", str(work / "out")]]
        outputs = ["out/moments.csv"]
        steps = mom["num_paths"] * sum(mom["n_list"])
    else:
        sdde = dict(doc, simulate=dict(doc["simulate"], sdde=SDDE))
        (work / "sdde.yaml").write_text(yaml.safe_dump(sdde))
        calls, outputs = [], []
        for i in range(SIM_SERIES):
            cfg = config if i % 2 == 0 else work / "sdde.yaml"
            calls.append(["simulate", "--config", str(cfg), "--out", str(work / f"traj{i}"),
                          "--seed", str(SIM_SERIES * seed + i)])
            outputs.append(f"traj{i}/trajectory.csv")
        steps = SIM_SERIES * doc["simulate"]["n"]
    config.write_text(yaml.safe_dump(doc))
    return Plan(command, config, calls, outputs, steps, doc)


def check_outputs(p: Plan, files: dict[str, bytes]) -> list[str]:
    """Seed-independent checks of one iteration's outputs."""
    problems = []
    if p.command == "converge":
        lo, hi = SPEC["slope_band"]
        rates = json.loads(files["out/rates.json"])["randomized_tamed"]
        for order in ("1", "2", "3", "4"):
            slope = rates.get(order)
            if not (slope is not None and lo <= slope <= hi):
                problems.append(f"slope p={order} is {slope}, outside [{lo}, {hi}]")
        for line in files["out/errors.csv"].decode().splitlines()[1:]:
            if line.startswith("#"):
                continue
            _dt, _p, err, _se, div = (float(v) for v in line.split(","))
            if not (math.isfinite(err) and err > 0.0 and div == 0.0):
                problems.append(f"errors.csv row {line!r}")
    elif p.command == "moments":
        for line in files["out/moments.csv"].decode().splitlines()[1:-1]:
            _n, _dt, moment, div = (float(v) for v in line.split(","))
            if not (math.isfinite(moment) and div == 0.0):
                problems.append(f"moments.csv row {line!r}")
    else:
        for i, name in enumerate(sorted(files)):
            lines = files[name].decode().splitlines()
            header = "t,x_1,regime" if i % 2 else "t,x_1"
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            if lines[0] != header or len(rows) != p.doc["simulate"]["n"] + 1:
                problems.append(f"{name}: header {lines[0]!r}, {len(rows)} rows")
            elif not all(math.isfinite(v) for row in rows for v in row):
                problems.append(f"{name}: non-finite value")
            elif i % 2 and not all(row[2] in (1.0, 2.0) for row in rows):
                problems.append(f"{name}: regime outside 1..2")
    return problems


def oracle_for(command: str, seed: int, versions: dict) -> dict | None:
    oracle = SPEC["oracle"]
    if (versions["python"], versions["numpy"]) != (oracle["python"], oracle["numpy"]):
        return None
    return oracle["digests"].get(str(seed), {}).get(command)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload, self.seed, self.work, self.deadline = workload, seed, work, deadline
        self.count = 0

    def launch(self, p: Plan, calls, trace: bool) -> dict:
        """Run one child process; returns its result plus output digests."""
        self.count += 1
        tag = f"{self.count:03d}"
        for rel in p.outputs:
            shutil.rmtree(self.work / rel.split("/")[0], ignore_errors=True)
        spec = {
            "config": str(p.config),
            "calls": calls,
            "trace": trace,
            "run_id": f"{self.workload}/{self.seed}/{tag}",
            "span_file": str(self.work / f"spans{tag}.json"),
            "result_file": str(self.work / f"result{tag}.json"),
        }
        spec_file = self.work / f"spec{tag}.json"
        spec_file.write_text(json.dumps(spec))
        with open(self.work / f"log{tag}.txt", "w") as log:
            launched = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_file), repr(launched)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                status = proc.wait(timeout=max(1.0, self.deadline - perf_counter()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise Unusable(f"iteration {tag} ran past the time limit")
        if status != 0:
            log_text = (self.work / f"log{tag}.txt").read_text()[-2000:]
            raise Unusable(f"benchmark child exited with {status}:\n{log_text}")
        result = json.loads(Path(spec["result_file"]).read_text())
        files = {rel: (self.work / rel).read_bytes() for rel in p.outputs} if calls else {}
        result["files"] = files
        result["digests"] = {rel: hashlib.sha256(b).hexdigest() for rel, b in files.items()}
        result["traced"] = trace
        if trace:
            result["spans"] = json.loads(Path(spec["span_file"]).read_text())["spans"]
        return result


def judge(p: Plan, it: dict, seed: int, expected: dict | None) -> list[str]:
    """Problems with one iteration: exit codes, content, digests."""
    problems = [f"exit codes {it['codes']}"] if any(it["codes"]) else []
    if not problems:
        try:
            problems += check_outputs(p, it["files"])
        except (ValueError, KeyError, IndexError) as exc:  # JSONDecodeError is a ValueError
            problems.append(f"unreadable output: {exc!r}")
    oracle = oracle_for(p.command, seed, it)
    if oracle is not None and oracle != it["digests"]:
        problems.append("output digests differ from the committed oracle")
    if expected is not None and expected != it["digests"]:
        problems.append("output digests differ from the reference run")
    return problems


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "rteuler" / "cli.py").is_file() or not (ROOT / DESK).is_file():
        raise Unusable(f"no rteuler source tree or {DESK} under {ROOT}")
    deadline = perf_counter() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workers = 1 if trace or workload != "converge-desk-w2" else min(2, nproc())
        p = plan(workload, workload_doc(seed), work, workers)
        runner = Runner(workload, seed, work, deadline)

        runner.launch(p, [], False)  # warm-up: byte-compile, fill the file cache
        setups = [runner.launch(p, [], False)["setup_s"] for _ in range(SETUP_SAMPLES)]
        expected = None
        problems = []
        if workers > 1:
            ref = plan(workload, workload_doc(seed), work, 1)
            first = runner.launch(ref, ref.calls, False)
            problems += [f"workers=1 reference: {bad}" for bad in judge(ref, first, seed, None)]
            expected = first["digests"]

        iterations = []
        start = perf_counter()
        while (perf_counter() - start < seconds) or (trace and len(iterations) < 2):
            traced = trace and len(iterations) % 2 == 1
            iterations.append(runner.launch(p, p.calls, traced))
        if expected is None:
            expected = iterations[0]["digests"]

        failed = 0
        for it in iterations:
            bad = judge(p, it, seed, expected)
            failed += bool(bad)
            problems += bad
            setups.append(it["setup_s"])
        plain = [it for it in iterations if not it["traced"]]
        env = {
            "nproc": nproc(),
            "cpu_model": cpu_model(),
            "python": iterations[0]["python"],
            "numpy": iterations[0]["numpy"],
            "start_method": iterations[0]["start_method"],
            "workers": workers,
            "thread_vars": {var: "1" for var in THREAD_VARS},
        }
        if trace:
            metrics, trace_problems = traced_metrics(p, iterations)
            problems += trace_problems
            units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        else:
            metrics = {
                "wall_s": median([it["wall_s"] for it in plain]),
                "setup_s": median(setups),
                "cpu_s": median([it["cpu_s"] for it in plain]),
                "path_steps_per_s": median([p.path_steps / it["wall_s"] for it in plain]),
                "peak_rss_mb": median([it["peak_rss_mb"] for it in plain]),
            }
            units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        result = {
            "correct": failed == 0 and not problems,
            "attempted": len(iterations),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "env": env,
            "problems": problems,
            "digests": iterations[0]["digests"],
            "setup_samples": setups,
            "iterations": [
                {k: it[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "traced")}
                for it in iterations
            ],
            "result": result,
        }
        name = f"{workload}_seed{seed}_trace{int(trace)}_{os.getpid()}.json"
        results = ROOT / ".perfbench_work" / "results"
        results.mkdir(exist_ok=True)
        (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
        if trace:
            span_dir = ROOT / ".perfbench_work" / "spans"
            span_dir.mkdir(exist_ok=True)
            traced = [it["spans"] for it in iterations if it["traced"]]
            (span_dir / name).write_text(json.dumps({"iterations": traced}))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_metrics(p: Plan, iterations: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer medians over the traced iterations, with consistency checks."""
    problems = []
    traced = [it for it in iterations if it["traced"]]
    per_run = []
    for it in traced:
        m = spans.layer_metrics(it["spans"])
        own = spans.self_times(it["spans"])
        if min(own.values()) < 0.0:
            problems.append("negative self time in a span")
        counted = sum(c[1] for s in it["spans"] for c in s.get("counted", {}).values())
        if abs(sum(own.values()) + counted - it["wall_s"]) > 0.01 * it["wall_s"]:
            problems.append("self times do not account for the traced wall time")
        steps = spans.path_steps(it["spans"])
        if steps != p.path_steps:
            problems.append(f"observed path-steps {steps} != {p.path_steps} from the config")
        per_run.append(m)
    if any(m[k] != per_run[0][k] for m in per_run for k in spans.COUNTS):
        problems.append("per-layer counts differ between traced iterations")
    metrics = {
        k: per_run[0][k] if k in spans.COUNTS else median([m[k] for m in per_run])
        for k in per_run[0]
    }
    untraced = median([it["wall_s"] for it in iterations if not it["traced"]])
    metrics["trace.overhead_frac"] = median([it["wall_s"] for it in traced]) / untraced - 1.0
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unusable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(record["env"], sort_keys=True))
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
