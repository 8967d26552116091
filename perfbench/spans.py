"""Layer spans recorded from outside the program.

A ``Tracer`` replaces public rteuler functions at the module attributes their
callers look up at call time, records one span per call (name, start, end,
parent span id, run id, plus a few attributes read from the arguments and the
result), and puts the original functions back on ``uninstall``. The taming
denominator runs tens of thousands of times per study, so it is recorded as a
per-parent counter (calls and seconds) instead of one span per call.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics named in BENCHMARK.json. Self time is a span's duration minus the
time its child spans and counted calls cover.
"""

from __future__ import annotations

import importlib
import json
import statistics
from time import perf_counter

# (module, attribute, span name). The same function is wrapped under every
# module that imports it by name, because that is where its callers look it up.
TARGETS = (
    ("rteuler.harness", "strong_error_study", "harness.strong_error_study"),
    ("rteuler.harness", "moment_probe", "harness.moment_probe"),
    ("rteuler.harness", "make_path_draw", "rng.make_path_draw"),
    ("rteuler.cli", "make_path_draw", "rng.make_path_draw"),
    ("rteuler.harness", "simulate_paths", "scheme.simulate_paths"),
    ("rteuler.cli", "simulate_path", "scheme.simulate_path"),
    ("rteuler.cli", "simulate_sdde_switching", "scheme.simulate_sdde_switching"),
    ("rteuler.cli", "simulate_ctmc", "markov.simulate_ctmc"),
    ("rteuler.harness", "build_model", "model.build_model"),
    ("rteuler.cli", "build_model", "model.build_model"),
    ("rteuler.cli", "svg_loglog", "plots.svg_loglog"),
)
COUNTED = (("rteuler.taming", "denominator", "taming.denominator"),)
ROOT = "cli.main"
HARNESS = ("harness.strong_error_study", "harness.moment_probe")
SINGLE = ("scheme.simulate_path", "scheme.simulate_sdde_switching")
# metrics of layer_metrics that count work and so must repeat exactly
COUNTS = (
    "rng.draws", "rng.draw_bytes", "scheme.batch_calls", "scheme.state_bytes_peak",
    "scheme.state_bytes_total", "scheme.diverged_paths", "taming.denominator_calls",
    "taming.denominator_calls_per_tamed_step", "harness.blocks", "model.build_calls",
    "markov.ctmc_calls",
)


def _scheme_cfg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["cfg"]


def _draw_attrs(args, kwargs, draw):
    nbytes = draw.fine_increments.nbytes + draw.jump_times.nbytes
    nbytes += draw.jump_marks.nbytes + draw.x0.nbytes
    nbytes += sum(phi.nbytes for phi in draw.phis.values())
    return {"bytes": nbytes}


def _batch_attrs(args, kwargs, res):
    from rteuler.scheme import variant_is_tamed

    cfg = _scheme_cfg(args, kwargs)
    return {
        "n": cfg.n,
        "paths": res.states.shape[0],
        "tamed": variant_is_tamed(cfg.variant),
        "state_bytes": res.states.nbytes,
        "diverged": int(res.diverged.sum()),
    }


def _single_attrs(args, kwargs, traj):
    from rteuler.scheme import variant_is_tamed

    cfg = _scheme_cfg(args, kwargs)
    return {"n": cfg.n, "paths": 1, "tamed": variant_is_tamed(cfg.variant), "diverged": 0}


ATTRS = {
    "rng.make_path_draw": _draw_attrs,
    "scheme.simulate_paths": _batch_attrs,
    "scheme.simulate_path": _single_attrs,
    "scheme.simulate_sdde_switching": _single_attrs,
}


class Tracer:
    """Keeps spans in memory for one process; single-threaded use only."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        parent = self._stack[-1]["id"] if self._stack else -1
        span = {"id": len(self.spans), "parent": parent, "name": name, "run": self.run_id}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            if name in SINGLE and span["error"] == "DivergedPathError":
                span.update(_single_attrs(args, kwargs, None), diverged=1)
            raise
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        attrs = ATTRS.get(name)
        if attrs is not None:
            span.update(attrs(args, kwargs, out))
        return out

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_counted(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counts = stack[-1].setdefault("counted", {}).setdefault(name, [0, 0.0])
                counts[0] += 1
                counts[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for targets, wrap in ((TARGETS, self._wrap), (COUNTED, self._wrap_counted)):
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by children and counters."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        for _calls, seconds in s.get("counted", {}).values():
            own[s["id"]] -= seconds
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def blocks(spans: list[dict]) -> list[float]:
    """Durations of the path blocks of each harness span.

    Both harness entry points build a block's draws and then step them; a block
    runs from its first draw to the end of the last stepper call before the
    next block's first draw.
    """
    out = []
    for h in spans:
        if h["name"] not in HARNESS:
            continue
        start = end = None
        for c in spans:
            if c["parent"] != h["id"]:
                continue
            if c["name"] == "rng.make_path_draw" and (start is None or end is not None):
                if end is not None:
                    out.append(end - start)
                start, end = c["start"], None
            elif c["name"] == "scheme.simulate_paths" and start is not None:
                end = c["end"]
        if start is not None and end is not None:
            out.append(end - start)
    return out


def _named(spans, *names):
    return [s for s in spans if s["name"] in names]


def _dur(spans) -> float:
    return sum((s["end"] - s["start"] for s in spans), 0.0)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _steps(spans) -> int:
    return sum(s["paths"] * s["n"] for s in spans if "n" in s)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run (seconds, counts, bytes)."""
    own = self_times(spans)
    draws = _named(spans, "rng.make_path_draw")
    batch = _named(spans, "scheme.simulate_paths")
    ref = [s for s in batch if not s["tamed"]]
    tamed = [s for s in batch if s["tamed"]]
    single = _named(spans, *SINGLE)
    steppers = [s for s in batch + single if "n" in s]
    counted = [s["counted"]["taming.denominator"] for s in spans if "counted" in s]
    calls = sum(c for c, _ in counted)
    tamed_steps = sum(s["n"] for s in steppers if s["tamed"])
    builds = _named(spans, "model.build_model")
    ctmc = _named(spans, "markov.simulate_ctmc")
    block_s = blocks(spans)
    return {
        "rng.draw_s": _dur(draws),
        "rng.draws": len(draws),
        "rng.draw_us_per_path": 1e6 * _dur(draws) / len(draws) if draws else 0.0,
        "rng.draw_bytes": sum(s["bytes"] for s in draws),
        "scheme.ref_s": _dur(ref),
        "scheme.ref_path_steps_per_s": _rate(_steps(ref), _dur(ref)),
        "scheme.tamed_s": _dur(tamed),
        "scheme.tamed_path_steps_per_s": _rate(_steps(tamed), _dur(tamed)),
        "scheme.batch_calls": len(batch),
        "scheme.state_bytes_peak": max((s["state_bytes"] for s in batch), default=0),
        "scheme.state_bytes_total": sum(s["state_bytes"] for s in batch),
        "scheme.single_s": _dur(single),
        "scheme.single_steps_per_s": _rate(_steps(single), _dur(single)),
        "scheme.diverged_paths": sum(s["diverged"] for s in steppers),
        "taming.denominator_calls": calls,
        "taming.denominator_s": sum((sec for _, sec in counted), 0.0),
        "taming.denominator_calls_per_tamed_step": calls / tamed_steps if tamed_steps else 0.0,
        "harness.self_s": sum((own[s["id"]] for s in _named(spans, *HARNESS)), 0.0),
        "harness.blocks": len(block_s),
        "harness.block_s_p50": statistics.median(block_s) if block_s else 0.0,
        "harness.block_s_max": max(block_s, default=0.0),
        "model.build_calls": len(builds),
        "model.build_s": _dur(builds),
        "markov.ctmc_s": _dur(ctmc),
        "markov.ctmc_calls": len(ctmc),
        "cli.self_s": sum((own[s["id"]] for s in _named(spans, ROOT)), 0.0),
        "plots.svg_s": _dur(_named(spans, "plots.svg_loglog")),
    }


def path_steps(spans: list[dict]) -> int:
    """Path-steps observed through the batched and single-path steppers."""
    return _steps(_named(spans, "scheme.simulate_paths", *SINGLE))
