"""Batch front door: config loading, subcommands, CSV/JSON/SVG emission.

Configuration lives in a single YAML file with nested sections: ``SCHEMA``
declares every key with its default and kind, and ``FLAGS`` every CLI flag with
the key it overrides and its argparse type and help. All outputs are pure
functions of (config bytes, seed): rerunning a command reproduces identical
artifacts; the worker count only changes scheduling.

Exit codes: 0 ok, 2 config error, 3 divergence threshold exceeded.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import constraints as cons
from . import harness
from .harness import ERROR_TIMES, StudyConfig
from .markov import Generator, simulate_ctmc
from .model import DoubleWellParams, build_model, probe_growth
from .plots import svg_loglog
from .rng import StreamKey, StreamTag, make_path_draw, normal_marks
from .scheme import (VARIANTS, DivergedPathError, SchemeConfig, simulate_path,
                     simulate_sdde_switching)
from .taming import TamingConfig, check_taming_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# numpy's Poisson sampler refuses a mean above this with "lam value too large"
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)
# simulate holds its one path whole: at d = m = 1 its draw takes 16 bytes a step and the
# kernel's traced peak 8.2 more (n = 2^18), which 8 * (d + m + 5) bounds. A path needing
# more than 2 GiB, 38 million steps at d = m = 1, is refused before any array is made, and
# so is a block whose expected jumps need more, at 96 bytes a jump (72-88 measured)
_SIMULATE_BYTES = 2 << 30

# what a config value must be: ``text`` ends "<key> must be ...", ``test`` accepts one
_Kind = NamedTuple("_Kind", [("text", str), ("test", Callable[[object], bool])])


def _list(text: str, kind: _Kind) -> _Kind:
    return _Kind(f"a list of {text}", lambda v: isinstance(v, list) and all(map(kind.test, v)))


def _choice(options: tuple) -> _Kind:
    return _Kind(f"one of {options}", lambda v: isinstance(v, str) and v in options)


def _at_least(kind: _Kind, lo: int) -> _Kind:
    return _Kind(f"{kind.text} >= {lo}", lambda v: kind.test(v) and v >= lo)


_BOOL = _Kind("a boolean", lambda v: isinstance(v, bool))
_INT = _Kind("an integer", lambda v: type(v) is int)  # not a bool
_NUMBER = _Kind("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v))
_STR = _Kind("a string", lambda v: isinstance(v, str))
_MAPPING = _Kind("a mapping", lambda v: isinstance(v, dict))
_INTS, _NUMBERS = _list("integers", _INT), _list("finite numbers", _NUMBER)
_VARIANT = _choice(VARIANTS)
_STATE = _Kind("a finite number or a list of finite numbers",
               lambda v: _NUMBER.test(v) or _NUMBERS.test(v))

# section -> key -> (default, kind); "" holds the root keys. Any other key is a
# config error, and a missing or null key takes its default. Bounds that span
# keys stay with the constructors that check them (StudyConfig, SchemeConfig,
# TamingConfig, the probes), whose messages ``_keyed`` names by key.
SCHEMA = {
    "": {"seed": (0, _at_least(_INT, 0)), "workers": (1, _at_least(_INT, 1)),
         "out": ("out", _STR), "format": ("csv", _choice(("csv", "json"))), "plot": (False, _BOOL)},
    "model": {"preset": (StudyConfig.model, _STR), "params": ({}, _MAPPING),
              "x0": (StudyConfig.x0, _STATE)},
    "jumps": {"intensity": (StudyConfig.intensity, _at_least(_NUMBER, 0))},
    "taming": {"n_power": (StudyConfig.taming_n_power, _NUMBER),
               "x_power": (StudyConfig.taming_x_power, _NUMBER)},
    "study": {"variants": (StudyConfig.variants, _list(f"values from {VARIANTS}", _VARIANT)),
              "reference_variant": (StudyConfig.reference_variant, _VARIANT),
              "levels": (StudyConfig.levels, _INTS),
              "reference_n": (StudyConfig.reference_n, _INT),
              "num_paths": (StudyConfig.num_paths, _INT),
              "p_list": (StudyConfig.p_list, _NUMBERS),
              "error_time": (StudyConfig.error_time, _choice(ERROR_TIMES))},
    "simulate": {"n": (256, _INT), "variant": ("randomized_tamed", _VARIANT),
                 "sdde": (None, _MAPPING)},
    # initial_segment None: the constant segment at model.x0
    "simulate.sdde": {"generator": (None, _list("lists of finite numbers", _NUMBERS)),
                      "alpha0": (1, _INT), "delay": (0.0, _at_least(_NUMBER, 0)),
                      "initial_segment": (None, _STATE), "params_by_regime": ({}, _MAPPING)},
    "moments": {"n_list": ([64, 128, 256, 512, 1024], _INTS), "q": (4, _NUMBER),
                "num_paths": (10000, _INT), "variant": ("randomized_tamed", _VARIANT)},
    "verify": {"q_values": ([4, 648], _INTS), "p0_values": ([2, 4], _INTS),
               "lambda_factor": (1.001, _NUMBER), "taming_n": (256, _at_least(_INT, 1))},
}


def _levels(text: str) -> list[int]:
    """``--levels``' value: comma-separated step counts; argparse prints the error."""
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"study.levels must be comma-separated integers, got {text!r}") from None


_SEED = ("seed", {"type": int, "help": "base seed (overrides config)"})
_OUT = ("out", {"help": "output directory"})  # the flag of every command with an output directory
_PATHS = {"type": int, "help": "number of Monte Carlo paths"}

# subcommand -> (its help, flag -> (the dotted config key the flag overrides
# when given, or None, and its add_argument keywords)); each also takes --config
FLAGS = {
    "converge": ("coupled-ladder strong error study", {
        "seed": _SEED, "out": _OUT, "variant": ("study.variants", {"help": "scheme variant"}),
        "paths": ("study.num_paths", _PATHS),
        "levels": ("study.levels", {"type": _levels, "help": "comma-separated step counts"}),
        "ref": ("study.reference_n", {"type": int, "help": "reference step count"}),
        "format": ("format", {"choices": ("csv", "json")}),
        "workers": ("workers", {"type": int, "help": "worker processes"}),
        # None when absent, so the switch can only turn plotting on
        "plot": ("plot", {"action": "store_true", "default": None,
                          "help": "also write errors.svg"})}),
    "simulate": ("dump one trajectory as CSV", {
        "seed": _SEED, "out": _OUT, "variant": ("simulate.variant", {"help": "scheme variant"}),
        "n": ("simulate.n", {"type": int, "help": "step count"})}),
    "verify": ("parameter constraint table",  # its --out names a file, for no config key
               {"out": (None, {"help": "also write the table to this file"})}),
    "moments": ("empirical moment-boundedness probe", {
        "seed": _SEED, "out": _OUT, "variant": ("moments.variant", {"help": "scheme variant"}),
        "paths": ("moments.num_paths", _PATHS)}),
}


class ConfigError(Exception):
    pass


def _keyed(section: str, exc: Exception) -> ConfigError:
    """``exc`` as a config error. Checks downstream start their messages with the
    argument's name; where that name is a key of ``section``, it becomes the dotted key."""
    msg = str(exc)
    if msg.partition(" ")[0] in SCHEMA[section]:
        return ConfigError(f"{section}.{msg}")
    return ConfigError(f"bad {section} config: {msg}")


def _check(dotted: str, value):
    """``value``, if it is of the kind ``SCHEMA`` declares for the key ``dotted``."""
    section, _, key = dotted.rpartition(".")
    kind = SCHEMA[section][key][1]
    if not kind.test(value):
        raise ConfigError(f"{dotted} must be {kind.text}, got {value!r}")
    return value


def _checked(name: str, given) -> dict:
    """Section ``name`` (None: empty), each key checked against its kind in
    ``SCHEMA``; missing or null keys get their default."""
    if not isinstance(given, (dict, type(None))):
        raise ConfigError(f"{name} must be a mapping, got {given!r}")
    out = {key: copy.deepcopy(default) for key, (default, _kind) in SCHEMA[name].items()}
    for key, value in (given or {}).items():
        dotted = f"{name}.{key}" if name else str(key)
        if key not in out:
            raise ConfigError(f"unknown config key {dotted}")
        if value is not None:
            out[key] = _check(dotted, value)
    return out


def load_config(path: str | None) -> dict:
    """The config at ``path`` (None: all defaults), every section checked and
    filled in by ``_checked``; ``simulate.sdde`` stays None unless given."""
    data = {}
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be a mapping, got {data!r}")
    sections = {name: _checked(name, data.pop(name, None))
                for name in SCHEMA if name and "." not in name}
    config = {**_checked("", data), **sections}
    if config["simulate"]["sdde"]:
        config["simulate"]["sdde"] = _checked("simulate.sdde", config["simulate"]["sdde"])
    try:  # the exponents' bounds are the taming's own
        TamingConfig(n=1, zeta=1.0, **config["taming"])
    except ValueError as exc:
        raise _keyed("taming", exc) from exc
    return config


def _apply_flags(config: dict, args) -> None:
    """Override each config key from its flag in ``FLAGS``, if the flag was
    given, checking the value as ``_checked`` checks the file's."""
    for flag, (dotted, _keywords) in FLAGS[args.command][1].items():
        value = getattr(args, flag)
        if dotted is None or value is None:
            continue
        section, _, key = dotted.rpartition(".")
        if isinstance(SCHEMA[section][key][0], (list, tuple)) and not isinstance(value, list):
            value = [value]
        (config[section] if section else config)[key] = _check(dotted, value)


def _built(factory, params: dict, dotted: str, given: dict | None = None):
    """``factory(params)``. An error whose message starts with a key of
    ``given`` (default ``params``), the params the config holds at ``dotted``,
    names that key's dotted path."""
    try:
        return factory(params)
    except (KeyError, TypeError, ValueError) as exc:
        if str(exc).partition(" ")[0] in (params if given is None else given):
            raise ConfigError(f"{dotted}.{exc}") from exc
        raise ConfigError(f"bad model config: {exc}") from exc


def _model(config: dict, rows: int = 1):
    """The config's model; ``model.x0`` must be a number, or for a
    d-dimensional state a list of d numbers. ``jumps.intensity`` must give a
    path a Poisson jump count numpy can draw, and a block of ``rows`` paths
    expected jumps that fit in 2 GiB."""
    model, x0, intensity = config["model"], config["model"]["x0"], config["jumps"]["intensity"]
    built = _built(partial(build_model, model["preset"]), model["params"], "model.params")
    d = built.dim_state
    if len(x0 if isinstance(x0, list) else [x0]) != d:
        want = "a number" if d == 1 else f"a list of {d} numbers"
        raise ConfigError(f"model.x0 must be {want}, got {x0!r}")
    if intensity * built.horizon > _POISSON_MAX:
        raise ConfigError(f"jumps.intensity must be at most {_POISSON_MAX / built.horizon:g}, "
                          f"numpy's Poisson limit over the horizon {built.horizon:g}, "
                          f"got {intensity!r}")
    if intensity * built.horizon * rows * 96 > _SIMULATE_BYTES:
        raise ConfigError(f"jumps.intensity must be at most "
                          f"{_SIMULATE_BYTES / (96 * built.horizon * rows):g}, got {intensity!r}: "
                          f"the expected jumps of a {rows}-path block are held, at 96 bytes "
                          f"each, within 2 GiB")
    return built


def _study_config(config: dict) -> StudyConfig:
    rows = min(config["study"]["num_paths"], harness.STUDY_BLOCK_SIZE)
    _model(config, rows)  # a bad model config fails here, before any block runs
    model, taming = config["model"], config["taming"]
    study = {k: tuple(v) if isinstance(v, list) else v for k, v in config["study"].items()}
    try:
        return StudyConfig(**study, model=model["preset"], model_params=model["params"],
                           x0=model["x0"], base_seed=config["seed"],
                           intensity=config["jumps"]["intensity"],
                           taming_n_power=taming["n_power"], taming_x_power=taming["x_power"])
    except ValueError as exc:
        raise _keyed("study", exc) from exc


def _out_dir(config: dict) -> Path:
    out = Path(config["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_converge(args, config: dict) -> int:
    cfg = _study_config(config)
    fmt = config["format"]
    out = _out_dir(config)
    try:  # a model whose factory cannot reach the workers is refused before any path runs
        reports = harness.strong_error_study(cfg, workers=config["workers"],
                                             progress=partial(print, file=sys.stderr))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    status = EXIT_OK
    for i, report in enumerate(reports):
        stem = "errors" if i == 0 else f"errors_{report.variant}"
        if fmt == "csv":
            (out / f"{stem}.csv").write_text(report.to_csv())
        else:
            _write_json(out / f"{stem}.json", report.to_json_dict())
        if any(not r.usable for r in report.rows):
            status = EXIT_DIVERGED
    rates = {
        r.variant: {
            f"{p:g}": (fit.slope if fit else None) for p, fit in r.slopes.items()
        }
        for r in reports
    }
    _write_json(out / "rates.json", rates)
    if config["plot"]:  # a log-log plot of the usable rows' positive errors
        series = {
            f"p={p:g}": [(r.dt, r.error) for r in reports[0].rows_for_p(p)
                         if r.usable and r.error > 0.0]
            for p in cfg.p_list
        }
        if any(series.values()):
            (out / "errors.svg").write_text(svg_loglog(series))
        else:
            print("no usable row to plot: errors.svg not written", file=sys.stderr)
    print(f"wrote {out}/", file=sys.stderr)
    return status


def _write_trajectory_csv(path: Path, traj) -> None:
    """Format and write the trajectory 1024 rows at a time, each block's times
    by ``TimeGrid.points()``'s formula, so nothing that grows with n is made."""
    d, rows, grid = traj.states.shape[1], len(traj.states), traj.grid
    header = ["t"] + [f"x_{i+1}" for i in range(d)]
    fmt = ",".join(["%.17g"] * (d + 1))  # the bytes of "{:.17g}".format
    if traj.regimes is not None:
        header.append("regime")
        fmt += ",%d"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, 1024):
            hi = min(lo + 1024, rows)
            columns = [(np.arange(lo, hi) * grid.horizon / grid.n)[:, None], traj.states[lo:hi]]
            if traj.regimes is not None:
                columns.append(traj.regimes[lo:hi, None])
            values = np.hstack(columns).ravel().tolist()  # regimes as exact floats, %d prints them
            fh.write("\n".join([fmt] * (hi - lo)) % tuple(values) + "\n")


def cmd_simulate(args, config: dict) -> int:
    sec, x0, seed = config["simulate"], config["model"]["x0"], config["seed"]
    n, intensity, sdde = sec["n"], config["jumps"]["intensity"], sec["sdde"]
    model = _model(config)
    try:
        cfg = SchemeConfig(sec["variant"], n, **config["taming"])
    except ValueError as exc:
        raise _keyed("simulate", exc) from exc
    per_step = 8 * (model.dim_state + model.dim_noise + 5)
    if n > _SIMULATE_BYTES // per_step:
        raise ConfigError(f"simulate.n must be at most {_SIMULATE_BYTES // per_step}, got {n}: "
                          f"the path is held whole, at {per_step} bytes a step, within 2 GiB")

    if sdde:  # the chain and the regimes' models, built before the output directory is made
        try:
            gen = Generator(sdde["generator"])
            chain = simulate_ctmc(
                gen, sdde["alpha0"], model.horizon, StreamKey(seed, 0, StreamTag.MARKOV)
            )
        except ValueError as exc:
            raise _keyed("simulate.sdde", exc) from exc
        regimes = range(1, gen.m0 + 1)
        for key in sdde["params_by_regime"]:
            if type(key) is not int or key not in regimes:  # not a bool, a float or a str
                raise ConfigError(f"simulate.sdde.params_by_regime.{key!r} is not a regime "
                                  f"1..{gen.m0} of simulate.sdde.generator")
        by_regime, build = {}, partial(build_model, config["model"]["preset"])
        for regime in regimes:
            given = sdde["params_by_regime"].get(regime, {})
            dotted = f"simulate.sdde.params_by_regime.{regime}"
            if not isinstance(given, dict):
                raise ConfigError(f"{dotted} must be a mapping, got {given!r}")
            by_regime[regime] = _built(build, {**config["model"]["params"], **given},
                                       dotted, given)
    out = _out_dir(config)  # main removes it if the library refuses the delay or segment

    draw = make_path_draw(seed, 0, fine_n=n, m=model.dim_noise, horizon=model.horizon,
                          levels=[n], jump_model=normal_marks(intensity), x0=x0)
    try:
        if sdde:
            segment = x0 if sdde["initial_segment"] is None else sdde["initial_segment"]
            traj = simulate_sdde_switching(by_regime, cfg, draw, sdde["delay"], segment, chain,
                                           intensity)
        else:
            traj = simulate_path(model, cfg, draw, intensity=intensity)
    except DivergedPathError as exc:
        print(f"path diverged at step {exc.step_index}", file=sys.stderr)
        return EXIT_DIVERGED
    except (KeyError, ValueError) as exc:
        raise (_keyed("simulate.sdde", exc) if sdde else ConfigError(str(exc))) from exc
    _write_trajectory_csv(out / "trajectory.csv", traj)
    print(f"wrote {out}/trajectory.csv", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args, config: dict) -> int:
    sec, preset, params = config["verify"], config["model"]["preset"], config["model"]["params"]
    if preset != "double-well":
        raise ConfigError(
            f"model.preset is {preset!r}; verify checks the double-well constraints only"
        )
    model = _built(partial(build_model, preset), params, "model.params")
    dw = DoubleWellParams(**params)  # the params build_model has just accepted
    n, hats = sec["taming_n"], (dw.beta_hat, dw.sigma_hat, dw.gamma_hat)
    if not sec["lambda_factor"] > 1.0:  # checked before the loops, which may be empty
        raise ConfigError(f"verify.lambda_factor: must be > 1, got {sec['lambda_factor']!r}")
    try:
        lines = [cons.check_coercivity(q, *hats).format_row() for q in sec["q_values"]]
        lines += [cons.check_monotonicity(p0, sec["lambda_factor"], *hats).format_row()
                  for p0 in sec["p0_values"]]
    except ValueError as exc:  # its message starts with the argument's name
        key = {"q": "q_values", "p0": "p0_values"}.get(str(exc).partition(" ")[0])
        raise ConfigError(f"verify.{key}: {exc}" if key else f"bad verify config: {exc}") from exc

    bounds = check_taming_bounds(model, TamingConfig(n=n, zeta=model.zeta, **config["taming"]))
    lines.append(
        f"taming bounds[n={n}]          ratio<=1: {bounds.ratio_violations} violations; "
        f"fitted drift C={bounds.fitted_drift_constant:.6g}, "
        f"diffusion C={bounds.fitted_diffusion_constant:.6g}"
    )
    growth = probe_growth(model)
    lines.append(
        f"growth probe                  drift K={growth.drift_constant:.6g}, "
        f"diffusion K={growth.diffusion_constant:.6g} on |x|<={growth.box[1]:g}"
    )
    emp = cons.check_double_well_monotonicity_empirical(dw, intensity=config["jumps"]["intensity"])
    lines.append(
        f"one-sided Lipschitz (sampled) fitted C={emp.fitted_constant:.6g}, "
        f"cubic sign violations={emp.cubic_sign_violations}"
    )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    return EXIT_OK


def cmd_moments(args, config: dict) -> int:
    sec, taming = config["moments"], config["taming"]
    model = _model(config, min(sec["num_paths"], harness.MOMENT_BLOCK_SIZE))
    out = _out_dir(config)
    try:
        table = harness.moment_probe(
            model, sec["variant"], sec["n_list"], sec["q"], sec["num_paths"],
            x0=config["model"]["x0"], jump_model=normal_marks(config["jumps"]["intensity"]),
            base_seed=config["seed"],
            taming_n_power=taming["n_power"], taming_x_power=taming["x_power"],
        )
    except ValueError as exc:
        raise _keyed("moments", exc) from exc
    lines = ["n,dt,sup_moment,diverged_frac"]
    for r in table.rows:
        lines.append(f"{r.n},{r.dt:.17g},{r.sup_moment:.17g},{r.diverged_frac:.17g}")
    lines.append(f"# max/min ratio: {table.max_min_ratio():.17g}")
    (out / "moments.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out}/moments.csv", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rteuler", description="Randomized tamed Euler schemes and strong-error studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in FLAGS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="YAML config file")
        for flag, (_dotted, keywords) in flags.items():
            p.add_argument(f"--{flag}", **keywords)
        p.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    missing = []  # the output directory and its parents that do not exist yet, deepest first
    try:
        config = load_config(args.config)
        _apply_flags(config, args)
        if _OUT in FLAGS[args.command][1].values():
            out = Path(config["out"])
            missing = [path for path in (out, *out.parents) if not path.exists()]
        return args.func(args, config)
    except ConfigError as exc:
        for path in missing:  # a config error leaves no directory this run made
            try:
                path.rmdir()  # only an empty one
            except OSError:
                pass
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
