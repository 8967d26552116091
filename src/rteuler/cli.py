"""Batch front door: config loading, subcommands, CSV/JSON/SVG emission.

Configuration lives in a single YAML file with nested sections: ``SCHEMA``
declares every key with its default, and ``FLAGS`` the key each CLI flag
overrides. All outputs are pure functions of (config bytes, seed): rerunning
a command reproduces identical artifacts; the worker count only changes scheduling.

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

import numpy as np
import yaml

from . import constraints as cons
from . import harness
from .harness import StudyConfig
from .markov import Generator, simulate_ctmc
from .model import DoubleWellParams, build_model, double_well_model, probe_growth
from .plots import svg_loglog
from .rng import StreamKey, StreamTag, make_path_draw, normal_marks
from .scheme import DivergedPathError, SchemeConfig, simulate_path, simulate_sdde_switching
from .taming import TamingConfig, check_taming_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# section -> key -> default; "" holds the root keys. Any other key is a config
# error, a key whose default is a list must be given a list, and only a key
# whose default is a boolean may be given one.
SCHEMA = {
    "": {"seed": 0, "workers": 1, "out": "out", "format": "csv", "plot": False},
    "model": {"preset": StudyConfig.model, "params": {}, "x0": StudyConfig.x0},
    "jumps": {"intensity": StudyConfig.intensity},
    "taming": {"n_power": StudyConfig.taming_n_power, "x_power": StudyConfig.taming_x_power},
    "study": {k: getattr(StudyConfig, k) for k in (
        "variants", "reference_variant", "levels", "reference_n", "num_paths", "p_list",
        "error_time")},
    "simulate": {"n": 256, "variant": "randomized_tamed", "sdde": None},
    # initial_segment None: the constant segment at model.x0
    "simulate.sdde": {"generator": None, "alpha0": 1, "delay": 0.0, "initial_segment": None,
                      "params_by_regime": {}},
    "moments": {"n_list": [64, 128, 256, 512, 1024], "q": 4, "num_paths": 10000,
                "variant": "randomized_tamed"},
    "verify": {"q_values": [4, 648], "p0_values": [2, 4], "lambda_factor": 1.001, "taming_n": 256},
}

# the dotted keys that hold an integer, or a list of integers
INTEGER_KEYS = {"workers", "study.levels", "study.reference_n", "study.num_paths", "simulate.n",
                "simulate.sdde.alpha0", "moments.n_list", "moments.num_paths",
                "verify.q_values", "verify.p0_values", "verify.taming_n"}

# subcommand -> flag -> the dotted config key it overrides when given
FLAGS = {
    "converge": {"seed": "seed", "out": "out", "variant": "study.variants", "plot": "plot",
                 "paths": "study.num_paths", "levels": "study.levels", "ref": "study.reference_n",
                 "format": "format", "workers": "workers"},
    "simulate": {"seed": "seed", "out": "out", "variant": "simulate.variant", "n": "simulate.n"},
    "verify": {},
    "moments": {"seed": "seed", "out": "out", "variant": "moments.variant",
                "paths": "moments.num_paths"},
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


def _checked(name: str, given) -> dict:
    """Section ``name`` checked against ``SCHEMA``; missing or null keys get their default."""
    if not isinstance(given, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    out = copy.deepcopy(SCHEMA[name])
    for key, value in given.items():
        dotted = f"{name}.{key}" if name else str(key)
        if key not in out:
            raise ConfigError(f"unknown config key {dotted}")
        if value is None:
            continue
        if isinstance(out[key], (list, tuple)) and not isinstance(value, list):
            raise ConfigError(f"{dotted} must be a list, got {value!r}")
        if isinstance(out[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"{dotted} must be a mapping, got {value!r}")
        values = value if isinstance(value, list) else [value]
        if not isinstance(out[key], bool) and any(isinstance(v, bool) for v in values):
            raise ConfigError(f"{dotted} must not be a boolean, got {value!r}")
        if dotted in INTEGER_KEYS and not all(isinstance(v, int) for v in values):
            kind = "a list of integers" if isinstance(value, list) else "an integer"
            raise ConfigError(f"{dotted} must be {kind}, got {value!r}")
        out[key] = value
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
            raise ConfigError("config root must be a mapping")
    sections = {name: _checked(name, data.pop(name, None) or {})
                for name in SCHEMA if name and "." not in name}
    if data.get("seed") is not None:  # before _checked, whose boolean message is less exact
        _check_seed(data)
    config = {**_checked("", data), **sections}
    if config["simulate"]["sdde"]:
        config["simulate"]["sdde"] = _checked("simulate.sdde", config["simulate"]["sdde"])
    intensity = config["jumps"]["intensity"]
    if not (isinstance(intensity, (int, float)) and 0.0 <= intensity < math.inf):
        raise ConfigError(f"jumps.intensity must be a finite number >= 0, got {intensity!r}")
    taming = config["taming"]
    try:
        taming["n_power"] = float(taming["n_power"])
        TamingConfig(n=1, zeta=1.0, **taming)
    except (TypeError, ValueError) as exc:
        raise _keyed("taming", exc) from exc
    return config


def _check_seed(config: dict) -> None:
    seed = config["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")


def _apply_flags(config: dict, args) -> None:
    """Override each config key from its flag in ``FLAGS``, if the flag was given."""
    for flag, dotted in FLAGS[args.command].items():
        value = getattr(args, flag)
        if value is None:
            continue
        section, _, key = dotted.rpartition(".")
        if isinstance(SCHEMA[section][key], (list, tuple)) and not isinstance(value, list):
            value = [value]
        (config[section] if section else config)[key] = value
    _check_seed(config)


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


def _model(config: dict):
    model = config["model"]
    return _built(partial(build_model, model["preset"]), model["params"], "model.params")


def _study_config(config: dict) -> StudyConfig:
    _model(config)  # a bad model config fails here, before any block runs
    model, taming = config["model"], config["taming"]
    study = {k: tuple(v) if isinstance(v, list) else v for k, v in config["study"].items()}
    try:
        return StudyConfig(
            **study,
            model=model["preset"],
            model_params=model["params"],
            x0=model["x0"],
            base_seed=config["seed"],
            intensity=float(config["jumps"]["intensity"]),
            taming_n_power=taming["n_power"],
            taming_x_power=taming["x_power"],
        )
    except (TypeError, ValueError) as exc:
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
    workers, fmt = config["workers"], config["format"]
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}")
    out = _out_dir(config)
    reports = harness.strong_error_study(cfg, workers=workers,
                                         progress=partial(print, file=sys.stderr))

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
    if config["plot"]:
        series = {
            f"p={p:g}": [(r.dt, r.error) for r in reports[0].rows_for_p(p) if r.usable]
            for p in cfg.p_list
        }
        (out / "errors.svg").write_text(svg_loglog(series))
    print(f"wrote {out}/", file=sys.stderr)
    return status


def _write_trajectory_csv(path: Path, traj) -> None:
    d = traj.states.shape[1]
    header = ["t"] + [f"x_{i+1}" for i in range(d)]
    columns = [traj.grid.points()[:, None], traj.states]
    fmt = ",".join(["%.17g"] * (d + 1))  # the bytes of "{:.17g}".format
    if traj.regimes is not None:
        header.append("regime")
        columns.append(traj.regimes[:, None])
        fmt += ",%d"
    width = len(header)
    values = np.hstack(columns).ravel().tolist()  # regimes as exact floats, %d prints them
    step = 1024 * width  # the values of the rows formatted with one %
    lines = [",".join(header)] + [
        "\n".join([fmt] * (len(part) // width)) % tuple(part)
        for part in (values[lo : lo + step] for lo in range(0, len(values), step))
    ]
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(args, config: dict) -> int:
    model = _model(config)
    sec, x0, seed = config["simulate"], config["model"]["x0"], config["seed"]
    n, variant = sec["n"], sec["variant"]
    intensity = float(config["jumps"]["intensity"])
    try:
        cfg = SchemeConfig(variant, n, **config["taming"])
    except ValueError as exc:
        raise ConfigError(f"simulate.n is {n}, simulate.variant is {variant!r}: {exc}") from exc

    sdde = sec["sdde"]
    if sdde:  # built and checked before the output directory is made
        try:
            gen = Generator(np.asarray(sdde["generator"], dtype=float))
            chain = simulate_ctmc(
                gen, sdde["alpha0"], model.horizon, StreamKey(seed, 0, StreamTag.MARKOV)
            )
            delay = float(sdde["delay"])
            segment = x0 if sdde["initial_segment"] is None else sdde["initial_segment"]
            segment = np.atleast_1d(np.asarray(segment, dtype=float))
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if not delay >= 0.0:
            raise ConfigError(f"simulate.sdde.delay must be >= 0, got {sdde['delay']!r}")
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
    out = _out_dir(config)

    draw = make_path_draw(seed, 0, fine_n=n, m=model.dim_noise, horizon=model.horizon,
                          levels=[n], jump_model=normal_marks(intensity), x0=x0)
    try:
        if sdde:
            traj = simulate_sdde_switching(
                by_regime,
                cfg,
                draw,
                delay=delay,
                initial_segment=segment,
                chain=chain,
                intensity=intensity,
            )
        else:
            traj = simulate_path(model, cfg, draw, intensity=intensity)
    except DivergedPathError as exc:
        print(f"path diverged at step {exc.step_index}", file=sys.stderr)
        return EXIT_DIVERGED
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _write_trajectory_csv(out / "trajectory.csv", traj)
    print(f"wrote {out}/trajectory.csv", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args, config: dict) -> int:
    sec, preset, params = config["verify"], config["model"]["preset"], config["model"]["params"]
    if preset != "double-well":
        raise ConfigError(
            f"model.preset is {preset!r}; verify checks the double-well constraints only"
        )
    dw = _built(lambda given: DoubleWellParams(**given), params, "model.params")
    lam = float(sec["lambda_factor"])
    n = sec["taming_n"]
    if n < 1:
        raise ConfigError(f"verify.taming_n must be >= 1, got {n}")

    lines = []
    for q in sec["q_values"]:
        rep = cons.check_coercivity(q, dw.beta_hat, dw.sigma_hat, dw.gamma_hat)
        lines.append(rep.format_row())
    for p0 in sec["p0_values"]:
        rep = cons.check_monotonicity(p0, lam, dw.beta_hat, dw.sigma_hat, dw.gamma_hat)
        lines.append(rep.format_row())

    model = double_well_model(dw)
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
    emp = cons.check_double_well_monotonicity_empirical(dw)
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
    model = _model(config)
    sec, taming = config["moments"], config["taming"]
    intensity = float(config["jumps"]["intensity"])
    out = _out_dir(config)
    try:
        table = harness.moment_probe(
            model, sec["variant"], sec["n_list"], float(sec["q"]), sec["num_paths"],
            x0=config["model"]["x0"], jump_model=normal_marks(intensity), base_seed=config["seed"],
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


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rteuler",
        description="Randomized tamed Euler schemes and strong-error studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="base seed (overrides config)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--variant", help="scheme variant")

    p = sub.add_parser("converge", help="coupled-ladder strong error study")
    common(p)
    p.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    p.add_argument("--levels", type=_int_list, help="comma-separated step counts")
    p.add_argument("--ref", type=int, help="reference step count")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--workers", type=int, help="worker processes")
    # None when absent, so the switch can only turn plotting on
    p.add_argument("--plot", action="store_true", default=None, help="also write errors.svg")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("simulate", help="dump one trajectory as CSV")
    common(p)
    p.add_argument("--n", type=int, help="step count")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="parameter constraint table")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--out", help="also write the table to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("moments", help="empirical moment-boundedness probe")
    common(p)
    p.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    p.set_defaults(func=cmd_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        _apply_flags(config, args)
        return args.func(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
