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
from .scheme import DivergedPathError, scheme_config, simulate_path, simulate_sdde_switching
from .taming import TamingConfig, check_taming_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# section -> key -> default; "" holds the root keys. Any other key is a config
# error, and a key whose default is a list must be given a list.
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
    config = {**_checked("", data), **sections}
    if config["simulate"]["sdde"]:
        config["simulate"]["sdde"] = _checked("simulate.sdde", config["simulate"]["sdde"])
    taming = config["taming"]
    try:
        taming["n_power"] = float(taming["n_power"])
        TamingConfig(n=1, zeta=1.0, **taming)
    except (TypeError, ValueError) as exc:
        raise _keyed("taming", exc) from exc
    return config


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


def _model(config: dict):
    model = config["model"]
    try:
        return build_model(model["preset"], model["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def _study_config(config: dict) -> StudyConfig:
    _model(config)  # a bad model config fails here, before any block runs
    model, taming = config["model"], config["taming"]
    study = {k: tuple(v) if isinstance(v, list) else v for k, v in config["study"].items()}
    try:
        study.update(levels=tuple(int(n) for n in study["levels"]),
                     reference_n=int(study["reference_n"]), num_paths=int(study["num_paths"]))
        return StudyConfig(
            **study,
            model=model["preset"],
            model_params=model["params"],
            x0=model["x0"],
            base_seed=int(config["seed"]),
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
    workers, fmt = int(config["workers"]), config["format"]
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
    header = "t," + ",".join(f"x_{i+1}" for i in range(d))
    if traj.regimes is not None:
        header += ",regime"
    lines = [header]
    points = traj.grid.points()
    for k in range(traj.grid.n + 1):
        row = f"{points[k]:.17g}," + ",".join(f"{v:.17g}" for v in traj.states[k])
        if traj.regimes is not None:
            row += f",{traj.regimes[k]}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(args, config: dict) -> int:
    model = _model(config)
    sec, x0, seed = config["simulate"], config["model"]["x0"], int(config["seed"])
    n, variant = int(sec["n"]), sec["variant"]
    intensity = float(config["jumps"]["intensity"])
    try:
        cfg = scheme_config(variant, n, model.zeta, **config["taming"])
    except ValueError as exc:
        raise ConfigError(f"simulate.n is {n}, simulate.variant is {variant!r}: {exc}") from exc
    out = _out_dir(config)

    jm = normal_marks(intensity) if intensity > 0 else None
    draw = make_path_draw(
        seed, 0, fine_n=n, m=model.dim_noise, horizon=model.horizon,
        levels=[n], jump_model=jm, x0=np.atleast_1d(np.asarray(x0, dtype=float)),
    )

    sdde = sec["sdde"]
    try:
        if sdde:
            gen = Generator(np.asarray(sdde["generator"], dtype=float))
            chain = simulate_ctmc(
                gen, int(sdde["alpha0"]), model.horizon, StreamKey(seed, 0, StreamTag.MARKOV)
            )
            by_regime = {}
            for regime in range(1, gen.m0 + 1):
                regime_params = dict(config["model"]["params"])
                regime_params.update(sdde["params_by_regime"].get(regime, {}))
                by_regime[regime] = build_model(config["model"]["preset"], regime_params)
            segment = x0 if sdde["initial_segment"] is None else sdde["initial_segment"]
            traj = simulate_sdde_switching(
                by_regime,
                cfg,
                draw,
                delay=float(sdde["delay"]),
                initial_segment=np.atleast_1d(np.asarray(segment, dtype=float)),
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
    try:
        dw = DoubleWellParams(**params) if params else DoubleWellParams()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model params: {exc}") from exc
    lam = float(sec["lambda_factor"])

    lines = []
    for q in sec["q_values"]:
        rep = cons.check_coercivity(int(q), dw.beta_hat, dw.sigma_hat, dw.gamma_hat)
        lines.append(rep.format_row())
    for p0 in sec["p0_values"]:
        rep = cons.check_monotonicity(int(p0), lam, dw.beta_hat, dw.sigma_hat, dw.gamma_hat)
        lines.append(rep.format_row())

    model = double_well_model(dw)
    n = int(sec["taming_n"])
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
    jm = normal_marks(intensity) if intensity > 0 else None
    try:
        table = harness.moment_probe(
            model, sec["variant"], sec["n_list"], float(sec["q"]), int(sec["num_paths"]),
            x0=config["model"]["x0"], jump_model=jm, base_seed=int(config["seed"]),
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
    common(p)
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
