"""Batch front door: config loading, subcommands, CSV/JSON/SVG emission.

Configuration lives in a single YAML file with nested sections; every CLI
flag overrides the corresponding config key. All outputs are pure functions
of (config bytes, seed): rerunning a command reproduces identical artifacts,
and the worker count only changes scheduling.

Exit codes: 0 ok, 2 config error, 3 divergence threshold exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import constraints as cons
from . import harness
from .markov import Generator, simulate_ctmc
from .model import DoubleWellParams, build_model, double_well_model, probe_growth
from .plots import svg_loglog
from .rng import StreamKey, StreamTag, make_path_draw, normal_marks
from .scheme import DivergedPathError, scheme_config, simulate_path, simulate_sdde_switching
from .taming import TamingConfig, check_taming_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(p) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _section(config: dict, name: str) -> dict:
    sec = config.get(name, {}) or {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return sec


def _model_from_config(config: dict):
    sec = _section(config, "model")
    name = sec.get("preset", "double-well")
    params = sec.get("params", {}) or {}
    try:
        model = build_model(name, params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc
    x0 = sec.get("x0", 2.0)
    return name, params, model, x0


def _taming_overrides(config: dict) -> tuple[float, float | None]:
    sec = _section(config, "taming")
    return float(sec.get("n_power", 0.5)), sec.get("x_power")


def _study_config(config: dict, args) -> harness.StudyConfig:
    name, params, _model, x0 = _model_from_config(config)
    sec = _section(config, "study")
    n_power, x_power = _taming_overrides(config)
    levels = args.levels or sec.get("levels", [64, 128, 256, 512, 1024, 2048])
    if isinstance(levels, str):
        levels = [int(v) for v in levels.split(",") if v]
    kwargs = dict(
        model=name,
        model_params=params,
        x0=x0,
        variants=tuple(
            [args.variant] if args.variant else sec.get("variants", ["randomized_tamed"])
        ),
        reference_variant=sec.get("reference_variant", "randomized_untamed"),
        levels=tuple(int(v) for v in levels),
        reference_n=int(args.ref or sec.get("reference_n", 8192)),
        num_paths=int(args.paths or sec.get("num_paths", 2000)),
        p_list=tuple(sec.get("p_list", [1, 2, 3, 4])),
        error_time=sec.get("error_time", "terminal"),
        base_seed=int(args.seed if args.seed is not None else config.get("seed", 0)),
        intensity=float(_section(config, "jumps").get("intensity", 1.0)),
        taming_n_power=n_power,
        taming_x_power=x_power,
    )
    try:
        return harness.StudyConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad study config: {exc}") from exc


def _out_dir(config: dict, args) -> Path:
    out = Path(args.out or config.get("out", "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_converge(args) -> int:
    config = load_config(args.config)
    cfg = _study_config(config, args)
    out = _out_dir(config, args)
    workers = int(args.workers or config.get("workers", 1))
    fmt = args.format or config.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}")
    reports = harness.strong_error_study(cfg, workers=workers, progress=harness.print_progress)

    status = EXIT_OK
    for i, report in enumerate(reports):
        stem = "errors" if i == 0 else f"errors_{report.variant}"
        if fmt == "csv":
            harness.write_report_csv(report, out / f"{stem}.csv")
        else:
            harness.write_report_json(report, out / f"{stem}.json")
        if any(not r.usable for r in report.rows):
            status = EXIT_DIVERGED
    rates = {
        r.variant: {
            f"{p:g}": (fit.slope if fit else None) for p, fit in r.slopes.items()
        }
        for r in reports
    }
    with open(out / "rates.json", "w") as fh:
        json.dump(rates, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.plot or config.get("plot", False):
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


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    name, params, model, x0 = _model_from_config(config)
    sec = _section(config, "simulate")
    n = int(args.n or sec.get("n", 256))
    variant = args.variant or sec.get("variant", "randomized_tamed")
    seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    intensity = float(_section(config, "jumps").get("intensity", 1.0))
    n_power, x_power = _taming_overrides(config)
    out = _out_dir(config, args)
    try:
        cfg = scheme_config(variant, n, model.zeta, n_power, x_power)
    except ValueError as exc:
        raise ConfigError(f"simulate.n is {n}, simulate.variant is {variant!r}: {exc}") from exc

    jm = normal_marks(intensity) if intensity > 0 else None
    draw = make_path_draw(
        seed, 0, fine_n=n, m=model.dim_noise, horizon=model.horizon,
        levels=[n], jump_model=jm, x0=np.atleast_1d(np.asarray(x0, dtype=float)),
    )

    sdde = sec.get("sdde")
    try:
        if sdde:
            gen = Generator(np.asarray(sdde["generator"], dtype=float))
            alpha0 = int(sdde.get("alpha0", 1))
            chain = simulate_ctmc(
                gen, alpha0, model.horizon, StreamKey(seed, 0, StreamTag.MARKOV)
            )
            by_regime = {}
            params_by_regime = sdde.get("params_by_regime", {})
            for regime in range(1, gen.m0 + 1):
                regime_params = dict(params)
                regime_params.update(params_by_regime.get(regime, {}))
                by_regime[regime] = build_model(name, regime_params)
            traj = simulate_sdde_switching(
                by_regime,
                cfg,
                draw,
                delay=float(sdde.get("delay", 0.0)),
                initial_segment=np.atleast_1d(
                    np.asarray(sdde.get("initial_segment", x0), dtype=float)
                ),
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


def cmd_verify(args) -> int:
    config = load_config(args.config)
    sec = _section(config, "verify")
    model_sec = _section(config, "model")
    preset = model_sec.get("preset", "double-well")
    if preset != "double-well":
        raise ConfigError(
            f"model.preset is {preset!r}; verify checks the double-well constraints only"
        )
    params = model_sec.get("params", {}) or {}
    try:
        dw = DoubleWellParams(**params) if params else DoubleWellParams()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model params: {exc}") from exc
    lam = float(sec.get("lambda_factor", 1.001))
    q_values = [int(q) for q in sec.get("q_values", [4, 648])]
    p0_values = [int(p) for p in sec.get("p0_values", [2, 4])]

    lines = []
    for q in q_values:
        rep = cons.check_coercivity(q, dw.beta_hat, dw.sigma_hat, dw.gamma_hat)
        lines.append(rep.format_row())
    for p0 in p0_values:
        rep = cons.check_monotonicity(p0, lam, dw.beta_hat, dw.sigma_hat, dw.gamma_hat)
        lines.append(rep.format_row())

    model = double_well_model(dw)
    n = int(sec.get("taming_n", 256))
    n_power, x_power = _taming_overrides(config)
    bounds = check_taming_bounds(
        model, TamingConfig(n=n, zeta=model.zeta, n_power=n_power, x_power=x_power)
    )
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


def cmd_moments(args) -> int:
    config = load_config(args.config)
    name, params, model, x0 = _model_from_config(config)
    sec = _section(config, "moments")
    n_list = sec.get("n_list", [64, 128, 256, 512, 1024])
    q = float(sec.get("q", 4))
    num_paths = int(args.paths or sec.get("num_paths", 10000))
    variant = args.variant or sec.get("variant", "randomized_tamed")
    seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    intensity = float(_section(config, "jumps").get("intensity", 1.0))
    n_power, x_power = _taming_overrides(config)
    out = _out_dir(config, args)
    jm = normal_marks(intensity) if intensity > 0 else None
    try:
        table = harness.moment_probe(
            model, variant, n_list, q, num_paths,
            x0=x0, jump_model=jm, base_seed=seed,
            taming_n_power=n_power, taming_x_power=x_power,
        )
    except ValueError as exc:
        # the probe's own checks start with the argument's name, which is the key's
        named = str(exc).split()[0] in ("q", "n_list", "num_paths")
        raise ConfigError(f"moments.{exc}" if named else str(exc)) from exc
    lines = ["n,dt,sup_moment,diverged_frac"]
    for r in table.rows:
        lines.append(f"{r.n},{r.dt:.17g},{r.sup_moment:.17g},{r.diverged_frac:.17g}")
    lines.append(f"# max/min ratio: {table.max_min_ratio():.17g}")
    (out / "moments.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out}/moments.csv", file=sys.stderr)
    return EXIT_OK


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
    p.add_argument("--levels", help="comma-separated step counts")
    p.add_argument("--ref", type=int, help="reference step count")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--workers", type=int, help="worker processes")
    p.add_argument("--plot", action="store_true", help="also write errors.svg")
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
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
