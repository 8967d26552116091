import argparse
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import rteuler as rt
from rteuler.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, FLAGS, _apply_flags,
                         build_parser, load_config, main)

SMALL_STUDY = {
    "model": {
        "preset": "double-well",
        "params": {"beta_hat": 0.5, "sigma_hat": 0.001, "gamma_hat": 0.02, "p_exp": 648},
        "x0": 2.0,
    },
    "jumps": {"intensity": 1.0},
    "study": {
        "levels": [16, 32, 64],
        "reference_n": 256,
        "num_paths": 40,
        "p_list": [1, 2],
    },
    "simulate": {"n": 4, "variant": "randomized_tamed"},
    "seed": 77,
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_converge_row_count_and_roundtrip(tmp_path):
    cfg = write_config(tmp_path, SMALL_STUDY)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "errors.csv").read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#") and not l.startswith("dt,")]
    assert len(data) == 3 * 2  # levels x p values
    for line in data:
        for cell in line.split(","):
            assert f"{float(cell):.17g}" == cell  # 17-digit round trip
    slopes = json.loads((out / "rates.json").read_text())
    assert "randomized_tamed" in slopes


def test_converge_byte_identical_reruns_and_worker_invariance(tmp_path):
    cfg = write_config(tmp_path, SMALL_STUDY)
    outs = []
    for name, workers in (("a", None), ("b", None), ("c", "2")):
        args = ["converge", "--config", cfg, "--out", str(tmp_path / name)]
        if workers:
            args += ["--workers", workers]
        assert main(args) == EXIT_OK
        outs.append((tmp_path / name / "errors.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_converge_json_format_and_plot(tmp_path):
    cfg = write_config(tmp_path, SMALL_STUDY)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--format", "json", "--plot"]) == EXIT_OK
    doc = json.loads((out / "errors.json").read_text())
    assert len(doc["rows"]) == 6
    for row in doc["rows"]:
        assert set(row) == {"dt", "p", "error", "stderr", "diverged_frac", "usable"}
    assert set(doc["slopes"]) == {"1", "2"}
    for fit in doc["slopes"].values():
        assert fit is None or set(fit) == {"slope", "intercept", "residual"}
    svg = (out / "errors.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_converge_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, SMALL_STUDY)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--paths", "20", "--levels", "16,32", "--ref", "128",
                 "--seed", "5"]) == EXIT_OK
    data = [l for l in (out / "errors.csv").read_text().splitlines()
            if l and not l.startswith(("#", "dt,"))]
    assert len(data) == 2 * 2


def test_converge_empty_levels_is_config_error(tmp_path):
    doc = dict(SMALL_STUDY, study=dict(SMALL_STUDY["study"], levels=[]))
    cfg = write_config(tmp_path, doc)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_converge_unknown_preset_is_config_error(tmp_path):
    doc = dict(SMALL_STUDY, model={"preset": "no-such-model"})
    cfg = write_config(tmp_path, doc)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["converge", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG


def test_converge_divergence_exit_code(tmp_path):
    doc = {
        "model": {"preset": "cubic-decay", "x0": 10.0},
        "jumps": {"intensity": 0.0},
        "study": {
            "levels": [8, 16],
            "reference_n": 64,
            "num_paths": 10,
            "p_list": [2],
            "variants": ["classical"],
            "reference_variant": "classical",
        },
        "seed": 0,
    }
    cfg = write_config(tmp_path, doc)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_DIVERGED


def test_simulate_row_count(tmp_path):
    cfg = write_config(tmp_path, SMALL_STUDY)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1"
    assert len(lines) == 1 + 5  # header + n+1 grid points


def test_simulate_constant_for_zero_model(tmp_path):
    rt.register_model("frozen", lambda **kw: rt.scalar_model(lambda t, x: 0.0 * x))
    doc = {"model": {"preset": "frozen", "x0": 1.25}, "jumps": {"intensity": 0.0},
           "simulate": {"n": 6, "variant": "classical"}, "seed": 1}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "1.25" for row in rows)


def test_simulate_divergence_exit(tmp_path):
    doc = {"model": {"preset": "cubic-decay", "x0": 10.0}, "jumps": {"intensity": 0.0},
           "simulate": {"n": 8, "variant": "classical"}, "seed": 0}
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_DIVERGED


def test_simulate_sdde_regime_column(tmp_path):
    doc = dict(SMALL_STUDY)
    doc["simulate"] = {
        "n": 64,
        "variant": "randomized_tamed",
        "sdde": {
            "delay": 0.125,
            "initial_segment": 2.0,
            "alpha0": 1,
            "generator": [[-3.0, 3.0], [3.0, -3.0]],
            "params_by_regime": {2: {"beta_hat": 1.0}},
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,regime"
    regimes = {int(l.split(",")[2]) for l in lines[1:]}
    assert regimes <= {1, 2} and len(regimes) == 2


def test_verify_table(tmp_path, capsys):
    doc = dict(SMALL_STUDY)
    doc["verify"] = {"q_values": [4, 648], "p0_values": [2, 4], "lambda_factor": 1.001}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == EXIT_OK
    text = capsys.readouterr().out
    assert "coercivity[q=4]" in text and "satisfied" in text
    assert "coercivity[q=648]" in text and "log10" in text
    assert "monotonicity[p0=2]" in text
    assert "growth probe" in text


@pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--variant", "x")])
def test_verify_rejects_flags_it_would_ignore(tmp_path, capsys, flag, value):
    cfg = write_config(tmp_path, SMALL_STUDY)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg, flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_verify_large_gamma_violated(tmp_path, capsys):
    doc = dict(SMALL_STUDY)
    doc["model"] = {"preset": "double-well",
                    "params": {"beta_hat": 0.5, "sigma_hat": 0.001,
                               "gamma_hat": 10.0, "p_exp": 648}}
    doc["verify"] = {"q_values": [4], "p0_values": [2]}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("coercivity[q=4]")][0]
    assert "VIOLATED" in row
    assert "margin=-" in row


def test_verify_bad_params_config_error(tmp_path):
    doc = {"model": {"preset": "double-well", "params": {"beta_hat": -1.0}}}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG


def test_shipped_desk_config_produces_full_ladder(tmp_path):
    from pathlib import Path

    shipped = Path(__file__).resolve().parents[1] / "configs" / "double_well_desk.yaml"
    out = tmp_path / "out"
    assert main(["converge", "--config", str(shipped), "--out", str(out),
                 "--paths", "50"]) == EXIT_OK
    lines = (out / "errors.csv").read_text().splitlines()
    data = [l for l in lines if l and not l.startswith(("#", "dt,"))]
    assert len(data) == 6 * 4  # 6 levels x 4 moment orders


def test_unwritable_output_directory_is_config_error(tmp_path):
    cfg = write_config(tmp_path, SMALL_STUDY)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["converge", "--config", cfg,
                 "--out", str(blocker / "sub")]) == EXIT_CONFIG


def test_moments_subcommand(tmp_path):
    doc = dict(SMALL_STUDY)
    doc["moments"] = {"n_list": [16, 32, 64], "q": 4, "num_paths": 300}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "n,dt,sup_moment,diverged_frac"
    assert len([l for l in lines if not l.startswith(("#", "n,"))]) == 3
    assert lines[-1].startswith("# max/min ratio:")


def test_verify_refuses_other_presets(tmp_path, capsys):
    doc = dict(SMALL_STUDY)
    doc["model"] = {"preset": "linear-decay", "x0": 1.0}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "model.preset" in captured.err and "linear-decay" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [("n_list", [0, 64]), ("num_paths", 0), ("q", 1),
                                        ("n_list", [16, 24])])
def test_moments_bad_key_is_config_error(tmp_path, capsys, key, value):
    doc = dict(SMALL_STUDY)
    doc["moments"] = {"n_list": [16, 32], "q": 4, "num_paths": 10, key: value}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: moments.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_unpicklable_factory_with_workers_is_config_error(tmp_path, capsys):
    rt.register_model("lambda-well", lambda **kw: rt.double_well_model())
    doc = dict(SMALL_STUDY, model=dict(SMALL_STUDY["model"], preset="lambda-well", params={}))
    out = tmp_path / "made" / "out"
    assert main(["converge", "--config", write_config(tmp_path, doc), "--out", str(out),
                 "--workers", "2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: model 'lambda-well' cannot run with workers > 1: "
                          "its factory does not pickle")
    assert not (tmp_path / "made").exists()


@pytest.mark.parametrize("command", ["converge", "simulate", "moments"])
@pytest.mark.parametrize("x0", [[1.0, 2.0], "abc"])
def test_bad_x0_is_config_error_before_any_output(tmp_path, capsys, command, x0):
    doc = _with(SMALL_STUDY, "model.x0", x0)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    # a string is no state; a list of two numbers is one of the wrong length
    kind = "a finite number or a list of finite numbers" if x0 == "abc" else "a number"
    assert capsys.readouterr().err == f"config error: model.x0 must be {kind}, got {x0!r}\n"
    assert not out.exists()


def test_verify_samples_the_configs_jump_intensity(tmp_path, capsys):
    from rteuler.constraints import check_double_well_monotonicity_empirical

    doc = dict(SMALL_STUDY, jumps={"intensity": 50.0})
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == EXIT_OK
    params = rt.DoubleWellParams(**SMALL_STUDY["model"]["params"])
    emp = check_double_well_monotonicity_empirical(params, intensity=50.0)
    assert emp.fitted_constant != check_double_well_monotonicity_empirical(params).fitted_constant
    assert (f"one-sided Lipschitz (sampled) fitted C={emp.fitted_constant:.6g}, "
            in capsys.readouterr().out)


def test_simulate_zero_steps_is_config_error(tmp_path, capsys):
    doc = dict(SMALL_STUDY)
    doc["simulate"] = {"n": 0, "variant": "randomized_tamed"}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "simulate.n" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command, doc, key", [
    ("converge", {"seeed": 3}, "seeed"),
    ("converge", {"study": {"num_path": 5}}, "study.num_path"),
    ("simulate", {"simulate": {"n": 4, "sdde": {"alpah0": 2}}}, "simulate.sdde.alpah0"),
])
def test_unknown_key_is_config_error(tmp_path, capsys, command, doc, key):
    cfg = write_config(tmp_path, dict(SMALL_STUDY, **doc))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: unknown config key {key}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key", [
    ("moments", "moments", "n_list"), ("converge", "study", "levels"),
    ("converge", "study", "p_list"),
])
def test_scalar_for_list_is_config_error(tmp_path, capsys, command, section, key):
    cfg = write_config(tmp_path, dict(SMALL_STUDY, **{section: {key: 64}}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    kind = "finite numbers" if key == "p_list" else "integers"
    assert f"config error: {section}.{key} must be a list of {kind}, got 64" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("converge", "jumps", "intensity", True), ("simulate", "simulate", "n", True),
    ("converge", "study", "levels", [64, True]),
])
def test_boolean_for_number_is_config_error(tmp_path, capsys, command, section, key, value):
    doc = dict(SMALL_STUDY, **{section: dict(SMALL_STUDY[section], **{key: value})})
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    kind = {"intensity": "a finite number >= 0", "n": "an integer", "levels": "a list of integers"}
    assert capsys.readouterr().err == \
        f"config error: {section}.{key} must be {kind[key]}, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--n", "0"], "simulate.n"),
    (["converge", "--paths", "0"], "study.num_paths"),
    (["converge", "--workers", "0"], "workers"),
    (["converge", "--variant", "euler"], "study.variants"),  # a flag is checked as the file is
])
def test_zero_flag_is_not_replaced_by_config(tmp_path, capsys, argv, key):
    cfg = write_config(tmp_path, SMALL_STUDY)  # simulate.n 4, study.num_paths 40
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
    assert not out.exists()


def test_zero_workers_in_config_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL_STUDY, workers=0))
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: workers must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, in_config", [
    ("simulate", True), ("moments", True), ("converge", False),
])
def test_zero_workers_is_refused_by_every_command(tmp_path, capsys, command, in_config):
    # workers: 0 in the config, or converge's --workers 0
    cfg = write_config(tmp_path, dict(SMALL_STUDY, workers=0) if in_config else SMALL_STUDY)
    flag = [] if in_config else ["--workers", "0"]
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flag]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: workers must be an integer >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("n_power", 0, "taming.n_power must be > 0"),
    ("x_power", -1, "taming.x_power must be >= 0"),
])
def test_bad_taming_exponent_names_taming_key(tmp_path, capsys, key, value, message):
    cfg = write_config(tmp_path, dict(SMALL_STUDY, taming={key: value}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_desk_config_names_every_schema_key():
    from pathlib import Path

    from rteuler.cli import SCHEMA, load_config

    shipped = Path(__file__).resolve().parents[1] / "configs" / "double_well_desk.yaml"
    doc = yaml.safe_load(shipped.read_text())
    load_config(str(shipped))
    for section, keys in SCHEMA.items():
        if section == "simulate.sdde":
            continue  # optional: a plain simulate has no delay or switching
        given = doc[section] if section else doc
        missing = {k for k in keys if f"{section}.{k}" not in SCHEMA} - set(given)
        assert not missing, f"{section or 'root'} lacks {sorted(missing)}"


@pytest.mark.parametrize("command", ["converge", "simulate", "moments"])
@pytest.mark.parametrize("intensity", [-1.0, float("nan"), float("inf"), "many"])
def test_bad_jump_intensity_is_config_error_in_every_command(tmp_path, capsys, command,
                                                              intensity):
    cfg = write_config(tmp_path, dict(SMALL_STUDY, jumps={"intensity": intensity}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: jumps.intensity must be ")
    assert not out.exists()


def test_zero_verify_taming_n_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL_STUDY, verify={"taming_n": 0}))
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: verify.taming_n must be an integer >= 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("study, key", [
    ({"variants": ["randomized_tamed", "nope"]}, "study.variants"),
    ({"reference_variant": "nope"}, "study.reference_variant"),
])
def test_unknown_variant_names_its_key(tmp_path, capsys, study, key):
    doc = dict(SMALL_STUDY, study=dict(SMALL_STUDY["study"], **study))
    out = tmp_path / "out"
    assert main(["converge", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ") and "'nope'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["converge", "simulate", "moments"])
@pytest.mark.parametrize("flag, seed, shown", [
    (True, -1, "-1"),
    (False, -1, "-1"),
    (False, 1.5, "1.5"),
    (False, "x", "'x'"),
    (False, True, "True"),
])
def test_bad_seed_is_config_error_before_any_output(tmp_path, capsys, command, flag, seed,
                                                     shown):
    doc = SMALL_STUDY if flag else dict(SMALL_STUDY, seed=seed)
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
    assert main(argv + (["--seed", str(seed)] if flag else [])) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: seed must be an integer >= 0, got {shown}\n"
    assert not out.exists()


def _with(doc, dotted, value):
    """A deep copy of ``doc`` with the dotted key set to ``value``."""
    doc = section = yaml.safe_load(yaml.safe_dump(doc))
    *path, key = dotted.split(".")
    for part in path:
        section = section.setdefault(part, {})
    section[key] = value
    return doc


SDDE = {"generator": [[-3.0, 3.0], [3.0, -3.0]], "delay": 0.125}


@pytest.mark.parametrize("command, dotted, value", [
    ("converge", "study.levels", [8.7, 16, 32]),
    ("converge", "study.num_paths", 20.9),
    ("converge", "study.reference_n", "64"),
    ("converge", "workers", 1.9),
    ("moments", "moments.n_list", [8.5, 16]),
    ("moments", "moments.num_paths", 10.5),
    ("simulate", "simulate.n", 16.9),
    ("simulate", "simulate.sdde.alpha0", 1.5),
    ("verify", "verify.q_values", [4.5]),
    ("verify", "verify.p0_values", [2.5]),
    ("verify", "verify.taming_n", 256.7),
])
def test_integer_key_rejects_a_non_integer(tmp_path, capsys, command, dotted, value):
    doc = dict(SMALL_STUDY, simulate=dict(SMALL_STUDY["simulate"], sdde=SDDE))
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, _with(doc, dotted, value))]
    assert main(argv + ([] if command == "verify" else ["--out", str(out)])) == EXIT_CONFIG
    kind = "a list of integers" if isinstance(value, list) else "an integer"
    kind += " >= 1" if dotted in ("verify.taming_n", "workers") else ""
    captured = capsys.readouterr()
    assert captured.err == f"config error: {dotted} must be {kind}, got {value!r}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["converge", "simulate", "moments", "verify"])
@pytest.mark.parametrize("value", [True, "0.5", [0.5]])
def test_model_param_must_be_a_number(tmp_path, capsys, command, value):
    doc = _with(SMALL_STUDY, "model.params.beta_hat", value)
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, doc)]
    assert main(argv + ([] if command == "verify" else ["--out", str(out)])) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == \
        f"config error: model.params.beta_hat must be a number, got {value!r}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("given, message", [
    ({2: {"beta_hat": True}}, "simulate.sdde.params_by_regime.2.beta_hat must be a number, "
                              "got True"),
    ({2: {"gamma_hat": "x"}}, "simulate.sdde.params_by_regime.2.gamma_hat must be a number, "
                              "got 'x'"),
    ({2: 5}, "simulate.sdde.params_by_regime.2 must be a mapping, got 5"),
])
def test_regime_param_errors_name_their_dotted_key(tmp_path, capsys, given, message):
    doc = _with(SMALL_STUDY, "simulate.sdde", dict(SDDE, params_by_regime=given))
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_model_params_must_be_a_mapping(tmp_path, capsys):
    doc = _with(SMALL_STUDY, "model.params", 5)
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: model.params must be a mapping, got 5\n"


@pytest.mark.parametrize("params", [{"beta_hat": 1}, {"beta_hat": 0.75, "p_exp": 600}])
def test_int_and_float_model_params_run(tmp_path, params):
    doc = _with(SMALL_STUDY, "model.params", params)
    # SMALL_STUDY steps n = 4 cells of 0.25: a delay of one cell is on the grid
    doc = _with(doc, "simulate.sdde", dict(SDDE, delay=0.25, params_by_regime={2: params}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_OK
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("given, key", [
    ({"2": {"beta_hat": 5.0}}, "'2'"),  # a quoted key: a string, not regime 2
    ({3: {"beta_hat": 5.0}}, "3"),  # the generator has regimes 1 and 2 only
    ({0: {}}, "0"),
    ({2.0: {}}, "2.0"),
])
def test_regime_params_of_no_regime_are_config_errors(tmp_path, capsys, given, key):
    doc = _with(SMALL_STUDY, "simulate.sdde", dict(SDDE, params_by_regime=given))
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: simulate.sdde.params_by_regime.{key} "
                                       "is not a regime 1..2 of simulate.sdde.generator\n")
    assert not out.exists()


@pytest.mark.parametrize("sdde, message", [
    (dict(SDDE, params_by_regime={2: {"beta_hat": True}}),
     "simulate.sdde.params_by_regime.2.beta_hat must be a number, got True"),
    (dict(SDDE, params_by_regime={2: 5}),
     "simulate.sdde.params_by_regime.2 must be a mapping, got 5"),
    (dict(SDDE, delay=-0.125), "simulate.sdde.delay must be a finite number >= 0, got -0.125"),
    (dict(SDDE, alpha0=3), None),
    (dict(SDDE, generator=[[-3.0, 2.0], [3.0, -3.0]]), None),
    (dict(SDDE, initial_segment="low"), None),
])
def test_sdde_config_errors_leave_no_output_directory(tmp_path, capsys, sdde, message):
    doc = _with(SMALL_STUDY, "simulate.sdde", sdde)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if message is not None:
        assert err == f"config error: {message}\n"
    assert not out.exists()


def test_sdde_initial_segment_of_the_wrong_length_is_refused(tmp_path, capsys):
    # a 1-d model takes a number or a one-entry list, as model.x0 does
    sdde = {"generator": [[-3, 3], [3, -3]], "delay": 0.25, "initial_segment": [1.0, 2.0]}
    doc = _with(_with(SMALL_STUDY, "simulate.n", 8), "simulate.sdde", sdde)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: simulate.sdde.initial_segment must be a number, got [1.0, 2.0]\n"
    assert not out.exists()
    doc = _with(doc, "simulate.sdde.initial_segment", [1.0])
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_OK


def test_initial_regime_outside_the_generator_names_alpha0(tmp_path, capsys):
    doc = _with(SMALL_STUDY, "simulate.sdde", dict(SDDE, alpha0=3))
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: simulate.sdde.alpha0 must be a regime 1..2, got 3\n"
    assert not out.exists()


@pytest.mark.parametrize("command, dotted, value", [
    ("converge", "study.levels", [16, 16, 32, 64]),
    ("converge", "study.p_list", [2, 2]),
    ("converge", "study.variants", ["tamed", "classical", "tamed"]),
    ("moments", "moments.n_list", [64, 64, 128]),
])
def test_repeated_list_entries_are_config_errors(tmp_path, capsys, command, dotted, value):
    # a repeat would be stepped, fitted or written twice
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, _with(SMALL_STUDY, dotted, value))]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: {dotted} must hold distinct entries, got {value!r}\n"
    assert captured.out == "" and not out.exists()


def test_sdde_delay_off_the_grid_is_refused_before_any_output(tmp_path, capsys, caplog):
    # at n = 64 the library would snap 0.01 to one step, 0.015625: a delay 56% longer
    doc = _with(_with(SMALL_STUDY, "simulate.n", 64), "simulate.sdde",
                {"generator": [[-1, 1], [1, -1]], "delay": 0.01})
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: simulate.sdde.delay must be a multiple of "
                                       "the step 0.015625, got 0.01 (nearest 0.015625)\n")
    assert not out.exists() and "snapped" not in caplog.text
    doc = _with(doc, "simulate.sdde.delay", 0.015625)
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_OK


@pytest.mark.parametrize("d, regimes", [(1, False), (2, True)])
def test_trajectory_csv_has_the_bytes_of_per_row_formatting(tmp_path, d, regimes):
    from rteuler.cli import _write_trajectory_csv
    from rteuler.scheme import Trajectory

    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e300, -1e300, 0.1,
               1.0 / 3.0, 2.0**-1074 * 3]
    n = 2500  # three chunks of formatted rows, the last one short
    states = np.resize(np.array(special), (n + 1) * d).reshape(n + 1, d)
    states[len(special):] *= np.random.default_rng(3).normal(size=(n + 1 - len(special), d))
    labels = np.arange(n + 1) % 3 + 1 if regimes else None
    traj = Trajectory(grid=rt.TimeGrid(n, 1.5), states=states, regimes=labels)
    _write_trajectory_csv(tmp_path / "t.csv", traj)
    columns = [traj.grid.points().tolist()] + states.T.tolist()
    fmt = ",".join(["{:.17g}"] * (d + 1))
    header = ["t"] + [f"x_{i+1}" for i in range(d)]
    if regimes:
        header.append("regime")
        columns.append(labels.tolist())
        fmt += ",{}"
    want = [",".join(header)] + [fmt.format(*row) for row in zip(*columns)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("n", [1, 1022, 1023, 1024, 2048])  # n + 1 rows around 1024-row blocks
@pytest.mark.parametrize("d, regimes", [(1, False), (1, True), (2, False), (2, True)])
def test_trajectory_csv_blocks_have_the_bytes_of_per_row_formatting(tmp_path, n, d, regimes):
    from rteuler.cli import _write_trajectory_csv
    from rteuler.scheme import Trajectory

    states = np.random.default_rng(n).normal(size=(n + 1, d)) * 10.0 ** np.arange(d)
    labels = np.arange(n + 1) % 2 + 1 if regimes else None
    traj = Trajectory(grid=rt.TimeGrid(n, 0.7), states=states, regimes=labels)
    _write_trajectory_csv(tmp_path / "t.csv", traj)
    header = ",".join(["t"] + [f"x_{i+1}" for i in range(d)] + ["regime"] * regimes)
    rows = [",".join(f"{v:.17g}" for v in [t, *x]) + (f",{r}" if regimes else "")
            for t, x, r in zip(traj.grid.points().tolist(), states.tolist(),
                               labels.tolist() if regimes else [None] * (n + 1))]
    assert (tmp_path / "t.csv").read_text() == "\n".join([header, *rows]) + "\n"


def test_trajectory_csv_writer_holds_no_whole_run_temporary(tmp_path):
    import tracemalloc

    from rteuler.cli import _write_trajectory_csv
    from rteuler.scheme import Trajectory

    n = 1 << 18
    states = np.random.default_rng(5).normal(size=(n + 1, 1))
    traj = Trajectory(grid=rt.TimeGrid(n, 1.0), states=states, regimes=np.arange(n + 1) % 2 + 1)
    _write_trajectory_csv(tmp_path / "warm.csv", Trajectory(rt.TimeGrid(4), states[:5],
                                                            traj.regimes[:5]))
    tracemalloc.start()
    try:
        _write_trajectory_csv(tmp_path / "t.csv", traj)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the times alone are 2.1 MB, and the file's text about 12 MB
    assert peak < 1 << 20


DESK = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" /
                       "double_well_desk.yaml").read_text())


def test_converge_with_no_usable_row_writes_no_plot(tmp_path, capsys):
    # classical Euler from x0 = 30 diverges on every path at every level
    doc = _with(_with(DESK, "model.x0", 30), "study", dict(
        DESK["study"], variants=["classical"], levels=[4, 8, 16], reference_n=64, num_paths=40))
    out = tmp_path / "out"
    assert main(["converge", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_DIVERGED
    assert sorted(p.name for p in out.iterdir()) == ["errors.csv", "rates.json"]
    assert "errors.svg not written" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("q_values", [0]), ("p0_values", [0]),
                                        ("lambda_factor", 0.5)])
def test_verify_range_error_names_its_key(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, _with(SMALL_STUDY, f"verify.{key}", value))
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: verify.{key}: ") and captured.out == ""


def test_verify_lambda_factor_is_checked_with_no_p0_values(tmp_path, capsys):
    doc = _with(_with(SMALL_STUDY, "verify.p0_values", []), "verify.lambda_factor", 0.5)
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: verify.lambda_factor: must be > 1, got 0.5\n"
    assert captured.out == ""


# (a command that reads the dotted key, the key, a value of the wrong kind)
WRONG_KIND = [
    ("simulate", "seed", 1.5),
    ("converge", "workers", "2"),
    ("simulate", "out", 5),
    ("converge", "format", 5),
    ("converge", "plot", "no"),
    ("simulate", "model.preset", 5),
    ("simulate", "model.params", [1.0]),
    ("moments", "model.x0", float("inf")),
    ("simulate", "model.x0", float("nan")),
    ("converge", "jumps.intensity", "many"),
    ("simulate", "taming.n_power", "abc"),
    ("simulate", "taming.x_power", "abc"),
    ("converge", "study.variants", "classical"),
    ("converge", "study.reference_variant", "nope"),
    ("converge", "study.levels", [16, "32"]),
    ("converge", "study.reference_n", 256.0),
    ("converge", "study.num_paths", "40"),
    ("converge", "study.p_list", ["x"]),
    ("converge", "study.error_time", "midway"),
    ("simulate", "simulate.n", "4"),
    ("simulate", "simulate.variant", "euler"),
    ("simulate", "simulate.sdde", 5),
    ("simulate", "simulate.sdde.generator", [[-3.0, "x"], [3.0, -3.0]]),
    ("simulate", "simulate.sdde.alpha0", "1"),
    ("simulate", "simulate.sdde.delay", "abc"),
    ("simulate", "simulate.sdde.initial_segment", "low"),
    ("simulate", "simulate.sdde.params_by_regime", [1]),
    ("moments", "moments.n_list", 64),
    ("moments", "moments.q", "abc"),
    ("moments", "moments.num_paths", True),
    ("moments", "moments.variant", 3),
    ("verify", "verify.q_values", ["4"]),
    ("verify", "verify.p0_values", 2),
    ("verify", "verify.lambda_factor", "abc"),
    ("verify", "verify.taming_n", "256"),
]


def test_wrong_kind_cases_cover_every_schema_key():
    from rteuler.cli import SCHEMA

    keys = {f"{section}.{key}" if section else key for section, keys in SCHEMA.items()
            for key in keys}
    assert {dotted for _command, dotted, _value in WRONG_KIND} == keys


@pytest.mark.parametrize("command, dotted, value", WRONG_KIND)
def test_value_of_the_wrong_kind_is_refused_before_anything_runs(tmp_path, monkeypatch, capsys,
                                                                  command, dotted, value):
    monkeypatch.chdir(tmp_path)  # the default out, or a bad one, would land here
    doc = _with(SMALL_STUDY, "simulate.sdde", SDDE) if dotted.startswith("simulate.sdde.") \
        else SMALL_STUDY
    assert main([command, "--config", write_config(tmp_path, _with(doc, dotted, value))]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {dotted} must be ")
    assert captured.err.endswith(f", got {value!r}\n") and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]


# dotted key -> (its flag's command-line value, or None for a switch; the value the key then holds)
FLAG_VALUES = {"seed": ("3", 3), "out": ("elsewhere", "elsewhere"), "format": ("json", "json"),
               "workers": ("2", 2), "plot": (None, True),
               "study.variants": ("classical", ["classical"]), "study.num_paths": ("5", 5),
               "study.levels": ("8,16,32", [8, 16, 32]), "study.reference_n": ("64", 64),
               "simulate.variant": ("classical", "classical"), "simulate.n": ("7", 7),
               "moments.variant": ("classical", "classical"), "moments.num_paths": ("5", 5)}
KEYED_FLAGS = [(command, flag, dotted) for command, (_help, flags) in FLAGS.items()
               for flag, (dotted, _keywords) in flags.items() if dotted]


def _subparsers():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_parser_has_exactly_the_subcommands_of_flags():
    assert list(_subparsers()) == list(FLAGS)


@pytest.mark.parametrize("command", list(FLAGS))
def test_each_subcommand_parses_exactly_its_flags(command):
    options = {o for a in _subparsers()[command]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--config", *(f"--{flag}" for flag in FLAGS[command][1])}


@pytest.mark.parametrize("command, flag, dotted", KEYED_FLAGS)
def test_each_keyed_flag_lands_on_its_key_with_its_parsed_type(command, flag, dotted):
    text, want = FLAG_VALUES[dotted]
    args = build_parser().parse_args([command, f"--{flag}"] + ([] if text is None else [text]))
    config, expected = load_config(None), load_config(None)
    _apply_flags(config, args)
    section, _, key = dotted.rpartition(".")
    got = (config[section] if section else config)[key]
    assert got == want and type(got) is type(want)
    (expected[section] if section else expected)[key] = want
    assert config == expected  # no other key moved


def test_unkeyed_flags_override_nothing(tmp_path):
    args = build_parser().parse_args(["verify", "--out", str(tmp_path / "table.txt")])
    config = load_config(None)
    _apply_flags(config, args)
    assert config == load_config(None)


@pytest.mark.parametrize("text", ["x", "8,x", "8.5,16"])
def test_levels_flag_that_is_not_integers_names_study_levels(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--levels", text])
    assert exc.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[-1] == (
        "rteuler converge: error: argument --levels: "
        f"study.levels must be comma-separated integers, got {text!r}")


@pytest.mark.parametrize("command", ["converge", "moments", "simulate"])
@pytest.mark.parametrize("intensity", [1e300, 9.3e18])
def test_jump_intensity_beyond_numpys_poisson_limit_is_a_config_error(tmp_path, capsys,
                                                                       command, intensity):
    # a path's jump count is Poisson(intensity x horizon), which numpy refuses above ~9.2e18
    doc = _with(SMALL_STUDY, "jumps.intensity", intensity)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("config error: jumps.intensity must be at most 9.22337e+18, "
                            f"numpy's Poisson limit over the horizon 1, got {intensity!r}\n")
    assert captured.out == "" and not out.exists()


KNOWN_PARAMS = "(known: beta_hat, sigma_hat, gamma_hat, p_exp)"


@pytest.mark.parametrize("command", ["converge", "simulate", "moments", "verify"])
def test_unknown_model_param_names_its_key_and_the_known_params(tmp_path, capsys, command):
    doc = _with(SMALL_STUDY, "model.params.bogus", 1)
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, doc)]
    assert main(argv + ([] if command == "verify" else ["--out", str(out)])) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("config error: model.params.bogus is not a parameter of model "
                            f"'double-well' {KNOWN_PARAMS}\n")
    assert captured.out == "" and not out.exists()


def test_unknown_regime_param_names_its_key_and_the_known_params(tmp_path, capsys):
    doc = _with(SMALL_STUDY, "simulate.sdde", dict(SDDE, params_by_regime={2: {"bogus": 1}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: simulate.sdde.params_by_regime.2.bogus is not a parameter of model "
        f"'double-well' {KNOWN_PARAMS}\n")
    assert not out.exists()


class _Drawn(Exception):
    pass


def _no_draw(*args, **kwargs):
    raise _Drawn  # a path's arrays would be allocated here


SIMULATE_MAX_N = (2 << 30) // 56  # 8 * (d + m + 5) bytes a step for the 1-d double-well


@pytest.mark.parametrize("sdde", [None, SDDE])
@pytest.mark.parametrize("how", ["config", "flag"])
def test_simulate_n_beyond_the_memory_bound_is_refused_before_any_array(
        tmp_path, capsys, monkeypatch, sdde, how):
    monkeypatch.setattr("rteuler.cli.make_path_draw", _no_draw)
    n, doc = 10**12, _with(SMALL_STUDY, "simulate.sdde", sdde)
    out = tmp_path / "out"
    argv = ["simulate", "--out", str(out)] + (["--n", str(n)] if how == "flag" else [])
    doc = _with(doc, "simulate.n", n) if how == "config" else doc
    assert main(argv + ["--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: simulate.n must be at most {SIMULATE_MAX_N}, got {n}: "
        "the path is held whole, at 56 bytes a step, within 2 GiB\n")
    assert not out.exists()


def test_simulate_n_at_the_memory_bound_reaches_the_draws(tmp_path, monkeypatch):
    monkeypatch.setattr("rteuler.cli.make_path_draw", _no_draw)
    doc = _with(SMALL_STUDY, "simulate.n", SIMULATE_MAX_N)
    with pytest.raises(_Drawn):
        main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])


# the rows of a block each command draws at once for SMALL_STUDY: converge's
# 40 paths in one study block, moments' 40 in one probe block, simulate's one path
BLOCK_ROWS = {"converge": 40, "moments": 40, "simulate": 1}


def _jump_limit(command):
    """The largest ``jumps.intensity`` whose expected jumps for one block, at
    96 bytes each, fit in 2 GiB (the double-well's horizon is 1)."""
    return (2 << 30) / (96 * BLOCK_ROWS[command])


@pytest.mark.parametrize("command", ["converge", "moments", "simulate"])
def test_jump_intensity_whose_block_jumps_cannot_be_held_is_a_config_error(tmp_path, capsys,
                                                                            command):
    doc = _with(_with(SMALL_STUDY, "jumps.intensity", 1.0e15), "moments.num_paths", 40)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: jumps.intensity must be at most {_jump_limit(command):g}, "
        f"got 1000000000000000.0: the expected jumps of a {BLOCK_ROWS[command]}-path block "
        "are held, at 96 bytes each, within 2 GiB\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["converge", "moments", "simulate"])
def test_jump_intensity_just_inside_the_block_bound_reaches_the_draws(tmp_path, monkeypatch,
                                                                      command):
    monkeypatch.setattr("rteuler.cli.make_path_draw", _no_draw)
    monkeypatch.setattr("rteuler.harness.make_block_draw", _no_draw)
    intensity = _jump_limit(command) * (1 - 1e-9)
    doc = _with(_with(SMALL_STUDY, "jumps.intensity", intensity), "moments.num_paths", 40)
    with pytest.raises(_Drawn):
        main([command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
