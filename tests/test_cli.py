import json

import numpy as np
import pytest
import yaml

import rteuler as rt
from rteuler.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main

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
    assert capsys.readouterr().err == f"config error: model.x0 must be a number, got {x0!r}\n"
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
    assert f"config error: {section}.{key} must be a list, got 64" in capsys.readouterr().err
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
    assert capsys.readouterr().err == \
        f"config error: {section}.{key} must not be a boolean, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--n", "0"], "simulate.n"),
    (["converge", "--paths", "0"], "study.num_paths"),
    (["converge", "--workers", "0"], "workers"),
])
def test_zero_flag_is_not_replaced_by_config(tmp_path, capsys, argv, key):
    cfg = write_config(tmp_path, SMALL_STUDY)  # simulate.n 4, study.num_paths 40
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_zero_workers_in_config_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL_STUDY, workers=0))
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: workers must be >= 1, got 0" in capsys.readouterr().err
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
    assert captured.err == "config error: verify.taming_n must be >= 1, got 0\n"
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
    doc = _with(doc, "simulate.sdde", dict(SDDE, params_by_regime={2: params}))
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
    (dict(SDDE, delay=-0.125), "simulate.sdde.delay must be >= 0, got -0.125"),
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
