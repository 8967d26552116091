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


@pytest.mark.parametrize("key, value", [("n_list", [0, 64]), ("num_paths", 0)])
def test_moments_bad_key_is_config_error(tmp_path, capsys, key, value):
    doc = dict(SMALL_STUDY)
    doc["moments"] = {"n_list": [16, 32], "q": 4, "num_paths": 10, key: value}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: moments.{key}" in capsys.readouterr().err
    assert not (out / "moments.csv").exists()


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
