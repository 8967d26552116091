"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them live)."""

import math
import time

import numpy as np
import pytest

import rteuler as rt
from rteuler import (
    SchemeConfig,
    StreamKey,
    StreamTag,
    StudyConfig,
    TamingConfig,
    TimeGrid,
    fit_rate,
    moment_probe,
    strong_error_study,
)
from rteuler.cli import EXIT_OK, main

from test_harness import BENCHMARK_DTS, BENCHMARK_L1, BENCHMARK_L1_SLOPE


def check(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def desk_study():
    cfg = StudyConfig(
        model="double-well",
        model_params={"beta_hat": 0.5, "sigma_hat": 0.001, "gamma_hat": 0.02,
                      "p_exp": 648},
        x0=2.0,
        levels=(64, 128, 256, 512, 1024, 2048),  # dt = 2^-6 .. 2^-11
        reference_n=2**13,
        num_paths=2000,
        p_list=(1, 2, 3, 4),
        intensity=1.0,
        base_seed=12345,
    )
    t0 = time.time()
    report = strong_error_study(cfg, workers=2)[0]
    return report, time.time() - t0


def test_criterion_1_rate_reproduction(desk_study):
    report, elapsed = desk_study
    s1 = report.slopes[1].slope
    s2 = report.slopes[2].slope
    ok = 0.40 <= s1 <= 0.60 and 0.40 <= s2 <= 0.60 and elapsed <= 300.0
    check(1, "rate reproduction", ok,
          f"L1 slope {s1:.4f}, L2 slope {s2:.4f}, runtime {elapsed:.1f}s")


def test_criterion_2_table_magnitude(desk_study):
    report, _ = desk_study
    row = [r for r in report.rows if r.p == 2 and abs(r.dt - 2.0**-8) < 1e-18][0]
    ok = 0.03 <= row.error <= 0.08
    check(2, "table magnitude at dt=2^-8", ok,
          f"L2 error {row.error:.6f} (benchmark fine-reference value 0.0506)")


def test_criterion_3_benchmark_rows_regression():
    fit = fit_rate(list(zip(BENCHMARK_DTS, BENCHMARK_L1)))
    ok = 0.45 <= fit.slope <= 0.55 and abs(fit.slope - BENCHMARK_L1_SLOPE) < 1e-9
    check(3, "benchmark-table regression oracle", ok,
          f"slope {fit.slope:.9f} vs frozen {BENCHMARK_L1_SLOPE}")


def test_criterion_4_ode_order():
    cfg = StudyConfig(
        model="linear-decay", x0=1.0, variants=("classical",),
        reference_variant="classical", levels=(64, 128, 256, 512, 1024, 2048),
        reference_n=2**15, num_paths=8, p_list=(1, 2), intensity=0.0, base_seed=0,
    )
    report = strong_error_study(cfg)[0]
    slope = report.slopes[2].slope
    model = rt.build_model("linear-decay")
    exact = math.exp(-1.0)
    worst = 0.0
    for n in cfg.levels:
        draw = rt.make_path_draw(0, 0, fine_n=n, m=1, horizon=1.0, levels=[],
                                 x0=np.array([1.0]))
        traj = rt.simulate_path(model, SchemeConfig("classical", n), draw)
        worst = max(worst, abs(traj.terminal[0] - exact) * n)  # error / (2 dt) * 2
    ok = 0.9 <= slope <= 1.1 and worst < 2.0
    check(4, "ODE-mode order", ok,
          f"slope {slope:.4f}, max |error|/dt = {worst:.3f} (< 2 required)")


def test_criterion_5_property_suite(dw_model, desk_study):
    gen = np.random.default_rng(0)
    # taming: no magnitude increase at 1e4 random points, denominator >= 1
    report = rt.check_taming_bounds(dw_model, TamingConfig(n=128, zeta=2.0),
                                    n_samples=10_000, seed=2)
    x = gen.uniform(-20, 20, size=(10_000, 1))
    dvals = rt.denominator(TamingConfig(n=128, zeta=2.0), x)
    taming_ok = report.ratio_violations == 0 and np.all(dvals >= 1.0)

    # grid: kappa/xi range invariants at 1e4 random draws; nesting exact
    grid_ok = True
    for _ in range(10_000):
        n = int(gen.integers(1, 512))
        g = TimeGrid(n, 1.0)
        t = float(gen.random())
        k = g.kappa(t)
        grid_ok &= k <= t < k + g.dt + 1e-15
        cell = int(gen.integers(1, n + 1))
        xi = g.xi(cell, 1.0 - float(gen.random()))
        grid_ok &= g.point(cell - 1) < xi <= g.point(cell)
        if not grid_ok:
            break
    for n in (3, 7, 64, 321):
        grid_ok &= np.array_equal(TimeGrid(n).points(), TimeGrid(2 * n).points()[::2])

    # rng: telescoping, byte-exact determinism, Poisson mean
    fine = gen.normal(size=(1920, 1))
    scale = np.max(np.abs(rt.coarsen(fine, 8)))
    tele = np.max(np.abs(rt.coarsen(rt.coarsen(fine, 2), 4) - rt.coarsen(fine, 8)))
    key = StreamKey(1, 2, StreamTag.BROWNIAN)
    det = np.array_equal(rt.brownian_increments(key, 256, 1, 1.0).tobytes(),
                         rt.brownian_increments(key, 256, 1, 1.0).tobytes())
    counts = [
        len(rt.jump_path(StreamKey(4, i, StreamTag.JUMPS), 1.0, 1.0,
                         lambda g_, s: g_.normal(size=(s, 1)))[0])
        for i in range(100_000)
    ]
    poisson_ok = abs(np.mean(counts) - 1.0) <= 3.0 / math.sqrt(len(counts))
    rng_ok = tele <= 1e-12 * scale and det and poisson_ok

    # Jensen ordering of the desk report's rows
    lp_ok = desk_study[0].lp_ordering_ok()

    # randomization invariance for time-constant drift, bitwise
    const = rt.scalar_model(lambda t, x: x - 0.5 * x**3, zeta=2.0)
    draw = rt.make_path_draw(6, 0, fine_n=64, m=1, horizon=1.0, levels=[64],
                             x0=np.array([2.0]))
    a = rt.simulate_path(const, SchemeConfig("randomized_tamed", 64), draw)
    b = rt.simulate_path(const, SchemeConfig("tamed", 64), draw)
    rand_ok = np.array_equal(a.states, b.states)

    ok = taming_ok and grid_ok and rng_ok and lp_ok and rand_ok
    check(5, "property suite", ok,
          f"taming={taming_ok} grid={grid_ok} rng={rng_ok} "
          f"lp-ordering={lp_ok} randomization-invariance={rand_ok}")


def test_criterion_6_moment_boundedness(dw_model, jumps_unit):
    table = moment_probe(dw_model, "randomized_tamed",
                         [64, 128, 256, 512, 1024], 4.0, 10_000,
                         x0=2.0, jump_model=jumps_unit, base_seed=77)
    ratio = table.max_min_ratio()
    cubic = rt.build_model("cubic-decay")
    draw = rt.make_path_draw(0, 0, fine_n=10, m=1, horizon=1.0, levels=[],
                             x0=np.array([10.0]))
    try:
        rt.simulate_path(cubic, SchemeConfig("classical", 10), draw)
        blew, at = False, None
    except rt.DivergedPathError as err:
        blew, at = True, err.step_index
    ok = ratio <= 2.0 and blew and at <= 10
    check(6, "moment boundedness + blow-up detection", ok,
          f"tamed q=4 max/min ratio {ratio:.4f} (<= 2); "
          f"untamed cubic blow-up at step {at}")


def test_criterion_7_appendix_constraints():
    coer = rt.check_coercivity(4, 0.5, 0.001, 0.02)
    mono2 = rt.check_monotonicity(2, 1.001, 0.5, 0.001, 0.02)
    mono4 = rt.check_monotonicity(4, 1.001, 0.5, 0.001, 0.02)
    hand_ok = (
        abs(coer.lhs - 240363 / 25_000_000) <= 1e-10 * coer.lhs
        and abs(mono2.lhs - 169_169 / 125_000_000) <= 1e-10 * mono2.lhs
        and abs(mono4.lhs - 814_204_767_563_187 / 2e17) <= 1e-10 * mono4.lhs
    )
    rec_ok = all(
        abs(rt.normal_moment(p) - math.log(p - 1) - rt.normal_moment(p - 2))
        <= 1e-12 * max(1.0, rt.normal_moment(p))
        for p in range(4, 1001, 2)
    )
    big = rt.check_coercivity(648, 0.5, 0.001, 0.02)
    big_ok = big.log10_scale and math.isfinite(big.margin)
    ok = hand_ok and rec_ok and big_ok
    check(7, "appendix constraints", ok,
          f"hand values to 1e-10: {hand_ok}; moment recursion to 1e-12: {rec_ok}; "
          f"q=648 reported with log10 margin {big.margin:.3f} (not asserted)")


def test_criterion_8_sdde_and_ctmc(dw_model, jumps_unit):
    draw = rt.make_path_draw(8, 0, fine_n=256, m=1, horizon=1.0, levels=[256],
                             jump_model=jumps_unit, x0=np.array([2.0]))
    cfg = SchemeConfig("randomized_tamed", 256)
    chain1 = rt.MarkovPath(np.array([]), np.array([1]), 1.0)
    sdde = rt.simulate_sdde_switching({1: dw_model}, cfg, draw, 0.0,
                                      np.array([2.0]), chain1, intensity=1.0)
    plain = rt.simulate_path(dw_model, cfg, draw, intensity=1.0)
    rel = np.max(np.abs(sdde.states - plain.states)) / np.max(np.abs(plain.states))

    gen2 = rt.Generator(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    horizon = 100_000.0
    path = rt.simulate_ctmc(gen2, 1, horizon, StreamKey(2, 0, StreamTag.MARKOV))
    holds = np.diff(np.concatenate([[0.0], path.switch_times]))
    in_one = path.states[:-1] == 1
    hold_means = holds[in_one].mean(), holds[~in_one].mean()
    hold_ok = (
        abs(hold_means[0] - 1.0) <= 3.0 / math.sqrt(in_one.sum())
        and abs(hold_means[1] - 0.5) <= 3.0 * 0.5 / math.sqrt((~in_one).sum())
    )
    edges = np.concatenate([[0.0], path.switch_times, [horizon]])
    lengths = np.diff(edges)
    frac = lengths[path.states == 1].sum() / horizon
    chunk_edges = np.linspace(0.0, horizon, 21)
    fracs = []
    for lo, hi in zip(chunk_edges[:-1], chunk_edges[1:]):
        seg = np.diff(np.clip(edges, lo, hi))
        fracs.append(seg[path.states == 1].sum() / (hi - lo))
    se = np.std(fracs, ddof=1) / math.sqrt(len(fracs))
    occ_ok = abs(frac - 2.0 / 3.0) <= 3.0 * se  # stationary fraction b/(a+b)

    ok = rel <= 1e-12 and hold_ok and occ_ok
    check(8, "SDDE/switching reduction + CTMC statistics", ok,
          f"reduction rel diff {rel:.2e}; holding means {hold_means[0]:.4f}/"
          f"{hold_means[1]:.4f}; occupation {frac:.4f} vs 2/3 (3se={3*se:.4f})")


def test_criterion_9_cli_determinism(tmp_path):
    import yaml

    doc = {
        "model": {"preset": "double-well",
                  "params": {"beta_hat": 0.5, "sigma_hat": 0.001,
                             "gamma_hat": 0.02, "p_exp": 648},
                  "x0": 2.0},
        "jumps": {"intensity": 1.0},
        "study": {"levels": [32, 64, 128], "reference_n": 1024,
                  "num_paths": 200, "p_list": [1, 2]},
        "seed": 31415,
    }
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    outputs = []
    for name, extra in (("r1", []), ("r2", []), ("r3", ["--workers", "2"])):
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / name)]
                    + extra)
        assert code == EXIT_OK
        outputs.append((tmp_path / name / "errors.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    check(9, "byte-identical reruns and worker-layout stability", ok,
          f"{len(outputs[0])} CSV bytes identical across reruns and worker counts")
