import math

import numpy as np
import pytest

import rteuler as rt
from rteuler import SchemeConfig, StudyConfig, fit_rate, moment_probe, strong_error_study
from rteuler.harness import taming_gap_probe

# Benchmark L1 errors of the tamed randomized scheme on the double-well
# problem at step sizes 2^-8 .. 2^-17 (fixture for the regression oracle).
BENCHMARK_DTS = [2.0**-k for k in range(8, 18)]
BENCHMARK_L1 = [
    0.0505168099, 0.0354740285, 0.0249509386, 0.0175644721, 0.0123686827,
    0.0087087569, 0.0061346808, 0.0043477010, 0.0031492921, 0.0023850943,
]
# frozen OLS slope of log2(L1) on log2(dt), computed once independently
BENCHMARK_L1_SLOPE = 0.495516692773


def test_fit_rate_exact_power_laws():
    dts = [2.0**-k for k in range(3, 10)]
    half = fit_rate([(dt, dt**0.5) for dt in dts])
    assert half.slope == pytest.approx(0.5, abs=1e-10)
    assert half.residual == pytest.approx(0.0, abs=1e-16)
    one = fit_rate([(dt, 3.7 * dt) for dt in dts])
    assert one.slope == pytest.approx(1.0, abs=1e-10)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.25, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.25, 0.5), (0.125, 0.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.0, 0.5), (0.125, 0.2)])


def test_fit_rate_on_benchmark_rows_matches_frozen_oracle():
    fit = fit_rate(list(zip(BENCHMARK_DTS, BENCHMARK_L1)))
    assert fit.slope == pytest.approx(BENCHMARK_L1_SLOPE, abs=1e-9)
    assert 0.45 <= fit.slope <= 0.55


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(levels=())
    with pytest.raises(ValueError):
        StudyConfig(levels=(64, 100), reference_n=8192)  # 100 does not divide
    with pytest.raises(ValueError):
        StudyConfig(levels=(64,), reference_n=64)
    with pytest.raises(ValueError):
        StudyConfig(variants=("bogus",))
    with pytest.raises(ValueError):
        StudyConfig(error_time="weak")


def test_identical_construction_gives_exactly_zero_error(dw_model, jumps_unit):
    draws = [
        rt.make_path_draw(1, i, fine_n=128, m=1, horizon=1.0, levels=[128],
                          jump_model=jumps_unit, x0=np.array([2.0]))
        for i in range(4)
    ]
    cfg = SchemeConfig("randomized_tamed", 128, rt.TamingConfig(128, 2.0))
    a = rt.simulate_paths(dw_model, cfg, draws, intensity=1.0)
    b = rt.simulate_paths(dw_model, cfg, draws, intensity=1.0)
    assert np.array_equal(a.states, b.states)


@pytest.fixture(scope="module")
def ode_study():
    cfg = StudyConfig(
        model="linear-decay",
        x0=1.0,
        variants=("classical",),
        reference_variant="classical",
        levels=(64, 128, 256, 512, 1024, 2048),
        reference_n=2**15,
        num_paths=8,
        p_list=(1, 2),
        intensity=0.0,
        base_seed=0,
    )
    return strong_error_study(cfg)[0]


def test_ode_mode_first_order(ode_study):
    slope = ode_study.slopes[2].slope
    assert 0.9 <= slope <= 1.1


def test_ode_mode_is_deterministic_across_paths(ode_study):
    # with sigma = gamma = 0 and deterministic x0, every path is identical,
    # so the batch-means standard error collapses to zero
    for row in ode_study.rows:
        assert row.stderr == pytest.approx(0.0, abs=1e-15)
        assert row.diverged_frac == 0.0


def test_ode_mode_terminal_error_vs_exact():
    model = rt.build_model("linear-decay")
    exact = math.exp(-1.0)
    for n in (64, 128, 256, 512, 1024, 2048):
        draw = rt.make_path_draw(0, 0, fine_n=n, m=1, horizon=1.0, levels=[],
                                 x0=np.array([1.0]))
        traj = rt.simulate_path(model, SchemeConfig("classical", n), draw)
        assert abs(traj.terminal[0] - exact) < 2.0 / n


@pytest.fixture(scope="module")
def small_dw_study():
    cfg = StudyConfig(num_paths=200, levels=(64, 128, 256, 512), reference_n=4096,
                      base_seed=99)
    return strong_error_study(cfg)[0]


def test_lp_ordering_on_report(small_dw_study):
    assert small_dw_study.lp_ordering_ok()


def test_error_monotonicity_along_ladder(small_dw_study):
    for p in (1, 2, 3, 4):
        rows = sorted(small_dw_study.rows_for_p(p), key=lambda r: -r.dt)
        for coarse, fine in zip(rows, rows[1:]):
            assert fine.error <= coarse.error + 3.0 * (fine.stderr + coarse.stderr)


def test_study_determinism_and_worker_invariance():
    cfg = StudyConfig(num_paths=120, levels=(32, 64), reference_n=512, base_seed=5,
                      p_list=(1, 2), block_size=50)
    a = strong_error_study(cfg, workers=1)[0]
    b = strong_error_study(cfg, workers=2)[0]
    assert a.to_csv() == b.to_csv()
    c = strong_error_study(cfg, workers=1)[0]
    assert a.to_csv() == c.to_csv()


def test_multi_variant_study_reports_tamed_above_untamed():
    cfg = StudyConfig(num_paths=100, levels=(64, 128, 256), reference_n=2048,
                      base_seed=17, p_list=(2,),
                      variants=("randomized_tamed", "randomized_untamed"))
    tamed, untamed = strong_error_study(cfg)
    assert tamed.variant == "randomized_tamed"
    # the taming perturbation dominates this problem's error, so the untamed
    # arm couples far more tightly to the untamed reference
    for rt_row, ru_row in zip(tamed.rows, untamed.rows):
        assert ru_row.error < rt_row.error


def test_divergent_study_flags_rows_unusable():
    cfg = StudyConfig(model="cubic-decay", x0=10.0,
                      variants=("classical",), reference_variant="classical",
                      levels=(8, 16), reference_n=64, num_paths=10,
                      p_list=(2,), intensity=0.0, base_seed=0)
    report = strong_error_study(cfg)[0]
    assert all(row.diverged_frac == 1.0 for row in report.rows)
    assert all(not row.usable for row in report.rows)
    assert report.slopes[2] is None


def test_moment_probe_exact_for_frozen_dynamics():
    frozen = rt.scalar_model(lambda t, x: 0.0 * x)
    table = moment_probe(frozen, "classical", [4, 8], 4.0, 16, x0=-1.5, base_seed=0)
    for row in table.rows:
        assert row.sup_moment == pytest.approx(1.5**4, rel=1e-14)
        assert row.diverged_frac == 0.0
    assert table.max_min_ratio() == pytest.approx(1.0)


def test_moment_probe_tamed_double_well_stable(dw_model, jumps_unit):
    table = moment_probe(dw_model, "randomized_tamed", [64, 128, 256], 4.0, 500,
                         x0=2.0, jump_model=jumps_unit, base_seed=1)
    assert table.max_min_ratio() <= 2.0


def test_moment_probe_detects_blowup():
    cubic = rt.build_model("cubic-decay")
    table = moment_probe(cubic, "classical", [8], 4.0, 4, x0=10.0, base_seed=0)
    assert math.isinf(table.rows[0].sup_moment)
    assert table.rows[0].diverged_frac == 1.0


def test_moment_probe_validation(dw_model):
    with pytest.raises(ValueError):
        moment_probe(dw_model, "classical", [8], 1.0, 4)
    with pytest.raises(ValueError):
        moment_probe(dw_model, "classical", [8, 12], 2.0, 4)


def test_gap_probe_zero_for_untamed(dw_model, jumps_unit):
    table = taming_gap_probe(dw_model, "classical", [16, 32], 2.0, 5,
                             x0=2.0, jump_model=jumps_unit)
    for row in table.rows:
        assert row.drift_gap == row.diffusion_gap == row.jump_gap == 0.0
    assert table.exponents["drift_gap"] is None


def test_gap_probe_zero_for_zero_model():
    zero = rt.scalar_model(lambda t, x: 0.0 * x, zeta=2.0)
    table = taming_gap_probe(zero, "randomized_tamed", [16, 32, 64], 2.0, 5, x0=0.0)
    assert all(row.drift_gap == 0.0 for row in table.rows)


def test_gap_probe_decay_rate_double_well(dw_model, jumps_unit):
    # taming perturbation of the drift must decay at least like n^-0.9 for
    # p0 = 2; cross-checked on two disjoint seed sets
    exps = []
    for seed in (11, 5011):
        table = taming_gap_probe(dw_model, "randomized_tamed",
                                 [2**k for k in range(6, 13)], 2.0, 200,
                                 x0=2.0, jump_model=jumps_unit, base_seed=seed)
        assert table.exponents["drift_gap"] >= 0.9
        exps.append(table.exponents["drift_gap"])
    assert abs(exps[0] - exps[1]) < 0.01 * abs(exps[0])


def test_max_over_grid_error_time_dominates_terminal(small_dw_study):
    cfg = StudyConfig(num_paths=200, levels=(64, 128, 256, 512), reference_n=4096,
                      base_seed=99, error_time="max_over_grid")
    sup_report = strong_error_study(cfg)[0]
    assert sup_report.lp_ordering_ok()
    for sup_row, term_row in zip(sup_report.rows, small_dw_study.rows):
        assert (sup_row.dt, sup_row.p) == (term_row.dt, term_row.p)
        assert sup_row.error >= term_row.error - 1e-15


def test_report_csv_round_trips_at_17_digits(small_dw_study):
    lines = small_dw_study.to_csv().splitlines()
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            assert f"{float(cell):.17g}" == cell


def test_report_json_shape(small_dw_study):
    doc = small_dw_study.to_json_dict()
    assert doc["variant"] == "randomized_tamed"
    assert len(doc["rows"]) == 4 * 4
    assert set(doc["slopes"]) == {"1", "2", "3", "4"}


def test_map_blocks_starts_no_more_workers_than_blocks(monkeypatch):
    from types import SimpleNamespace

    from rteuler import harness

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            return map(fn, blocks)

    monkeypatch.setattr(harness, "futures", SimpleNamespace(ProcessPoolExecutor=SerialPool))
    assert harness._map_blocks(len, 1000, 250, workers=16) == [250] * 4
    assert harness._map_blocks(len, 500, 250, workers=2) == [250, 250]
    assert harness._map_blocks(len, 100, 250, workers=16) == [100]  # one block: no pool
    assert started == [4, 2]
