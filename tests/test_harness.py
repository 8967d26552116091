import math

import numpy as np
import pytest

import rteuler as rt
from rteuler import SchemeConfig, StudyConfig, fit_rate, moment_probe, strong_error_study
from rteuler import harness
from rteuler.harness import taming_gap_probe
from rteuler.rng import make_block_draw

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


@pytest.mark.parametrize("kwargs, message", [
    ({"levels": (8.0, 16, 32), "reference_n": 64},
     r"^levels must hold integers, got \[8.0, 16, 32\]"),
    ({"levels": (True, 2, 4), "reference_n": 8}, "^levels must hold integers"),
    ({"levels": (8, 16, 32), "reference_n": 64.0}, "^reference_n must be an integer, got 64.0"),
    ({"num_paths": 4.5}, "^num_paths must be an integer, got 4.5"),
    ({"num_paths": True}, "^num_paths must be an integer, got True"),
])
def test_study_config_refuses_counts_that_are_not_integers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        StudyConfig(**kwargs)


def test_study_config_takes_numpy_integer_counts():
    cfg = StudyConfig(levels=tuple(np.array([8, 16])), reference_n=np.int64(64),
                      num_paths=np.int64(4))
    assert cfg.levels == (8, 16) and cfg.reference_n == 64 and cfg.num_paths == 4


@pytest.mark.parametrize("intensity", [math.nan, math.inf, -1.0])
def test_bad_jump_intensity_rejected_where_it_enters(intensity):
    with pytest.raises(ValueError, match="^intensity must be a finite number >= 0"):
        StudyConfig(intensity=intensity)
    with pytest.raises(ValueError, match="^intensity must be a finite number >= 0"):
        rt.normal_marks(intensity)


@pytest.mark.parametrize("name, value, message", [
    ("taming_n_power", 0.0, "must be > 0"),
    ("taming_n_power", math.nan, "must be a finite number, got nan"),
    ("taming_n_power", math.inf, "must be a finite number, got inf"),
    ("taming_x_power", -1.0, "must be >= 0"),
    ("taming_x_power", math.nan, "must be a finite number, got nan"),
    ("taming_x_power", math.inf, "must be a finite number, got inf"),
])
def test_study_config_refuses_bad_taming_exponents_at_construction(name, value, message):
    # refused as the config is built, not in the first block after its draws
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        StudyConfig(**{name: value})


def test_identical_construction_gives_exactly_zero_error(dw_model, jumps_unit):
    draws = [
        rt.make_path_draw(1, i, fine_n=128, m=1, horizon=1.0, levels=[128],
                          jump_model=jumps_unit, x0=np.array([2.0]))
        for i in range(4)
    ]
    cfg = SchemeConfig("randomized_tamed", 128)
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


def test_study_determinism_and_worker_invariance(monkeypatch):
    monkeypatch.setattr(harness, "STUDY_BLOCK_SIZE", 50)
    cfg = StudyConfig(num_paths=120, levels=(32, 64), reference_n=512, base_seed=5,
                      p_list=(1, 2))
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


@pytest.mark.parametrize("order", [math.nan, math.inf])
def test_non_finite_moment_orders_are_refused_where_they_enter(dw_model, order):
    # each message starts with its argument's name, which the CLI turns into its key
    with pytest.raises(ValueError, match=r"^p_list entries must be finite numbers >= 1"):
        StudyConfig(p_list=(2, order))
    with pytest.raises(ValueError, match="^q must be a finite number >= 2"):
        moment_probe(dw_model, "randomized_tamed", [8], order, 4)
    with pytest.raises(ValueError, match="^p0 must be a finite number >= 2"):
        taming_gap_probe(dw_model, "randomized_tamed", [8], order, 4)


def test_worker_count_rejected_at_the_argument():
    with pytest.raises(ValueError, match="^workers must be >= 1"):
        strong_error_study(StudyConfig(num_paths=4, levels=(4, 8, 16), reference_n=32), workers=0)


@pytest.mark.parametrize("n_list, num_paths, message", [
    ([], 4, "^n_list must be nonempty"),
    ([0, 16], 4, "^n_list must be nonempty"),
    ([16, 24], 4, "^n_list entries must divide"),
    ([8, 16], 0, "^num_paths must be >= 1"),
    ([16.7, 32.2], 4, r"^n_list must hold integers, got \[16.7, 32.2\]"),  # not run as 16, 32
    ([16.0, 32], 4, "^n_list must hold integers"),
    ([True, 2], 4, "^n_list must hold integers"),
    ([8, 16], 5.5, "^num_paths must be an integer, got 5.5"),
    ([8, 16], True, "^num_paths must be an integer, got True"),
])
def test_probes_reject_bad_levels_and_path_counts(dw_model, n_list, num_paths, message):
    for probe in (moment_probe, taming_gap_probe):
        with pytest.raises(ValueError, match=message):
            probe(dw_model, "randomized_tamed", n_list, 2.0, num_paths)


def test_probes_take_numpy_integer_counts(dw_model):
    given = moment_probe(dw_model, "randomized_tamed", np.array([8, 16]), 2.0, np.int64(4))
    plain = moment_probe(dw_model, "randomized_tamed", [8, 16], 2.0, 4)
    assert [type(r.n) for r in given.rows] == [int, int]
    assert given == plain


def test_gap_probe_zero_for_untamed(dw_model, jumps_unit):
    table = taming_gap_probe(dw_model, "classical", [16, 32], 2.0, 5,
                             x0=2.0, jump_model=jumps_unit)
    for row in table.rows:
        assert row.drift_gap == row.diffusion_gap == row.jump_gap == 0.0
    assert table.exponents["drift_gap"] is None


def test_gap_probe_reads_its_times_from_the_grid(dw_model):
    # at n = 5, k * dt is not t_k = k*T/n (3 * 0.2 > 0.6): the probe evaluates
    # the diffusion at the grid's points and the drift at TimeGrid.xi
    n, seen = 5, {}

    def recording(name):
        def coefficient(t, x, env=None):
            if np.ndim(t) == 3:  # the probe's (B, n, 1) times, not the kernel's
                seen[name] = np.array(t[..., 0])
            return getattr(dw_model, name)(t, x, env)
        return coefficient

    model = dw_model.replace(drift=recording("drift"), diffusion=recording("diffusion"))
    taming_gap_probe(model, "randomized_tamed", [n], 2.0, 3, x0=0.5, base_seed=2)
    grid = rt.TimeGrid(n)
    phis = make_block_draw(2, range(3), fine_n=n, m=1, horizon=1.0, x0=0.5).phis[n]
    assert np.array_equal(seen["drift"], [[grid.xi(k, p) for k, p in enumerate(row, 1)]
                                          for row in phis])
    assert np.array_equal(seen["diffusion"], [grid.points()[:-1]])


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
