"""The single stepping kernel: every entry point must give the same bits.

``simulate_path`` and ``simulate_sdde_switching`` are batch-of-one calls into
the loop behind ``simulate_paths``, and ``step`` runs that loop's per-cell
map, so their results are compared with ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rteuler as rt
from rteuler import (
    DivergedPathError,
    MarkovPath,
    SchemeConfig,
    TamingConfig,
    TimeGrid,
    simulate_path,
    simulate_paths,
    simulate_sdde_switching,
    step,
)
from rteuler.cli import EXIT_DIVERGED, main
from rteuler.rng import WINDOW, make_block_draw


def planar_model():
    """2-d state and noise, cubic drift, non-zero-mean jumps with a compensator."""
    def drift(t, x, env=None):
        return np.stack([x[..., 1], -x[..., 0] - x[..., 0] ** 3], axis=-1) * (1.0 + 0.0 * t)

    def diffusion(t, x, env=None):
        row1 = np.stack([0.1 * x[..., 0], 0.05 + 0.0 * x[..., 0]], axis=-1)
        row2 = np.stack([0.0 * x[..., 1], 0.2 * x[..., 1]], axis=-1)
        return np.stack([row1, row2], axis=-2)

    return rt.CoefficientSet(
        dim_state=2,
        dim_noise=2,
        drift=drift,
        diffusion=diffusion,
        jump=lambda t, x, z, env=None: 0.1 * x * z,
        jump_compensator_mean=lambda t, x, env=None: 0.05 * x,
        zeta=2.0,
        zero_mean_jump=False,
    )


@pytest.mark.parametrize("variant", rt.VARIANTS)
def test_single_path_equals_batch_row_exactly(variant, dw_model):
    # intensity 40 puts several jumps into some cells of the n=16 level
    jumps = rt.normal_marks(40.0)
    cases = ((dw_model, 1, [2.0]), (planar_model(), 2, [1.0, -0.5]))
    for model, m, x0 in cases:
        draws = [
            rt.make_path_draw(seed, i, fine_n=128, m=m, horizon=1.0, levels=[128, 16],
                              jump_model=jumps, x0=np.array(x0))
            for seed in (3, 17, 2026) for i in range(3)
        ]
        for n in (128, 16):
            cfg = SchemeConfig(variant, n)
            batch = simulate_paths(model, cfg, draws, intensity=40.0)
            assert not batch.diverged.any()
            for i, d in enumerate(draws):
                solo = simulate_path(model, cfg, d, intensity=40.0)
                assert np.array_equal(solo.states, batch.states[i])


@pytest.mark.parametrize("variant", rt.VARIANTS)
def test_sdde_single_regime_zero_delay_equals_plain_exactly(variant, dw_model, jumps_unit):
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    cfg = SchemeConfig(variant, 64)
    for seed in (5, 6, 7):
        draw = rt.make_path_draw(seed, 0, fine_n=64, m=1, horizon=1.0, levels=[64],
                                 jump_model=jumps_unit, x0=np.array([2.0]))
        sdde = simulate_sdde_switching({1: dw_model}, cfg, draw, 0.0, np.array([2.0]),
                                       chain, intensity=1.0)
        plain = simulate_path(dw_model, cfg, draw, intensity=1.0)
        assert np.array_equal(sdde.states, plain.states)


def test_step_with_tamed_coefficients_equals_fused_kernel(dw_model):
    # stepping rt.tame()'d coefficients cell by cell gives the bits of the
    # kernel, which divides by one denominator per step instead
    n = 32
    draw = rt.make_path_draw(11, 0, fine_n=n, m=1, horizon=1.0, levels=[n],
                             jump_model=rt.normal_marks(20.0), x0=np.array([2.0]))
    tcfg = TamingConfig(n, 2.0)
    grid = TimeGrid(n)
    cells = grid.cell_of(draw.jump_times)
    dW = draw.fine_increments
    tamed = rt.tame(dw_model, tcfg)
    x = draw.x0
    states = [x]
    for k in range(1, n + 1):
        cell_jumps = [(t, z) for c, t, z in zip(cells, draw.jump_times, draw.jump_marks) if c == k]
        x = step(x, k, grid, tamed, dW[k - 1], cell_jumps, phi=draw.phis[n][k - 1],
                 intensity=20.0)
        states.append(x)
    traj = simulate_path(dw_model, SchemeConfig("randomized_tamed", n), draw,
                         intensity=20.0)
    assert len(draw.jump_times) > 0
    assert np.array_equal(np.array(states), traj.states)


@pytest.mark.parametrize("variant", ["classical", "randomized_untamed"])
def test_divergence_step_agrees_across_entry_points(variant, tmp_path, capsys):
    cubic = rt.build_model("cubic-decay")
    n = 8
    draw = rt.make_path_draw(0, 0, fine_n=n, m=1, horizon=1.0, levels=[n],
                             x0=np.array([10.0]))
    cfg = SchemeConfig(variant, n)
    batch = simulate_paths(cubic, cfg, [draw])
    at = int(batch.diverged_at[0])
    assert 1 <= at <= n
    with pytest.raises(DivergedPathError) as plain:
        simulate_path(cubic, cfg, draw)
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    with pytest.raises(DivergedPathError) as sdde:
        simulate_sdde_switching({1: cubic}, cfg, draw, 0.0, np.array([10.0]), chain)
    assert plain.value.step_index == sdde.value.step_index == at
    assert not np.all(np.isfinite(plain.value.state))

    # the CLI builds the same draw from (seed 0, path 0) and reports the same step
    cfg_path = tmp_path / "cubic.yaml"
    cfg_path.write_text(
        "model: {preset: cubic-decay, x0: 10.0}\n"
        "jumps: {intensity: 0.0}\n"
        f"simulate: {{n: {n}, variant: {variant}}}\n"
        "seed: 0\n"
    )
    capsys.readouterr()
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_DIVERGED
    assert f"path diverged at step {at}" in capsys.readouterr().err


def _randomized_draw(n=8, x0=(2.0,), m=1):
    return rt.make_path_draw(1, 0, fine_n=n, m=m, horizon=1.0, levels=[n],
                             x0=np.array(x0))


def _entry_points(model):
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    return (
        lambda cfg, d: simulate_paths(model, cfg, [d]),
        lambda cfg, d: simulate_path(model, cfg, d),
        lambda cfg, d: simulate_sdde_switching({1: model}, cfg, d, 0.0, d.x0, chain),
    )


@pytest.mark.parametrize("bad_phi", [0.0, 1.5, -0.25, np.nan])
def test_randomizers_outside_unit_interval_rejected(bad_phi, dw_model):
    cfg = SchemeConfig("randomized_tamed", 8)
    for run in _entry_points(dw_model):
        draw = _randomized_draw()
        draw.phis[8][3] = bad_phi
        with pytest.raises(ValueError, match="phis"):
            run(cfg, draw)


def test_bad_randomizer_is_refused_before_any_cell_is_stepped(dw_model):
    # cell 1500 lies in the draws' second window: the draws are refused where
    # they are stacked, so no chunk of states reaches the sink
    draw = _randomized_draw(n=2048)
    draw.phis[2048][1499] = 1.5
    seen = []
    with pytest.raises(ValueError, match=r"phis\) for level n=2048 must lie in \(0, 1\]"):
        simulate_paths(dw_model, SchemeConfig("randomized_tamed", 2048), [draw],
                       on_chunk=lambda lo, chunk: seen.append(lo))
    assert seen == []


def test_missing_randomizer_level_is_value_error(dw_model):
    draw = rt.make_path_draw(0, 0, fine_n=16, m=1, horizon=1.0, levels=[8],
                             x0=np.array([2.0]))
    for run in _entry_points(dw_model):
        with pytest.raises(ValueError, match="n=16"):
            run(SchemeConfig("randomized_tamed", 16), draw)


def test_x0_shape_must_match_dim_state():
    model = planar_model()
    draw = _randomized_draw(x0=(1.0,), m=2)  # a 1-vector on a 2-d model
    with pytest.raises(ValueError, match="x0"):
        simulate_paths(model, SchemeConfig("classical", 8), [draw])
    with pytest.raises(ValueError, match="x0"):
        simulate_path(model, SchemeConfig("classical", 8), draw)


def test_increment_width_must_match_dim_noise(dw_model):
    draw = _randomized_draw(m=2)
    for run in _entry_points(dw_model):
        with pytest.raises(ValueError, match="dim_noise"):
            run(SchemeConfig("classical", 8), draw)


def _stepped(model, variant, n, draw, intensity):
    """One path stepped cell by cell with ``step``, on ``rt.tame``'d coefficients
    for the tamed variants: its states up to divergence and the
    ``DivergedPathError`` that stopped it, or None."""
    grid, taming = TimeGrid(n, model.horizon), SchemeConfig(variant, n).taming_for(model)
    coeffs = rt.tame(model, taming) if taming else model
    dW = rt.coarsen(draw.fine_increments, draw.fine_n // n)
    cells = grid.cell_of(draw.jump_times)
    randomized = variant in ("randomized_tamed", "randomized_untamed")
    x, states = draw.x0, [draw.x0]
    try:
        for k in range(1, n + 1):
            jumps = [(t, z) for c, t, z in zip(cells, draw.jump_times, draw.jump_marks) if c == k]
            x = step(x, k, grid, coeffs, dW[k - 1], jumps,
                     phi=draw.phis[n][k - 1] if randomized else None, intensity=intensity)
            states.append(x)
    except DivergedPathError as err:
        return np.array(states), err
    return np.array(states), None


def _assert_kernel_equals_step_loop(model, variant, n, fine_n, seed, B, intensity, x0):
    kw = dict(fine_n=fine_n, m=model.dim_noise, horizon=model.horizon,
              jump_model=rt.normal_marks(intensity), x0=x0)
    block = make_block_draw(seed, range(B), coarse=[n], **kw)
    got = simulate_paths(model, SchemeConfig(variant, n), block, intensity)
    for b in range(B):
        states, err = _stepped(model, variant, n,
                               rt.make_path_draw(seed, b, levels=[n], **kw), intensity)
        assert np.array_equal(got.states[b, : len(states)], states)
        assert got.diverged_at[b] == (err.step_index if err else -1)
        if err:
            assert np.array_equal(got.states[b, err.step_index], err.state, equal_nan=True)


def test_drift_time_stays_in_its_cell():
    # at n = 5, t_2 + dt * 1 rounds to 0.6000000000000001, past t_3 = 0.6: every
    # entry point must evaluate the drift at TimeGrid.xi's time, as ``step`` does
    times = []

    def drift(t, x):
        times.append(float(np.squeeze(t)))
        return t + 0.0 * x

    model = rt.scalar_model(drift)
    draw = _randomized_draw(n=5, x0=(1.0,))
    draw.phis[5][2] = 1.0
    assert 0.4 + 0.2 * 1.0 > 0.6
    states, _err = _stepped(model, "randomized_untamed", 5, draw, 0.0)
    want = [TimeGrid(5).xi(k, phi) for k, phi in enumerate(draw.phis[5], 1)]
    assert times == want and want[2] == 0.6
    for run in _entry_points(model):
        times.clear()
        got = run(SchemeConfig("randomized_untamed", 5), draw).states
        assert times == want
        assert np.array_equal(got.reshape(states.shape), states)


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(rt.VARIANTS),
    planar=st.booleans(),
    n=st.sampled_from([4, 5, 6, 8, 12, 16, 32]),
    factor=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 5),
    intensity=st.sampled_from([0.0, 3.0, 40.0]),
    scale=st.sampled_from([1.0, 30.0]),
)
def test_kernel_on_block_equals_per_path_step_loop(dw_model, variant, planar, n, factor, seed,
                                                   B, intensity, scale):
    # the rows' starts come from their init streams; at scale 30 some diverge
    # under the untamed variants and some do not
    model = planar_model() if planar else dw_model
    x0 = lambda gen: scale * gen.normal(size=model.dim_state)
    _assert_kernel_equals_step_loop(model, variant, n, n * factor, seed, B, intensity, x0)


@pytest.mark.parametrize("fine_n", [2048, 4096])
def test_kernel_on_block_equals_step_loop_across_windows(fine_n):
    # n = 2048 spans two kernel windows, read from the fine windows or from the
    # kept coarse level
    assert 2048 > WINDOW
    _assert_kernel_equals_step_loop(planar_model(), "randomized_tamed", 2048, fine_n, 7, 3, 5.0,
                                    np.array([1.0, -0.5]))
