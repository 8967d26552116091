import logging
import re
from pathlib import Path

import numpy as np
import pytest

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

DATA = Path(__file__).parent / "data"


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("euler", 4)
    with pytest.raises(ValueError):
        SchemeConfig("classical", 0)
    with pytest.raises(ValueError, match="^n_power must be > 0"):
        SchemeConfig("tamed", 4, n_power=0.0)
    with pytest.raises(ValueError, match="^x_power must be >= 0"):
        SchemeConfig("classical", 4, x_power=-1.0)


def test_taming_for_reads_the_models_growth_exponent(dw_model):
    assert SchemeConfig("classical", 8).taming_for(dw_model) is None
    assert SchemeConfig("randomized_untamed", 8).taming_for(dw_model) is None
    for variant in ("tamed", "randomized_tamed"):
        assert SchemeConfig(variant, 8).taming_for(dw_model) == TamingConfig(8, 2.0)
        linear = rt.scalar_model(lambda t, x: -x, zeta=0.0)
        assert SchemeConfig(variant, 8, 0.25, 1.0).taming_for(linear) == TamingConfig(8, 0.0,
                                                                                       0.25, 1.0)


def test_step_zero_coefficients():
    zero = rt.scalar_model(lambda t, x: 0.0 * x)
    out = step(np.array([1.5]), 1, TimeGrid(4), zero, np.array([0.3]), [], phi=0.5)
    assert out[0] == 1.5


def test_step_constant_drift_randomization_invariant():
    const = rt.scalar_model(lambda t, x: np.ones_like(x))
    g = TimeGrid(4)
    for phi in (0.1, 0.5, 1.0, None):
        out = step(np.array([2.0]), 1, g, const, np.array([0.0]), [], phi=phi)
        assert out[0] == 2.25


def test_step_double_well_hand_value(dw_model):
    tamed = rt.tame(dw_model, TamingConfig(n=1, zeta=2.0))
    out = step(np.array([2.0]), 1, TimeGrid(1), tamed, np.array([0.0]), [], phi=1.0)
    assert out[0] == pytest.approx(14.0 / 9.0, rel=1e-14)


def test_step_multiple_jumps_summed_at_left_state():
    model = rt.scalar_model(lambda t, x: 0.0 * x, jump=lambda t, x, z: x * z, zeta=0.0)
    g = TimeGrid(2)
    jumps = [(0.6, np.array([0.5])), (0.9, np.array([-0.25])), (1.0, np.array([2.0]))]
    out = step(np.array([4.0]), 2, g, model, np.array([0.0]), jumps)
    # all three evaluated at the pre-cell state 4.0
    assert out[0] == pytest.approx(4.0 + 4.0 * (0.5 - 0.25 + 2.0))


def test_step_raises_on_divergence():
    cubic = rt.scalar_model(lambda t, x: x**3, zeta=2.0)
    with pytest.raises(DivergedPathError) as err:
        x = np.array([10.0])
        for k in range(1, 11):
            x = step(x, k, TimeGrid(10), cubic, np.array([0.0]), [])
    assert 1 <= err.value.step_index <= 10


def test_simulate_constant_when_everything_zero():
    zero = rt.scalar_model(lambda t, x: 0.0 * x)
    draw = rt.make_path_draw(0, 0, fine_n=16, m=1, horizon=1.0, levels=[16],
                             x0=np.array([3.25]))
    traj = simulate_path(zero, SchemeConfig("classical", 16), draw)
    assert np.all(traj.states == 3.25)


def test_classical_matches_textbook_recursion_on_linear_sde():
    a, b = 0.7, 0.4
    lin = rt.scalar_model(lambda t, x: a * x, sigma=lambda t, x: b * x)
    draw = rt.make_path_draw(8, 0, fine_n=3, m=1, horizon=1.0, levels=[3],
                             x0=np.array([1.0]))
    traj = simulate_path(lin, SchemeConfig("classical", 3), draw)
    x, dt = 1.0, 1.0 / 3.0
    for k in range(3):
        x = x * (1.0 + a * dt + b * draw.fine_increments[k, 0])
        assert traj.states[k + 1, 0] == pytest.approx(x, rel=1e-14)


def test_golden_trajectory_bit_stable(dw_model, jumps_unit):
    draw = rt.make_path_draw(2024, 0, fine_n=64, m=1, horizon=1.0, levels=[64],
                             jump_model=jumps_unit, x0=np.array([2.0]))
    traj = simulate_path(dw_model, SchemeConfig("randomized_tamed", 64),
                         draw, intensity=1.0)
    lines = ["t,x_1"]
    pts = traj.grid.points()
    for k in range(65):
        lines.append(f"{pts[k]:.17g},{traj.states[k, 0]:.17g}")
    assert "\n".join(lines) + "\n" == (DATA / "golden_double_well_rt_n64.csv").read_text()


def test_randomization_invariance_bitwise_for_time_constant_drift(jumps_unit):
    model = rt.scalar_model(
        lambda t, x: x - 0.5 * x**3,
        sigma=lambda t, x: 0.01 * (1 + 0.0 * t) * x,
        jump=lambda t, x, z: 0.02 * x * z,
        zeta=2.0,
    )
    draw = rt.make_path_draw(3, 1, fine_n=64, m=1, horizon=1.0, levels=[64],
                             jump_model=jumps_unit, x0=np.array([2.0]))
    cfgr = SchemeConfig("randomized_tamed", 64)
    cfgl = SchemeConfig("tamed", 64)
    a = simulate_path(model, cfgr, draw, intensity=1.0)
    b = simulate_path(model, cfgl, draw, intensity=1.0)
    assert np.array_equal(a.states, b.states)


def test_taming_noop_in_linear_regime():
    model = rt.scalar_model(lambda t, x: -x, sigma=lambda t, x: 0.1 * x, zeta=0.0)
    draw = rt.make_path_draw(5, 0, fine_n=64, m=1, horizon=1.0, levels=[64],
                             x0=np.array([1.0]))
    huge_n_behavior = SchemeConfig("tamed", 64, n_power=8.0, x_power=0.0)
    tamed = simulate_path(model, huge_n_behavior, draw)
    untamed = simulate_path(model, SchemeConfig("classical", 64), draw)
    assert np.max(np.abs(tamed.states - untamed.states)) < 1e-8


def test_compensator_skipped_exactly_for_zero_mean_marks(dw_model, jumps_unit):
    # intensity enters only through the compensator; for a zero-mean mark law
    # the trajectory must not depend on it at all
    draw = rt.make_path_draw(11, 0, fine_n=32, m=1, horizon=1.0, levels=[32],
                             jump_model=jumps_unit, x0=np.array([2.0]))
    cfg = SchemeConfig("randomized_tamed", 32)
    a = simulate_path(dw_model, cfg, draw, intensity=1.0)
    b = simulate_path(dw_model, cfg, draw, intensity=7.5)
    assert np.array_equal(a.states, b.states)


def test_compensator_applied_for_nonzero_mean_marks():
    model = rt.scalar_model(
        lambda t, x: 0.0 * x,
        jump=lambda t, x, z: z,
        compensator_mean=lambda t, x: np.ones_like(x),  # marks with mean 1
    )
    draw = rt.make_path_draw(0, 0, fine_n=4, m=1, horizon=1.0, levels=[4],
                             x0=np.array([0.0]))
    traj = simulate_path(model, SchemeConfig("classical", 4), draw, intensity=2.0)
    # no jumps drawn (no jump model), so only the compensator drains the state
    assert traj.terminal[0] == pytest.approx(-2.0)


def test_scalar_model_compensates_exactly_when_given_a_compensator_mean():
    # no jumps drawn, so each of the 4 cells moves the state by -2 * dt * mean
    draw = rt.make_path_draw(0, 0, fine_n=4, m=1, horizon=1.0, levels=[4],
                             x0=np.array([0.0]))
    for mean, terminal in [(None, 0.0), (1.0, -2.0), (-0.5, 1.0)]:
        comp = None if mean is None else (lambda t, x, c=mean: np.full_like(x, c))
        model = rt.scalar_model(lambda t, x: 0.0 * x, compensator_mean=comp)
        traj = simulate_path(model, SchemeConfig("classical", 4), draw, intensity=2.0)
        assert traj.terminal[0] == terminal


def test_missing_randomizers_rejected(dw_model):
    draw = rt.make_path_draw(0, 0, fine_n=32, m=1, horizon=1.0, levels=[],
                             x0=np.array([2.0]))
    with pytest.raises(ValueError):
        simulate_path(dw_model, SchemeConfig("randomized_tamed", 32), draw)


def test_batch_agrees_with_per_path(dw_model, jumps_unit):
    draws = [
        rt.make_path_draw(42, i, fine_n=256, m=1, horizon=1.0, levels=[256, 64],
                          jump_model=jumps_unit, x0=np.array([2.0]))
        for i in range(6)
    ]
    for n in (256, 64):
        cfg = SchemeConfig("randomized_tamed", n)
        batch = simulate_paths(dw_model, cfg, draws, intensity=1.0)
        assert not batch.diverged.any()
        for i, d in enumerate(draws):
            solo = simulate_path(dw_model, cfg, d, intensity=1.0)
            scale = np.max(np.abs(solo.states))
            assert np.max(np.abs(solo.states - batch.states[i])) <= 1e-12 * scale


def test_two_dimensional_state_and_noise():
    # planar rotation drift with a constant 2x2 diffusion matrix; checked
    # against the hand-written Euler recursion
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    diff = np.array([[0.2, 0.05], [0.0, 0.1]])
    model = rt.CoefficientSet(
        dim_state=2,
        dim_noise=2,
        drift=lambda t, x, env=None: x @ rot.T,
        diffusion=lambda t, x, env=None: np.broadcast_to(diff, np.shape(x) + (2,)),
        jump=lambda t, x, z, env=None: np.zeros_like(x),
        jump_compensator_mean=None,
        zeta=0.0,
    )
    draw = rt.make_path_draw(21, 0, fine_n=6, m=2, horizon=1.0, levels=[6],
                             x0=np.array([1.0, 0.0]))
    traj = simulate_path(model, SchemeConfig("classical", 6), draw)
    batch = simulate_paths(model, SchemeConfig("classical", 6), [draw])
    x, dt = np.array([1.0, 0.0]), 1.0 / 6.0
    for k in range(6):
        x = x + (rot @ x) * dt + diff @ draw.fine_increments[k]
        assert traj.states[k + 1] == pytest.approx(x, rel=1e-13)
    assert np.max(np.abs(batch.states[0] - traj.states)) < 1e-13


def test_batch_divergence_detection():
    cubic = rt.scalar_model(lambda t, x: -(x**3), zeta=2.0)
    draws = [
        rt.make_path_draw(0, i, fine_n=8, m=1, horizon=1.0, levels=[8],
                          x0=np.array([x0]))
        for i, x0 in enumerate([1.0, 10.0])
    ]
    res = simulate_paths(cubic, SchemeConfig("classical", 8), draws)
    assert res.diverged_at[0] == -1
    assert 1 <= res.diverged_at[1] <= 8


def test_sdde_reduces_to_plain_scheme(dw_model, jumps_unit):
    draw = rt.make_path_draw(5, 0, fine_n=128, m=1, horizon=1.0, levels=[128],
                             jump_model=jumps_unit, x0=np.array([2.0]))
    cfg = SchemeConfig("randomized_tamed", 128)
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    sdde = simulate_sdde_switching({1: dw_model}, cfg, draw, 0.0, np.array([2.0]),
                                   chain, intensity=1.0)
    plain = simulate_path(dw_model, cfg, draw, intensity=1.0)
    scale = np.max(np.abs(plain.states))
    assert np.max(np.abs(sdde.states - plain.states)) <= 1e-12 * scale
    assert np.all(sdde.regimes == 1)


def test_sdde_full_delay_reads_constant_segment():
    # drift equal to the delayed state: with delay = horizon and segment c,
    # the delayed argument is c at every step, so x grows linearly at rate c
    model = rt.scalar_model(lambda t, x: 0.0 * x)
    model = model.replace(drift=lambda t, x, env=None: np.broadcast_to(
        env.delayed_state, np.shape(x)).astype(float))
    draw = rt.make_path_draw(1, 0, fine_n=16, m=1, horizon=1.0, levels=[16],
                             x0=np.array([0.0]))
    draw.fine_increments[:] = 0.0
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    c = 3.0
    traj = simulate_sdde_switching({1: model}, SchemeConfig("classical", 16), draw,
                                   1.0, np.array([c]), chain)
    assert traj.terminal[0] == pytest.approx(c * 1.0, rel=1e-12)


def test_sdde_two_regime_piecewise_slopes():
    up = rt.scalar_model(lambda t, x: np.ones_like(x))
    down = rt.scalar_model(lambda t, x: -np.ones_like(x))
    draw = rt.make_path_draw(9, 0, fine_n=64, m=1, horizon=1.0, levels=[64],
                             x0=np.array([0.0]))
    draw.fine_increments[:] = 0.0
    chain = MarkovPath(np.array([0.5]), np.array([1, 2]), 1.0)
    traj = simulate_sdde_switching({1: up, 2: down}, SchemeConfig("classical", 64),
                                   draw, 0.0, np.array([0.0]), chain)
    # hand integration against the chain: slope +1 until 0.5, then -1
    pts = traj.grid.points()
    expect = np.where(pts <= 0.5, pts, 1.0 - pts)
    assert np.max(np.abs(traj.states[:, 0] - expect)) < 1e-12
    assert set(np.unique(traj.regimes)) == {1, 2}


def test_sdde_delay_off_the_grid_is_refused_and_not_logged(dw_model, caplog):
    # at n = 8 the step is 0.125: 0.3 lies between 2 and 3 steps, and is not run as 0.25
    draw = rt.make_path_draw(2, 0, fine_n=8, m=1, horizon=1.0, levels=[8],
                             x0=np.array([1.0]))
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    with caplog.at_level(logging.DEBUG), pytest.raises(ValueError) as exc:
        simulate_sdde_switching({1: dw_model}, SchemeConfig("tamed", 8), draw,
                                0.3, np.array([1.0]), chain)
    assert str(exc.value) == "delay must be a multiple of the step 0.125, got 0.3 (nearest 0.25)"
    assert caplog.records == []
    traj = simulate_sdde_switching({1: dw_model}, SchemeConfig("tamed", 8), draw,
                                   0.25, np.array([1.0]), chain)
    assert np.all(np.isfinite(traj.states))


@pytest.mark.parametrize("lag", [1, 15, 16, 17, 100])
def test_sdde_delayed_states_are_read_across_chunks(lag):
    # a guard of the states the kernel reads while it fills them: dx = x(t - tau) dt
    # with no noise is the Euler recursion x_k = x_{k-1} + x_{k-1-lag} dt, with the
    # segment c before time 0 and x0 != c, bit for bit
    n, c, x0 = 256, 1.0, 0.5
    model = rt.scalar_model(lambda t, x: 0.0 * x).replace(
        drift=lambda t, x, env=None: np.broadcast_to(env.delayed_state, np.shape(x)) + 0.0)
    draw = rt.make_path_draw(4, 0, fine_n=n, m=1, horizon=1.0, levels=[n], x0=np.array([x0]))
    draw.fine_increments[:] = 0.0
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    traj = simulate_sdde_switching({1: model}, SchemeConfig("classical", n), draw,
                                   lag / n, np.array([c]), chain)
    dt, want = 1.0 / n, [x0]
    for k in range(1, n + 1):
        want.append(want[k - 1] + (want[k - 1 - lag] if k - 1 - lag >= 0 else c) * dt)
    assert traj.states[:, 0].tobytes() == np.array(want).tobytes()


def _plane_model():
    """A 2-d model whose drift is its delayed state."""
    return rt.CoefficientSet(
        dim_state=2, dim_noise=1,
        drift=lambda t, x, env=None: np.broadcast_to(env.delayed_state, np.shape(x)) + 0.0,
        diffusion=lambda t, x, env=None: np.zeros(np.shape(x) + (1,)),
        jump=lambda t, x, z, env=None: np.zeros_like(x), jump_compensator_mean=None)


@pytest.mark.parametrize("dim, segment, got", [
    (1, [1.0, 2.0], "[1.0, 2.0]"),
    (1, np.array([[1.0]]), "array([[1.]])"),
    (1, lambda t: np.array([t, t]), "array([0., 0.])"),
    (2, 3.0, "3.0"),
    (2, [1.0, 2.0, 3.0], "[1.0, 2.0, 3.0]"),
    (2, lambda t: 3.0, "3.0"),
])
def test_sdde_initial_segment_of_the_wrong_shape_is_refused(dw_model, caplog, dim, segment,
                                                            got):
    # a (2,) segment would broadcast into a 1-d model's delayed state; the delay
    # of 0 never reads the segment, which is refused all the same
    model = dw_model if dim == 1 else _plane_model()
    draw = rt.make_path_draw(2, 0, fine_n=8, m=1, horizon=1.0, levels=[8],
                             x0=np.ones(dim))
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    want = "a number" if dim == 1 else "a list of 2 numbers"
    for delay in (0.0, 0.25):
        with caplog.at_level(logging.DEBUG), pytest.raises(ValueError) as exc:
            simulate_sdde_switching({1: model}, SchemeConfig("classical", 8), draw, delay,
                                    segment, chain)
        assert str(exc.value) == f"initial_segment must be {want}, got {got}"
    assert caplog.records == []


@pytest.mark.parametrize("segment", [[2.0, -1.0], np.array([2.0, -1.0]),
                                     lambda t: np.array([2.0, -1.0])])
def test_sdde_two_dimensional_segment_is_read_whole(segment):
    # drift = delayed state; with delay = horizon the segment serves every cell
    draw = rt.make_path_draw(1, 0, fine_n=16, m=1, horizon=1.0, levels=[16],
                             x0=np.zeros(2))
    chain = MarkovPath(np.array([]), np.array([1]), 1.0)
    traj = simulate_sdde_switching({1: _plane_model()}, SchemeConfig("classical", 16), draw,
                                   1.0, segment, chain)
    assert np.allclose(traj.terminal, [2.0, -1.0], rtol=1e-12)


def test_sdde_missing_regime_model_rejected(dw_model):
    draw = rt.make_path_draw(2, 0, fine_n=8, m=1, horizon=1.0, levels=[8],
                             x0=np.array([1.0]))
    chain = MarkovPath(np.array([0.25]), np.array([1, 2]), 1.0)
    with pytest.raises(KeyError):
        simulate_sdde_switching({1: dw_model}, SchemeConfig("tamed", 8), draw,
                                0.0, np.array([1.0]), chain)


@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("name, bad, got, want", [
    ("drift", lambda t, x, env=None: -x[:, 0], "({B},)", "({B}, 1)"),
    ("diffusion", lambda t, x, env=None: x, "({B}, 1)", "({B}, 1, 1)"),
])
def test_coefficient_of_the_wrong_shape_is_refused_before_any_cell(B, name, bad, got, want):
    # each broadcasts against (B, 1) states: at B = 1 without error, at B = 5
    # into a (5, 5) state deep in the loop
    coeffs = dict(drift=lambda t, x, env=None: -x, diffusion=lambda t, x, env=None: x[..., None],
                  jump=lambda t, x, z, env=None: np.zeros_like(x), jump_compensator_mean=None)
    model = rt.CoefficientSet(dim_state=1, dim_noise=1, **dict(coeffs, **{name: bad}))
    draws = [rt.make_path_draw(0, i, fine_n=8, m=1, horizon=1.0, levels=[8], x0=np.array([1.0]))
             for i in range(B)]
    message = f"{name} returns shape {got} for states of shape ({B}, 1), expected {want}"
    with pytest.raises(ValueError, match="^" + re.escape(message.format(B=B)) + "$"):
        simulate_paths(model, SchemeConfig("classical", 8), draws)
