"""Block-major draws: the same bits as the per-stream functions.

``make_block_draw`` derives every stream key of a block with ``_philox_keys``
and fills the block from one reused Philox generator. These tests pin the key
port to numpy's SeedSequence, every block row to the per-key functions
(``brownian_increments``, ``jump_path``, ``uniform_open_closed`` on
``StreamKey(...).generator()``), and the kernel and the moment probe on blocks
to the same computations on per-path draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rteuler as rt
from rteuler import PathDraw, StreamKey, StreamTag, brownian_increments, coarsen, jump_path
from rteuler import harness
from rteuler.harness import moment_probe
from rteuler.rng import _philox_keys, make_block_draw, uniform_open_closed
from rteuler.scheme import SchemeConfig, simulate_paths


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**160),
    keys=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 4),
                            st.integers(0, 2**31 - 1)), min_size=1, max_size=8),
)
def test_philox_keys_equal_seed_sequence(seed, keys):
    got = _philox_keys(seed, tuple(np.array(col) for col in zip(*keys)))
    assert got.dtype == np.uint64 and got.shape == (len(keys), 2)
    for row, key in zip(got, keys):
        want = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)
        assert np.array_equal(row, want)


def test_philox_key_is_the_generators_key():
    key = StreamKey(12345, 7, StreamTag.RANDOMIZER, 64)
    got = _philox_keys(12345, ([7], [int(StreamTag.RANDOMIZER)], [64]))[0]
    assert np.array_equal(got, key.generator().bit_generator.state["state"]["key"])


@pytest.mark.parametrize("cols, name", [
    (([2**32], [0], [0]), "path_index"),
    (([0], [0], [2**32]), "level"),
    (([-1], [0], [0]), "path_index"),
])
def test_philox_keys_reject_words_beyond_uint32(cols, name):
    with pytest.raises(ValueError, match=name):
        _philox_keys(0, cols)


def _per_key_draw(seed, i, fine_n, m, horizon, levels, jump_model, x0):
    """One path's draw built from ``StreamKey`` generators, one per stream."""
    dW = brownian_increments(StreamKey(seed, i, StreamTag.BROWNIAN), fine_n, m, horizon)
    if jump_model is not None:
        times, marks = jump_path(StreamKey(seed, i, StreamTag.JUMPS), jump_model.intensity,
                                 horizon, jump_model.mark_sampler)
    else:
        times, marks = np.empty(0), np.empty((0, 1))
    phis = {n: uniform_open_closed(StreamKey(seed, i, StreamTag.RANDOMIZER, n).generator(), n)
            for n in levels}
    if callable(x0):
        x0 = x0(StreamKey(seed, i, StreamTag.INIT).generator())
    return PathDraw(fine_n=fine_n, m=m, horizon=horizon, fine_increments=dW, jump_times=times,
                    jump_marks=marks, phis=phis, x0=x0)


def _increments(block, n):
    """Level n's increments of ``block`` as (B, n, m), from its windows."""
    return np.concatenate([dW.copy() for _, dW, _ in block.windows(n, False)]).transpose(1, 0, 2)


@pytest.mark.parametrize("B", [1, 5, 37])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("jumps", [False, True])
@pytest.mark.parametrize("sampled_x0", [False, True])
def test_block_rows_equal_per_key_functions(B, m, jumps, sampled_x0):
    jump_model = rt.normal_marks(3.0) if jumps else None
    x0 = (lambda gen: gen.normal(size=m)) if sampled_x0 else np.arange(1.0, m + 1.0)
    paths, levels = range(11, 11 + B), [32, 8, 4]
    block = make_block_draw(2**70 + 3, paths, fine_n=32, m=m, horizon=2.0,
                            jump_model=jump_model, x0=x0)
    fine = _increments(block, 32)
    assert fine.shape == (B, 32, m) and block.x0.shape == (B, m)
    for b, i in enumerate(paths):
        want = _per_key_draw(2**70 + 3, i, 32, m, 2.0, levels, jump_model, x0)
        assert np.array_equal(fine[b], want.fine_increments)
        assert np.array_equal(block.x0[b], want.x0)
        for n in levels:
            assert np.array_equal(block.phis[n][b], want.phis[n])
        on_row = block.jump_rows == b
        assert np.array_equal(block.jump_times[on_row], want.jump_times)
        assert np.array_equal(block.jump_marks[on_row], want.jump_marks)
    # flat jumps run in row order, then time order
    assert np.all(np.diff(block.jump_rows) >= 0)
    if jumps:
        assert len(block.jump_times) > 0


def test_make_path_draw_is_row_of_block():
    for m, intensity, x0 in [(1, 1.0, 2.0), (2, 1.0, lambda gen: gen.normal(size=2)),
                             (1, 0.0, lambda gen: 2.0 + gen.normal(size=1)), (2, 0.0, [1.0, 2.0])]:
        kw = dict(fine_n=64, m=m, horizon=1.0, jump_model=rt.normal_marks(intensity), x0=x0)
        block = make_block_draw(5, range(3, 6), **kw)
        draw = rt.make_path_draw(5, 4, levels=[64, 16], **kw)
        assert np.array_equal(draw.fine_increments, _increments(block, 64)[1])
        assert np.array_equal(draw.x0, block.x0[1])
        for n in (64, 16):
            assert np.array_equal(draw.phis[n], block.phis[n][1])
        on_row = block.jump_rows == 1
        assert np.array_equal(draw.jump_times, block.jump_times[on_row])
        assert np.array_equal(draw.jump_marks, block.jump_marks[on_row])
        assert draw.jump_marks.shape[1] == 1 and (len(draw.jump_times) > 0) == (intensity > 0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_increments_for_equals_per_row_coarsen(m):
    block = make_block_draw(9, range(37), fine_n=512, m=m, horizon=1.0)
    fine = _increments(block, 512)
    for n in (1, 4, 64, 256, 512):
        got = _increments(block, n)
        assert got.shape == (37, n, m)
        for b in range(37):
            assert np.array_equal(got[b], coarsen(fine[b], 512 // n))
    with pytest.raises(ValueError, match="does not divide"):
        next(block.windows(48, False))


@pytest.mark.parametrize("coarse, message", [
    ([16], "level 16 is below 1 or does not divide fine resolution 24"),
    ([8, 0], "level 0 is below 1"),
])
def test_make_block_draw_rejects_bad_coarse_levels(coarse, message):
    with pytest.raises(ValueError, match=message):
        make_block_draw(1, range(3), fine_n=24, m=1, horizon=1.0, coarse=coarse)


@pytest.mark.parametrize("variant", ["randomized_tamed", "classical"])
def test_simulate_paths_on_block_equals_on_draw_list(dw_model, jumps_unit, variant):
    kw = dict(fine_n=256, m=1, horizon=1.0, jump_model=jumps_unit,
              x0=lambda gen: 2.0 + gen.normal(size=1))
    block = make_block_draw(3, range(20), **kw)
    draws = [rt.make_path_draw(3, i, levels=[256, 64], **kw) for i in range(20)]
    for n in (256, 64):
        cfg = SchemeConfig(variant, n)
        got = simulate_paths(dw_model, cfg, block, jumps_unit.intensity)
        want = simulate_paths(dw_model, cfg, draws, jumps_unit.intensity)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.diverged_at, want.diverged_at)


def test_moment_probe_equals_reduction_over_per_key_draws(dw_model, jumps_unit, monkeypatch):
    # at x0 = 0.3 the sup is away from t = 0, so it sees every draw
    n_list, q, num_paths = [16, 64], 4.0, 50
    monkeypatch.setattr(harness, "MOMENT_BLOCK_SIZE", 16)
    got = moment_probe(dw_model, "randomized_tamed", n_list, q, num_paths, x0=0.3,
                       jump_model=jumps_unit, base_seed=8)
    draws = [_per_key_draw(8, i, 64, 1, dw_model.horizon, n_list, jumps_unit, np.array([0.3]))
             for i in range(num_paths)]
    for row, n in zip(got.rows, n_list):
        cfg = SchemeConfig("randomized_tamed", n)
        sums = np.zeros(n + 1)
        for lo in range(0, num_paths, 16):  # the probe's blocks, added in block order
            states = simulate_paths(dw_model, cfg, draws[lo:lo + 16], jumps_unit.intensity).states
            sums += (np.linalg.norm(states, axis=-1) ** q).sum(axis=0)
        per_point = sums / num_paths
        assert row.sup_moment == per_point.max()
        assert per_point.argmax() > 0
