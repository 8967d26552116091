"""The draw layer in 2 MB windows: the same bits at any window budget.

A block's Brownian increments and drift randomizers are served in windows of
at most ``rng.WINDOW_DRAWS`` draws. These tests check the short coarse sums
against numpy's reduction bit for bit, every window budget against the
per-key functions (``brownian_increments``, ``coarsen``,
``uniform_open_closed`` on ``StreamKey(...).generator()``), and bound a study
block's traced peak by what it must hold. They also pin ``rng._rekey`` to
fresh streams and count the generators a block builds.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rteuler import StreamKey, StreamTag, brownian_increments, coarsen, rng
from rteuler.harness import StudyConfig, _study_block
from rteuler.rng import _coarse_sums, make_block_draw, uniform_open_closed
from rteuler.scheme import SLICE

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
           -1e-310, 1e300, -1e300, 1.0, -1.0, 1e16]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(
    f=st.integers(1, 256),
    m=st.sampled_from([1, 2]),
    rows=st.integers(1, 3),
    cells=st.integers(1, 3),
    pool=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(width=64)), min_size=1,
                  max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
@example(f=3, m=1, rows=1, cells=2, pool=[-0.0], seed=0)  # all terms -0.0
@example(f=8, m=1, rows=2, cells=1, pool=[1e16, 1.0, -1e16, -1.0, 3.0], seed=1)
def test_coarse_sums_equal_reduction_bit_for_bit(f, m, rows, cells, pool, seed):
    values = np.random.default_rng(seed).choice(np.array(pool), size=(rows, cells * f + 5, m))
    for part in (values[:, : cells * f].copy(), values[:, : cells * f]):  # also a strided view
        with np.errstate(invalid="ignore", over="ignore"):
            got = _coarse_sums(part, f)
            want = part.reshape(rows, cells, f, m).sum(axis=2)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("f", [2, 3, 7, 8])
def test_coarse_sums_keep_the_reductions_zero_sign_and_order(f):
    # a group of -0.0 sums to +0.0; at f = 8 the accumulators' pairing shows:
    # (1e16 + 1) + (-1e16 + 1) is 0, a sequential sum 1, (1e16 - 1e16) + (1 + 1) 2
    part = np.full((1, f, 1), -0.0)
    assert np.array_equal(_bits(_coarse_sums(part, f)), _bits(np.zeros((1, 1, 1))))
    terms = np.array([1e16, 1.0, -1e16, 1.0, 0.0, 0.0, 0.0, 0.0])[:f].reshape(1, f, 1)
    assert _coarse_sums(terms, f)[0, 0, 0] == terms.reshape(1, 1, f, 1).sum(axis=2)[0, 0, 0]


def _windows(block, n: int, randomized: bool):
    """Level n's (increments (B, n, m), randomizers (B, n)) from the block's windows."""
    parts = [(dW.copy(), None if phi is None else phi.copy())
             for _, dW, phi in block.windows(n, randomized)]
    dW = np.concatenate([p[0] for p in parts]).transpose(1, 0, 2)
    return dW, np.concatenate([p[1] for p in parts]).T if randomized else None


@pytest.mark.parametrize("budget", [1 << 12, 1 << 16, 1 << 20])
@pytest.mark.parametrize("m", [1, 2])
def test_windows_at_any_budget_equal_per_key_functions(budget, m, monkeypatch):
    # 100 rows get windows of 128, 512 and 1024 cells, or on the 3-adic ladder
    # 108, 432 and 972 (whole lots of 4 * 27 cells); the factors 2, 3 and 8
    # take the strided sums, 9, 27, 32 and 256 the reshaped ones
    monkeypatch.setattr(rng, "WINDOW_DRAWS", budget)
    seed, paths = 2**40 + 9, range(5, 105)
    assert rng._window(len(paths)) == {1 << 12: 128, 1 << 16: 512, 1 << 20: 1024}[budget]
    for fine_n, levels in [(2048, [1024, 256, 64, 8]), (2187, [729, 243, 81])]:
        block = make_block_draw(seed, paths, fine_n=fine_n, m=m, horizon=1.5, coarse=levels)
        fine = {i: brownian_increments(StreamKey(seed, i, StreamTag.BROWNIAN), fine_n, m, 1.5)
                for i in paths}
        for n in [fine_n] + levels:
            dW, phi = _windows(block, n, randomized=True)
            for b, i in enumerate(paths):
                assert np.array_equal(dW[b], coarsen(fine[i], fine_n // n))
                key = StreamKey(seed, i, StreamTag.RANDOMIZER, n)
                assert np.array_equal(phi[b], uniform_open_closed(key.generator(), n))


@pytest.mark.parametrize("budget", [1 << 12, 1 << 16, 1 << 20])
def test_randomizer_reads_that_start_mid_level_equal_per_key_functions(budget, monkeypatch):
    monkeypatch.setattr(rng, "WINDOW_DRAWS", budget)
    seed, paths, n = 17, range(3, 40), 4096
    phis = make_block_draw(seed, paths, fine_n=n, m=1, horizon=1.0).phis
    want = np.stack([uniform_open_closed(StreamKey(seed, i, StreamTag.RANDOMIZER, n).generator(),
                                         n) for i in paths])
    # first read at lo > 0, then the window after it (carried), then back to 0
    for lo, w in [(1024, 256), (1280, 512), (0, 132), (2048, 4), (4092, 4)]:
        got = phis.window(n, lo, np.empty((w, len(paths))))
        assert np.array_equal(got.T, want[:, lo : lo + w])
    assert np.array_equal(phis[n], want)


def _study_block_peak_and_bound(levels: tuple, reference_n: int) -> tuple[int, int]:
    """The traced peak of a 500-row, 1-d study block on ``levels``, and the
    most it must hold: every coarse level's increments and two 2 MB windows."""
    B, m = 500, 1
    cfg = StudyConfig(levels=levels, reference_n=reference_n, num_paths=B, base_seed=3)
    coarse_bytes = B * sum(levels) * m * 8  # every coarse level's (n, B, m) increments
    window_bytes = 2 * (1 << 18) * 8  # a window of increments and one of randomizers, 2 MB each
    chunk_bytes = B * (SLICE + 1) * 8  # the kernel's (B, SLICE + 1, d) state buffer
    slack = 3 << 20  # carried generators, 64-row fill buffers, per-cell temporaries
    _study_block(StudyConfig(levels=(4, 8, 16), reference_n=32, num_paths=1), range(1))
    tracemalloc.start()
    try:
        _study_block(cfg, range(B))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, coarse_bytes + window_bytes + chunk_bytes + slack


def test_study_block_peak_holds_coarse_increments_and_two_2mb_windows():
    peak, bound = _study_block_peak_and_bound((64, 128, 256, 512, 1024), 4096)
    # windows of twice that budget (1024 cells at 500 rows) exceed the bound
    assert peak < bound


def test_study_block_on_a_3_adic_ladder_keeps_its_windows_within_the_budget():
    # the factors 81, 27, 9 and 3 share no factor with the 512-cell window of
    # 500 rows: the window is one lot of 4 * 81 = 324 cells; a window of whole
    # lots of 512 cells would be at least lcm(512, 81) cells, the whole path
    peak, bound = _study_block_peak_and_bound((81, 243, 729, 2187), 6561)
    assert peak < bound


def _dirty(gen: np.random.Generator) -> np.random.Generator:
    """``gen`` after draws that advance its counter, leave its buffer half used
    and keep the high half of a word for the next uint32 draw."""
    gen.random(5)
    gen.integers(0, 2**32, dtype=np.uint32)
    state = gen.bit_generator.state
    assert state["state"]["counter"][0] > 0 and 0 < state["buffer_pos"] < 4
    assert state["has_uint32"] == 1
    return gen


def _mixed_draws(gen: np.random.Generator) -> list:
    return [gen.integers(0, 2**32, size=3, dtype=np.uint32), gen.random(7),
            gen.standard_normal(9), gen.integers(0, 2**32, size=2, dtype=np.uint32)]


@pytest.mark.parametrize("counter", [0, 1, 5, 1023])
def test_rekey_of_a_dirty_generator_gives_a_fresh_stream(counter):
    seed, paths = 2**33 + 5, [0, 7, 2**32 - 1]
    keys = rng._philox_keys(seed, (paths, [StreamTag.RANDOMIZER] * 3, [64] * 3))
    gens = rng._rekey([_dirty(g) for g in rng._rekey([], keys[::-1])], keys, counter)
    for gen, i in zip(gens, paths):
        fresh = StreamKey(seed, i, StreamTag.RANDOMIZER, 64).generator()
        if counter:  # a stream at counter c is the per-key stream from double 4c on
            fresh.random(4 * counter)
        for got, want in zip(_mixed_draws(gen), _mixed_draws(fresh)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("levels", [(64, 16, 4), (1024, 512, 256, 128, 64, 32, 16)])
def test_a_block_builds_two_generators_per_row_and_one_more(levels, monkeypatch):
    built = []

    class Philox(np.random.Philox):  # its state setter wants the class named Philox
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", Philox)
    B, fine_n = 37, max(levels)
    block = make_block_draw(5, range(100, 100 + B), fine_n=fine_n, m=1, horizon=1.0,
                            jump_model=rng.normal_marks(2.0), x0=lambda gen: gen.normal(size=1),
                            coarse=levels)
    for n in levels + levels[::-1]:  # every level, fine first, then each read again
        _windows(block, n, randomized=True)
    block.phis.window(fine_n, 4, np.empty((8, B)))  # a read that starts mid-level
    assert len(built) <= 2 * B + 1
