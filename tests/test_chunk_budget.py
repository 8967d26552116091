"""The kernel's state chunk: ``SLICE`` points, the same bits, a bounded buffer.

``scheme._run`` steps a block's states in the chunks ``_chunks(n)`` gives,
``SLICE`` points each, and hands each whole chunk to its sink. The points a
caller keeps must equal the matching columns of the all-points run bit for
bit, and a wide block's chunk buffer must stay near its (B, SLICE + 1, d)
size.
"""

import tracemalloc
from functools import partial

import numpy as np

import rteuler as rt
from rteuler.harness import _add_chunk
from rteuler.rng import make_block_draw
from rteuler.scheme import SLICE, SchemeConfig, _chunks


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_kept_points_and_divergence_hold_at_every_width():
    # classical Euler on x' = x^2 from x0 spread over (0.5, 3): rows blow up
    # at steps spread over the grid while others stay finite
    model = rt.scalar_model(lambda t, x: x**2, lambda t, x: 0.1 + 0.0 * x, name="explosive")
    B, n, cfg = 300, 257, SchemeConfig("classical", 257)
    block = make_block_draw(17, range(B), fine_n=n, m=1, horizon=model.horizon,
                            jump_model=rt.normal_marks(2.0), x0=lambda gen: gen.uniform(0.5, 3.0))
    full = rt.simulate_paths(model, cfg, block, 2.0)
    assert full.diverged_at.max() > 128 and (full.diverged_at < 0).any()
    for keep in (slice(-1, None), slice(None, None, 3), slice(0)):
        res = rt.simulate_paths(model, cfg, block, 2.0, keep=keep)
        assert _bits(res.states) == _bits(full.states[:, keep])
        assert _bits(res.diverged_at) == _bits(full.diverged_at)
    seen = []
    res = rt.simulate_paths(model, cfg, block, 2.0, keep=slice(0),
                            on_chunk=lambda lo, x: seen.append((lo, lo + x.shape[1])))
    assert seen == list(_chunks(n))
    assert _bits(res.diverged_at) == _bits(full.diverged_at)


def test_wide_level_peak_stays_near_the_chunk_budget():
    # one moments-wide level: 2048 rows, its increments kept by the fine pass
    # and no randomizer window (a tamed variant), reduced by the moment sink;
    # a (2048, 129, 1) buffer of 128-point chunks alone is 2.1 MB
    model, B, n = rt.double_well_model(), 2048, 256
    block = make_block_draw(5, range(B), fine_n=2 * n, m=1, horizon=model.horizon,
                            jump_model=rt.normal_marks(1.0), x0=2.0, coarse=(n,))
    rt.simulate_paths(model, SchemeConfig("tamed", 2 * n), block, 1.0, keep=slice(0))
    sums = np.zeros(n + 1)
    tracemalloc.start()
    try:
        rt.simulate_paths(model, SchemeConfig("tamed", n), block, 1.0, keep=slice(0),
                          on_chunk=partial(_add_chunk, 4.0, sums))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_bytes = B * (SLICE + 1) * 8  # the (B, SLICE + 1, d) buffer
    sink_bytes = 2 * B * (SLICE + 1) * 8  # the moment sink's (B, SLICE) arrays
    slack = 1 << 19  # per-cell (B, 1) temporaries, the jump events, the chunk's checks
    assert chunk_bytes < 300_000
    assert peak < chunk_bytes + sink_bytes + slack < B * 129 * 8
