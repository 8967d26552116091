"""The kernel's state chunk under a byte budget: narrower chunks, the same bits.

``scheme._run`` steps a block's states into chunks of ``_chunk_width(B * d)``
grid points: ``CHUNK``, halved while a chunk would hold more than
``CHUNK_STATES`` states, down to ``SLICE``. Every sink gets the same
``SLICE``-point slices of the states at any width, so each output must equal
the 128-point run bit for bit, and a wide block's chunk buffer must stay near
the budget.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest

import rteuler as rt
from rteuler import scheme
from rteuler.harness import (StudyConfig, _add_chunk, _study_block, moment_probe,
                             taming_gap_probe)
from rteuler.rng import make_block_draw
from rteuler.scheme import CHUNK, CHUNK_STATES, SLICE, SchemeConfig, _chunk_width, _chunks

WIDTHS = (16, 32, 64, 128)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _at_width(monkeypatch, rows: int, width: int):
    """Set the budget so that a block of ``rows`` one-dimensional paths steps
    in chunks of ``width`` points."""
    monkeypatch.setattr(scheme, "CHUNK_STATES", rows * width)
    assert _chunk_width(rows) == width


@pytest.mark.parametrize("states, width", [
    (1, CHUNK), (256, CHUNK), (257, 64), (500, 64), (1000, 32), (1024, 32), (2048, SLICE),
    (10**6, SLICE),
])
def test_width_is_chunk_halved_within_the_budget_down_to_slice(states, width):
    assert CHUNK_STATES == 1 << 15
    assert _chunk_width(states) == width


def test_moment_rows_hold_their_bits_at_every_width(monkeypatch):
    model, B = rt.double_well_model(), 300

    def rows(width):
        _at_width(monkeypatch, B, width)
        table = moment_probe(model, "randomized_tamed", [40, 120, 240], 4.0, B, x0=0.3,
                             jump_model=rt.normal_marks(1.0), base_seed=7)
        return [(r.n, _bits(np.float64(r.sup_moment)), r.diverged_frac) for r in table.rows]

    want = rows(CHUNK)
    for width in WIDTHS:
        assert rows(width) == want


@pytest.mark.parametrize("error_time", ["terminal", "max_over_grid"])
def test_study_block_holds_its_bits_at_every_width(monkeypatch, error_time):
    B = 260
    cfg = StudyConfig(levels=(25, 50, 100), reference_n=400, num_paths=B, p_list=(1, 2),
                      variants=("randomized_tamed", "classical"), x0=0.3, base_seed=31,
                      error_time=error_time)

    def block(width):
        _at_width(monkeypatch, B, width)
        return {key: _bits(value) for key, value in _study_block(cfg, range(B)).items()}

    want = block(CHUNK)
    for width in WIDTHS:
        assert block(width) == want


def test_gap_rows_hold_their_bits_at_every_width(monkeypatch):
    model, B = rt.double_well_model(), 300

    def rows(width):
        _at_width(monkeypatch, B, width)
        table = taming_gap_probe(model, "randomized_tamed", [40, 120, 240], 2.0, B, x0=2.0,
                                 jump_model=rt.normal_marks(1.0), base_seed=3)
        assert all(r.jump_gap > 0.0 for r in table.rows)
        return [_bits(np.array([r.drift_gap, r.diffusion_gap, r.jump_gap])) for r in table.rows]

    want = rows(CHUNK)
    for width in WIDTHS:
        assert rows(width) == want


def test_kept_points_and_divergence_hold_at_every_width(monkeypatch):
    # classical Euler on x' = x^2 from x0 spread over (0.5, 3): rows blow up
    # at steps spread over the grid while others stay finite
    model = rt.scalar_model(lambda t, x: x**2, lambda t, x: 0.1 + 0.0 * x, name="explosive")
    B, n, cfg = 300, 257, SchemeConfig("classical", 257)
    block = make_block_draw(17, range(B), fine_n=n, m=1, horizon=model.horizon,
                            jump_model=rt.normal_marks(2.0), x0=lambda gen: gen.uniform(0.5, 3.0))

    def runs(width):
        _at_width(monkeypatch, B, width)
        seen = []
        out = [rt.simulate_paths(model, cfg, block, 2.0, keep=keep)
               for keep in (slice(None), slice(-1, None), slice(None, None, 3))]
        out.append(rt.simulate_paths(model, cfg, block, 2.0, keep=slice(0), on_chunk=lambda
                                     lo, x: seen.append((lo, lo + x.shape[1]))))
        assert seen == _chunks(n, SLICE)
        return [(_bits(res.states), _bits(res.diverged_at)) for res in out]

    want = runs(CHUNK)
    diverged_at = np.frombuffer(want[0][1], dtype=int)
    assert diverged_at.max() > CHUNK and (diverged_at < 0).any()
    for width in WIDTHS:
        assert runs(width) == want


def test_a_sink_summing_its_whole_input_holds_its_bits_at_every_width(monkeypatch):
    # np.nansum over all it is given, as the gap sink once summed each chunk:
    # pairwise sums of whole chunks would round differently at each width
    model, B, n = rt.double_well_model(), 300, 257
    block = make_block_draw(9, range(B), fine_n=n, m=1, horizon=model.horizon,
                            jump_model=rt.normal_marks(1.0), x0=lambda gen: gen.normal())

    def total(width):
        _at_width(monkeypatch, B, width)
        sums = []
        rt.simulate_paths(model, SchemeConfig("randomized_tamed", n), block, 1.0,
                          keep=slice(0), on_chunk=lambda lo, x: sums.append(np.nansum(x)))
        return _bits(np.array(sums))

    want = total(CHUNK)
    for width in WIDTHS:
        assert total(width) == want


def test_wide_level_peak_stays_near_the_chunk_budget():
    # one moments-wide level: 2048 rows, its increments kept by the fine pass
    # and no randomizer window (a tamed variant), reduced by the moment sink;
    # a (2048, CHUNK + 1, 1) buffer of 128-point chunks alone is 2.1 MB
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
    chunk_bytes = B * (_chunk_width(B) + 1) * 8  # CHUNK_STATES states and one more point
    sink_bytes = 2 * B * (SLICE + 1) * 8  # the moment sink's (B, SLICE) slices
    slack = 1 << 19  # per-cell (B, 1) temporaries, the jump events, the chunk's checks
    assert chunk_bytes < 300_000
    assert peak < chunk_bytes + sink_bytes + slack < B * (CHUNK + 1) * 8
