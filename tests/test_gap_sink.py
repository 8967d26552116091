"""The taming gap probe as a chunk sink: the same rows, no kept trajectories.

``taming_gap_probe`` runs ``MOMENT_BLOCK_SIZE`` blocks, and the kernel hands
each chunk of states to a sink that adds up the gaps of the chunk's
(path, left point) pairs. Its rows must equal, up to summation order, the
probe's formulas evaluated over all paths as one whole array, whatever the
block size; and its allocation peak must stay below what whole-run arrays
would take.
"""

import tracemalloc

import numpy as np
import pytest

import rteuler as rt
from rteuler import harness
from rteuler.grid import TimeGrid
from rteuler.harness import GAP_MARK_SAMPLE, GAP_MAX_PAIRS, taming_gap_probe
from rteuler.rng import make_block_draw
from rteuler.scheme import SchemeConfig, simulate_paths, variant_is_randomized
from rteuler.taming import denominator


def _whole_array_rows(model, variant, n_list, p0, num_paths, x0, jump_model, base_seed):
    """Every row's three gaps from one block of all paths: each level stepped
    with all its points kept, each gap a ``nanmean`` over the whole array, and
    the jump gap over every stride-th pair of the flattened (path, step) array."""
    marks = np.asarray(jump_model.mark_sampler(np.random.default_rng(base_seed),
                                               GAP_MARK_SAMPLE), dtype=float)
    draws = make_block_draw(base_seed, range(num_paths), fine_n=max(n_list), m=model.dim_noise,
                            horizon=model.horizon, jump_model=jump_model, x0=x0, coarse=n_list)
    rows = {}
    for n in sorted(n_list, reverse=True):
        cfg, grid = SchemeConfig(variant, n), TimeGrid(n, model.horizon)
        phis = draws.phis[n]
        res = simulate_paths(model, cfg, draws, jump_model.intensity)
        x_left = res.states[:, :-1, :]
        ok = np.isfinite(x_left).all(axis=-1)
        t_left = grid.points()[:-1]
        if variant_is_randomized(variant):
            t_drift = grid.xis(phis.T).T[..., None]
        else:
            t_drift = np.broadcast_to(t_left[None, :, None], x_left.shape[:2] + (1,))
        dn = denominator(cfg.taming_for(model), x_left)
        shrink = np.where(ok, (dn - 1.0) / dn, np.nan)
        mu = np.linalg.norm(model.drift(t_drift, x_left, None), axis=-1)
        sig = model.diffusion(t_left[None, :, None], x_left, None)
        sig_norm = np.sqrt(np.sum(sig * sig, axis=(-2, -1)))
        flat_x = x_left.reshape(-1, model.dim_state)
        flat_t = np.broadcast_to(t_left[None, :], ok.shape).reshape(-1)
        stride = max(1, len(flat_x) // GAP_MAX_PAIRS)
        sx, st, ss = flat_x[::stride], flat_t[::stride], shrink.reshape(-1)[::stride]
        gam = model.jump(st[:, None, None], sx[:, None, :], marks[None, :, :], None)
        ez = np.mean(np.linalg.norm(gam, axis=-1) ** p0, axis=1)
        rows[n] = (np.nanmean((mu * shrink) ** p0), np.nanmean((sig_norm * shrink) ** p0),
                   np.nanmean(jump_model.intensity * ez * ss**p0))
    return [rows[n] for n in n_list]


@pytest.mark.parametrize("variant", ["randomized_tamed", "tamed"])
def test_gap_rows_equal_one_whole_array_block(dw_model, monkeypatch, variant):
    # 24 paths at n = 4096 give a jump stride of 3, and 4096 % 3 = 1, so which
    # steps a path samples depends on its index; blocks of 7 paths are uneven
    # (7, 7, 7, 3), so a per-block stride or per-block means would show
    args = (dw_model, variant, [1024, 4096], 2.0, 24)
    kwargs = dict(x0=2.0, jump_model=rt.normal_marks(1.0), base_seed=11)
    assert 24 * 4096 // GAP_MAX_PAIRS == 3
    monkeypatch.setattr(harness, "MOMENT_BLOCK_SIZE", 7)
    table = taming_gap_probe(*args, **kwargs)
    expected = _whole_array_rows(*args, **kwargs)
    for row, gaps in zip(table.rows, expected):
        assert all(g > 0.0 for g in gaps)
        np.testing.assert_allclose([row.drift_gap, row.diffusion_gap, row.jump_gap], gaps,
                                   rtol=1e-12, atol=0.0)


def test_gap_probe_peak_stays_below_one_whole_run_mark_array(dw_model):
    # one (GAP_MAX_PAIRS, GAP_MARK_SAMPLE) array of jump-mark evaluations is
    # 33.5 MB; the probe stepped as one block holding whole trajectories
    # peaked at 202 MB here, the chunk sink at 24.5 MB
    bound = GAP_MAX_PAIRS * GAP_MARK_SAMPLE * 8
    taming_gap_probe(dw_model, "randomized_tamed", [4, 8], 2.0, 2, jump_model=rt.normal_marks(1.0))
    tracemalloc.start()
    try:
        taming_gap_probe(dw_model, "randomized_tamed", [1024, 4096], 2.0, 200, x0=2.0,
                         jump_model=rt.normal_marks(1.0), base_seed=11)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"traced peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_gap_probe_peak_when_every_pair_is_picked(dw_model):
    # at n 64..256 the jump stride is 1, so every (path, left point) pair of a
    # chunk is picked: its marks, evaluated all at once, peaked at 114 MB here;
    # in slices of GAP_MAX_PAIRS // GAP_MARK_SAMPLE pairs the probe peaks near 20 MB
    taming_gap_probe(dw_model, "randomized_tamed", [4, 8], 2.0, 2, jump_model=rt.normal_marks(1.0))
    tracemalloc.start()
    try:
        taming_gap_probe(dw_model, "randomized_tamed", [2**k for k in range(6, 13)], 2.0, 200,
                         x0=2.0, jump_model=rt.normal_marks(1.0), base_seed=11)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40e6, f"traced peak {peak / 1e6:.1f} MB, bound 40 MB"
