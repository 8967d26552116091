"""Bounded block memory: the same bits from fewer live copies.

``moment_probe`` frees each block before the next and reduces every level in
column chunks. These tests pin it to the bits of the plain whole-array code
and bound the probe's traced allocation peak.
"""

import tracemalloc

import numpy as np

import rteuler as rt
from rteuler import BatchResult, harness, make_path_draw, simulate_paths
from rteuler.harness import _add_chunk, moment_probe
from rteuler.scheme import CHUNK as MOMENT_CHUNK, _chunks


def _add_moments(res: BatchResult, q: float, sums: np.ndarray) -> int:
    """``_add_chunk`` over the chunks of ``res.states`` (all points); returns
    the number of diverged paths."""
    for lo, hi in _chunks(res.states.shape[1] - 1):
        _add_chunk(q, sums, lo, res.states[:, lo:hi])
    return int(res.diverged.sum())


def _whole_array_sums(states, q):
    """The reduction moment_probe made before column chunks, in one pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(states, axis=-1)
        finite = np.isfinite(norms)
        powered = np.where(finite, norms, 0.0) ** q
    return powered.sum(axis=0), ~finite.all(axis=0)


def _whole_array_probe(model, variant, n_list, q, num_paths, x0, jump_model, seed, block):
    """moment_probe's table as the whole-array reduction computes it."""
    fine = max(n_list)
    randomized = variant in ("randomized_tamed", "randomized_untamed")
    sums = {n: np.zeros(n + 1) for n in n_list}
    bad = {n: np.zeros(n + 1, dtype=bool) for n in n_list}
    diverged = {n: 0 for n in n_list}
    for start in range(0, num_paths, block):
        draws = [
            make_path_draw(seed, i, fine_n=fine, m=model.dim_noise, horizon=model.horizon,
                           levels=n_list if randomized else [], jump_model=jump_model,
                           x0=np.array([x0]))
            for i in range(start, min(start + block, num_paths))
        ]
        for n in n_list:
            res = simulate_paths(model, rt.SchemeConfig(variant, n), draws,
                                 jump_model.intensity if jump_model else 0.0)
            s, b = _whole_array_sums(res.states, q)
            sums[n] += s
            bad[n] |= b
            diverged[n] += int(res.diverged.sum())
    return [
        (float(np.where(bad[n], np.inf, sums[n] / num_paths).max()), diverged[n] / num_paths)
        for n in n_list
    ]


def test_add_moments_equals_whole_array_reduction_bit_for_bit():
    rng = np.random.default_rng(11)
    # n + 1 = 2 * MOMENT_CHUNK + 1: equal chunks would leave a one-column chunk
    for n, d in ((2 * MOMENT_CHUNK, 1), (MOMENT_CHUNK + 5, 2), (3, 1), (1, 3)):
        for B in (1, 7, 300):
            states = rng.normal(size=(B, n + 1, d)) * 3.0
            if B > 1:
                states[1, n // 2 :] = np.inf
                states[B - 1, -1, 0] = np.nan
            res = BatchResult(states=states, diverged_at=np.full(B, -1))
            sums = np.zeros(n + 1)
            _add_moments(res, 4.0, sums)
            want_sums, want_bad = _whole_array_sums(states, 4.0)
            assert np.array_equal(sums[~want_bad], want_sums[~want_bad])
            assert not np.isfinite(sums[want_bad]).any()


def test_moment_probe_equals_whole_array_reduction(dw_model, jumps_unit, monkeypatch):
    # x0 = 0.3 puts the sup away from t = 0; n = 256 spans several chunks
    n_list = [64, 2 * MOMENT_CHUNK]
    monkeypatch.setattr(harness, "MOMENT_BLOCK_SIZE", 64)
    got = moment_probe(dw_model, "randomized_tamed", n_list, 4.0, 150, x0=0.3,
                       jump_model=jumps_unit, base_seed=4)
    want = _whole_array_probe(dw_model, "randomized_tamed", n_list, 4.0, 150, 0.3,
                              jumps_unit, 4, 64)
    assert [(r.sup_moment, r.diverged_frac) for r in got.rows] == want
    assert got.rows[-1].sup_moment != 0.3**4


def test_moment_probe_equals_whole_array_reduction_when_diverging(dw_model, jumps_unit,
                                                                  monkeypatch):
    # classical Euler from x0 = 9 blows up at n = 8 and 16 but not at 32
    n_list = [8, 16, 32]
    monkeypatch.setattr(harness, "MOMENT_BLOCK_SIZE", 8)
    got = moment_probe(dw_model, "classical", n_list, 4.0, 20, x0=9.0,
                       jump_model=jumps_unit, base_seed=5)
    want = _whole_array_probe(dw_model, "classical", n_list, 4.0, 20, 9.0, jumps_unit, 5, 8)
    assert [(r.sup_moment, r.diverged_frac) for r in got.rows] == want
    assert [r.sup_moment == np.inf for r in got.rows] == [True, True, False]


def test_moment_probe_inf_rows_are_the_levels_the_kernel_flags(jumps_unit, monkeypatch):
    # classical Euler on dx = -x^3 dt from x0 = 10 blows up at n = 16 only;
    # n = 256 spans several chunks
    model = rt.scalar_model(lambda t, x: -(x**3), zeta=2.0, name="cubic-decay")
    n_list = [16, 64, 2 * MOMENT_CHUNK]
    monkeypatch.setattr(harness, "MOMENT_BLOCK_SIZE", 64)
    got = moment_probe(model, "classical", n_list, 4.0, 150, x0=10.0,
                       jump_model=jumps_unit, base_seed=4)
    want = _whole_array_probe(model, "classical", n_list, 4.0, 150, 10.0, jumps_unit, 4, 64)
    assert [(r.sup_moment, r.diverged_frac) for r in got.rows] == want
    assert [(r.sup_moment == np.inf, r.diverged_frac) for r in got.rows] == [
        (True, 1.0), (False, 0.0), (False, 0.0)]


def test_moment_probe_is_inf_where_a_finite_state_has_an_overflowing_norm():
    # a 2-d state of finite entries near 1e200, whose norm overflows, is no
    # divergence, yet its moment is infinite
    model = rt.CoefficientSet(
        dim_state=2, dim_noise=1,
        drift=lambda t, x, env=None: 1e200 + 0.0 * x,
        diffusion=lambda t, x, env=None: np.zeros(x.shape + (1,)),
        jump=lambda t, x, z, env=None: np.zeros_like(x),
    )
    table = moment_probe(model, "classical", [8], 4.0, 3, x0=np.array([1.0, 1.0]))
    assert [(r.sup_moment, r.diverged_frac) for r in table.rows] == [(np.inf, 0.0)]


def test_moment_probe_sums_paths_in_order_then_blocks_in_order(dw_model, monkeypatch):
    # each block sums |x_k|^q over its paths in path order and the block sums
    # are added in block order, so the last digits depend on the block size
    n, q, num_paths, jumps = 64, 4.0, 30, rt.normal_marks(1.0)
    draws = [make_path_draw(1, i, fine_n=n, m=1, horizon=1.0, levels=[n], jump_model=jumps,
                            x0=np.array([0.3])) for i in range(num_paths)]
    states = simulate_paths(dw_model, rt.SchemeConfig("randomized_tamed", n), draws, 1.0).states
    powered = np.linalg.norm(states, axis=-1) ** q

    def by_hand(block):
        sums = np.zeros(n + 1)
        for lo in range(0, num_paths, block):
            part = np.zeros(n + 1)
            for row in powered[lo : lo + block]:
                part = part + row
            sums = sums + part
        return float((sums / num_paths).max())

    def probe(block):
        monkeypatch.setattr(harness, "MOMENT_BLOCK_SIZE", block)
        table = moment_probe(dw_model, "randomized_tamed", [n], q, num_paths, x0=0.3,
                             jump_model=jumps, base_seed=1)
        return table.rows[0].sup_moment

    sups = {block: probe(block) for block in (7, num_paths)}
    assert sups == {block: by_hand(block) for block in sups}
    assert sups[7] != sups[num_paths] and sups[7] != 0.3**q


def test_moment_probe_peak_holds_one_block_of_draws(dw_model, monkeypatch):
    n_list, block = [256, 512, 1024], 128
    one = make_path_draw(0, 0, fine_n=1024, m=1, horizon=1.0, levels=n_list,
                         x0=np.array([2.0]))
    draw_bytes = block * (one.fine_increments.nbytes + one.x0.nbytes
                          + sum(p.nbytes for p in one.phis.values()))
    state_bytes = block * (max(n_list) + 1) * 8  # one level's (B, n+1, 1) states
    monkeypatch.setattr(harness, "MOMENT_BLOCK_SIZE", 1)
    moment_probe(dw_model, "randomized_tamed", [8], 4.0, 2)  # warm-up
    monkeypatch.setattr(harness, "MOMENT_BLOCK_SIZE", block)
    tracemalloc.start()
    try:
        moment_probe(dw_model, "randomized_tamed", n_list, 4.0, 2 * block, x0=0.3,
                     base_seed=3)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # live at peak: one block's draws plus one level's increments, randomizers
    # and states (about 3.4 state sizes with bookkeeping); holding two blocks'
    # draws, or two levels' results, exceeds this
    assert peak < draw_bytes + 4 * state_bytes
