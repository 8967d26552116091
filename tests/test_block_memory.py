"""Bounded block memory: the same bits from fewer live copies.

``moment_probe`` frees each block before the next and reduces every level in
the 16-point chunks the kernel hands its sink. These tests pin it to the bits
of the plain whole-array code and bound the probe's, one chunk's and a
single path's traced allocation peaks.
"""

import tracemalloc

import numpy as np
import pytest

import rteuler as rt
from rteuler import BatchResult, harness, make_path_draw, rng, simulate_path, simulate_paths
from rteuler.harness import _add_chunk, moment_probe
from rteuler.rng import make_block_draw
from rteuler.scheme import _chunks


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
    # n + 1 = 257: equal 16-point chunks would leave a one-column chunk
    for n, d in ((256, 1), (133, 2), (3, 1), (1, 3)):
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
    n_list = [64, 256]
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
    n_list = [16, 64, 256]
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
        jump=lambda t, x, z, env=None: np.zeros_like(x), jump_compensator_mean=None,
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


def _norm_sums(q: float, chunk: np.ndarray) -> np.ndarray:
    """The sums over paths of ``np.linalg.norm(chunk, axis=-1) ** q``, whole."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.linalg.norm(chunk, axis=-1) ** q).sum(axis=0)


def test_add_chunk_slices_give_the_bits_of_whole_chunk_norms():
    # the one-pass reduction of any width the sink may be given, including the
    # kernel's 16- and 17-point chunks; d = 9 sums each norm with numpy's unrolled loop
    rng = np.random.default_rng(5)
    for w in (2, 16, 17, 18, 33, 129):
        for d in (1, 2, 9):
            for B in (1, 2, 300):
                buf = rng.normal(size=(B, w + 3, d)) * 10.0 ** rng.integers(-200, 200, (B, 1, d))
                buf[0, w // 2, 0] = np.inf
                buf[-1, -4, -1] = np.nan
                chunk = buf[:, :w]  # the kernel hands the sink a view of its buffer
                sums = np.zeros(w + 2)
                _add_chunk(4.0, sums, 2, chunk)
                want = _norm_sums(4.0, chunk)
                assert np.array_equal(sums[2:].view(np.uint64), want.view(np.uint64))


def _run_moment_level(sink):
    """Step a 2048-row moment level under ``tracemalloc``, with ``sink(lo, x)``
    as its ``on_chunk``; returns the ``lo`` of every call."""
    model, B, n = rt.double_well_model(), 2048, 256
    block = make_block_draw(5, range(B), fine_n=n, m=1, horizon=model.horizon, x0=2.0)
    seen = []

    def on_chunk(lo, x):
        seen.append(lo)
        sink(lo, x)

    tracemalloc.start()
    try:
        simulate_paths(model, rt.SchemeConfig("tamed", n), block, keep=slice(0),
                       on_chunk=on_chunk)
    finally:
        tracemalloc.stop()
    assert [lo for lo, _hi in _chunks(n)] == seen
    return seen


def test_add_chunk_makes_no_chunk_sized_temporary():
    # the kernel steps and hands the moment sink 16-point chunks, so no sink
    # call makes a (B, 129) array: its norms alone are 2.1 MB
    sums, peaks = np.zeros(257), []

    def sink(lo, x):
        before, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _add_chunk(4.0, sums, lo, x)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)

    _run_moment_level(sink)
    assert max(peaks) < 1 << 20


def test_add_chunk_frees_each_slice_before_the_next():
    # the sink keeps nothing from one chunk to the next: one chunk's x * x and
    # norms are 0.26 MB each (the last chunk is 17 wide), and a third, such
    # as a previous chunk's norms, would take the peak to 0.78 MB
    sums, peaks, kept = np.zeros(257), [], []

    def sink(lo, x):
        base, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _add_chunk(4.0, sums, lo, x)
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - base)
        kept.append(current - base)

    _run_moment_level(sink)
    assert max(peaks) < 0.6 * (1 << 20)
    assert max(kept) < 1 << 16


class _Cut(Exception):
    pass


def _simulate_path_peak_per_step() -> float:
    """The traced peak of ``simulate_path`` at n = 2^18, in bytes a step, with
    the draw made before tracing. Every array that grows with n is made before
    cell 1, so the run is cut after four windows of cells."""
    n, calls = 1 << 18, [0]

    def drift(t, x):
        calls[0] += 1
        if calls[0] > 4 * rng.WINDOW:
            raise _Cut
        return -x

    model = rt.scalar_model(drift, lambda t, x: 0.5 + 0.0 * x, name="ou")
    draw = make_path_draw(3, 0, fine_n=n, m=1, horizon=model.horizon, levels=[n],
                          jump_model=rt.normal_marks(1.0), x0=0.3)
    tracemalloc.start()
    try:
        with pytest.raises(_Cut):
            simulate_path(model, rt.SchemeConfig("randomized_tamed", n), draw, 1.0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / n


def test_simulate_path_holds_no_second_copy_of_its_draw():
    # the caller holds the draw (16 bytes a step: increments and randomizers);
    # the kernel's one-row block views them, where stacked copies would add 16
    assert _simulate_path_peak_per_step() < 24


def test_simulate_path_peak_is_its_states_alone():
    # the states take 8 bytes a step; finding the jumps' cells from n-long
    # right edges took 16 more, and a list of the chunks' bounds about 1
    assert _simulate_path_peak_per_step() < 10
