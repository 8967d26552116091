import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rteuler as rt
from rteuler import StreamKey, StreamTag, brownian_increments, coarsen, jump_path


def test_brownian_determinism():
    key = StreamKey(123, 7, StreamTag.BROWNIAN)
    a = brownian_increments(key, 64, 2, 1.0)
    b = brownian_increments(key, 64, 2, 1.0)
    assert np.array_equal(a, b)
    c = brownian_increments(StreamKey(123, 8, StreamTag.BROWNIAN), 64, 2, 1.0)
    assert not np.array_equal(a, c)


def test_brownian_statistics():
    # unit-variance increments: horizon equal to the step count
    n = 1_000_000
    inc = brownian_increments(StreamKey(5, 0, StreamTag.BROWNIAN), n, 1, float(n))
    assert abs(inc.mean()) < 4e-3  # 4 sigma CLT bound at 1e6 samples
    assert abs(inc.var() - 1.0) < 0.01


def test_brownian_variance_scaling():
    inc = brownian_increments(StreamKey(5, 1, StreamTag.BROWNIAN), 250_000, 1, 1.0)
    assert abs(inc.var() * 250_000 - 1.0) < 0.02


def test_coarsen_examples():
    a = np.array([[1.0], [2.0], [3.0], [4.0]])
    assert np.array_equal(coarsen(a, 2), np.array([[3.0], [7.0]]))
    assert np.array_equal(coarsen(a, 1), a)
    assert np.array_equal(coarsen(a, 4), np.array([[10.0]]))
    with pytest.raises(ValueError):
        coarsen(a, 3)


@settings(max_examples=50)
@given(
    logn=st.integers(2, 10),
    a=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_coarsen_telescopes(logn, a, seed):
    n = 2**logn * a
    x = np.random.default_rng(seed).normal(size=(n, 2))
    b = n // a // 2
    lhs = coarsen(coarsen(x, a), b)
    rhs = coarsen(x, a * b)
    scale = np.max(np.abs(rhs)) or 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_jump_path_trivials():
    key = StreamKey(9, 3, StreamTag.JUMPS)
    sampler = lambda gen, size: gen.normal(size=(size, 1))
    times, marks = jump_path(key, 0.0, 1.0, sampler)
    assert len(times) == 0
    t1, m1 = jump_path(key, 2.0, 1.0, sampler)
    t2, m2 = jump_path(key, 2.0, 1.0, sampler)
    assert np.array_equal(t1, t2) and np.array_equal(m1, m2)
    assert np.all(np.diff(t1) >= 0)
    assert np.all((t1 > 0) & (t1 <= 1.0))


def test_jump_path_poisson_mean():
    counts = [
        len(jump_path(StreamKey(11, i, StreamTag.JUMPS), 1.0, 1.0,
                      lambda gen, size: gen.normal(size=(size, 1)))[0])
        for i in range(100_000)
    ]
    mean = np.mean(counts)
    # 3 sigma band for Poisson(1) at 1e5 samples, well inside +-0.02
    assert abs(mean - 1.0) < 3.0 / math.sqrt(100_000)


def test_substream_independence():
    n = 100_000
    a = StreamKey(77, 0, StreamTag.BROWNIAN).generator().normal(size=n)
    b = StreamKey(77, 0, StreamTag.JUMPS).generator().normal(size=n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(n)


def test_path_draw_is_pure_function_of_seed_and_index(jumps_unit):
    kwargs = dict(fine_n=128, m=1, horizon=1.0, levels=[128, 32],
                  jump_model=jumps_unit, x0=np.array([2.0]))
    d1 = rt.make_path_draw(3, 5, **kwargs)
    d2 = rt.make_path_draw(3, 5, **kwargs)
    assert np.array_equal(d1.fine_increments, d2.fine_increments)
    assert np.array_equal(d1.jump_times, d2.jump_times)
    assert np.array_equal(d1.jump_marks, d2.jump_marks)
    for n in (128, 32):
        assert np.array_equal(d1.phis[n], d2.phis[n])
    d3 = rt.make_path_draw(3, 6, **kwargs)
    assert not np.array_equal(d1.fine_increments, d3.fine_increments)


def test_phis_lie_in_half_open_interval(jumps_unit):
    d = rt.make_path_draw(1, 0, fine_n=4096, m=1, horizon=1.0, levels=[4096],
                          jump_model=jumps_unit, x0=np.array([0.0]))
    phi = d.phis[4096]
    assert phi.min() > 0.0
    assert phi.max() <= 1.0


def test_randomizers_independent_across_levels():
    d = rt.make_path_draw(1, 0, fine_n=64, m=1, horizon=1.0, levels=[64, 32],
                          x0=np.array([0.0]))
    assert not np.array_equal(d.phis[64][:32], d.phis[32])


def test_sampled_x0():
    d = rt.make_path_draw(1, 0, fine_n=4, m=1, horizon=1.0, levels=[4],
                          x0=lambda gen: gen.normal(size=1))
    d2 = rt.make_path_draw(1, 0, fine_n=4, m=1, horizon=1.0, levels=[4],
                           x0=lambda gen: gen.normal(size=1))
    assert np.array_equal(d.x0, d2.x0)
