"""The kernel's per-cell arithmetic, bit for bit.

``scheme._arm`` computes the taming scale n^(-n_power) once per run and the
kernel divides by ``taming._denominator(scale, x_power, x)``; with one noise
dimension it forms the diffusion term as a product instead of an einsum.
Both must give the bits of the direct formulas: the public
``taming.denominator``, the norm power as a ``np.where`` on the norm, and
``np.einsum("...dm,...m->...d")``, on every non-NaN value, signed zeros
included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rteuler as rt
from rteuler import TamingConfig, scheme, taming

INF = float("inf")
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1.0, -1.5,
           1e150, -1e300, 1e300, INF, -INF]
COMPONENT = st.one_of(st.sampled_from(SPECIAL),
                      st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


def _states(d: int):
    return st.lists(st.lists(COMPONENT, min_size=d, max_size=d), min_size=1, max_size=6)


STATES = st.integers(1, 3).flatmap(_states).map(lambda rows: np.array(rows, dtype=float))
TAMINGS = st.builds(TamingConfig, n=st.integers(1, 10**6), zeta=st.just(0.0),
                    n_power=st.sampled_from([0.5, 0.75, 1.0, 1.7]),
                    x_power=st.sampled_from([0.0, 1e-300, 3.0, 40.0]))


def _direct_denominator(cfg: TamingConfig, x: np.ndarray) -> np.ndarray:
    """1 + n^(-n_power) |x|^(x_power), with |x|^(x_power) set to 0 at x = 0 by np.where."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = np.sqrt(np.add.reduce(x * x, axis=-1))
        power = np.where(r > 0.0, np.exp(cfg.x_power * np.log(r)), 0.0)
    return 1.0 + float(cfg.n) ** (-cfg.n_power) * power


def _kernel_denominator(cfg: TamingConfig, x: np.ndarray) -> np.ndarray:
    """The kernel's (B, 1) denominator, from the scale its arm caches."""
    _coeffs, tame, _compensate = scheme._arm(rt.double_well_model(), cfg, 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the kernel's own
        return taming._denominator(*tame, x)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(x=STATES, cfg=TAMINGS)
def test_kernel_denominator_equals_the_public_and_direct_ones(x, cfg):
    kernel = _kernel_denominator(cfg, x)
    assert kernel.shape == (len(x), 1)
    assert _same_bits(kernel[:, 0], taming.denominator(cfg, x))
    assert _same_bits(kernel[:, 0], _direct_denominator(cfg, x))


def test_denominator_is_one_at_the_origin_and_nan_at_a_nan_state():
    x = np.array([[0.0, -0.0], [np.nan, 1.0], [3.0, 4.0]])
    for x_power in (1e-300, 3.0, 40.0):
        cfg = TamingConfig(n=64, zeta=0.0, x_power=x_power)
        for den in (_kernel_denominator(cfg, x)[:, 0], taming.denominator(cfg, x)):
            assert den[0] == 1.0 and np.isnan(den[1])
            assert _same_bits(den[2], _direct_denominator(cfg, x[2]))
    # x_power 0 keeps the np.where: 1 + scale away from the origin, 1 at it and at NaN
    cfg = TamingConfig(n=64, zeta=0.0, x_power=0.0)
    assert _same_bits(_kernel_denominator(cfg, x)[:, 0], [1.0, 1.0, 1.125])


def _linear_model(d: int) -> rt.CoefficientSet:
    """drift x and diffusion x (one noise), so signed zeros reach every term."""
    return rt.CoefficientSet(
        dim_state=d, dim_noise=1,
        drift=lambda t, x, env=None: x * 1.0,
        diffusion=lambda t, x, env=None: x[..., None] * 1.0,
        jump=lambda t, x, z, env=None: 0.0 * x,
        jump_compensator_mean=None, zeta=2.0,
    )


def _einsum_cell(model, cfg, x, dt, dW):
    """One cell as the einsum forms it, with the direct denominator."""
    drift, sig = model.drift(0.0, x), model.diffusion(0.0, x)
    if cfg is not None:
        den = _direct_denominator(cfg, x)[:, None]
        drift, sig = drift / den, sig / den[..., None]
    out = x + drift * dt
    return out + np.einsum("...dm,...m->...d", sig, dW)


def _assert_cells_equal(model, cfg, x, dt, dW):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        arm = scheme._arm(model, cfg, 0.0)
        got = scheme._cell(x, 0.0, 0.0, dt, dW, arm, None, 0.0, None)
        want = _einsum_cell(model, cfg, x, dt, dW)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert _same_bits(np.where(nan, 0.0, got), np.where(nan, 0.0, want))


@settings(max_examples=300, deadline=None)
@given(x=STATES, dW=st.lists(COMPONENT, min_size=6, max_size=6),
       dt=st.sampled_from([1.0, 2.0**-14, 0.1]), tamed=st.booleans())
def test_one_noise_diffusion_term_equals_the_einsum(x, dW, dt, tamed):
    model = _linear_model(x.shape[1])
    cfg = TamingConfig(n=256, zeta=2.0) if tamed else None
    _assert_cells_equal(model, cfg, x, dt, np.array(dW[: len(x)])[:, None])


@pytest.mark.parametrize("tamed", [False, True])
def test_one_noise_diffusion_term_keeps_the_einsums_signed_zeros(tamed):
    # x + drift*dt is -0.0 at x = -0.0, so the sign of a zero term shows in the sum
    rows = list(itertools.product([-0.0, 0.0], [-1.0, -0.0, 0.0, 1.0]))
    x = np.array([[xv] for xv, _ in rows])
    dW = np.array([[w] for _, w in rows])
    cfg = TamingConfig(n=256, zeta=2.0) if tamed else None
    _assert_cells_equal(_linear_model(1), cfg, x, 0.125, dW)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = scheme._cell(x, 0.0, 0.0, 0.125, dW, scheme._arm(_linear_model(1), cfg, 0.0),
                           None, 0.0, None)
    assert not np.signbit(out).any()  # -0.0 + (+0.0): every row is +0.0


def test_one_state_gives_a_scalar_with_the_bits_of_a_batch_of_one():
    cfg = TamingConfig(n=4, zeta=2.0)
    for x in ([2.0], [0.0], [-3.25], [1.0, -2.0], [1e300, 0.0]):
        one = taming.denominator(cfg, np.array(x))
        assert isinstance(one, np.float64)
        assert _same_bits(one, taming.denominator(cfg, np.array([x]))[0])
    assert isinstance(taming.denominator(cfg, 2.0), np.float64)
