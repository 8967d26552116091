import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rteuler as rt
from rteuler import TamingConfig, check_taming_bounds, denominator
from rteuler.taming import BoundReport

from oracles import tame


@pytest.mark.parametrize("name", ["n_power", "x_power"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_taming_exponents_are_refused_where_they_enter(name, value):
    # a NaN exponent reads every moment row as inf; an infinite n_power steps
    # as classical, an infinite x_power freezes the path at x0
    message = f"^{name} must be a finite number, got {value}$"
    with pytest.raises(ValueError, match=message):
        TamingConfig(n=4, zeta=2.0, **{name: value})
    with pytest.raises(ValueError, match=message):
        rt.SchemeConfig("tamed", 4, **{name: value})


def test_config_defaults_and_validation():
    cfg = TamingConfig(n=16, zeta=2.0)
    assert cfg.x_power == 3.0
    assert cfg.n_power == 0.5
    with pytest.raises(ValueError):
        TamingConfig(n=0, zeta=2.0)
    with pytest.raises(ValueError):
        TamingConfig(n=4, zeta=2.0, n_power=0.0)
    with pytest.raises(ValueError):
        TamingConfig(n=4, zeta=2.0, x_power=-1.0)


@given(
    x=st.floats(-50.0, 50.0),
    n=st.integers(1, 10**6),
    zeta=st.floats(0.0, 4.0),
)
def test_denominator_lower_bounds(x, n, zeta):
    cfg = TamingConfig(n=n, zeta=zeta)
    xv = np.array([x])
    d = denominator(cfg, xv)
    assert d >= 1.0
    r = abs(x)
    tail = n**-0.5 * (r**cfg.x_power if r > 0 else 0.0)
    assert d >= tail - 1e-12 * max(tail, 1.0)


def test_tame_unchanged_at_origin(dw_model):
    tamed = tame(dw_model, TamingConfig(n=4, zeta=2.0))
    x = np.array([0.0])
    assert tamed.drift(0.3, x) == pytest.approx(dw_model.drift(0.3, x))
    assert tamed.diffusion(0.3, x) == pytest.approx(dw_model.diffusion(0.3, x))


def test_tamed_drift_example(dw_model):
    # s = 1 makes the sawtooth factor vanish; x = 2, zeta = 2, n = 1:
    # (-0.5 * 8) / (1 + 8) = -4/9
    tamed = tame(dw_model, TamingConfig(n=1, zeta=2.0))
    assert tamed.drift(1.0, np.array([2.0]))[0] == pytest.approx(-4.0 / 9.0, rel=1e-14)


def test_tamed_tends_to_untamed(dw_model):
    x = np.array([2.0])
    raw = dw_model.drift(0.3, x)[0]
    for n in (10**6, 10**10):
        tamed = tame(dw_model, TamingConfig(n=n, zeta=2.0))
        rel = abs(tamed.drift(0.3, x)[0] - raw) / abs(raw)
        assert rel <= 2.0 * n**-0.5 * 8.0


def test_taming_preserves_zeros():
    model = rt.scalar_model(lambda t, x: np.where(np.abs(x) < 1, 0.0, x), zeta=1.0)
    tamed = tame(model, TamingConfig(n=7, zeta=1.0))
    assert tamed.drift(0.1, np.array([0.5]))[0] == 0.0


def test_monotone_de_taming(dw_model):
    x = np.array([3.0])
    vals = [
        abs(tame(dw_model, TamingConfig(n=n, zeta=2.0)).drift(0.2, x)[0])
        for n in (1, 4, 16, 64, 256)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_compensator_commutes_with_taming():
    model = rt.scalar_model(
        lambda t, x: -x,
        jump=lambda t, x, z: x * z,
        compensator_mean=lambda t, x: 0.5 * x,  # marks with mean 1/2
        zeta=1.0,
    )
    cfg = TamingConfig(n=9, zeta=1.0)
    tamed = tame(model, cfg)
    x = np.array([[1.5], [-2.0], [0.0]])
    expected = model.jump_compensator_mean(0.4, x) / denominator(cfg, x)[..., None]
    assert tamed.jump_compensator_mean(0.4, x) == pytest.approx(expected, rel=1e-14)


def test_bounds_report_no_violations(dw_model):
    report = check_taming_bounds(dw_model, TamingConfig(n=64, zeta=2.0), n_samples=10_000)
    assert report.ratio_violations == 0
    assert report.max_drift_ratio <= 1.0 + 1e-12
    assert report.max_diffusion_ratio <= 1.0 + 1e-12
    assert report.max_jump_ratio <= 1.0 + 1e-12


def _bounds_through_tame(coeffs, cfg, n_samples=10_000, seed=0):
    """``check_taming_bounds``' report, its tamed norms taken from ``tame``'d
    coefficients as the package computed them before its fused division."""
    gen = np.random.default_rng(seed)
    t = coeffs.horizon * gen.random(n_samples)
    x = gen.uniform(-10.0, 10.0, size=(n_samples, coeffs.dim_state))
    z = gen.normal(size=(n_samples, coeffs.mark_dim))
    tamed, tcol = tame(coeffs, cfg), t[:, None]
    norms = []
    for c in (coeffs, tamed):
        norms.append((np.linalg.norm(np.atleast_2d(c.drift(tcol, x, None)), axis=-1),
                      np.sqrt(np.sum(c.diffusion(tcol, x, None) ** 2, axis=(-2, -1))),
                      np.linalg.norm(np.atleast_2d(c.jump(tcol, x, z, None)), axis=-1)))
    report = BoundReport()
    for tag, orig, tm in zip(("drift", "diffusion", "jump"), *norms):
        nz = orig > 0.0
        setattr(report, f"max_{tag}_ratio", float(np.max(tm[nz] / orig[nz])) if nz.any() else 1.0)
        report.ratio_violations += int(np.sum(tm > orig * (1.0 + 1e-12)))
    r = np.linalg.norm(x, axis=-1)
    report.fitted_drift_constant = float((norms[1][0] / (cfg.n ** (1 / 3) * (1.0 + r))).max())
    report.fitted_diffusion_constant = float((norms[1][1] / (cfg.n ** (1 / 6) * (1.0 + r))).max())
    return report


def _planar_with_compensator():
    """2-d state and noise, cubic drift, marks of non-zero mean with a compensator."""
    return rt.CoefficientSet(
        dim_state=2, dim_noise=2,
        drift=lambda t, x, env=None: np.stack([x[..., 1], -x[..., 0] ** 3], axis=-1) + 0.0 * t,
        diffusion=lambda t, x, env=None: 0.1 * x[..., :, None] * np.ones(2) + 0.0 * t[..., None],
        jump=lambda t, x, z, env=None: 0.1 * x * z,
        jump_compensator_mean=lambda t, x, env=None: 0.05 * x,
        zeta=2.0,
    )


@pytest.mark.parametrize("n", [1, 64, 4096])
def test_bounds_report_equals_the_one_through_tame(dw_model, n):
    # guard: dividing by one denominator column gives tame()'s bits exactly
    for model in (dw_model, _planar_with_compensator()):
        cfg = TamingConfig(n=n, zeta=model.zeta)
        assert check_taming_bounds(model, cfg) == _bounds_through_tame(model, cfg)


def test_ratio_is_one_at_origin(dw_model):
    cfg = TamingConfig(n=64, zeta=2.0)
    tamed = tame(dw_model, cfg)
    x = np.array([0.0])
    assert tamed.drift(0.7, x)[0] == dw_model.drift(0.7, x)[0]


def test_fitted_linear_growth_constant_stable(dw_model):
    # |tamed mu| <= C n^(1/3) (1 + |x|) with C finite and stable across n;
    # cross-check the sampled fit against a dense grid maximization.
    constants = {}
    for n in (2**4, 2**6, 2**8, 2**10):
        cfg = TamingConfig(n=n, zeta=2.0)
        rep = check_taming_bounds(dw_model, cfg, n_samples=20_000, seed=5)
        constants[n] = rep.fitted_drift_constant
        tamed = tame(dw_model, cfg)
        tt = np.linspace(0.0, 1.0, 101)[:, None]
        xx = np.linspace(-10.0, 10.0, 1001)[None, :]
        dn = 1.0 + n**-0.5 * np.abs(xx) ** 3
        grid_max = np.max(
            np.abs(rt.sawtooth(tt) * xx - 0.5 * xx**3) / dn / (n ** (1 / 3) * (1 + np.abs(xx)))
        )
        assert rep.fitted_drift_constant <= grid_max * 1.001
        assert rep.fitted_drift_constant >= grid_max * 0.8
    vals = list(constants.values())
    assert all(np.isfinite(v) for v in vals)
    assert max(vals) / min(vals) < 3.0


@settings(max_examples=30)
@given(seed=st.integers(0, 1000), n=st.sampled_from([1, 8, 64, 512]))
def test_taming_never_increases_magnitude(dw_model, seed, n):
    gen = np.random.default_rng(seed)
    x = gen.uniform(-10, 10, size=(64, 1))
    t = gen.random((64, 1))
    tamed = tame(dw_model, TamingConfig(n=n, zeta=2.0))
    assert np.all(np.abs(tamed.drift(t, x)) <= np.abs(dw_model.drift(t, x)) + 1e-15)
