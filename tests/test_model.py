import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rteuler as rt
from rteuler import DoubleWellParams, double_well_model, probe_growth, sawtooth


def test_sawtooth_examples():
    assert sawtooth(0.0) == 0.0
    assert sawtooth(0.25) == 0.5
    assert sawtooth(0.75) == -0.5


@given(st.floats(-10.0, 10.0))
def test_sawtooth_periodic(s):
    assert sawtooth(s + 1.0) == pytest.approx(sawtooth(s), abs=1e-9)


@given(st.floats(-0.499, 0.499))
def test_sawtooth_odd_near_zero(s):
    assert sawtooth(s) == pytest.approx(-sawtooth(-s), abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        DoubleWellParams(beta_hat=0.0)
    with pytest.raises(ValueError):
        DoubleWellParams(sigma_hat=-1.0)
    with pytest.raises(ValueError):
        DoubleWellParams(p_exp=2.0)


@pytest.mark.parametrize("value", [True, "0.5", None, [0.5]])
def test_params_reject_a_boolean_or_non_number(value):
    message = f"^beta_hat must be a number, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        DoubleWellParams(beta_hat=value)


def test_params_accept_ints_and_floats():
    assert DoubleWellParams(beta_hat=1, p_exp=648).beta_hat == 1
    assert DoubleWellParams(beta_hat=np.float64(0.25)).beta_hat == 0.25


def test_double_well_coefficient_values(dw_model):
    x = np.array([2.0])
    assert dw_model.drift(0.25, x) == pytest.approx(np.array([-3.0]))
    assert dw_model.diffusion(1.0, np.array([0.0]))[..., 0] == pytest.approx(
        np.array([0.001])
    )
    # sqrt(s) factor kills the jump coefficient at s = 0
    assert dw_model.jump(0.0, np.array([3.0]), np.array([1.7])) == pytest.approx(
        np.array([0.0])
    )
    # linear in the mark: z = 0 gives 0
    assert dw_model.jump(0.5, np.array([3.0]), np.array([0.0])) == pytest.approx(
        np.array([0.0])
    )


def test_double_well_compensator_is_zero(dw_model):
    assert dw_model.jump_compensator_mean is None


def test_double_well_vectorized_evaluation(dw_model):
    x = np.linspace(-2, 2, 11)[:, None]
    t = np.full((11, 1), 0.3)
    mu = dw_model.drift(t, x)
    assert mu.shape == (11, 1)
    sig = dw_model.diffusion(t, x)
    assert sig.shape == (11, 1, 1)
    z = np.ones((11, 1))
    assert dw_model.jump(t, x, z).shape == (11, 1)


def test_one_sided_lipschitz_on_samples(dw_model):
    # (x - y)(mu(s,x) - mu(s,y)) <= 1 * |x - y|^2: the sawtooth factor is <= 1
    # and the cubic difference term is damping.
    gen = np.random.default_rng(0)
    s = gen.random((2000, 1))
    x = gen.uniform(-8, 8, size=(2000, 1))
    y = gen.uniform(-8, 8, size=(2000, 1))
    lhs = np.sum((x - y) * (dw_model.drift(s, x) - dw_model.drift(s, y)), axis=-1)
    rhs = np.sum((x - y) ** 2, axis=-1)
    assert np.all(lhs <= rhs + 1e-12)


def test_probe_growth_double_well(dw_model):
    report = probe_growth(dw_model, sample_box=(-5.0, 5.0), n_samples=20_000, seed=1)
    # dense-grid oracle for the fitted constant
    tt = np.linspace(0.0, 1.0, 401)[:, None]
    xx = np.linspace(-5.0, 5.0, 801)[None, :]
    ratio = np.abs(sawtooth(tt) * xx - 0.5 * xx**3) / (1.0 + np.abs(xx) ** 3)
    oracle = ratio.max()
    assert report.drift_constant <= oracle + 1e-9
    assert report.drift_constant >= 0.8 * oracle  # sampling comes close to the max
    assert report.drift_constant <= 0.5 + 1.0  # beta_hat + 1 envelope


def test_probe_growth_trivials():
    zero = rt.scalar_model(lambda t, x: np.zeros_like(x), zeta=2.0)
    rep = probe_growth(zero, n_samples=500)
    assert rep.drift_constant == 0.0
    assert rep.diffusion_constant == 0.0

    linear = rt.scalar_model(lambda t, x: x, zeta=0.0)
    rep = probe_growth(linear, sample_box=(-10.0, 10.0), n_samples=20_000, seed=3)
    # oracle: max |x| / (1 + |x|) over the box, approached as |x| -> box edge
    assert rep.drift_constant == pytest.approx(10.0 / 11.0, rel=1e-3)
    with pytest.raises(ValueError):
        probe_growth(linear, sample_box=(1.0, 1.0))


def test_registry_round_trip():
    m = rt.build_model("double-well", {"beta_hat": 1.0})
    assert m.name == "double-well"
    with pytest.raises(KeyError):
        rt.build_model("no-such-model")
    rt.register_model("custom-zero", lambda **kw: rt.scalar_model(lambda t, x: 0 * x))
    assert rt.build_model("custom-zero").dim_state == 1


def test_build_model_refuses_a_param_its_factory_does_not_name():
    with pytest.raises(TypeError) as exc:
        rt.build_model("double-well", {"beta_hat": 1.0, "bogus": 1})
    assert str(exc.value) == ("bogus is not a parameter of model 'double-well' "
                              "(known: beta_hat, sigma_hat, gamma_hat, p_exp)")
    rt.register_model("custom-scaled", lambda scale=1.0: rt.scalar_model(lambda t, x: scale * x))
    with pytest.raises(TypeError, match=r"^size is not a parameter of model 'custom-scaled' "
                                        r"\(known: scale\)$"):
        rt.build_model("custom-scaled", {"size": 2.0})
    assert rt.build_model("custom-scaled", {"scale": 2.0}).dim_state == 1
    # a factory taking **kwargs decides its params itself
    rt.register_model("custom-any", lambda **kw: rt.scalar_model(lambda t, x: 0 * x))
    assert rt.build_model("custom-any", {"bogus": 1}).dim_state == 1


def test_coefficient_set_validation():
    with pytest.raises(ValueError):
        rt.CoefficientSet(
            dim_state=0, dim_noise=1, drift=None, diffusion=None, jump=None,
            jump_compensator_mean=None,
        )
    with pytest.raises(ValueError):
        rt.scalar_model(lambda t, x: x, zeta=-1.0)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf])
def test_a_non_finite_growth_exponent_is_refused_naming_zeta(zeta):
    # else a NaN zeta builds and a tamed run fails on an x_power never set
    with pytest.raises(ValueError, match=f"^zeta must be a finite number >= 0, got {zeta}$"):
        rt.scalar_model(lambda t, x: x, zeta=zeta)


def test_a_coefficient_set_must_state_its_jump_law():
    coeffs = dict(dim_state=1, dim_noise=1, drift=None, diffusion=None, jump=None)
    with pytest.raises(TypeError, match="jump_compensator_mean"):
        rt.CoefficientSet(**coeffs)
    assert rt.CoefficientSet(**coeffs, jump_compensator_mean=None).jump_compensator_mean is None


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_sawtooth_gives_the_same_bits_for_floats_and_arrays(s):
    with np.errstate(invalid="ignore"):
        ref = 2.0 * (np.asarray(s) - np.floor(np.asarray(s) + 0.5))
        got, row = sawtooth(s), sawtooth(np.array([s, s]))
    assert np.array_equal(np.float64(got).view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(row.view(np.uint64), np.full(2, ref).view(np.uint64))
