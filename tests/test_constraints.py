import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rteuler import (
    DoubleWellParams,
    check_coercivity,
    check_double_well_monotonicity_empirical,
    check_monotonicity,
    normal_moment,
)

from oracles import normal_abs_moment

# hand-computed with exact rational arithmetic (m2 = 1, m4 = 3):
#   sigma^2 (q-1) + 2^(q-1)(q-1)(gamma^2 m2 + gamma^q m_q) at q = 4
COERCIVITY_Q4_LHS = 240363 / 25_000_000  # = 0.00961452
#   2(p0-1) lam sigma^2 + (p0-1)(2^(p0-4)+1/2)((9/4) lam gamma^2 m2
#       + (3/2)^p0 lam^(p0-1) gamma^p0 m_p0) with lam = 1.001
MONOTONICITY_P2_LHS = 169_169 / 125_000_000  # = 1.353352e-3
MONOTONICITY_P4_LHS = 814_204_767_563_187 / 2e17  # = 4.07102383782e-3


def test_normal_moment_values():
    assert normal_moment(2) == pytest.approx(0.0, abs=1e-14)
    assert normal_moment(4) == pytest.approx(math.log(3.0), rel=1e-14)
    assert normal_moment(8) == pytest.approx(math.log(105.0), rel=1e-14)


def test_normal_moment_matches_quadrature():
    # independent check of m8 = 105 by Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite_e.hermegauss(120)
    m8 = np.sum(weights * np.abs(nodes) ** 8) / math.sqrt(2 * math.pi)
    assert math.exp(normal_moment(8)) == pytest.approx(m8, rel=1e-10)


def test_normal_moment_rejects_odd_and_small():
    for bad in (1, 3, 0, -2, 7):
        with pytest.raises(ValueError):
            normal_moment(bad)


def test_normal_moment_double_factorial_recursion():
    # ln m_p = ln(p-1) + ln m_(p-2), up to p = 1000
    for p in range(4, 1001, 2):
        lhs = normal_moment(p)
        rhs = math.log(p - 1) + normal_moment(p - 2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_normal_abs_moment_odd_orders():
    # polynomial quadrature handles the |z| kink badly, so the odd-order
    # oracle is adaptive quadrature split at zero
    for p in (1, 3, 5):
        quad = mp.quad(
            lambda z, p=p: mp.fabs(z) ** p * mp.exp(-z * z / 2) / mp.sqrt(2 * mp.pi),
            [-mp.inf, 0, mp.inf],
        )
        assert math.exp(normal_abs_moment(p)) == pytest.approx(float(quad), rel=1e-10)
    # even orders agree with the double-factorial form
    assert normal_abs_moment(6) == pytest.approx(normal_moment(6), rel=1e-13)


def test_coercivity_q4_matches_hand_value():
    rep = check_coercivity(4, 0.5, 0.001, 0.02)
    assert not rep.log10_scale
    assert rep.lhs == pytest.approx(COERCIVITY_Q4_LHS, rel=1e-10)
    assert rep.rhs == pytest.approx(1.0, rel=1e-12)
    assert rep.satisfied
    assert rep.margin == pytest.approx(1.0 - COERCIVITY_Q4_LHS, rel=1e-9)


def test_coercivity_without_jumps():
    rep = check_coercivity(4, 0.5, 0.001, 0.0)
    assert rep.lhs == pytest.approx(3e-6, rel=1e-12)
    assert rep.satisfied
    bad = check_coercivity(4, 1e-7, 0.001, 0.0)
    assert not bad.satisfied


@given(g1=st.floats(1e-6, 10.0), g2=st.floats(1e-6, 10.0))
def test_coercivity_monotone_in_gamma(g1, g2):
    lo, hi = sorted((g1, g2))
    rep_lo = check_coercivity(4, 0.5, 0.001, lo)
    rep_hi = check_coercivity(4, 0.5, 0.001, hi)
    m_lo = rep_lo.margin if not rep_lo.log10_scale else rep_lo.margin  # same scale class
    if rep_lo.log10_scale == rep_hi.log10_scale:
        assert rep_hi.margin <= m_lo + 1e-12


def test_monotonicity_matches_hand_values():
    rep2 = check_monotonicity(2, 1.001, 0.5, 0.001, 0.02)
    assert rep2.lhs == pytest.approx(MONOTONICITY_P2_LHS, rel=1e-10)
    assert rep2.satisfied and rep2.margin > 1.4
    rep4 = check_monotonicity(4, 1.001, 0.5, 0.001, 0.02)
    assert rep4.lhs == pytest.approx(MONOTONICITY_P4_LHS, rel=1e-10)
    assert rep4.satisfied and rep4.margin > 1.4


def test_monotonicity_trivial_when_noise_free():
    rep = check_monotonicity(2, 1.001, 0.5, 0.0, 0.0)
    assert rep.lhs == 0.0
    assert rep.satisfied


def test_monotonicity_validation():
    with pytest.raises(ValueError):
        check_monotonicity(3, 1.001, 0.5, 0.001, 0.02)
    with pytest.raises(ValueError):
        check_monotonicity(2, 1.0, 0.5, 0.001, 0.02)


def test_coercivity_q648_reported_in_log_scale_not_asserted():
    # the full-size case: reported verbatim with its log margin; the test pins
    # our computed value against an extended-precision oracle and deliberately
    # does not assert which way the inequality "should" go
    rep = check_coercivity(648, 0.5, 0.001, 0.02)
    assert rep.log10_scale
    mp.mp.dps = 60
    q = 648
    m_q = mp.gamma(q + 1) / (2 ** (q // 2) * mp.gamma(q // 2 + 1))
    lhs = mp.mpf("0.001") ** 2 * (q - 1) + mp.mpf(2) ** (q - 1) * (q - 1) * (
        mp.mpf("0.02") ** 2 + mp.mpf("0.02") ** q * m_q
    )
    assert rep.lhs == pytest.approx(float(mp.log10(lhs)), abs=1e-9)
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)  # log10 of 2*beta = 1
    assert rep.margin == pytest.approx(-rep.lhs, rel=1e-12)


def test_empirical_monotonicity_drift_dominant():
    # with negligible noise coefficients the quantity reduces to
    # 2(x-y)(mu(s,x)-mu(s,y)) <= 2|x-y|^2
    params = DoubleWellParams(sigma_hat=1e-12, gamma_hat=1e-12)
    rep = check_double_well_monotonicity_empirical(params, n_samples=5000, seed=0)
    assert rep.cubic_sign_violations == 0
    assert rep.fitted_constant <= 2.0 + 1e-6
    assert rep.fitted_constant > 1.0  # the sawtooth factor does reach near 1


def test_empirical_monotonicity_zero_at_equal_points(dw_model):
    x = np.array([[1.3]])
    s = np.array([[0.4]])
    dmu = dw_model.drift(s, x) - dw_model.drift(s, x)
    dsig = dw_model.diffusion(s, x) - dw_model.diffusion(s, x)
    assert np.all(dmu == 0.0) and np.all(dsig == 0.0)


def test_empirical_monotonicity_stable_across_seeds(dw_params):
    a = check_double_well_monotonicity_empirical(dw_params, n_samples=8000, seed=1)
    b = check_double_well_monotonicity_empirical(dw_params, n_samples=8000, seed=2)
    assert abs(a.fitted_constant - b.fitted_constant) <= 0.1 * a.fitted_constant
