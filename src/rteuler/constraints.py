"""Numeric checks of the coercivity/monotonicity parameter inequalities.

The inequalities mix terms like 2^(q-1) and gamma^q with q in the hundreds,
spanning a couple of thousand decimal orders, so every evaluation here runs in
natural-log space with log-sum-exp combination; reports fall back to a log10
presentation whenever the linear values would overflow a double.

The checks report margins, they do not assert: at the double-well benchmark
parameters with q = 648 the computed left-hand side exceeds the right by
roughly 194 decimal orders, and this module's job is to surface that number,
not to adjudicate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DoubleWellParams, double_well_model

_LN10 = math.log(10.0)
# reports switch to log10 presentation beyond this |log10| magnitude
_LINEAR_LOG10_LIMIT = 12.0
# the sampled monotonicity check: state box and Gauss-Hermite nodes of the mark law
_SAMPLE_BOX = (-5.0, 5.0)
_QUAD_NODES = 64


def normal_moment(p: int) -> float:
    """ln m_p with m_p = E|Z|^p for standard normal Z and even p >= 2.

    Computed via log-gamma (m_2k = (2k)! / (2^k k!), the double factorial), so
    it stays exact in log scale for p in the hundreds. Odd orders are rejected
    here; see ``normal_abs_moment`` for the general absolute-moment formula.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"normal_moment requires even p >= 2, got {p}")
    k = p // 2
    return math.lgamma(p + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def normal_abs_moment(p: float) -> float:
    """ln E|Z|^p for standard normal Z and any real p > 0:
    E|Z|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    if not p > 0:
        raise ValueError(f"order must be > 0, got {p}")
    return 0.5 * p * math.log(2.0) + math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)


def _logsumexp(terms) -> float:
    terms = [t for t in terms if t != -math.inf]
    if not terms:
        return -math.inf
    hi = max(terms)
    return hi + math.log(sum(math.exp(t - hi) for t in terms))


def _log(x: float) -> float:
    if x < 0.0:
        raise ValueError("expected a nonnegative quantity")
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class ConstraintReport:
    """One inequality check. ``margin`` is rhs - lhs in the reported scale:
    linear when representable, log10 otherwise (flagged by ``log10_scale``)."""

    constraint: str
    lhs: float
    rhs: float
    satisfied: bool
    margin: float
    log10_scale: bool

    def format_row(self) -> str:
        scale = "log10" if self.log10_scale else "linear"
        status = "satisfied" if self.satisfied else "VIOLATED"
        return (
            f"{self.constraint:<28} {scale:>6}  lhs={self.lhs:.12g}  "
            f"rhs={self.rhs:.12g}  margin={self.margin:.12g}  {status}"
        )


def _report(constraint: str, ln_lhs: float, ln_rhs: float) -> ConstraintReport:
    satisfied = ln_lhs <= ln_rhs
    log10_lhs = ln_lhs / _LN10
    log10_rhs = ln_rhs / _LN10
    # -inf log values are an exact linear 0 and never force the log10 scale
    finite_mags = [abs(v) for v in (log10_lhs, log10_rhs) if v != -math.inf]
    if max(finite_mags, default=0.0) < _LINEAR_LOG10_LIMIT:
        lhs, rhs = math.exp(ln_lhs), math.exp(ln_rhs)
        return ConstraintReport(constraint, lhs, rhs, satisfied, rhs - lhs, False)
    return ConstraintReport(
        constraint, log10_lhs, log10_rhs, satisfied, log10_rhs - log10_lhs, True
    )


def check_coercivity(
    q: int, beta_hat: float, sigma_hat: float, gamma_hat: float
) -> ConstraintReport:
    """Check, in log space,

        sigma^2 (q-1) + 2^(q-1) (q-1) (gamma^2 m_2 + gamma^q m_q) <= 2 beta

    which guarantees the q-th moment coercivity of the double-well model.
    """
    if q < 4 or q % 2 != 0:
        raise ValueError(f"q must be even and >= 4, got {q}")
    for name, v in (("beta_hat", beta_hat), ("sigma_hat", sigma_hat), ("gamma_hat", gamma_hat)):
        if v < 0.0:
            raise ValueError(f"{name} must be >= 0")
    lq1 = _log(float(q - 1))
    terms = [
        lq1 + 2.0 * _log(sigma_hat),
        (q - 1) * math.log(2.0) + lq1 + 2.0 * _log(gamma_hat) + normal_moment(2),
        (q - 1) * math.log(2.0) + lq1 + q * _log(gamma_hat) + normal_moment(q),
    ]
    return _report(f"coercivity[q={q}]", _logsumexp(terms), _log(2.0 * beta_hat))


def check_monotonicity(
    p0: int, lam: float, beta_hat: float, sigma_hat: float, gamma_hat: float
) -> ConstraintReport:
    """Check, in log space,

        2 (p0-1) lam sigma^2
          + (p0-1) (2^(p0-4) + 1/2) ( (9/4) lam gamma^2 m_2
                                      + (3/2)^p0 lam^(p0-1) gamma^p0 m_p0 )
        <= 3 beta

    the one-sided Lipschitz (monotonicity) budget of the double-well model.
    """
    if p0 < 2 or p0 % 2 != 0:
        raise ValueError(f"p0 must be even and >= 2, got {p0}")
    if not lam > 1.0:
        raise ValueError(f"lam must be > 1, got {lam}")
    lp1 = _log(float(p0 - 1))
    ln_lam = math.log(lam)
    # (2^(p0-4) + 1/2) in log space; p0 may be large enough to overflow 2^p0
    ln_bracket = _logsumexp([(p0 - 4) * math.log(2.0), -math.log(2.0)])
    terms = [
        math.log(2.0) + lp1 + ln_lam + 2.0 * _log(sigma_hat),
        lp1 + ln_bracket + math.log(2.25) + ln_lam + 2.0 * _log(gamma_hat) + normal_moment(2),
        lp1
        + ln_bracket
        + p0 * math.log(1.5)
        + (p0 - 1) * ln_lam
        + p0 * _log(gamma_hat)
        + normal_moment(p0),
    ]
    return _report(f"monotonicity[p0={p0}]", _logsumexp(terms), _log(3.0 * beta_hat))


@dataclass
class EmpiricalMonotonicityReport:
    """Sampled one-sided Lipschitz diagnostic for the double-well model."""

    fitted_constant: float
    cubic_sign_violations: int


def check_double_well_monotonicity_empirical(
    params: DoubleWellParams,
    n_samples: int = 4096,
    seed: int = 0,
    intensity: float = 1.0,
) -> EmpiricalMonotonicityReport:
    """Sample (s, t, x, y) and fit the smallest C with

        2 (x-y)(mu(s,x) - mu(s,y)) + |sigma(t,x) - sigma(t,y)|^2
            + intensity * E_Z|gamma(t,x,Z) - gamma(t,y,Z)|^2  <=  C |x-y|^2

    where the mark expectation is taken by Gauss-Hermite quadrature against
    the standard normal mark law. Also counts sign violations of the damping
    cubic difference term (x-y)(x^3-y^3), which must never be negative.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    coeffs = double_well_model(params)
    gen = np.random.default_rng(seed)
    lo, hi = _SAMPLE_BOX
    s = gen.random(n_samples)
    t = gen.random(n_samples)
    x = gen.uniform(lo, hi, size=(n_samples, 1))
    y = gen.uniform(lo, hi, size=(n_samples, 1))

    nodes, weights = np.polynomial.hermite_e.hermegauss(_QUAD_NODES)
    weights = weights / math.sqrt(2.0 * math.pi)  # probabilists' normalization

    dmu = coeffs.drift(s[:, None], x) - coeffs.drift(s[:, None], y)
    dsig = coeffs.diffusion(t[:, None], x) - coeffs.diffusion(t[:, None], y)
    # (n_samples, _QUAD_NODES): jump difference at each quadrature mark
    z = np.broadcast_to(nodes[None, :, None], (n_samples, _QUAD_NODES, 1))
    tq = t[:, None, None]
    dgam = coeffs.jump(tq, x[:, None, :], z) - coeffs.jump(tq, y[:, None, :], z)
    jump_term = intensity * np.sum(weights[None, :] * np.sum(dgam**2, axis=-1), axis=1)

    diff = x - y
    quantity = (
        2.0 * np.sum(diff * dmu, axis=-1)
        + np.sum(dsig**2, axis=(-2, -1))
        + jump_term
    )
    dist2 = np.sum(diff**2, axis=-1)
    nz = dist2 > 0.0
    ratios = quantity[nz] / dist2[nz]

    cubic = np.sum(diff * (x**3 - y**3), axis=-1)
    violations = int(np.sum(cubic < 0.0))

    return EmpiricalMonotonicityReport(
        fitted_constant=float(ratios.max()) if nz.any() else 0.0,
        cubic_sign_violations=violations,
    )
