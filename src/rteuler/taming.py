"""State-dependent taming of coefficient sets.

Explicit Euler steps lose moment control when coefficients grow superlinearly;
dividing all three coefficients by

    D_n(x) = 1 + n^(-n_power) * |x|^(x_power)

with the defaults n_power = 1/2 and x_power = 3*zeta/2 restores it while
vanishing as n grows at fixed x. The exponents are configurable so alternative
taming families can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet


@dataclass(frozen=True)
class TamingConfig:
    n: int
    zeta: float
    n_power: float = 0.5
    x_power: float | None = None  # default 3*zeta/2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.n_power > 0.0:
            raise ValueError("n_power must be > 0")
        if self.x_power is None:
            object.__setattr__(self, "x_power", 1.5 * self.zeta)
        if self.x_power < 0.0:
            raise ValueError("x_power must be >= 0")


def _norm_power(x: np.ndarray, power: float) -> np.ndarray:
    """|x|^power along the last axis via exp(power*log|x|), with 0 at x = 0.

    The log form keeps precision for large powers and avoids pow-of-negative
    pitfalls; the zero branch makes the denominator exactly 1 at the origin.
    The norm is the Euclidean one, summed as ``np.linalg.norm`` sums it.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.sqrt(np.add.reduce(x * x, axis=-1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(r > 0.0, np.exp(power * np.log(r)), 0.0)


def denominator(cfg: TamingConfig, x: np.ndarray) -> np.ndarray:
    """Taming denominator D_n(x) >= 1, shaped like x without its last axis."""
    return 1.0 + float(cfg.n) ** (-cfg.n_power) * _norm_power(x, cfg.x_power)


def tame(coeffs: CoefficientSet, cfg: TamingConfig) -> CoefficientSet:
    """Divide drift, diffusion, jump and the compensator mean by D_n(x).

    D_n depends on the state only, so it commutes with the mark expectation
    and the compensator mean is divided by the same scalar factor.
    """

    def drift(t, x, env=None):
        return coeffs.drift(t, x, env) / denominator(cfg, x)[..., None]

    def diffusion(t, x, env=None):
        return coeffs.diffusion(t, x, env) / denominator(cfg, x)[..., None, None]

    def jump(t, x, z, env=None):
        return coeffs.jump(t, x, z, env) / denominator(cfg, x)[..., None]

    comp = None
    if coeffs.jump_compensator_mean is not None:
        def comp(t, x, env=None):
            return coeffs.jump_compensator_mean(t, x, env) / denominator(cfg, x)[..., None]

    return coeffs.replace(
        drift=drift, diffusion=diffusion, jump=jump, jump_compensator_mean=comp
    )


@dataclass
class BoundReport:
    """Worst observed taming ratios over a sample box; diagnostic only."""

    max_drift_ratio: float = 0.0  # max |tamed mu| / |mu|, must stay <= 1
    max_diffusion_ratio: float = 0.0
    max_jump_ratio: float = 0.0
    ratio_violations: int = 0
    fitted_drift_constant: float = 0.0  # max |tamed mu| / (n^(1/3) (1 + |x|))
    fitted_diffusion_constant: float = 0.0  # analogous with n^(1/6)


def check_taming_bounds(
    coeffs: CoefficientSet,
    cfg: TamingConfig,
    sample_box: tuple[float, float] = (-10.0, 10.0),
    n_samples: int = 10_000,
    seed: int = 0,
) -> BoundReport:
    """Verify |tamed f| <= |f| pointwise and fit the linear-growth constants
    that the tamed coefficients are supposed to admit."""
    lo, hi = sample_box
    if not hi > lo:
        raise ValueError("sample box must be nondegenerate")
    gen = np.random.default_rng(seed)
    t = coeffs.horizon * gen.random(n_samples)
    x = gen.uniform(lo, hi, size=(n_samples, coeffs.dim_state))
    z = gen.normal(size=(n_samples, coeffs.mark_dim))
    tamed = tame(coeffs, cfg)

    tcol = t[:, None]
    mu = np.linalg.norm(np.atleast_2d(coeffs.drift(tcol, x, None)), axis=-1)
    mu_t = np.linalg.norm(np.atleast_2d(tamed.drift(tcol, x, None)), axis=-1)
    sg = np.sqrt(np.sum(coeffs.diffusion(tcol, x, None) ** 2, axis=(-2, -1)))
    sg_t = np.sqrt(np.sum(tamed.diffusion(tcol, x, None) ** 2, axis=(-2, -1)))
    gm = np.linalg.norm(np.atleast_2d(coeffs.jump(tcol, x, z, None)), axis=-1)
    gm_t = np.linalg.norm(np.atleast_2d(tamed.jump(tcol, x, z, None)), axis=-1)

    tol = 1e-12
    report = BoundReport()
    for tag, orig, tm in (("drift", mu, mu_t), ("diffusion", sg, sg_t), ("jump", gm, gm_t)):
        nz = orig > 0.0
        ratio = float(np.max(tm[nz] / orig[nz])) if nz.any() else 1.0
        setattr(report, f"max_{tag}_ratio", ratio)
        report.ratio_violations += int(np.sum(tm > orig * (1.0 + tol)))

    r = np.linalg.norm(x, axis=-1)
    mu_bound = mu_t / (cfg.n ** (1.0 / 3.0) * (1.0 + r))
    sg_bound = sg_t / (cfg.n ** (1.0 / 6.0) * (1.0 + r))
    report.fitted_drift_constant = float(mu_bound.max())
    report.fitted_diffusion_constant = float(sg_bound.max())
    return report
