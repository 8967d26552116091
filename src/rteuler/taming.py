"""State-dependent taming of coefficient sets.

Explicit Euler steps lose moment control when coefficients grow superlinearly;
dividing all three coefficients by

    D_n(x) = 1 + n^(-n_power) * |x|^(x_power)

with the defaults n_power = 1/2 and x_power = 3*zeta/2 restores it while
vanishing as n grows at fixed x. The exponents are configurable so alternative
taming families can be compared.
"""

from __future__ import annotations

import math
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
        if self.x_power is None:
            object.__setattr__(self, "x_power", 1.5 * self.zeta)
        for name, value in (("n_power", self.n_power), ("x_power", self.x_power)):
            if not math.isfinite(value):  # else D_n(x) would be 1, inf or NaN
                raise ValueError(f"{name} must be a finite number, got {value}")
        if not self.n_power > 0.0:
            raise ValueError("n_power must be > 0")
        if self.x_power < 0.0:
            raise ValueError("x_power must be >= 0")


def _denominator(scale: float, power: float, x: np.ndarray) -> np.ndarray:
    """1 + scale * |x|^power over x's last axis, which stays as a length-1 axis.

    |x|^power is exp(power*log|x|), which keeps precision for large powers. For
    power > 0 it is exactly 0 at x = 0, since exp(-inf) = 0, so the denominator
    is exactly 1 at the origin and NaN at a NaN state. The norm sums as
    ``np.linalg.norm`` does. There is no ``np.errstate`` here: the caller holds
    one, as the stepping kernel does around its whole loop.
    """
    r = np.sqrt(x * x if x.shape[-1] == 1 else np.add.reduce(x * x, axis=-1, keepdims=True))
    if power > 0.0:
        return 1.0 + scale * np.exp(power * np.log(r))
    return 1.0 + scale * np.where(r > 0.0, np.exp(power * np.log(r)), 0.0)


def denominator(cfg: TamingConfig, x: np.ndarray) -> np.ndarray:
    """Taming denominator D_n(x) >= 1, shaped like x without its last axis (a
    numpy scalar for one state, with a batch row's bits); NaN where x holds a
    NaN and x_power > 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _denominator(float(cfg.n) ** -cfg.n_power, cfg.x_power, x)[..., 0][()]


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

    # each tamed coefficient is the coefficient over D_n(x), one (n_samples, 1) column
    tcol, den = t[:, None], denominator(cfg, x)[..., None]
    drift, sig = coeffs.drift(tcol, x, None), coeffs.diffusion(tcol, x, None)
    jump = coeffs.jump(tcol, x, z, None)
    mu = np.linalg.norm(np.atleast_2d(drift), axis=-1)
    mu_t = np.linalg.norm(np.atleast_2d(drift / den), axis=-1)
    sg = np.sqrt(np.sum(sig**2, axis=(-2, -1)))
    sg_t = np.sqrt(np.sum((sig / den[..., None]) ** 2, axis=(-2, -1)))
    gm = np.linalg.norm(np.atleast_2d(jump), axis=-1)
    gm_t = np.linalg.norm(np.atleast_2d(jump / den), axis=-1)

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
