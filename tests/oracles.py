"""Independent oracles that tests pin the package against.

Each is a second way to compute what the package computes one way: ``step``
enters the kernel's cell map for one path with a list of (time, mark) jumps,
``tame`` divides a coefficient set by the taming denominator ahead of any
step, and ``normal_abs_moment`` is the closed form of E|Z|^p at any real
order. ``linear_jump_solution`` is the exact solution of
``linear_jump_model``, a linear SDE with jumps whose drift is rough in time,
on a block's own draws. None of them is part of ``rteuler``.
"""

from __future__ import annotations

import math

import numpy as np

from rteuler.grid import TimeGrid
from rteuler.model import CoefficientSet, EnvState, scalar_model
from rteuler.rng import BlockDraw
from rteuler.scheme import DivergedPathError, _arm, _cell
from rteuler.taming import TamingConfig, denominator


def step(
    x: np.ndarray,
    k: int,
    grid: TimeGrid,
    coeffs: CoefficientSet,
    dW: np.ndarray,
    cell_jumps,
    phi: float | None = None,
    intensity: float = 0.0,
    env: EnvState | None = None,
) -> np.ndarray:
    """Advance one path over cell k (1-based).

    ``coeffs`` are the effective (already tamed, if applicable) coefficients;
    ``dW`` is the Brownian increment over the cell, ``cell_jumps`` the list of
    (time, mark) pairs with time in (t_{k-1}, t_k], in time order, and ``phi``
    the drift randomizer (None evaluates the drift at the left endpoint).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))[None]
    dW = np.atleast_1d(np.asarray(dW, dtype=float))[None]
    t_left = grid.point(k - 1)
    t_drift = grid.xi(k, phi) if phi is not None else t_left
    jumps = None
    if len(cell_jumps):
        marks = np.array([np.atleast_1d(z) for _tau, z in cell_jumps], dtype=float)
        jumps = (np.zeros(len(marks), dtype=int), marks)
    arm = _arm(coeffs, None, intensity)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _cell(x, t_left, t_drift, grid.dt, dW, arm, env, intensity, jumps)[0]
    if not np.all(np.isfinite(out)):
        raise DivergedPathError(k, out)
    return out


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


def normal_abs_moment(p: float) -> float:
    """ln E|Z|^p for standard normal Z and any real p > 0:
    E|Z|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    if not p > 0:
        raise ValueError(f"order must be > 0, got {p}")
    return 0.5 * p * math.log(2.0) + math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)


_K = np.arange(40)
_WEIGHTS, _FREQS = 2.0 ** (-0.2 * _K), np.pi * 2.0**_K


def lacunary(t):
    """a(t) = sum over k < 40 of 2^(-0.2k) cos(2^k pi t), Hoelder-0.2 in t,
    of t's shape."""
    return np.cos(np.asarray(t)[..., None] * _FREQS) @ _WEIGHTS


def lacunary_integral(t):
    """A(t), the integral of ``lacunary`` over [0, t], in closed form."""
    return np.sin(np.asarray(t)[..., None] * _FREQS) @ (_WEIGHTS / _FREQS)


def linear_jump_model(b: float, c: float, mark_mean: float) -> CoefficientSet:
    """dX = a(t) X dt + b X dW + c X_- int z N~(dt, dz) on [0, 1], with a =
    ``lacunary`` and marks of mean ``mark_mean``, so a compensator c E[Z] x."""
    return scalar_model(lambda t, x: lacunary(t) * x, lambda t, x: b * x,
                        lambda t, x, z: c * x * z,
                        compensator_mean=lambda t, x: c * mark_mean * x)


def linear_jump_solution(draws: BlockDraw, x0: float, b: float, c: float, intensity: float,
                         mark_mean: float) -> np.ndarray:
    """Each row's exact X_1 of ``linear_jump_model`` on the block's draws, the
    Doleans-Dade exponential (Platen & Bruti-Liberati 2010):

        x0 exp(A(1) - b^2/2 + b W_1 - intensity c E[Z]) prod_j (1 + c z_j)

    with W_1 the block's one-cell increment and z_j each row's marks."""
    ((_lo, w),) = draws.brownian.windows(1)  # (1, B, 1)
    jumps = np.ones(draws.brownian.rows)
    np.multiply.at(jumps, draws.jump_rows, 1.0 + c * draws.jump_marks[:, 0])
    drift = lacunary_integral(1.0) - b * b / 2 - intensity * c * mark_mean
    return x0 * np.exp(drift + b * w[0, :, 0]) * jumps
