"""Explicit time steppers: randomized tamed Euler and its comparison arms.

One step over cell (t_{k-1}, t_k] advances

    x <- x + mu*(xi_k, x) dt + sigma*(t_{k-1}, x) dW_k
           + sum_{jumps in cell} gamma*(t_{k-1}, x, z_j)
           - intensity * dt * E_Z[gamma*(t_{k-1}, x, Z)]

where starred coefficients are tamed (or not) and the drift time xi_k is the
cell's randomized point (or its left endpoint) depending on the variant. The
jump coefficient is always evaluated at the cell's left time and left state:
jumps inside a cell do not update the evaluation state mid-cell, and multiple
jumps are summed in time order. The compensator term is skipped exactly when
the model declares a zero-mean jump law.

There is one stepping kernel, a lockstep loop over a batch of paths:
``simulate_path`` and ``simulate_sdde_switching`` run it with a batch of one,
and ``step`` runs its per-cell map once. Taming is fused into it: each step
computes D_n(x) once and divides the drift, diffusion, compensator and jump
terms by it, bit for bit what stepping ``taming.tame``'d coefficients gives.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from . import taming
from .grid import TimeGrid
from .markov import MarkovPath
from .model import CoefficientSet, EnvState
from .rng import BlockDraw, PathDraw
from .taming import TamingConfig

log = logging.getLogger(__name__)

VARIANTS = ("randomized_tamed", "tamed", "classical", "randomized_untamed")


def variant_is_randomized(variant: str) -> bool:
    return variant in ("randomized_tamed", "randomized_untamed")


def variant_is_tamed(variant: str) -> bool:
    return variant in ("randomized_tamed", "tamed")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme variant, step count, and taming exponents.

    A tamed variant divides each step by D_n(x) = 1 + n^(-n_power) |x|^(x_power),
    with ``x_power`` None meaning 3*zeta/2 of the model stepped; the untamed
    variants ignore both exponents.
    """

    variant: str
    n: int
    n_power: float = 0.5
    x_power: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.n < 1:
            raise ValueError("step count must be >= 1")
        TamingConfig(self.n, 0.0, self.n_power, self.x_power)  # rejects bad exponents

    def taming_for(self, model: CoefficientSet) -> TamingConfig | None:
        """The taming of ``model`` at this config; None for an untamed variant."""
        if not variant_is_tamed(self.variant):
            return None
        return TamingConfig(self.n, model.zeta, self.n_power, self.x_power)


class DivergedPathError(RuntimeError):
    """A path produced a non-finite state; carries the step index and state."""

    def __init__(self, step_index: int, state):
        self.step_index = step_index
        self.state = np.asarray(state)
        super().__init__(f"non-finite state at step {step_index}: {self.state}")


@dataclass
class Trajectory:
    grid: TimeGrid
    states: np.ndarray  # (n+1, d)
    regimes: np.ndarray | None = None  # (n+1,) regime labels when switching

    def __post_init__(self):
        if self.states.shape[0] != self.grid.n + 1:
            raise ValueError("state count must be grid.n + 1")

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class BatchResult:
    states: np.ndarray  # (B, kept points, d); all n+1 points by default
    diverged_at: np.ndarray  # (B,) first non-finite step index, -1 if none

    @property
    def diverged(self) -> np.ndarray:
        return self.diverged_at >= 0


def _arm(coeffs: CoefficientSet, tcfg: TamingConfig | None, intensity: float) -> tuple:
    """What a step needs of one coefficient set: (coeffs, tame, compensate),
    with ``tame`` the taming's (scale n^(-n_power), x_power), None when untamed."""
    compensate = intensity > 0.0 and not coeffs.zero_mean_jump
    if compensate and coeffs.jump_compensator_mean is None:
        raise ValueError("compensator mean required for non-zero-mean jump models")
    tame = None if tcfg is None else (float(tcfg.n) ** -tcfg.n_power, tcfg.x_power)
    return coeffs, tame, compensate


def _cell(x, t_left, t_drift, dt, dW, arm, env, intensity, jumps):
    """Advance every row of ``x`` (B, d) over one cell: the scheme's map.

    ``arm`` comes from ``_arm``; ``dW`` is (B, m); ``jumps`` is None or the
    (rows, marks) of the cell's jump events in time order. Each tamed term is
    divided by the step's one denominator, in the order ``(f / D) * dt``. With
    one noise dimension the diffusion term is the product itself; the ``0.0 +``
    turns a -0.0 into +0.0 as the einsum's sum, which starts from +0.0, does.
    """
    coeffs, tame, compensate = arm
    drift = coeffs.drift(t_drift, x, env)
    sig = coeffs.diffusion(t_left, x, env)
    if tame is not None:
        den = taming._denominator(*tame, x)  # (B, 1)
        drift = drift / den
        sig = sig / den[..., None]
    out = x + drift * dt
    if sig.shape[-1] == 1:
        out = out + (0.0 + sig[..., 0] * dW)
    else:
        out = out + np.einsum("...dm,...m->...d", sig, dW)
    if compensate:
        comp = coeffs.jump_compensator_mean(t_left, x, env)
        out = out - intensity * dt * (comp if tame is None else comp / den)
    if jumps is not None:
        rows, marks = jumps
        gam = coeffs.jump(t_left, x[rows], marks, env)
        np.add.at(out, rows, gam if tame is None else gam / den[rows])
    return out


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


def _jump_events(grid: TimeGrid, block: BlockDraw) -> dict:
    """The block's jump events by 1-based cell: k -> (rows, marks) in time order."""
    cells = grid.cell_of(block.jump_times)
    # stable sort by cell keeps the per-path time order within each cell
    order = np.argsort(cells, kind="stable")
    cells, rows, marks = cells[order], block.jump_rows[order], block.jump_marks[order]
    # each occupied cell's events run from its first index to the next cell's
    bounds = np.flatnonzero(np.diff(cells, prepend=0)).tolist() + [len(cells)]
    return {int(cells[lo]): (rows[lo:hi], marks[lo:hi]) for lo, hi in zip(bounds, bounds[1:])}


CHUNK = 128  # grid points per chunk of the kernel's state buffer


def _chunks(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of the chunks of grid points 0..n: ``CHUNK`` points
    each, the last also taking the final point (so none is one point wide)."""
    return [(lo, lo + CHUNK if lo + CHUNK < n else n + 1) for lo in range(0, n, CHUNK)]


def _run(
    models: dict[Hashable, CoefficientSet],
    cfg: SchemeConfig,
    block: BlockDraw,
    intensity: float,
    step_env: Callable[[int, np.ndarray], tuple[Hashable, EnvState | None]],
    keep: slice = slice(None),
    on_chunk: Callable[[int, np.ndarray], None] | None = None,
) -> BatchResult:
    """The stepping kernel: all rows of the block in lockstep over the whole grid.

    ``step_env(k, states)`` names the model (a key of ``models``) and the
    environment for cell k; ``states`` is the (B, n+1, d) buffer, filled up
    to index k-1, when ``keep`` is all points. Every model shares the first
    one's dimensions and horizon. The draws come in the block's time-major
    windows, so each step reads one contiguous row of them. The states are
    stepped into ``_chunks``; of each, the points ``keep`` selects go to the
    result and ``on_chunk(lo, chunk)`` gets all its (B, hi-lo, d) states.
    """
    some = next(iter(models.values()))
    grid = TimeGrid(cfg.n, some.horizon)
    n, d, m, B = cfg.n, some.dim_state, some.dim_noise, len(block.x0)
    randomized = variant_is_randomized(cfg.variant)
    if block.x0.shape != (B, d):
        raise ValueError(f"x0 has shape {block.x0.shape}, model needs ({B}, {d})")
    if block.brownian.m != m:
        raise ValueError(f"increments have width {block.brownian.m}, dim_noise is {m}")
    cell_jumps = _jump_events(grid, block)
    arms = {key: _arm(model, cfg.taming_for(model), intensity) for key, model in models.items()}

    kept = range(n + 1)[keep]  # ascending: a slice with a positive step
    states = np.empty((B, len(kept), d))
    whole = keep == slice(None)  # then each chunk is a view of ``states``
    buf = states if whole else np.empty((B, min(n, CHUNK) + 1, d))
    buf[:, 0] = x = block.x0  # the first chunk's point 0
    diverged_at, dt = np.full(B, -1), grid.dt
    windows = block.windows(n, randomized)
    w_lo = w_hi = 0  # the cells lo..hi-1 of the window in hand
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo, hi in _chunks(n):
            chunk = buf[:, lo:hi] if whole else buf[:, : hi - lo]
            for k in range(max(lo, 1), hi):
                if k > w_hi:
                    w_lo, dW, phi = next(windows)
                    w_hi = w_lo + len(dW)
                    if randomized:  # each cell's drift time, written into phi's buffer
                        t_drift = grid.xis(phi[..., None], w_lo, out=phi[..., None])
                t_left = ((k - 1) * grid.horizon) / n  # grid.point(k - 1)
                key, env = step_env(k, states)
                x = _cell(x, t_left, t_drift[k - 1 - w_lo] if randomized else t_left, dt,
                          dW[k - 1 - w_lo], arms[key], env, intensity, cell_jumps.get(k))
                chunk[:, k - lo] = x
            bad = ~np.isfinite(chunk).all(axis=2)  # (B, hi-lo)
            first = (diverged_at < 0) & bad.any(axis=1)
            diverged_at[first] = lo + bad[first].argmax(axis=1)
            if not whole:
                a, b = bisect_left(kept, lo), bisect_left(kept, hi)
                part = kept[a:b]
                states[:, a:b] = chunk[:, part.start - lo : part.stop - lo : part.step]
            if on_chunk is not None:
                on_chunk(lo, chunk)
    return BatchResult(states=states, diverged_at=diverged_at)


def simulate_paths(
    model: CoefficientSet,
    cfg: SchemeConfig,
    draws: BlockDraw | list[PathDraw],
    intensity: float = 0.0,
    *,
    keep: slice = slice(None),
    on_chunk: Callable[[int, np.ndarray], None] | None = None,
) -> BatchResult:
    """Vectorized lockstep simulation of many independent paths, given as a
    block or as a list of draws (stacked into a block here).

    Diverged paths are recorded (first bad step index) instead of raising,
    and their later states are left non-finite. The result keeps the grid
    points ``keep`` selects (``slice(-1, None)``: the terminal one); see ``_run``.
    """
    block = draws if isinstance(draws, BlockDraw) else BlockDraw.stack(draws)
    return _run({None: model}, cfg, block, intensity, lambda k, states: (None, None),
                keep, on_chunk)


def _single(res: BatchResult, grid: TimeGrid, regimes=None) -> Trajectory:
    k = int(res.diverged_at[0])
    if k >= 0:
        raise DivergedPathError(k, res.states[0, k])
    return Trajectory(grid=grid, states=res.states[0], regimes=regimes)


def simulate_path(
    model: CoefficientSet,
    cfg: SchemeConfig,
    draw: PathDraw,
    intensity: float = 0.0,
) -> Trajectory:
    """Run the scheme over the whole grid for a single path's draw.

    Raises ``DivergedPathError`` at the first non-finite step.
    """
    res = simulate_paths(model, cfg, [draw], intensity)
    return _single(res, TimeGrid(cfg.n, model.horizon))


def simulate_sdde_switching(
    models_by_regime: dict[int, CoefficientSet],
    cfg: SchemeConfig,
    draw: PathDraw,
    delay: float,
    initial_segment,
    chain: MarkovPath,
    intensity: float = 0.0,
) -> Trajectory:
    """Scheme for delay equations with Markovian regime switching.

    At each cell the active regime is read at the cell's left grid point, the
    delayed state at the left grid point shifted by the delay, and all three
    coefficients share the single taming denominator built from the current
    state. The delayed time for s <= delay falls before 0 and is served by
    ``initial_segment`` (a constant vector or a callable of time, indexed so
    that segment(t) is the state at time t - delay).
    """
    some = next(iter(models_by_regime.values()))
    grid = TimeGrid(cfg.n, some.horizon)
    if delay < 0.0:
        raise ValueError("delay must be >= 0")
    if chain.horizon < some.horizon:
        raise ValueError("regime chain must cover the full horizon")

    lag = int(round(delay / grid.dt))
    if abs(lag * grid.dt - delay) > 1e-12 * max(grid.dt, 1.0):
        log.warning(
            "delay %g is not a multiple of dt=%g; snapped to %g",
            delay, grid.dt, lag * grid.dt,
        )

    if callable(initial_segment):
        segment = initial_segment
    else:
        const = np.atleast_1d(np.asarray(initial_segment, dtype=float))
        segment = lambda t: const

    regimes = chain.regimes_at(grid.points())  # (n+1,)
    unknown = ~np.isin(regimes[:-1], list(models_by_regime))
    if unknown.any():
        raise KeyError(f"no model registered for regime {regimes[unknown.argmax()]}")

    def step_env(k, states):
        alpha = int(regimes[k - 1])
        back = k - 1 - lag
        delayed = states[:, back] if back >= 0 else np.atleast_1d(segment(grid.point(k - 1)))
        return alpha, EnvState(regime=alpha, delayed_state=delayed)

    res = _run(models_by_regime, cfg, BlockDraw.stack([draw]), intensity, step_env)
    return _single(res, grid, regimes)
