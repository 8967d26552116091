"""Reproducible randomness with independent named substreams per path.

Each Monte Carlo path owns a set of substreams (Brownian increments, jump
path, per-level drift randomizers, initial value, regime chain) derived from
a single base seed. Streams are keyed by ``(base_seed, path_index, tag,
level)`` through numpy's SeedSequence into a counter-based Philox generator,
so results are bit-identical across runs and across any worker layout, and
distinct keys give statistically independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable

import numpy as np


class StreamTag(IntEnum):
    BROWNIAN = 0
    JUMPS = 1
    RANDOMIZER = 2  # one substream per discretization level
    INIT = 3
    MARKOV = 4


@dataclass(frozen=True)
class StreamKey:
    """Identifies one substream; equal keys reproduce identical output."""

    base_seed: int
    path_index: int
    tag: StreamTag
    level: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.base_seed, spawn_key=(self.path_index, int(self.tag), self.level)
        )
        return np.random.Generator(np.random.Philox(seq))


def uniform_open_closed(gen: np.random.Generator, size=None) -> np.ndarray:
    """Uniform draws on (0, 1]: 1 - u with u uniform on [0, 1)."""
    return 1.0 - gen.random(size)


def brownian_increments(key: StreamKey, n_fine: int, m: int, horizon: float) -> np.ndarray:
    """n_fine iid Normal(0, (T/n_fine) I_m) increment vectors, shape (n_fine, m)."""
    if n_fine < 1:
        raise ValueError("n_fine must be >= 1")
    gen = key.generator()
    return gen.normal(0.0, math.sqrt(horizon / n_fine), size=(n_fine, m))


def coarsen(fine: np.ndarray, factor: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum consecutive groups of ``factor`` increments.

    The output is exactly the fine path's increments over the coarse cells, so
    coarse and fine schemes can be driven by the same Brownian realization.
    With ``out`` the sums are written into it (same bits) and it is returned.
    """
    fine = np.asarray(fine)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    n = fine.shape[0]
    if n % factor != 0:
        raise ValueError(f"factor {factor} does not divide increment count {n}")
    shape = (n // factor, factor) + fine.shape[1:]
    return np.sum(fine.reshape(shape), axis=1, out=out)


def jump_path(
    key: StreamKey,
    intensity: float,
    horizon: float,
    mark_sampler: Callable[[np.random.Generator, int], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Compound-Poisson jump times and marks on (0, horizon].

    Jump count is Poisson(intensity*horizon); times are iid uniform on
    (0, horizon], sorted; marks are iid draws from ``mark_sampler``.
    """
    if intensity < 0.0 or not math.isfinite(intensity):
        raise ValueError("intensity must be finite and >= 0")
    gen = key.generator()
    count = int(gen.poisson(intensity * horizon)) if intensity > 0.0 else 0
    times = np.sort(horizon * uniform_open_closed(gen, count))
    marks = np.asarray(mark_sampler(gen, count), dtype=float)
    if marks.ndim == 1:
        marks = marks[:, None]
    return times, marks


@dataclass(frozen=True)
class JumpModel:
    """Finite-intensity compound Poisson description of the jump noise."""

    intensity: float
    mark_sampler: Callable[[np.random.Generator, int], np.ndarray]
    mark_dim: int = 1

    def __post_init__(self):
        if self.intensity < 0.0:
            raise ValueError("intensity must be >= 0")


def normal_marks(intensity: float = 1.0) -> JumpModel:
    """Jump model with standard normal scalar marks."""
    return JumpModel(
        intensity=intensity,
        mark_sampler=lambda gen, size: gen.normal(size=(size, 1)),
        mark_dim=1,
    )


@dataclass
class PathDraw:
    """All the randomness one path consumes, at the finest grid resolution.

    ``phis`` holds one independent array of (0,1]-uniform drift randomizers
    per discretization level; Brownian increments and the jump path are shared
    across levels by coarsening/cell-assignment, the randomizers are not.
    """

    fine_n: int
    m: int
    horizon: float
    fine_increments: np.ndarray  # (fine_n, m)
    jump_times: np.ndarray  # (J,), sorted, in (0, horizon]
    jump_marks: np.ndarray  # (J, mark_dim)
    phis: dict[int, np.ndarray] = field(default_factory=dict)
    x0: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.fine_increments.shape != (self.fine_n, self.m):
            raise ValueError("fine_increments shape mismatch")
        if len(self.jump_times) != len(self.jump_marks):
            raise ValueError("jump times and marks length mismatch")
        if np.any(np.diff(self.jump_times) < 0):
            raise ValueError("jump times must be sorted")
        for n, phi in self.phis.items():
            if len(phi) != n:
                raise ValueError(f"phi array for level {n} has length {len(phi)}")

    def increments_for(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Brownian increments on the n-cell grid (fine_n must be divisible),
        written into ``out`` when given."""
        if self.fine_n % n != 0:
            raise ValueError(f"level {n} does not divide fine resolution {self.fine_n}")
        return coarsen(self.fine_increments, self.fine_n // n, out=out)


def make_path_draw(
    base_seed: int,
    path_index: int,
    *,
    fine_n: int,
    m: int,
    horizon: float,
    levels: tuple[int, ...] | list[int],
    jump_model: JumpModel | None = None,
    x0=0.0,
) -> PathDraw:
    """Build one path's full randomness as a pure function of (seed, index).

    ``levels`` lists every step count the draw will be simulated at (each gets
    its own randomizer stream). ``x0`` may be a fixed vector or a callable
    ``gen -> vector`` sampled from the path's init stream.
    """
    dW = brownian_increments(
        StreamKey(base_seed, path_index, StreamTag.BROWNIAN), fine_n, m, horizon
    )
    if jump_model is not None and jump_model.intensity > 0.0:
        times, marks = jump_path(
            StreamKey(base_seed, path_index, StreamTag.JUMPS),
            jump_model.intensity,
            horizon,
            jump_model.mark_sampler,
        )
    else:
        times = np.empty(0)
        marks = np.empty((0, jump_model.mark_dim if jump_model else 1))
    phis = {
        int(n): uniform_open_closed(
            StreamKey(base_seed, path_index, StreamTag.RANDOMIZER, int(n)).generator(),
            int(n),
        )
        for n in levels
    }
    if callable(x0):
        x0 = x0(StreamKey(base_seed, path_index, StreamTag.INIT).generator())
    return PathDraw(
        fine_n=fine_n,
        m=m,
        horizon=horizon,
        fine_increments=dW,
        jump_times=times,
        jump_marks=marks,
        phis=phis,
        x0=np.atleast_1d(np.asarray(x0, dtype=float)),
    )
