"""Continuous-time Markov chains for regime switching.

Chains are simulated event by event (exponential holding times, embedded jump
chain), which is exact for a finite state space and needs no rate bound.
States are 1-based to match the usual finite regime labelling {1, ..., m0}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import StreamKey

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Generator:
    """Generator matrix Q: off-diagonal rates >= 0, rows summing to zero."""

    rates: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", q)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise ValueError("generator must be a nonempty square matrix")
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0.0):
            raise ValueError("off-diagonal generator entries must be >= 0")
        if np.any(np.abs(q.sum(axis=1)) > _ROW_SUM_TOL):
            raise ValueError("generator rows must sum to zero")

    @property
    def m0(self) -> int:
        return self.rates.shape[0]


@dataclass
class MarkovPath:
    """Right-continuous piecewise-constant regime path on [0, horizon]."""

    switch_times: np.ndarray  # sorted, strictly inside (0, horizon)
    states: np.ndarray  # len(switch_times) + 1 regime labels, 1-based
    horizon: float

    def __post_init__(self):
        self.switch_times = np.asarray(self.switch_times, dtype=float)
        self.states = np.asarray(self.states, dtype=int)
        if len(self.states) != len(self.switch_times) + 1:
            raise ValueError("need one more state than switch times")
        if np.any(np.diff(self.switch_times) < 0):
            raise ValueError("switch times must be sorted")
        if np.any(self.states[1:] == self.states[:-1]):
            raise ValueError("consecutive states must differ")

    def regime_at(self, t: float) -> int:
        """State alpha_t, right-continuous: at a switch time, the new state."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return int(self.states[np.searchsorted(self.switch_times, t, side="right")])

    def regimes_at(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return self.states[np.searchsorted(self.switch_times, times, side="right")]


def simulate_ctmc(gen: Generator, alpha0: int, horizon: float, key: StreamKey) -> MarkovPath:
    """Exact event-driven simulation started from regime ``alpha0``.

    Holding time in state i is Exponential(-q_ii); the next state is j != i
    with probability q_ij / (-q_ii). Absorbing states hold forever.
    """
    if not 1 <= alpha0 <= gen.m0:
        raise ValueError(f"alpha0 must be a regime 1..{gen.m0}, got {alpha0}")
    rng = key.generator()
    q = gen.rates
    times: list[float] = []
    states = [alpha0]
    t, state = 0.0, alpha0
    while True:
        rate = -q[state - 1, state - 1]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        probs = q[state - 1].copy()
        probs[state - 1] = 0.0
        probs /= rate
        state = int(rng.choice(gen.m0, p=probs)) + 1
        times.append(t)
        states.append(state)
    return MarkovPath(np.array(times), np.array(states), horizon)
