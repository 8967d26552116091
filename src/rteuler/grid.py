"""Uniform time grids and the two evaluation-point maps used by the steppers.

Every stepper in this package works on an equidistant partition
``0 = t_0 < t_1 < ... < t_n = T`` and evaluates coefficients either at the
left endpoint of the current cell (``kappa``) or at a uniformly randomized
point inside it (``xi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant partition of [0, horizon] into ``n`` cells.

    Grid points are always computed as ``(k * horizon) / n`` rather than by
    accumulating ``dt``, so nested grids (n and 2n) share points exactly.
    """

    n: int
    horizon: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"step count must be >= 1, got {self.n}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n

    def point(self, k: int) -> float:
        """Grid point t_k = k*T/n for k in 0..n."""
        if not 0 <= k <= self.n:
            raise ValueError(f"grid index {k} outside 0..{self.n}")
        return (k * self.horizon) / self.n

    def points(self) -> np.ndarray:
        """All n+1 grid points as an array."""
        return np.arange(self.n + 1) * self.horizon / self.n

    def kappa(self, t: float) -> float:
        """Left endpoint t_{k-1} of the cell [t_{k-1}, t_k) containing t.

        The last cell is treated as closed on the right, so kappa(T) = t_{n-1}.
        """
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        k = min(int(math.floor(t * self.n / self.horizon)), self.n - 1)
        # (k*T)/n can round past t when t*n/T rounds up to the integer k
        return self.point(k - 1 if self.point(k) > t else k)

    def xi(self, k: int, phi: float) -> float:
        """Randomized evaluation point t_{k-1} + dt*phi inside cell k (1-based).

        ``phi`` must lie in (0, 1], so the result lies in (t_{k-1}, t_k].
        """
        if not 1 <= k <= self.n:
            raise ValueError(f"cell index {k} outside 1..{self.n}")
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        # for phi near 1 the sum can round one ulp past t_k
        return min(self.point(k - 1) + self.dt * phi, self.point(k))

    def xis(self, phi: np.ndarray, lo: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """``xi`` of cells lo+1, lo+2, ... at once, one cell per entry of phi's
        first axis, with the same bits; ``phi`` is not checked, and ``out`` may
        be ``phi`` itself."""
        k = np.arange(lo, lo + len(phi)).reshape((-1,) + (1,) * (phi.ndim - 1))
        out = np.multiply(phi, self.dt, out=out)
        out += k * self.horizon / self.n
        return np.minimum(out, (k + 1) * self.horizon / self.n, out=out)

    def cell_of(self, times: np.ndarray) -> np.ndarray:
        """1-based cell indices for event times, with tau in (t_{k-1}, t_k] -> k.

        Matches the stochastic-integral convention for jump increments: a jump
        exactly on a grid point belongs to the cell ending there. The cell is
        found from t*n/T and then checked against its edges ``(k * T) / n``,
        one step down and one up, so it is the first k whose right edge is at
        least t (n + 1 if the last edge rounds below t) without an n-long array.
        """
        times = np.asarray(times, dtype=float)
        if times.size and (times.min() <= 0.0 or times.max() > self.horizon):
            raise ValueError("event times must lie in (0, horizon]")
        k = np.clip(np.ceil(times * self.n / self.horizon), 1, self.n).astype(np.int64)
        k -= (k - 1) * self.horizon / self.n >= times
        k += k * self.horizon / self.n < times
        return k
