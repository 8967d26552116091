"""Reproducible randomness with independent named substreams per path.

Each Monte Carlo path owns a set of substreams (Brownian increments, jump
path, per-level drift randomizers, initial value, regime chain) derived from
a single base seed. Streams are keyed by ``(base_seed, path_index, tag,
level)`` through numpy's SeedSequence into a counter-based Philox generator,
so results are bit-identical across runs and across any worker layout, and
distinct keys give statistically independent streams.

``make_block_draw`` builds a block of paths' draws, deriving all their
stream keys in one vectorized pass, and serves its Brownian increments and
drift randomizers a window of cells at a time, with the same bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence


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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _POOL, _M32 = 0xCA01F9DD, 0x4973F715, 4, 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, keeping its running constant, of a Python int or uint32 array."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ (r >> 16)


def _philox_keys(base_seed: int, spawn_cols) -> np.ndarray:
    """``SeedSequence(base_seed, spawn_key=row).generate_state(2, np.uint64)``,
    the key ``Philox`` takes, for each row of the (path_index, tag, level)
    int columns ``spawn_cols``, as (K, 2) uint64: a port of ``mix_entropy``
    (pool of 4) and ``generate_state`` in wrapping uint32 arithmetic."""
    seed = int(base_seed)
    if seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {seed}")
    run = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    spawn = []
    for name, col in zip(("path_index", "tag", "level"), map(np.asarray, spawn_cols)):
        if col.size and (col.min() < 0 or col.max() > _M32):
            raise ValueError(f"{name} must lie in [0, 2**32), got {col.min()}..{col.max()}")
        spawn.append(col.astype(np.uint32))
    # with a spawn key, SeedSequence pads the seed's words to the pool size
    entropy = run + [0] * (_POOL - len(run)) + spawn
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src, dst in itertools.permutations(range(_POOL), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # four uint32 words, read little-endian in pairs
    w = [np.asarray(word, dtype=np.uint64) for word in map(_hasher(_INIT_B, _MULT_B), pool)]
    return np.stack([w[0] | w[1] << np.uint64(32), w[2] | w[3] << np.uint64(32)], axis=-1)


def uniform_open_closed(gen: np.random.Generator, size=None) -> np.ndarray:
    """Uniform draws on (0, 1]: 1 - u with u uniform on [0, 1)."""
    return 1.0 - gen.random(size)


def brownian_increments(key: StreamKey, n_fine: int, m: int, horizon: float) -> np.ndarray:
    """n_fine iid Normal(0, (T/n_fine) I_m) increment vectors, shape (n_fine, m)."""
    if n_fine < 1:
        raise ValueError("n_fine must be >= 1")
    return key.generator().normal(0.0, math.sqrt(horizon / n_fine), size=(n_fine, m))


def coarsen(fine: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive groups of ``factor`` increments.

    The output is exactly the fine path's increments over the coarse cells, so
    coarse and fine schemes can be driven by the same Brownian realization.
    """
    fine = np.asarray(fine)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    n = fine.shape[0]
    if n % factor != 0:
        raise ValueError(f"factor {factor} does not divide increment count {n}")
    shape = (n // factor, factor) + fine.shape[1:]
    return np.sum(fine.reshape(shape), axis=1)


def _jumps(gen: np.random.Generator, intensity: float, horizon: float, mark_sampler):
    if intensity < 0.0 or not math.isfinite(intensity):
        raise ValueError("intensity must be finite and >= 0")
    count = int(gen.poisson(intensity * horizon)) if intensity > 0.0 else 0
    times = np.sort(horizon * uniform_open_closed(gen, count))
    marks = np.asarray(mark_sampler(gen, count), dtype=float)
    if marks.ndim == 1:
        marks = marks[:, None]
    return times, marks


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
    return _jumps(key.generator(), intensity, horizon, mark_sampler)


@dataclass(frozen=True)
class JumpModel:
    """Finite-intensity compound Poisson description of the jump noise;
    ``mark_sampler(gen, size)`` returns ``size`` marks, (size,) or (size, k)."""

    intensity: float
    mark_sampler: Callable[[np.random.Generator, int], np.ndarray]

    def __post_init__(self):
        if not 0.0 <= self.intensity < math.inf:  # NaN fails too
            raise ValueError(f"intensity must be a finite number >= 0, got {self.intensity}")


def normal_marks(intensity: float = 1.0) -> JumpModel:
    """Jump model with standard normal scalar marks."""
    return JumpModel(intensity, lambda gen, size: gen.normal(size=(size, 1)))


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
    jump_marks: np.ndarray  # (J, k), k the sampler's mark width
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


WINDOW = 1024  # most cells per window of a block's draws; a multiple of 4 (see _Randomizers)
WINDOW_DRAWS = 1 << 18  # most draws (cells x rows) per window: 2 MB of float64
ROWS = 64  # rows drawn path-major at a time, then copied into a time-major window


def _window(rows: int) -> int:
    """Cells per window for a block of ``rows`` paths: ``WINDOW``, halved
    while the window would hold more than ``WINDOW_DRAWS`` draws, down to 128."""
    w = WINDOW
    while w > 128 and w * rows > WINDOW_DRAWS:
        w //= 2
    return w


class _Randomizers:
    """A block's drift randomizers, for any level, filled from the level's
    stream keys when read. The block owns one pool of generators, one per
    row, built on the first read: a read of a level re-keys them (``_rekey``)
    and carries them from one window to the next. ``random()`` takes one
    Philox word per double and Philox makes four words per counter, so a
    read that does not continue the previous window starts its generators at
    counter ``lo // 4``."""

    def __init__(self, base_seed: int, paths: range):
        self._seed, self._paths = base_seed, paths
        self._next, self._gens = None, []  # (level, lo) the pool's generators continue at

    def window(self, n: int, lo: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (w, B) with level n's randomizers of cells lo..lo+w-1
        (lo a multiple of 4), time-major."""
        (w, B), paths = out.shape, self._paths
        if self._next != (n, lo):
            keys = _philox_keys(self._seed, (paths, [StreamTag.RANDOMIZER] * B, [n] * B))
            self._gens = _rekey(self._gens, keys, lo // 4)
        gens, rows = self._gens, np.empty((min(ROWS, B), w))
        for r in range(0, B, ROWS):
            part = rows[: min(ROWS, B - r)]
            for gen, row in zip(gens[r : r + ROWS], part):
                gen.random(out=row)
            np.subtract(1.0, part, out=part)  # uniform_open_closed
            out[:, r : r + len(part)] = part.T
        self._next = (n, lo + w) if lo + w < n else None
        return out

    def __getitem__(self, n: int) -> np.ndarray:
        """Level n's randomizers, (B, n): a new array on every read."""
        return self.window(n, 0, np.empty((n, len(self._paths)))).T


class _Key(ISeedSequence):
    """A Philox key already derived, as a seed: ``Philox(_Key(key))`` is
    ``Philox(key=key)`` without drawing fresh OS entropy, in half the time."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


_ANY_KEY = _Key(np.zeros(2, dtype=np.uint64))  # shared by the generators ``_rekey`` builds


def _rekey(gens: list, keys: np.ndarray, counter: int = 0) -> list:
    """``gens``, each put in the state of ``Philox(key=key, counter=counter)``
    for its row of ``keys`` (K, 2): a fresh stream, whatever it drew before.
    One state dict of plain ints serves every generator. The list is first
    extended to K generators, built from ``_ANY_KEY`` (a seed would run
    SeedSequence for each)."""
    gens += [np.random.Generator(np.random.Philox(_ANY_KEY))
             for _ in range(len(keys) - len(gens))]
    inner = {"counter": [counter, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}  # 4: the buffer is empty
    for gen, key in zip(gens, keys.tolist()):
        inner["key"] = key
        gen.bit_generator.state = state
    return gens


def _coarse_sums(part: np.ndarray, f: int) -> np.ndarray:
    """``part.reshape(R, W // f, f, m).sum(axis=2)`` of ``part`` (R, W, m),
    bit for bit. At m = 1 and f <= 8 it adds the f strided columns in the
    order of numpy's pairwise sum, which is faster for so short a sum:
    sequential below 8 terms, eight accumulators combined pairwise at 8, and
    the reduction's +0.0 identity added last."""
    if part.shape[2] != 1 or not 2 <= f <= 8:
        return part.reshape(len(part), part.shape[1] // f, f, part.shape[2]).sum(axis=2)
    t = [part[:, j::f] for j in range(f)]
    if f < 8:
        s = t[0] + t[1]
        for a in t[2:]:
            s += a
    else:
        s = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
    s += 0.0
    return s


def _check_level(n: int, fine_n: int):
    if n < 1 or fine_n % n:
        raise ValueError(f"level {n} is below 1 or does not divide fine resolution {fine_n}")


class _Brownian:
    """A block's Brownian increments, ``fine`` whole (B, fine_n, m) or drawn
    window by window from the rows' Brownian stream ``keys``. The block owns
    one pool of generators, one per row, built on the first pass: each pass
    re-keys them (``_rekey``) and carries them from one window to the next.

    A pass over the fine windows also sums each window, in path-major layout,
    into the coarse levels not yet filled, so a coarse level is drawn once and
    kept, time-major; one read before the fine level runs makes a pass of its
    own. A fine window is served in one buffer, valid until the next."""

    def __init__(self, fine_n: int, m: int, *, fine=None, keys=None, sd=0.0, coarse=()):
        self.fine_n, self.m, self._fine, self._keys, self._sd = fine_n, m, fine, keys, sd
        self.rows, self._gens = len(keys if fine is None else fine), []
        self._coarse = dict.fromkeys(coarse)  # n -> (n, B, m), None until a pass fills it

    def _fine_windows(self):
        fine_n, m, fine, B = self.fine_n, self.m, self._fine, self.rows
        todo = {n: fine_n // n for n, sums in self._coarse.items() if sums is None}
        # a window is as many lots as _window(B) holds, or one; a lot holds whole
        # coarse cells of every level it fills, and 4k cells (see _Randomizers)
        lot = math.lcm(4, *todo.values())
        w = min(max(_window(B) // lot, 1) * lot, fine_n)
        R, gens = (ROWS if fine is None else B), []
        if fine is None:
            # a pass holds the pool until its last window, so no two passes share it
            gens, self._gens = _rekey(self._gens, self._keys), []
            drawn = np.empty((min(R, B), w, m))
        sums = {n: np.empty((n, B, m)) for n in todo}
        buf = np.empty((w, B, m))
        for lo in range(0, fine_n, w):
            hi = min(lo + w, fine_n)
            for r in range(0, B, R):
                rows = slice(r, min(r + R, B))
                if fine is None:
                    part = drawn[: rows.stop - r, : hi - lo]
                    for gen, row in zip(gens[rows], part):
                        gen.standard_normal(out=row)
                    # normal(0.0, sd)'s own loc + scale * z
                    np.multiply(part, self._sd, out=part)
                    np.add(part, 0.0, out=part)
                else:
                    part = fine[rows, lo:hi]
                for n, f in todo.items():
                    sums[n][lo // f : hi // f, rows] = _coarse_sums(part, f).transpose(1, 0, 2)
                buf[: hi - lo, rows] = part.transpose(1, 0, 2)
            if hi == fine_n:  # a reader may stop at the last window
                self._coarse.update(sums)
                self._gens = gens
            yield lo, buf[: hi - lo]

    def windows(self, n: int):
        """(lo, increments) of level n's cells lo.., time-major (w, B, m):
        bit for bit each row's ``coarsen``."""
        _check_level(n, self.fine_n)
        if n == self.fine_n:
            yield from self._fine_windows()
            return
        if self._coarse.get(n) is None:
            self._coarse[n] = None
            for _ in self._fine_windows():
                pass
        inc, w = self._coarse[n], _window(self.rows)
        for lo in range(0, n, w):
            yield lo, inc[lo : lo + w]


@dataclass
class BlockDraw:
    """The randomness of a block of paths: row b is the block's b-th path,
    holding what that path's ``PathDraw`` holds. The kernel reads the
    increments and randomizers a window at a time (``windows``)."""

    brownian: _Brownian
    jump_times: np.ndarray  # (J,), in row order, then time order
    jump_rows: np.ndarray  # (J,), the row of each jump
    jump_marks: np.ndarray  # (J, k), k the sampler's mark width; (0, 1) without jumps
    phis: dict[int, np.ndarray] | _Randomizers  # n -> (B, n); _Randomizers fill when read
    x0: np.ndarray  # (B, d)

    @classmethod
    def stack(cls, draws: list[PathDraw]) -> BlockDraw:
        """The block of ``draws``, with the randomizer levels they all have,
        each checked to lie in (0, 1]. One draw's arrays are viewed, not copied."""
        d0 = draws[0]
        stack = (lambda arrays: arrays[0][None]) if len(draws) == 1 else np.stack
        phis = {n: stack([d.phis[n] for d in draws])
                for n in d0.phis if all(n in d.phis for d in draws)}
        for n, phi in phis.items():
            if not (phi.min() > 0.0 and phi.max() <= 1.0):  # NaN fails both
                raise ValueError(f"randomizers (phis) for level n={n} must lie in (0, 1]")
        return cls(
            brownian=_Brownian(d0.fine_n, d0.m, fine=stack([d.fine_increments for d in draws])),
            jump_times=np.concatenate([d.jump_times for d in draws]),
            jump_rows=np.repeat(np.arange(len(draws)), [len(d.jump_times) for d in draws]),
            jump_marks=np.concatenate([d.jump_marks for d in draws]),
            phis=phis,
            x0=stack([d.x0 for d in draws]),
        )

    def windows(self, n: int, randomized: bool):
        """Level n's draws a window at a time: (lo, dW, phi), the increments
        (w, B, m) and, when ``randomized``, the drift randomizers (w, B) of
        cells lo..lo+w-1, both C-contiguous (time-major) and each in a buffer
        that the next window refills."""
        keyed = isinstance(self.phis, _Randomizers)  # any level, (0, 1] by construction
        if randomized and not keyed and n not in self.phis:
            raise ValueError(f"draws lack randomizers (phis) for level n={n}")
        buf = phi = None
        for lo, dW in self.brownian.windows(n):
            if randomized:
                buf = np.empty(dW.shape[:2]) if buf is None else buf
                phi = buf[: len(dW)]
                if keyed:
                    self.phis.window(n, lo, phi)
                else:
                    phi[...] = self.phis[n][:, lo : lo + len(dW)].T
            yield lo, dW, phi


def make_block_draw(base_seed: int, paths: range, *, fine_n: int, m: int, horizon: float,
                    jump_model: JumpModel | None = None, x0=0.0, coarse=()) -> BlockDraw:
    """The draws of the path indices ``paths`` as one block; row b is bit for
    bit ``make_path_draw(base_seed, paths[b], ...)``, at every level.

    The Brownian, jump and init keys come from one ``_philox_keys`` call; one
    Philox generator is re-keyed (``_rekey``) to each jump and init key in
    turn, the state of a fresh ``StreamKey(...).generator()``. So the
    generator passed to ``jump_model.mark_sampler`` or to a callable ``x0`` is
    valid only during that call; a constant ``x0`` is tiled over the rows.
    Brownian increments are drawn a window at a time and randomizers filled,
    at any level, when read, each from a pool of one generator per row that
    is re-keyed at every pass and level read; the levels ``coarse`` are
    summed from the fine windows as they are drawn. A block builds at most
    2·B + 1 generators, whatever its levels.
    """
    if fine_n < 1:
        raise ValueError("fine_n must be >= 1")
    for n in coarse:
        _check_level(n, fine_n)
    jumps = jump_model is not None and jump_model.intensity > 0.0
    streams = ([(StreamTag.BROWNIAN, 0)] + [(StreamTag.JUMPS, 0)] * jumps
               + [(StreamTag.INIT, 0)] * callable(x0))
    B, S = len(paths), len(streams)
    tags, stream_levels = np.array(streams, dtype=np.int64).T
    cols = (np.repeat(np.asarray(paths), S), np.tile(tags, B), np.tile(stream_levels, B))
    keys = _philox_keys(base_seed, cols).reshape(B, S, 2)
    gens = []  # one generator, built on the first call

    def stream(key):  # the generator, in a fresh one's state under ``key`` (1, 2)
        return _rekey(gens, key)[0]

    path_jumps = [_jumps(stream(keys[b, 1:2]), jump_model.intensity, horizon,
                         jump_model.mark_sampler) for b in range(B)] if jumps else []
    if callable(x0):
        x0 = np.stack([np.atleast_1d(np.asarray(x0(stream(keys[b, -1:])), dtype=float))
                       for b in range(B)])
    else:
        x0 = np.tile(np.atleast_1d(np.asarray(x0, dtype=float)), (B, 1))
    times = [np.empty(0)] + [t for t, _ in path_jumps]
    marks = [z for _, z in path_jumps] or [np.empty((0, 1))]
    brownian = _Brownian(fine_n, m, keys=keys[:, 0], sd=math.sqrt(horizon / fine_n),
                         coarse=[n for n in coarse if n != fine_n])
    return BlockDraw(brownian=brownian, jump_times=np.concatenate(times),
                     jump_rows=np.repeat(np.arange(len(path_jumps)), [len(t) for t in times[1:]]),
                     jump_marks=np.concatenate(marks),
                     phis=_Randomizers(base_seed, paths), x0=x0)


def make_path_draw(base_seed: int, path_index: int, *, fine_n: int, m: int, horizon: float,
                   levels, jump_model: JumpModel | None = None, x0=0.0) -> PathDraw:
    """Build one path's full randomness as a pure function of (seed, index).

    ``levels`` lists every step count the draw will be simulated at (each gets
    its own randomizer stream). ``x0`` may be a fixed vector or a callable
    ``gen -> vector`` sampled from the path's init stream. Each array comes
    from its own ``StreamKey``, bit for bit row ``path_index`` of a
    ``make_block_draw`` block.
    """
    key = partial(StreamKey, base_seed, path_index)
    dW = brownian_increments(key(StreamTag.BROWNIAN), fine_n, m, horizon)
    times, marks = np.empty(0), np.empty((0, 1))
    if jump_model is not None and jump_model.intensity > 0.0:
        times, marks = jump_path(key(StreamTag.JUMPS), jump_model.intensity, horizon,
                                 jump_model.mark_sampler)
    phis = {n: uniform_open_closed(key(StreamTag.RANDOMIZER, n).generator(), n)
            for n in map(int, levels)}
    x0 = x0(key(StreamTag.INIT).generator()) if callable(x0) else x0
    return PathDraw(fine_n, m, horizon, dW, times, marks, phis, x0)
