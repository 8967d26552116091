"""Strong-error convergence studies on coupled path ladders.

For every path one draw is built at the reference resolution; the reference
trajectory and all coarse levels consume the same Brownian and jump
realizations (by exact increment coarsening and per-cell jump assignment),
while the drift randomizers are independent per level. Errors are reported as
(E|x_ref - x_n|^p)^(1/p) at the terminal time (or the max over the coarse
grid), with batch-means standard errors.

Every Monte Carlo driver builds its draws with ``make_block_draw``. Paths are
processed in blocks of a fixed size (``STUDY_BLOCK_SIZE``, ``MOMENT_BLOCK_SIZE``)
by path index, scheduled by ``_map_blocks``; blocks are the unit of
parallelism and results are reduced in block order, so output is byte-stable
under any worker count.
"""

from __future__ import annotations

import math
import pickle
from concurrent import futures
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .grid import TimeGrid
from .model import _MODEL_REGISTRY, CoefficientSet, build_model, register_model
from .rng import BlockDraw, JumpModel, make_block_draw, normal_marks
from .rng import make_path_draw  # noqa: F401  (perfbench/spans.py wraps it here by name)
from .scheme import (
    VARIANTS,
    SchemeConfig,
    simulate_paths,
    variant_is_randomized,
    variant_is_tamed,
)
from .taming import denominator

ERROR_TIMES = ("terminal", "max_over_grid")
N_BATCHES = 20  # batches of the batch-means standard error
GAP_MARK_SAMPLE = 128  # marks of taming_gap_probe's jump-gap expectation
GAP_MAX_PAIRS = 32768  # most (state, time) pairs that expectation is evaluated at
STUDY_BLOCK_SIZE = 1000  # most paths of a study block; fewer when that gives each worker one
MOMENT_BLOCK_SIZE = 2048  # paths of a probe block (moment_probe, taming_gap_probe)


@dataclass(frozen=True)
class StudyConfig:
    """Everything a convergence study needs; a pure function of this config
    (seed included) determines the report bytes exactly."""

    model: str = "double-well"
    model_params: dict = field(default_factory=dict)
    x0: float | tuple = 2.0
    variants: tuple[str, ...] = ("randomized_tamed",)
    reference_variant: str = "randomized_untamed"
    levels: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048)
    reference_n: int = 8192
    num_paths: int = 2000
    p_list: tuple[float, ...] = (1, 2, 3, 4)
    error_time: str = "terminal"
    base_seed: int = 0
    intensity: float = 1.0
    taming_n_power: float = 0.5
    taming_x_power: float | None = None

    def __post_init__(self):
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if any(n < 1 for n in self.levels):
            raise ValueError("levels must be positive step counts")
        if self.reference_n <= max(self.levels):
            raise ValueError("reference_n must exceed every level")
        for n in self.levels:
            if self.reference_n % n != 0:
                raise ValueError(f"reference_n {self.reference_n} not divisible by level {n}")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"variants holds unknown scheme variant {v!r}")
        if self.reference_variant not in VARIANTS:
            raise ValueError(f"reference_variant is no scheme variant: {self.reference_variant!r}")
        if self.error_time not in ERROR_TIMES:
            raise ValueError(f"error_time must be one of {ERROR_TIMES}")
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if not self.p_list or any(p < 1 for p in self.p_list):
            raise ValueError("p_list entries must be >= 1")
        if not 0.0 <= self.intensity < math.inf:  # NaN fails too
            raise ValueError(f"intensity must be a finite number >= 0, got {self.intensity}")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float


def fit_rate(points) -> RateFit:
    """Ordinary least squares of log2(error) on log2(dt).

    The slope is the empirical strong convergence rate; residual is the sum of
    squared log2 residuals.
    """
    pts = [(float(dt), float(e)) for dt, e in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if any(e <= 0.0 or dt <= 0.0 for dt, e in pts):
        raise ValueError("rate fit requires positive step sizes and errors")
    x = np.log2([dt for dt, _ in pts])
    y = np.log2([e for _, e in pts])
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, _rank, _sv = np.linalg.lstsq(a, y, rcond=None)
    residual = float(res[0]) if res.size else 0.0
    return RateFit(slope=float(coef[0]), intercept=float(coef[1]), residual=residual)


def _fit_or_none(points) -> RateFit | None:
    """``fit_rate(points)``, or None where it cannot fit a rate."""
    try:
        return fit_rate(points)
    except ValueError:
        return None


@dataclass
class ErrorRow:
    dt: float
    p: float
    error: float
    stderr: float
    diverged_frac: float

    @property
    def usable(self) -> bool:
        return self.diverged_frac <= 0.5 and math.isfinite(self.error) and self.error >= 0.0


@dataclass
class ErrorReport:
    variant: str
    rows: list[ErrorRow]
    slopes: dict[float, RateFit | None]
    metadata: dict

    def rows_for_p(self, p: float) -> list[ErrorRow]:
        return [r for r in self.rows if r.p == p]

    def lp_ordering_ok(self) -> bool:
        """Power-mean (Jensen) ordering: for each level, error nondecreasing in p."""
        by_dt: dict[float, list[ErrorRow]] = {}
        for r in self.rows:
            by_dt.setdefault(r.dt, []).append(r)
        for rows in by_dt.values():
            rows = sorted(rows, key=lambda r: r.p)
            vals = [r.error for r in rows if math.isfinite(r.error)]
            if any(b < a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:])):
                return False
        return True

    def to_csv(self) -> str:
        lines = ["dt,p,error,stderr,diverged_frac"]
        for r in self.rows:
            lines.append(
                f"{r.dt:.17g},{r.p:.17g},{r.error:.17g},{r.stderr:.17g},{r.diverged_frac:.17g}"
            )
        for p in sorted(self.slopes):
            f = self.slopes[p]
            lines.append(f"# slope p={p:g}: {f.slope:.17g}" if f else f"# slope p={p:g}: nan")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "metadata": self.metadata,
            "rows": [{**asdict(r), "usable": r.usable} for r in self.rows],
            "slopes": {f"{p:g}": asdict(f) if f else None for p, f in self.slopes.items()},
        }


def _map_blocks(fn, num_paths: int, block_size: int, workers: int = 1, say=None,
                **pool) -> list:
    """``fn(paths)`` for each block of ``block_size`` path indices, in block order.

    With ``workers > 1`` the blocks run in a process pool made with the
    keywords ``pool`` (``fn`` must then pickle); the results come back in
    block order all the same.
    """
    say = say or (lambda _msg: None)
    blocks = [range(s, min(s + block_size, num_paths)) for s in range(0, num_paths, block_size)]
    say(f"simulating {num_paths} paths in {len(blocks)} blocks")
    workers = min(workers, len(blocks))  # a pool starts all its workers up front
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers, **pool) as executor:
            return list(executor.map(fn, blocks))
    results = []
    for paths in blocks:
        results.append(fn(paths))
        say(f"paths {paths.stop}/{num_paths} done")
    return results


def _study_block(cfg: StudyConfig, paths: range) -> dict:
    """Per-path error values for ``paths``; pure in (cfg, paths)."""
    model = build_model(cfg.model, cfg.model_params)
    jump_model = normal_marks(cfg.intensity) if cfg.intensity > 0.0 else None
    draws = make_block_draw(cfg.base_seed, paths, fine_n=cfg.reference_n, m=model.dim_noise,
                            horizon=model.horizon, jump_model=jump_model, x0=cfg.x0,
                            coarse=cfg.levels)
    tame = dict(n_power=cfg.taming_n_power, x_power=cfg.taming_x_power)
    factors = [cfg.reference_n // n for n in cfg.levels]
    # the reference keeps only the points the errors read: the terminal one, or
    # every point of the finest grid that holds all the levels' grids
    stride = math.gcd(*factors)
    terminal = cfg.error_time == "terminal"
    ref = simulate_paths(
        model, SchemeConfig(cfg.reference_variant, cfg.reference_n, **tame), draws,
        cfg.intensity, keep=slice(-1, None) if terminal else slice(None, None, stride),
    )
    out: dict = {"ref_diverged": ref.diverged.copy()}
    for variant in cfg.variants:
        errs = np.empty((len(paths), len(cfg.levels)))
        for j, n in enumerate(cfg.levels):
            lvl = simulate_paths(model, SchemeConfig(variant, n, **tame), draws, cfg.intensity,
                                 keep=slice(-1, None) if terminal else slice(None))
            # at the terminal time both hold one point, and the max is over it
            ref_on_coarse = ref.states[:, :: factors[j] // stride]
            diff = np.linalg.norm(ref_on_coarse - lvl.states, axis=-1).max(axis=1)
            diff = np.where(ref.diverged | lvl.diverged, np.nan, diff)
            errs[:, j] = diff
        out[variant] = errs
    return out


def _batch_means(values: np.ndarray, p: float) -> tuple[float, float]:
    """(E|v|^p)^(1/p) and its batch-means standard error over ``N_BATCHES``
    batches, nan-aware."""
    with np.errstate(invalid="ignore"):
        powered = np.abs(values) ** p
    mean = np.nanmean(powered) if np.any(np.isfinite(powered)) else np.nan
    error = mean ** (1.0 / p) if np.isfinite(mean) else np.nan
    batches = np.array_split(powered, N_BATCHES)
    bvals = []
    for b in batches:
        if b.size and np.any(np.isfinite(b)):
            bvals.append(np.nanmean(b) ** (1.0 / p))
    if len(bvals) < 2:
        return float(error), float("nan")
    stderr = float(np.std(bvals, ddof=1) / math.sqrt(len(bvals)))
    return float(error), stderr


def strong_error_study(
    cfg: StudyConfig, workers: int = 1, progress=None
) -> list[ErrorReport]:
    """Run the coupled ladder study; one report per scheme variant.

    Blocks hold ``STUDY_BLOCK_SIZE`` paths, fewer when that gives each worker
    one; ``workers`` only changes how blocks are scheduled, never the results.
    ``progress`` is an optional callable(str) fed coarse status lines.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    horizon = build_model(cfg.model, cfg.model_params).horizon
    # a worker started by spawn or forkserver knows only the built-in presets,
    # so each is handed the model's factory
    factory = _MODEL_REGISTRY[cfg.model]
    if workers > 1:
        try:
            pickle.dumps(factory)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(f"model {cfg.model!r} cannot run with workers > 1: its factory "
                             f"does not pickle ({exc}); register a module-level function") from exc
    block_size = min(STUDY_BLOCK_SIZE, -(-cfg.num_paths // workers))
    results = _map_blocks(partial(_study_block, cfg), cfg.num_paths, block_size, workers,
                          progress, initializer=register_model, initargs=(cfg.model, factory))
    ref_diverged = np.concatenate([r["ref_diverged"] for r in results])
    reports = []
    for variant in cfg.variants:
        errs = np.concatenate([r[variant] for r in results], axis=0)  # (M, L)
        rows: list[ErrorRow] = []
        for j, n in enumerate(cfg.levels):
            dt = horizon / n
            col = errs[:, j]
            diverged_frac = float(np.mean(~np.isfinite(col)))
            for p in cfg.p_list:
                error, stderr = _batch_means(col, p)
                rows.append(ErrorRow(dt=dt, p=p, error=error, stderr=stderr,
                                     diverged_frac=diverged_frac))
        slopes = {p: _fit_or_none([(r.dt, r.error) for r in rows
                                   if r.p == p and r.usable and r.error > 0.0])
                  for p in cfg.p_list}
        reports.append(
            ErrorReport(
                variant=variant,
                rows=rows,
                slopes=slopes,
                metadata={
                    "model": cfg.model,
                    "model_params": dict(cfg.model_params),
                    "x0": cfg.x0 if np.isscalar(cfg.x0) else list(cfg.x0),
                    "base_seed": cfg.base_seed,
                    "num_paths": cfg.num_paths,
                    "levels": list(cfg.levels),
                    "reference_n": cfg.reference_n,
                    "reference_variant": cfg.reference_variant,
                    "error_time": cfg.error_time,
                    "intensity": cfg.intensity,
                    "reference_diverged_frac": float(np.mean(ref_diverged)),
                },
            )
        )
    return reports


@dataclass
class MomentRow:
    n: int
    dt: float
    sup_moment: float
    diverged_frac: float


@dataclass
class MomentTable:
    rows: list[MomentRow]

    def max_min_ratio(self) -> float:
        vals = [r.sup_moment for r in self.rows if math.isfinite(r.sup_moment)]
        if len(vals) < len(self.rows) or not vals:
            return math.inf
        return max(vals) / min(vals)


def _add_chunk(q: float, sums: np.ndarray, lo: int, chunk: np.ndarray):
    """Add the sums over paths of |x_k|^q of ``chunk``, the (B, w, d) states of
    grid points lo..lo+w-1, into ``sums`` (n+1,); a non-finite state makes its
    point's sum non-finite.

    Grid points are independent and each one's sum over paths keeps its row
    order, so over ``_chunks`` the bits equal one whole-array reduction. No
    chunk may be one column wide: numpy sums a single column pairwise rather
    than row by row, which changes the bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        powered = np.linalg.norm(chunk, axis=-1)  # (B, w)
        powered **= q  # in place, which keeps one (B, w) array fewer live
    sums[lo : lo + chunk.shape[1]] += powered.sum(axis=0)


def _probe(level, model: CoefficientSet, variant: str, n_list, num_paths: int, x0,
           jump_model: JumpModel | None, base_seed: int, **tame) -> tuple[list[int], list[dict]]:
    """Both probes' front end: checks their arguments and returns ``n_list`` as
    ints and, per ``MOMENT_BLOCK_SIZE`` block, n -> ``level(paths, draws, cfg,
    intensity)``, finest level first (its pass sums the coarser levels' draws)."""
    n_list = [int(n) for n in n_list]
    if not n_list or min(n_list) < 1:
        raise ValueError(f"n_list must be nonempty step counts >= 1, got {n_list}")
    if num_paths < 1:
        raise ValueError(f"num_paths must be >= 1, got {num_paths}")
    fine = max(n_list)
    if any(fine % n for n in n_list):
        raise ValueError("n_list entries must divide max(n_list) for coupled draws")
    cfgs = {n: SchemeConfig(variant, n, **tame) for n in n_list}
    intensity = jump_model.intensity if jump_model else 0.0

    def run_block(paths: range) -> dict:
        # the block's draws die when this returns, before the next block's are built
        draws = make_block_draw(base_seed, paths, fine_n=fine, m=model.dim_noise,
                                horizon=model.horizon, jump_model=jump_model, x0=x0, coarse=n_list)
        return {n: level(paths, draws, cfgs[n], intensity)
                for n in sorted(n_list, key=lambda n: n != fine)}

    return n_list, _map_blocks(run_block, num_paths, MOMENT_BLOCK_SIZE)


def moment_probe(
    model: CoefficientSet,
    variant: str,
    n_list,
    q: float,
    num_paths: int,
    *,
    x0=2.0,
    jump_model: JumpModel | None = None,
    base_seed: int = 0,
    taming_n_power: float = 0.5,
    taming_x_power: float | None = None,
) -> MomentTable:
    """Empirical sup over the grid of the q-th moment, per step count.

    A bounded, n-stable profile is the expected signature of a tamed scheme;
    blow-up shows as +inf rows: a level where the kernel flags any path as
    diverged has an infinite empirical moment, and the diverged fraction is
    reported alongside.
    """
    if q < 2:
        raise ValueError("q must be >= 2")

    def level(_paths: range, draws: BlockDraw, cfg, intensity: float) -> tuple:
        # the kernel reduces each chunk of states as it is stepped
        sums = np.zeros(cfg.n + 1)
        res = simulate_paths(model, cfg, draws, intensity, keep=slice(0),
                             on_chunk=partial(_add_chunk, q, sums))
        return sums, int(res.diverged.sum())

    n_list, blocks = _probe(level, model, variant, n_list, num_paths, x0, jump_model, base_seed,
                            n_power=taming_n_power, x_power=taming_x_power)
    rows = []
    for n in n_list:
        # each block's sums start from zeros, so adding them in block order
        # makes the same float operations as accumulating into one array
        sums = sum((b[n][0] for b in blocks), np.zeros(n + 1))
        diverged = sum(b[n][1] for b in blocks)
        rows.append(MomentRow(n, model.horizon / n,
                              math.inf if diverged else float((sums / num_paths).max()),
                              diverged / num_paths))
    return MomentTable(rows=rows)


@dataclass
class GapRow:
    n: int
    dt: float
    drift_gap: float
    diffusion_gap: float
    jump_gap: float


@dataclass
class GapTable:
    rows: list[GapRow]
    exponents: dict[str, float | None]


def taming_gap_probe(
    model: CoefficientSet,
    variant: str,
    n_list,
    p0: float,
    num_paths: int,
    *,
    x0=2.0,
    jump_model: JumpModel | None = None,
    base_seed: int = 0,
) -> GapTable:
    """Monte Carlo estimate of the taming perturbation E|f - f_tamed|^p0.

    The drift gap is evaluated at the randomized drift times, diffusion and
    jump gaps at left endpoints, all along simulated tamed trajectories; each
    row averages over paths and steps (the jump gap over every ``stride``-th
    pair of the run), added up chunk by chunk as the kernel steps. The fitted
    exponents are the decay slopes of log2(gap) against log2(dt). For untamed
    variants every gap is identically zero and no exponent is fitted.
    """
    if p0 < 2:
        raise ValueError("p0 must be >= 2")
    tamed, randomized = variant_is_tamed(variant), variant_is_randomized(variant)
    # one fixed mark sample shared by all rows keeps the probe deterministic
    if jump_model is not None and tamed:
        mark_gen = np.random.default_rng(base_seed)
        marks = np.asarray(jump_model.mark_sampler(mark_gen, GAP_MARK_SAMPLE), dtype=float)

    def level(paths: range, draws: BlockDraw, cfg, intensity: float) -> np.ndarray:
        sums = np.zeros((2, 3))  # the drift, diffusion and jump gaps' sums, then pair counts
        if not tamed:
            return sums
        n, grid, tcfg = cfg.n, TimeGrid(cfg.n, model.horizon), cfg.taming_for(model)
        points = grid.points()[None, :, None]  # (1, n+1, 1), as the coefficients take times
        phis = {n: draws.phis[n]} if randomized else {}  # filled once, for both readers
        stride = max(1, num_paths * n // GAP_MAX_PAIRS)
        first = np.arange(paths.start, paths.stop)[:, None] * n  # each path's first pair

        def add(lo: int, chunk: np.ndarray):
            x = chunk[:, : n - lo]  # the left points: the last chunk also holds t_n
            w = x.shape[1]
            t = points[:, lo : lo + w]
            t_drift = grid.xis(phis[n][:, lo : lo + w].T, lo).T[..., None] if randomized else t
            # gap factor: tamed f = f / D, so |f - tamed f| = |f| (D-1)/D
            dn = denominator(tcfg, x)
            shrink = np.where(np.isfinite(x).all(axis=-1), (dn - 1.0) / dn, np.nan)
            mu = np.linalg.norm(model.drift(t_drift, x, None), axis=-1)
            sig_norm = np.sqrt(np.sum(model.diffusion(t, x, None) ** 2, axis=(-2, -1)))
            gaps = [(mu * shrink) ** p0, (sig_norm * shrink) ** p0]
            if jump_model is not None:
                pick = (first + np.arange(lo, lo + w)) % stride == 0
                st, xs = np.broadcast_to(t[..., 0], pick.shape)[pick], x[pick]
                ez = np.empty(len(st))  # per-pair expectation, a slice of pairs at a time
                span = GAP_MAX_PAIRS // GAP_MARK_SAMPLE
                for part in (slice(a, a + span) for a in range(0, len(st), span)):
                    # (pairs, marks, d)
                    gam = model.jump(st[part, None, None], xs[part, None, :], marks[None], None)
                    ez[part] = np.mean(np.linalg.norm(gam, axis=-1) ** p0, axis=1)
                gaps.append(intensity * ez * shrink[pick] ** p0)
            for j, gap in enumerate(gaps):
                sums[:, j] += np.nansum(gap), np.count_nonzero(~np.isnan(gap))

        simulate_paths(model, cfg, replace(draws, phis=phis), intensity, keep=slice(0),
                       on_chunk=add)
        return sums

    n_list, blocks = _probe(level, model, variant, n_list, num_paths, x0, jump_model, base_seed)
    measured = [tamed, tamed, tamed and jump_model is not None]  # the other gaps are 0
    rows = []
    for n in n_list:
        # block sums added in block order, over the pairs of every block
        sums, counts = sum((b[n] for b in blocks), np.zeros((2, 3)))
        with np.errstate(invalid="ignore"):  # nan where no pair's gap is a number
            gaps = np.where(measured, sums / counts, 0.0)
        rows.append(GapRow(n, model.horizon / n, *map(float, gaps)))
    fits = {name: _fit_or_none([(r.dt, getattr(r, name)) for r in rows
                                if getattr(r, name) > 0.0])
            for name in ("drift_gap", "diffusion_gap", "jump_gap")}
    return GapTable(rows=rows, exponents={name: f.slope if f else None for name, f in fits.items()})
