"""Strong-error convergence studies on coupled path ladders.

For every path one draw is built at the reference resolution; the reference
trajectory and all coarse levels consume the same Brownian and jump
realizations (by exact increment coarsening and per-cell jump assignment),
while the drift randomizers are independent per level. Errors are reported as
(E|x_ref - x_n|^p)^(1/p) at the terminal time (or the max over the coarse
grid), with batch-means standard errors.

Every Monte Carlo driver builds its draws with ``_draws`` and its scheme
configs with ``scheme.scheme_config``. Paths are processed in fixed-size
blocks by path index, scheduled by ``_map_blocks``; blocks are the unit of
parallelism and results are reduced in block order, so output is byte-stable
under any worker count.
"""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import CoefficientSet, build_model
from .rng import JumpModel, PathDraw, make_path_draw, normal_marks
from .scheme import (
    BatchResult,
    VARIANTS,
    scheme_config,
    simulate_paths,
    variant_is_randomized,
    variant_is_tamed,
)
from .taming import denominator

ERROR_TIMES = ("terminal", "max_over_grid")
N_BATCHES = 20  # batches of the batch-means standard error


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
    block_size: int = 250

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
        for v in self.variants + (self.reference_variant,):
            if v not in VARIANTS:
                raise ValueError(f"unknown scheme variant {v!r}")
        if self.error_time not in ERROR_TIMES:
            raise ValueError(f"error_time must be one of {ERROR_TIMES}")
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if not self.p_list or any(p < 1 for p in self.p_list):
            raise ValueError("p_list entries must be >= 1")
        if self.intensity < 0.0:
            raise ValueError("intensity must be >= 0")


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
            "rows": [
                {
                    "dt": r.dt,
                    "p": r.p,
                    "error": r.error,
                    "stderr": r.stderr,
                    "diverged_frac": r.diverged_frac,
                    "usable": r.usable,
                }
                for r in self.rows
            ],
            "slopes": {
                f"{p:g}": (
                    {"slope": f.slope, "intercept": f.intercept, "residual": f.residual}
                    if f
                    else None
                )
                for p, f in self.slopes.items()
            },
        }


def _draws(model: CoefficientSet, jump_model: JumpModel | None, base_seed: int, x0,
           paths: range, fine_n: int, levels: list[int]) -> list[PathDraw]:
    """One coupled draw per path index in ``paths``: increments and jumps at
    ``fine_n`` steps, drift randomizers for each of ``levels``."""
    return [
        make_path_draw(base_seed, i, fine_n=fine_n, m=model.dim_noise, horizon=model.horizon,
                       levels=levels, jump_model=jump_model, x0=x0)
        for i in paths
    ]


def _map_blocks(fn, num_paths: int, block_size: int, workers: int = 1, say=None) -> list:
    """``fn(paths)`` for each block of ``block_size`` path indices, in block order.

    With ``workers > 1`` the blocks run in a process pool (``fn`` must then
    pickle); the results come back in block order all the same.
    """
    say = say or (lambda _msg: None)
    blocks = [range(s, min(s + block_size, num_paths)) for s in range(0, num_paths, block_size)]
    say(f"simulating {num_paths} paths in {len(blocks)} blocks")
    workers = min(workers, len(blocks))  # a pool starts all its workers up front
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, blocks))
    results = []
    for paths in blocks:
        results.append(fn(paths))
        say(f"paths {paths.stop}/{num_paths} done")
    return results


def _study_block(cfg: StudyConfig, paths: range) -> dict:
    """Per-path error values for ``paths``; pure in (cfg, paths)."""
    model = build_model(cfg.model, cfg.model_params)
    jump_model = normal_marks(cfg.intensity) if cfg.intensity > 0.0 else None
    level_list = list(cfg.levels)
    draws = _draws(model, jump_model, cfg.base_seed, cfg.x0, paths, cfg.reference_n,
                   level_list + [cfg.reference_n])
    tame = dict(zeta=model.zeta, n_power=cfg.taming_n_power, x_power=cfg.taming_x_power)
    ref = simulate_paths(
        model, scheme_config(cfg.reference_variant, cfg.reference_n, **tame), draws, cfg.intensity
    )
    out: dict = {"ref_diverged": ref.diverged.copy()}
    for variant in cfg.variants:
        errs = np.empty((len(paths), len(level_list)))
        for j, n in enumerate(level_list):
            lvl = simulate_paths(model, scheme_config(variant, n, **tame), draws, cfg.intensity)
            factor = cfg.reference_n // n
            if cfg.error_time == "terminal":
                diff = np.linalg.norm(ref.states[:, -1] - lvl.states[:, -1], axis=-1)
            else:
                ref_on_coarse = ref.states[:, ::factor]
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

    ``workers`` only changes how blocks are scheduled, never the results.
    ``progress`` is an optional callable(str) fed coarse status lines.
    """
    results = _map_blocks(partial(_study_block, cfg), cfg.num_paths, cfg.block_size,
                          workers, progress)
    ref_diverged = np.concatenate([r["ref_diverged"] for r in results])
    horizon = build_model(cfg.model, cfg.model_params).horizon
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
        slopes: dict[float, RateFit | None] = {}
        for p in cfg.p_list:
            pts = [(r.dt, r.error) for r in rows
                   if r.p == p and r.usable and r.error > 0.0]
            try:
                slopes[p] = fit_rate(pts)
            except ValueError:
                slopes[p] = None
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


MOMENT_CHUNK = 128  # grid points per column chunk of the moment reduction


def _add_moments(res: BatchResult, q: float, sums: np.ndarray, bad: np.ndarray) -> int:
    """Add one level's sums over paths of |x_k|^q into ``sums`` (n+1,), flag
    the grid points with a non-finite state in ``bad`` (n+1,), and return the
    number of diverged paths.

    Works through column chunks of ``res.states`` so its temporaries stay
    small. Grid points are independent and each one's sum over paths keeps its
    row order, so the bits equal one whole-array reduction. The last chunk
    also takes the final point, so no chunk is one column wide: numpy sums a
    single column pairwise rather than row by row, which changes the bits.
    """
    n = res.states.shape[1] - 1
    for lo in range(0, n, MOMENT_CHUNK):
        hi = lo + MOMENT_CHUNK if lo + MOMENT_CHUNK < n else n + 1
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(res.states[:, lo:hi], axis=-1)  # (B, hi-lo)
            finite = np.isfinite(norms)
            powered = np.where(finite, norms, 0.0) ** q
        sums[lo:hi] += powered.sum(axis=0)
        bad[lo:hi] |= ~finite.all(axis=0)
    return int(res.diverged.sum())


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
    block_size: int = 2048,
) -> MomentTable:
    """Empirical sup over the grid of the q-th moment, per step count.

    A bounded, n-stable profile is the expected signature of a tamed scheme;
    blow-up shows as +inf rows (any non-finite path state makes the empirical
    moment infinite, and the diverged fraction is reported alongside).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    n_list = [int(n) for n in n_list]
    if not n_list or min(n_list) < 1:
        raise ValueError(f"n_list must be nonempty step counts >= 1, got {n_list}")
    if num_paths < 1:
        raise ValueError(f"num_paths must be >= 1, got {num_paths}")
    fine = max(n_list)
    for n in n_list:
        if fine % n != 0:
            raise ValueError("n_list entries must divide max(n_list) for coupled draws")
    intensity = jump_model.intensity if jump_model else 0.0
    cfgs = {n: scheme_config(variant, n, model.zeta, taming_n_power, taming_x_power)
            for n in n_list}
    levels = n_list if variant_is_randomized(variant) else []

    def run_block(paths: range) -> dict:
        # The block's draws die when this returns, before the next block's are
        # built; each level's result dies before the next level's states exist.
        draws = _draws(model, jump_model, base_seed, x0, paths, fine, levels)
        out = {}
        for n in n_list:
            sums, bad = np.zeros(n + 1), np.zeros(n + 1, dtype=bool)
            res = simulate_paths(model, cfgs[n], draws, intensity)
            out[n] = sums, bad, _add_moments(res, q, sums, bad)
            del res
        return out

    blocks = _map_blocks(run_block, num_paths, block_size)
    rows = []
    for n in n_list:
        # each block's sums start from zeros, so adding them in block order
        # makes the same float operations as accumulating into one array
        sums = sum((b[n][0] for b in blocks), np.zeros(n + 1))
        per_point = sums / num_paths
        per_point = np.where(np.any([b[n][1] for b in blocks], axis=0), np.inf, per_point)
        rows.append(
            MomentRow(
                n=n,
                dt=model.horizon / n,
                sup_moment=float(per_point.max()),
                diverged_frac=sum(b[n][2] for b in blocks) / num_paths,
            )
        )
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
    taming_n_power: float = 0.5,
    taming_x_power: float | None = None,
    mark_sample: int = 128,
    max_pairs: int = 32768,
) -> GapTable:
    """Monte Carlo estimate of the taming perturbation E|f - f_tamed|^p0.

    The drift gap is evaluated at the randomized drift times, diffusion and
    jump gaps at left endpoints, all along simulated tamed trajectories; each
    row averages over paths and steps. The fitted exponents are the decay
    slopes of log2(gap) against log2(dt). For untamed variants every gap is
    identically zero and no exponent is fitted.
    """
    if p0 < 2:
        raise ValueError("p0 must be >= 2")
    n_list = [int(n) for n in n_list]
    intensity = jump_model.intensity if jump_model else 0.0
    # all paths in one block, so each row's nanmean runs over every path at once
    draws = _draws(model, jump_model, base_seed, x0, range(num_paths), max(n_list), n_list)
    tamed_variant = variant_is_tamed(variant)
    # one fixed mark sample shared by all rows keeps the probe deterministic
    if jump_model is not None and tamed_variant:
        mark_gen = np.random.default_rng(base_seed)
        marks = np.asarray(jump_model.mark_sampler(mark_gen, mark_sample), dtype=float)
    rows = []
    for n in n_list:
        dt = model.horizon / n
        if not tamed_variant:
            rows.append(GapRow(n=n, dt=dt, drift_gap=0.0, diffusion_gap=0.0, jump_gap=0.0))
            continue
        cfg = scheme_config(variant, n, model.zeta, taming_n_power, taming_x_power)
        res = simulate_paths(model, cfg, draws, intensity)
        x_left = res.states[:, :-1, :]  # (B, n, d)
        ok = np.isfinite(x_left).all(axis=-1)
        t_left = np.arange(n) * dt  # (n,)
        if variant_is_randomized(variant):
            phis = np.stack([d.phis[n] for d in draws])
            t_drift = (t_left[None, :] + dt * phis)[..., None]
        else:
            t_drift = np.broadcast_to(t_left[None, :, None], x_left.shape[:2] + (1,))
        # gap factor: tamed f = f / D, so |f - tamed f| = |f| (D-1)/D
        dn = denominator(cfg.taming, x_left)
        shrink = np.where(ok, (dn - 1.0) / dn, np.nan)
        mu = np.linalg.norm(model.drift(t_drift, x_left, None), axis=-1)
        drift_gap = float(np.nanmean((mu * shrink) ** p0))
        sig = model.diffusion(t_left[None, :, None], x_left, None)
        sig_norm = np.sqrt(np.sum(sig * sig, axis=(-2, -1)))
        diffusion_gap = float(np.nanmean((sig_norm * shrink) ** p0))
        jump_gap = 0.0
        if jump_model is not None:
            flat_x = x_left.reshape(-1, model.dim_state)
            flat_t = np.broadcast_to(t_left[None, :], ok.shape).reshape(-1)
            flat_shrink = shrink.reshape(-1)
            stride = max(1, len(flat_x) // max_pairs)
            sx, st, ss = flat_x[::stride], flat_t[::stride], flat_shrink[::stride]
            gam = model.jump(
                st[:, None, None], sx[:, None, :], marks[None, :, :], None
            )  # (pairs, marks, d)
            gnorm = np.linalg.norm(gam, axis=-1)
            ez = np.mean(gnorm**p0, axis=1)  # per-pair mark expectation
            jump_gap = float(np.nanmean(intensity * ez * ss**p0))
        rows.append(GapRow(n=n, dt=dt, drift_gap=drift_gap,
                           diffusion_gap=diffusion_gap, jump_gap=jump_gap))
    exponents: dict[str, float | None] = {}
    for name in ("drift_gap", "diffusion_gap", "jump_gap"):
        pts = [(r.dt, getattr(r, name)) for r in rows if getattr(r, name) > 0.0]
        try:
            exponents[name] = fit_rate(pts).slope
        except ValueError:
            exponents[name] = None
    return GapTable(rows=rows, exponents=exponents)
