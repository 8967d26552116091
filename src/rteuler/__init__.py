"""Randomized tamed Euler schemes for jump SDEs with time-irregular drift,
plus a coupled-path Monte Carlo harness for strong convergence rates."""

from .constraints import (
    check_coercivity,
    check_double_well_monotonicity_empirical,
    check_monotonicity,
    normal_moment,
)
from .grid import TimeGrid
from .harness import (
    StudyConfig,
    fit_rate,
    moment_probe,
    strong_error_study,
    taming_gap_probe,
)
from .markov import Generator, MarkovPath, simulate_ctmc
from .model import (
    CoefficientSet,
    DoubleWellParams,
    EnvState,
    build_model,
    double_well_model,
    probe_growth,
    register_model,
    sawtooth,
    scalar_model,
)
from .rng import (
    JumpModel,
    PathDraw,
    StreamKey,
    StreamTag,
    brownian_increments,
    coarsen,
    jump_path,
    make_path_draw,
    normal_marks,
)
from .scheme import (
    BatchResult,
    DivergedPathError,
    SchemeConfig,
    VARIANTS,
    simulate_path,
    simulate_paths,
    simulate_sdde_switching,
)
from .taming import TamingConfig, check_taming_bounds, denominator

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "CoefficientSet",
    "DivergedPathError",
    "DoubleWellParams",
    "EnvState",
    "Generator",
    "JumpModel",
    "MarkovPath",
    "PathDraw",
    "SchemeConfig",
    "StreamKey",
    "StreamTag",
    "StudyConfig",
    "TimeGrid",
    "TamingConfig",
    "VARIANTS",
    "brownian_increments",
    "build_model",
    "check_coercivity",
    "check_double_well_monotonicity_empirical",
    "check_monotonicity",
    "check_taming_bounds",
    "coarsen",
    "denominator",
    "double_well_model",
    "fit_rate",
    "jump_path",
    "make_path_draw",
    "moment_probe",
    "normal_marks",
    "normal_moment",
    "probe_growth",
    "register_model",
    "sawtooth",
    "scalar_model",
    "simulate_ctmc",
    "simulate_path",
    "simulate_paths",
    "simulate_sdde_switching",
    "strong_error_study",
    "taming_gap_probe",
]
