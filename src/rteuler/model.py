"""SDE problem definitions: coefficient sets, growth metadata, and presets.

A problem instance is the triple of drift/diffusion/jump coefficients with a
declared superlinear growth exponent and horizon. Coefficient callables must
be numpy-vectorized over leading batch axes: the state argument has shape
``(..., d)`` and the time argument broadcasts against it (the steppers pass a
scalar or a ``(..., 1)`` column). Randomness or regime dependence of the
coefficients enters only through the ``env`` argument.
"""

from __future__ import annotations

import dataclasses
import inspect
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class EnvState:
    """Extra evaluation context for coefficients.

    ``regime`` is the current state of a switching chain (1-based), and
    ``delayed_state`` carries the lagged state vector for delay equations.
    """

    regime: int | None = None
    delayed_state: np.ndarray | None = None


@dataclass
class CoefficientSet:
    """Evaluable drift/diffusion/jump coefficients with growth metadata.

    Shapes: ``drift(t, x, env) -> (..., d)``; ``diffusion(t, x, env) ->
    (..., d, m)``; ``jump(t, x, z, env) -> (..., d)`` with marks ``z`` of
    shape ``(..., mark_dim)``. The time argument is a scalar or an array of
    shape ``x.shape[:-1] + (1,)`` (elementwise-broadcastable against the
    state; matrix axes are appended inside the coefficient itself).
    ``jump_compensator_mean(t, x, env)`` is the mark-law expectation of the
    jump coefficient, i.e. the jump intensity integral divided by the total
    intensity; it must be given, and None declares zero-mean marks, whose
    compensator vanishes. Evaluation must be pure and reentrant.
    """

    dim_state: int
    dim_noise: int
    drift: Callable
    diffusion: Callable
    jump: Callable
    jump_compensator_mean: Callable | None
    zeta: float = 0.0
    horizon: float = 1.0
    mark_dim: int = 1
    name: str = ""

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError("state and noise dimensions must be >= 1")
        if self.zeta < 0.0:
            raise ValueError("growth exponent zeta must be >= 0")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")

    def replace(self, **kwargs) -> "CoefficientSet":
        return dataclasses.replace(self, **kwargs)


def scalar_model(
    mu: Callable,
    sigma: Callable | None = None,
    jump: Callable | None = None,
    *,
    zeta: float = 0.0,
    horizon: float = 1.0,
    compensator_mean: Callable | None = None,
    name: str = "",
) -> CoefficientSet:
    """Lift elementwise scalar fields mu(t,x), sigma(t,x), jump(t,x,z) to a
    one-dimensional CoefficientSet with the batch shape conventions; marks
    are zero-mean unless ``compensator_mean(t, x)`` is given."""
    sigma = sigma or (lambda t, x: np.zeros_like(x))
    jump = jump or (lambda t, x, z: np.zeros_like(x))
    return CoefficientSet(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, env=None: mu(t, x),
        diffusion=lambda t, x, env=None: sigma(t, x)[..., None],
        jump=lambda t, x, z, env=None: jump(t, x, z),
        jump_compensator_mean=compensator_mean and (lambda t, x, env=None: compensator_mean(t, x)),
        zeta=zeta,
        horizon=horizon,
        name=name,
    )


def sawtooth(s):
    """1-periodic sawtooth 2*(s - floor(s + 1/2)) with range (-1, 1]."""
    return 2.0 * (s - np.floor(s + 0.5))


@dataclass(frozen=True)
class DoubleWellParams:
    """Parameters of the time-modulated double-well benchmark problem.

    The cubic growth makes zeta = 2; ``p_exp`` is the exponent softening the
    jump coefficient's state dependence and must dominate the moment order
    used in analysis (hence >= 4 here).
    """

    beta_hat: float = 0.5
    sigma_hat: float = 0.001
    gamma_hat: float = 0.02
    p_exp: float = 648.0

    def __post_init__(self):
        for field_name in ("beta_hat", "sigma_hat", "gamma_hat", "p_exp"):
            v = getattr(self, field_name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError(f"{field_name} must be a number, got {v!r}")
            if not v > 0.0:
                raise ValueError(f"{field_name} must be positive, got {v}")
        if self.p_exp < 4.0:
            raise ValueError(f"p_exp must be >= 4, got {self.p_exp}")


def double_well_model(params: DoubleWellParams | None = None) -> CoefficientSet:
    """Scalar double-well SDE with sawtooth-modulated drift.

        mu(s, x)      = sawtooth(s) * x - beta_hat * x^3
        sigma(s, x)   = sigma_hat * sqrt(s) * (1 - x^2)
        gamma(s, x, z)= gamma_hat * sqrt(s) * x * (1 + x^2)^(1/p_exp) * z

    Marks are intended to be standard normal (zero mean), so the compensator
    of the jump integral vanishes identically. The state power is evaluated
    as exp(log1p(x^2)/p_exp): for p_exp ~ several hundred the direct power
    loses all precision and overflows long before the dynamics do.
    """
    params = params or DoubleWellParams()
    bh, sh, gh, p = params.beta_hat, params.sigma_hat, params.gamma_hat, params.p_exp

    def drift(t, x, env=None):
        return sawtooth(t) * x - bh * x**3

    def diffusion(t, x, env=None):
        return (sh * np.sqrt(t) * (1.0 - x * x))[..., None]

    def soft_power(x):
        return np.exp(np.log1p(x * x) / p)

    def jump(t, x, z, env=None):
        return gh * np.sqrt(t) * x * soft_power(x) * z

    return CoefficientSet(
        dim_state=1,
        dim_noise=1,
        drift=drift,
        diffusion=diffusion,
        jump=jump,
        jump_compensator_mean=None,
        zeta=2.0,
        horizon=1.0,
        name="double-well",
    )


@dataclass
class GrowthReport:
    """Fitted growth constants; diagnostic only, never used as a gate."""

    drift_constant: float
    diffusion_constant: float
    box: tuple[float, float]


def probe_growth(
    coeffs: CoefficientSet,
    sample_box: tuple[float, float] = (-10.0, 10.0),
    n_samples: int = 4096,
    seed: int = 0,
) -> GrowthReport:
    """Fit the smallest K with |mu| <= K(1+|x|^(zeta+1)) and
    |sigma| <= K(1+|x|^(zeta/2+1)) over sampled (t, x) pairs."""
    lo, hi = sample_box
    if not hi > lo:
        raise ValueError("sample box must be nondegenerate")
    gen = np.random.default_rng(seed)
    t = coeffs.horizon * gen.random(n_samples)
    x = gen.uniform(lo, hi, size=(n_samples, coeffs.dim_state))

    mu = np.atleast_2d(coeffs.drift(t[:, None], x, None))
    sig = coeffs.diffusion(t[:, None], x, None)
    r = np.linalg.norm(x, axis=-1)
    mu_norm = np.linalg.norm(mu, axis=-1)
    sig_norm = np.sqrt(np.sum(sig * sig, axis=(-2, -1)))

    mu_ratio = mu_norm / (1.0 + r ** (coeffs.zeta + 1.0))
    sig_ratio = sig_norm / (1.0 + r ** (coeffs.zeta / 2.0 + 1.0))
    return GrowthReport(
        drift_constant=float(mu_ratio.max()),
        diffusion_constant=float(sig_ratio.max()),
        box=sample_box,
    )


# Named presets selectable from run configs; custom models can be registered
# programmatically and then referenced by name.
_MODEL_REGISTRY: dict[str, Callable[..., CoefficientSet]] = {}


def register_model(name: str, factory: Callable[..., CoefficientSet]) -> None:
    _MODEL_REGISTRY[name] = factory


def build_model(name: str, params: dict | None = None) -> CoefficientSet:
    """The preset ``name`` built from ``params``; a param its factory's
    signature does not name is refused, unless the factory takes ``**kwargs``."""
    if name not in _MODEL_REGISTRY:
        known = ", ".join(sorted(_MODEL_REGISTRY))
        raise KeyError(f"unknown model preset {name!r} (known: {known})")
    factory, params = _MODEL_REGISTRY[name], params or {}
    known = inspect.signature(factory).parameters
    unknown = [key for key in params if key not in known]
    if unknown and all(p.kind is not p.VAR_KEYWORD for p in known.values()):
        raise TypeError(f"{unknown[0]} is not a parameter of model {name!r} "
                        f"(known: {', '.join(known)})")
    return factory(**params)


def _double_well(**kw) -> CoefficientSet:  # module-level, so worker processes can unpickle it
    return double_well_model(DoubleWellParams(**kw) if kw else None)


_double_well.__signature__ = inspect.signature(DoubleWellParams)  # its params, for build_model


register_model("double-well", _double_well)
