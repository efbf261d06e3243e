"""Least-squares recovery of system parameters from measured traces.

A fit problem holds one or more observed traces, each taken under its own
pump drive but sharing one set of system parameters.  Observations carry
either the full complex response or magnitude only; complex observations
contribute their real and imaginary parts as separate residual rows.

The instrument background is modelled as a complex prefactor
amplitude_scale * exp(i * phase_slope * detuning) applied to the ideal
response, which absorbs insertion loss and uncompensated electrical length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import least_squares

from .errors import DomainError
from .model import DriveField, SystemParams
from .spectra import DetuningGrid, _drive_coefficient, _probe_terms_on, trace

_SYSTEM_FIELDS = (
    "coupling_g",
    "kappa_c",
    "kappa_m",
    "kappa_c1",
    "kappa_m1",
    "cavity_freq",
    "magnon_freq",
)
_BACKGROUND_FIELDS = ("amplitude_scale", "phase_slope")

FREE_PARAMETER_NAMES = _SYSTEM_FIELDS + ("phase_offset",) + _BACKGROUND_FIELDS
DEFAULT_FREE = ("coupling_g", "kappa_c", "kappa_m", "kappa_c1")

_DEFAULT_BOUNDS = {
    "coupling_g": (0.0, np.inf),
    "kappa_c": (1e-9, np.inf),
    "kappa_m": (1e-9, np.inf),
    "kappa_c1": (1e-9, np.inf),
    "kappa_m1": (1e-9, np.inf),
    "cavity_freq": (-np.inf, np.inf),
    "magnon_freq": (-np.inf, np.inf),
    "phase_offset": (-np.inf, np.inf),
    "amplitude_scale": (1e-9, np.inf),
    "phase_slope": (-np.inf, np.inf),
}

_GRADIENT_RTOL = 1e-8
_DEGENERATE_COLUMN_RTOL = 1e-10
_PENALTY = 1e6


@dataclass(frozen=True)
class BackgroundModel:
    """Complex instrument prefactor applied to the ideal response."""

    amplitude_scale: float = 1.0
    phase_slope: float = 0.0

    def apply(self, t: np.ndarray, detunings: np.ndarray) -> np.ndarray:
        return self._prefactor(detunings) * t

    def _prefactor(self, detunings: np.ndarray) -> np.ndarray:
        return self.amplitude_scale * np.exp(1j * self.phase_slope * detunings)


@dataclass(frozen=True)
class FitObservation:
    """One measured trace with the drive it was taken under.

    values holds the complex response when has_phase is True, otherwise the
    non-negative magnitude.
    """

    grid: DetuningGrid
    values: np.ndarray
    drive: DriveField
    has_phase: bool = True

    def __post_init__(self):
        dtype = complex if self.has_phase else float
        values = np.asarray(self.values, dtype=dtype)
        if values.shape != (self.grid.count,):
            raise DomainError("observation length does not match grid")
        if not np.all(np.isfinite(values)):
            raise DomainError("observation contains non-finite samples")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def residual_size(self) -> int:
        return 2 * self.grid.count if self.has_phase else self.grid.count


@dataclass(frozen=True)
class FitProblem:
    """Joint fit of shared system parameters over several observations."""

    observations: tuple[FitObservation, ...]
    free: tuple[str, ...] = DEFAULT_FREE
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        object.__setattr__(self, "free", tuple(self.free))
        if not self.observations:
            raise DomainError("fit problem needs at least one observation")
        seen = set()
        for name in self.free:
            if name not in FREE_PARAMETER_NAMES:
                raise DomainError(f"unknown free parameter {name!r}")
            if name in seen:
                raise DomainError(f"duplicate free parameter {name!r}")
            seen.add(name)
        if not self.free:
            raise DomainError("fit problem needs at least one free parameter")
        for name in self.bounds:
            if name not in FREE_PARAMETER_NAMES:
                raise DomainError(f"bounds given for unknown parameter {name!r}")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with per-parameter uncertainties.

    stderr entries are infinite for parameters the data did not constrain
    (near-zero Jacobian column).  converged requires the projected gradient
    to be small relative to the residual norm.
    """

    params: SystemParams
    background: BackgroundModel
    phase_offset: float
    free: tuple[str, ...]
    values: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float
    converged: bool
    n_evaluations: int
    message: str


@dataclass(frozen=True)
class NoiseModel:
    """Additive complex Gaussian noise at a given SNR.

    snr_db compares the peak trace magnitude to the rms noise magnitude; the
    per-quadrature standard deviation is peak * 10**(-snr_db/20) / sqrt(2).
    """

    snr_db: float

    def sigma(self, peak: float) -> float:
        return peak * 10.0 ** (-self.snr_db / 20.0)


def synthesize_trace(
    params: SystemParams,
    drive: DriveField,
    grid: DetuningGrid,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | int | None = None,
    background: BackgroundModel | None = None,
) -> FitObservation:
    """Generate a complex observation from the model, optionally noisy."""
    t = trace(params, drive, grid).t.copy()
    if background is not None:
        t = background.apply(t, grid.values)
    if noise is not None:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        sigma = noise.sigma(float(np.max(np.abs(t)))) / math.sqrt(2.0)
        t = t + rng.normal(0.0, sigma, t.size) + 1j * rng.normal(0.0, sigma, t.size)
    return FitObservation(grid=grid, values=t, drive=drive, has_phase=True)


def _initial_value(name: str, params: SystemParams, problem: FitProblem) -> float:
    if name in _SYSTEM_FIELDS:
        return float(getattr(params, name))
    if name == "phase_offset":
        return float(problem.observations[0].drive.phase_offset)
    if name == "amplitude_scale":
        return 1.0
    return 0.0


def _candidate(
    problem: FitProblem, base: SystemParams, x: np.ndarray
) -> tuple[SystemParams, BackgroundModel, float | None]:
    system_updates = {}
    background_updates = {}
    offset = None
    for name, value in zip(problem.free, x):
        if name in _SYSTEM_FIELDS:
            system_updates[name] = float(value)
        elif name == "phase_offset":
            offset = float(value)
        else:
            background_updates[name] = float(value)
    params = replace(base, **system_updates) if system_updates else base
    return params, BackgroundModel(**background_updates), offset


def _shared_terms(cache: list, params: SystemParams, background: BackgroundModel, detunings):
    """(den, t_probe, background prefactor) on these detunings, computed once
    per distinct array.  Arrays match by identity or equal values, never by
    grid equality: a from_values grid keeps its own samples."""
    for values, terms in cache:
        if values is detunings or np.array_equal(values, detunings):
            return terms
    terms = (*_probe_terms_on(params, detunings), background._prefactor(detunings))
    cache.append((detunings, terms))
    return terms


def _residual_vector(
    problem: FitProblem,
    params: SystemParams,
    background: BackgroundModel,
    offset: float | None,
) -> np.ndarray:
    cache = []
    parts = []
    for obs in problem.observations:
        drive = obs.drive if offset is None else replace(obs.drive, phase_offset=offset)
        den, t_probe, prefactor = _shared_terms(cache, params, background, obs.grid.values)
        model = prefactor * (t_probe + _drive_coefficient(params, drive) / den)
        if obs.has_phase:
            diff = model - obs.values
            parts.append(diff.real)
            parts.append(diff.imag)
        else:
            parts.append(np.abs(model) - obs.values)
    return np.concatenate(parts)


def fit_parameters(
    problem: FitProblem, initial: SystemParams
) -> FitResult:
    """Fit the free parameters to all observations simultaneously.

    Runs trust-region least squares from the given starting parameters.
    Candidate parameter sets that violate model validity (for example an
    external rate exceeding its total) are pushed away by a flat penalty
    residual instead of aborting the solve.  Each residual evaluation computes
    the drive-independent factors (den, t_probe and the background
    prefactor) once per distinct detuning grid and shares them across the
    observations taken on it.
    """
    free = list(problem.free)
    if "phase_slope" in free and not any(o.has_phase for o in problem.observations):
        warnings.warn(
            "phase_slope is not identifiable from magnitude-only data; dropping it",
            stacklevel=2,
        )
        free.remove("phase_slope")
        problem = replace(problem, free=tuple(free))
    x0 = np.array([_initial_value(n, initial, problem) for n in free])
    lower = np.array(
        [problem.bounds.get(n, _DEFAULT_BOUNDS[n])[0] for n in free]
    )
    upper = np.array(
        [problem.bounds.get(n, _DEFAULT_BOUNDS[n])[1] for n in free]
    )
    m = sum(obs.residual_size for obs in problem.observations)

    def objective(x: np.ndarray) -> np.ndarray:
        try:
            params, background, offset = _candidate(problem, initial, x)
            return _residual_vector(problem, params, background, offset)
        except DomainError:
            return np.full(m, _PENALTY)

    result = least_squares(
        objective,
        x0,
        bounds=(lower, upper),
        method="trf",
        x_scale="jac",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    params, background, offset = _candidate(problem, initial, result.x)
    residual_norm = float(np.linalg.norm(result.fun))
    grad_inf = float(np.max(np.abs(result.grad))) if result.grad.size else 0.0
    converged = grad_inf < _GRADIENT_RTOL * max(1.0, residual_norm)

    stderr = _standard_errors(result.jac, residual_norm, len(free))
    return FitResult(
        params=params,
        background=background,
        phase_offset=offset
        if offset is not None
        else float(problem.observations[0].drive.phase_offset),
        free=tuple(free),
        values={n: float(v) for n, v in zip(free, result.x)},
        stderr={n: s for n, s in zip(free, stderr)},
        residual_norm=residual_norm,
        converged=converged,
        n_evaluations=int(result.nfev),
        message=str(result.message),
    )


def _standard_errors(jac: np.ndarray, residual_norm: float, n: int) -> list[float]:
    m = jac.shape[0]
    column_norms = np.linalg.norm(jac, axis=0)
    max_norm = float(np.max(column_norms)) if n else 0.0
    degenerate = column_norms < _DEGENERATE_COLUMN_RTOL * max_norm
    dof = m - n
    if dof <= 0:
        return [math.inf] * n
    variance = residual_norm**2 / dof
    covariance = np.linalg.pinv(jac.T @ jac) * variance
    errors = []
    for i in range(n):
        if degenerate[i]:
            errors.append(math.inf)
        else:
            errors.append(float(math.sqrt(max(covariance[i, i], 0.0))))
    return errors
