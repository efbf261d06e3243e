"""Least-squares recovery of system parameters from measured traces.

A fit problem holds one or more observed traces, each taken under its own
pump drive but sharing one set of system parameters.  Observations carry
either the full complex response or magnitude only; a complex observation
contributes the real and imaginary part of each sample as two residual rows,
interleaved (Re, Im per sample) as the complex array's float view lays them
out.

The instrument background is modelled as a complex prefactor
amplitude_scale * exp(i * phase_slope * detuning) applied to the ideal
response, which absorbs insertion loss and uncompensated electrical length.

The response is rational: with zc = i*Delta + kappa_c,
zm = i*Delta_m + kappa_m, den = zc*zm + g**2 and the pump coefficient c,
t = 1 + N/den with N = c - 2*kappa_c1*zm, so every parameter derivative is
dt/dp = (dN/dp - (t - 1)*dden/dp) / den, and the Jacobian is exact.

The fit is Levenberg-Marquardt (More, "The Levenberg-Marquardt algorithm:
implementation and theory", Lecture Notes in Mathematics 630, 1978) on that
Jacobian J and the residual r.  Each step solves the damped normal equations
(J^T J + lambda*diag(D**2)) * step = -J^T r, n by n for n free parameters,
where D is the running maximum of J's column norms, the square roots of
the diagonal of J^T J (1 for a column that has been zero throughout, so a
parameter the data never touches stays exactly where it started).  J is
written once per step as J^T, one float row per parameter, in the row order
of the residual.  The damping lambda follows Nielsen's gain-ratio update
("Damping parameter in Marquardt's method", IMM-REP-1999-05).  A trial step
that does not lower the cost is rejected, and so is one that leaves the box
(coupling_g >= 0; rates and amplitude_scale >= 1e-9) or is not a valid model,
such as kappa_c1 > kappa_c: infeasible steps are rejected, not penalized, so
every iterate is a valid model.  The fit stops when the column-scaled
gradient max_i |(J^T r)_i| / D_i, the relative cost change or the relative
step falls below 1e-14 (the tests of scipy's least_squares, with the
gradient scaled by D), or after 100 evaluations per free parameter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .model import MAX_MAGNITUDE, DriveField, SystemParams, _drive_coefficient, _Response
from .spectra import DetuningGrid, trace

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

# The fit's box: these floors, and no bound on the other parameters.
_LOWER_BOUNDS = {
    "coupling_g": 0.0,
    "kappa_c": 1e-9,
    "kappa_m": 1e-9,
    "kappa_c1": 1e-9,
    "kappa_m1": 1e-9,
    "amplitude_scale": 1e-9,
}

_TOLERANCE = 1e-14
_EVALUATIONS_PER_PARAMETER = 100
# Nielsen's tau times max(diag(J^T J) / D**2), which is 1 at the start
_INITIAL_DAMPING = 1e-3
_GRADIENT_RTOL = 1e-8
_NULL_SPACE_RTOL = 1e-10
_NULL_COMPONENT_TOL = 1e-6


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
    non-negative magnitude.  Every sample must be finite and at most
    MAX_MAGNITUDE in magnitude, the cap on rates and grid bounds, so the
    residual's squares stay finite.
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
        largest = float(np.max(np.abs(values), initial=0.0))
        if largest > MAX_MAGNITUDE:
            raise DomainError(
                f"observation samples must be at most {MAX_MAGNITUDE:g} in magnitude, got {largest}"
            )
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


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with per-parameter uncertainties.

    stderr comes from the singular values of the exact Jacobian at the
    solution, with each column scaled to unit norm, taken from the n by n R
    factor of its QR decomposition.  A parameter with a component above
    1e-6 in its numerical null space (singular values at or below 1e-10 of
    the largest) is not identified by the data and gets inf: one with a
    zero column, or cavity_freq and magnon_freq when both are free, since
    only their difference enters the response.

    converged requires that the fit stopped on a tolerance test, not the
    evaluation cap, and that the column-scaled gradient is small:
    max_i |(J^T r)_i| / |J_i| <= 1e-8 * max(1, |r|), the scale-invariant test
    of Dennis & Schnabel, Numerical Methods for Unconstrained Optimization,
    1983, section 7.2.  n_evaluations counts the starting point and every
    trial step, rejected ones included; message says why the fit stopped.
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


def _model_terms(params: SystemParams, background: BackgroundModel, detunings):
    """(response, t_probe, rotation, prefactor): the drive-free factors of
    the model at these detunings, which the residual and the Jacobian at the
    same point both read.  response is the core's model._Response, with the
    scaled rates, zc, zm, den and pump_scale, t_probe = response.probe(),
    rotation = exp(i*s*Delta) and prefactor = A*rotation.  With s = 0 the
    rotation is 1 and the prefactor the float A, which numpy multiplies as
    A + 0j, so the products keep the bits of the exp form.  DomainError
    where t_probe is not finite."""
    response = _Response(params, detunings)
    t_probe = response.probe()
    if background.phase_slope == 0.0:
        rotation, prefactor = 1.0, background.amplitude_scale
    else:
        rotation = np.exp(1j * background.phase_slope * detunings)
        prefactor = background.amplitude_scale * rotation
    return response, t_probe, rotation, prefactor


def _residual_vector(
    problem: FitProblem,
    params: SystemParams,
    background: BackgroundModel,
    offset: float | None,
) -> tuple[np.ndarray, list]:
    """(residual, terms): the residual rows, and each observation's
    _model_terms for _jacobian at the same point.  A complex observation's
    2N rows are diff.view(float), Re and Im of each sample in turn.  The
    terms are evaluated once per distinct detuning array; arrays match by
    identity or equal values, never by grid equality, since a from_values
    grid keeps its own samples."""
    residual = np.empty(sum(obs.residual_size for obs in problem.observations))
    terms = []
    start = 0
    for obs in problem.observations:
        drive = obs.drive if offset is None else replace(obs.drive, phase_offset=offset)
        detunings = obs.grid.values
        for earlier, shared in zip(problem.observations, terms):
            if earlier.grid.values is detunings or np.array_equal(earlier.grid.values, detunings):
                break
        else:
            shared = _model_terms(params, background, detunings)
        terms.append(shared)
        r, t_probe, _, prefactor = shared
        model = prefactor * (t_probe + _drive_coefficient(r.pump_scale, drive) / r.den)
        rows = residual[start : start + obs.residual_size]
        if obs.has_phase:
            np.subtract(model, obs.values, out=rows.view(complex))
        else:
            np.subtract(np.abs(model), obs.values, out=rows)
        start += obs.residual_size
    return residual, terms


def _response_partials(name, drive, c, r):
    """(dN/dp, dden/dp) for a parameter p of t = 1 + N/den, where
    N = c - 2*kappa_c1*zm and c is the pump coefficient of this drive; the
    rates and p are in the scaled units of the core's response r, as c is.
    dden/dp is None where den does not depend on p."""
    if name == "coupling_g":
        # c is linear in g, so dc/dg is c at unit coupling
        unit_scale = 2.0 * math.sqrt(r.kappa_c1 * r.kappa_m1)
        return _drive_coefficient(unit_scale, drive), 2.0 * r.g
    if name == "kappa_c":
        return 0.0, r.zm
    if name == "kappa_m":
        return -2.0 * r.kappa_c1, r.zc
    if name == "kappa_c1":
        return c / (2.0 * r.kappa_c1) - 2.0 * r.zm, None
    if name == "kappa_m1":
        return c / (2.0 * r.kappa_m1), None
    # Delta_m = Delta + magnon_freq - cavity_freq: the two frequencies enter
    # only through their difference, and their columns are exact negatives
    if name == "cavity_freq":
        return 2j * r.kappa_c1, -1j * r.zc
    if name == "magnon_freq":
        return -2j * r.kappa_c1, 1j * r.zc
    return -1j * c, None  # phase_offset


def _jacobian(
    problem: FitProblem,
    params: SystemParams,
    background: BackgroundModel,
    offset: float | None,
    terms: list,
) -> np.ndarray:
    """d(residual)/dx in closed form, rows in _residual_vector's order, from
    the terms _residual_vector returned at the same point.

    With t = 1 + N/den and model = prefactor * t, a response parameter p
    gives dt/dp = (dN/dp - (t - 1) * dden/dp) / den; amplitude_scale and
    phase_slope differentiate the prefactor.  The response partials are
    taken on the scaled rates of the terms' model._Response, so a column of
    a SystemParams field (a rate in MHz) carries its exact factor scale =
    2^-exponent.  Magnitude rows are Re(conj(model) * dmodel) / |model|,
    and 0 where the model vanishes.

    J^T is one (n, m) float buffer, and each parameter's row of it is
    written in place.  A complex observation's 2N-wide block is viewed as
    n complex rows of dmodel, so its rows of J interleave Re and Im of each
    sample, as the residual's do.  Returns the (m, n) transpose view.
    """
    sizes = [obs.residual_size for obs in problem.observations]
    jac_t = np.empty((len(problem.free), sum(sizes)))
    scales = {}  # (per_den, per_rate) by terms tuple, shared on one detuning array
    start = 0
    for obs, size, shared in zip(problem.observations, sizes, terms):
        r, _, rotation, prefactor = shared
        drive = obs.drive if offset is None else replace(obs.drive, phase_offset=offset)
        c = _drive_coefficient(r.pump_scale, drive)
        q = (c - 2.0 * r.kappa_c1 * r.zm) / r.den
        t = 1.0 + q
        model = prefactor * t
        if id(shared) not in scales:
            per_den = prefactor / r.den
            scales[id(shared)] = per_den, per_den * r.scale
        per_den, per_rate = scales[id(shared)]
        block = jac_t[:, start : start + size]
        start += size
        if obs.has_phase:
            dmodel = block.view(complex)
        else:  # reduced to the magnitude rows below
            dmodel = np.empty((len(problem.free), model.size), dtype=complex)
        for out, name in zip(dmodel, problem.free):
            if name == "amplitude_scale":
                np.multiply(rotation, t, out=out)
            elif name == "phase_slope":
                np.multiply(1j * obs.grid.values, model, out=out)
            else:
                d_num, d_den = _response_partials(name, drive, c, r)
                scale = per_den if name == "phase_offset" else per_rate
                if d_den is None:
                    np.multiply(scale, d_num, out=out)
                else:
                    np.multiply(q, d_den, out=out)
                    np.subtract(d_num, out, out=out)
                    np.multiply(scale, out, out=out)
        if not obs.has_phase:
            magnitude = np.abs(model)
            weight = np.divide(
                model.conj(), magnitude, out=np.zeros_like(model), where=magnitude > 0.0
            )
            block[...] = np.multiply(weight, dmodel, out=dmodel).real
    return jac_t.T


def _trial_residual(problem, initial, x, lower):
    """(model point, residual, terms) at x, or None where x leaves the box
    or is not a valid model."""
    if not np.all(x >= lower):
        return None
    try:
        point = _candidate(problem, initial, x)
    except DomainError:
        return None
    return point, *_residual_vector(problem, *point)


def _levenberg_marquardt(problem: FitProblem, initial: SystemParams, x, lower):
    """Minimize half the squared residual from x over the box x >= lower.

    Returns (x, model point, residual, Jacobian, gradient J^T r, column
    norms of J, evaluations, stopped on a tolerance, message), with the
    Jacobian taken at the returned x.
    """
    point = _candidate(problem, initial, x)
    residual, terms = _residual_vector(problem, *point)
    cost = 0.5 * float(residual @ residual)
    evaluations = 1
    max_evaluations = _EVALUATIONS_PER_PARAMETER * x.size
    scale, damping, growth = None, _INITIAL_DAMPING, 2.0
    message = None
    while True:
        jac = _jacobian(problem, *point, terms)
        gradient, gram = jac.T @ residual, jac.T @ jac
        norms = np.sqrt(np.diag(gram))
        if scale is None:
            scale = np.where(norms > 0.0, norms, 1.0)
        scale = np.maximum(scale, norms)
        # scaled by D, so that rescaling a parameter's units leaves it alone
        if message is None and np.max(np.abs(gradient) / scale) < _TOLERANCE:
            message = "gradient below tolerance"
        if message is not None:
            return x, point, residual, jac, gradient, norms, evaluations, True, message
        # taken by an exact power of two, as _standard_errors takes its
        # column norms: x holds phase_offset, which may be any finite number
        exponent = math.frexp(np.max(np.abs(x)))[1]
        x_norm = math.ldexp(np.linalg.norm(np.ldexp(x, -exponent)), exponent)
        while True:  # trial steps from x until one lowers the cost
            if evaluations >= max_evaluations:
                message = f"evaluation cap of {max_evaluations} reached"
                return x, point, residual, jac, gradient, norms, evaluations, False, message
            evaluations += 1
            try:
                step = np.linalg.solve(gram + np.diag(damping * scale**2), -gradient)
            except np.linalg.LinAlgError:
                step = np.full(x.size, np.nan)
            trial = _trial_residual(problem, initial, x + step, lower)
            with np.errstate(over="ignore"):  # a step norm past the largest double is inf
                small_step = np.linalg.norm(step) < _TOLERANCE * (_TOLERANCE + x_norm)
            if trial is not None:
                trial_cost = 0.5 * float(trial[1] @ trial[1])
                if trial_cost < cost:
                    break
            damping, growth = damping * growth, 2.0 * growth
            if small_step:
                message = "step below tolerance"
                return x, point, residual, jac, gradient, norms, evaluations, True, message
        reduction = cost - trial_cost
        # Nielsen's predicted reduction; a gain ratio above 1 acts as 1, which
        # also covers a prediction that rounding has made nonpositive
        predicted = 0.5 * float(step @ (damping * scale**2 * step - gradient))
        ratio = reduction / max(predicted, reduction)
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
        growth = 2.0
        if reduction < _TOLERANCE * cost and ratio > 0.25:
            message = "cost change below tolerance"
        elif small_step:
            message = "step below tolerance"
        x, (point, residual, terms), cost = x + step, trial, trial_cost


def fit_parameters(
    problem: FitProblem, initial: SystemParams
) -> FitResult:
    """Fit the free parameters to all observations simultaneously.

    Runs Levenberg-Marquardt from the given starting parameters on the
    closed-form Jacobian of the rational response (see the module
    docstring).  A trial step that leaves the positivity floors of the
    rates, coupling_g or amplitude_scale, or that makes an invalid model
    (for example an external rate exceeding its total), is rejected like a
    step that does not lower the cost, so every iterate is a valid model.
    The starting point must lie on or above those floors.  Each residual
    evaluation computes the drive-independent factors (den, zm and the
    background prefactor) once per distinct detuning grid and shares them
    across the observations taken on it; the Jacobian at an accepted point
    reuses them.

    The gradient stop test divides by the column scale D.  When every free
    parameter is a rate or frequency, scaling every rate, frequency and
    detuning by a power of two 2^k scales the fitted values by 2^k and
    leaves converged, message and n_evaluations unchanged (the tests hold
    this bit for bit for the default free set at k = -20, 20, 40 and 60).
    With amplitude_scale, phase_offset or phase_slope free the columns
    scale unequally, and the step test and the solve of the damped normal
    equations see unscaled x, so a rescaled fit may stop on another test
    after another number of evaluations.  The absolute 1e-9 floors on the
    starting rates reject a start whose smallest free rate is near 1 below
    about k = -30.
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
    lower = np.array([_LOWER_BOUNDS.get(n, -np.inf) for n in free])
    for name, value, bound in zip(free, x0, lower):
        if value < bound:
            raise DomainError(
                f"initial {name} ({value}) is below the fit's floor {bound}"
            )
    (
        x, (params, background, offset), residual, jac, gradient, norms,
        evaluations, stopped, message,
    ) = _levenberg_marquardt(problem, initial, x0, lower)
    residual_norm = float(np.linalg.norm(residual))
    scaled_gradient = np.abs(gradient) / np.where(norms > 0.0, norms, 1.0)
    converged = stopped and bool(
        np.max(scaled_gradient) <= _GRADIENT_RTOL * max(1.0, residual_norm)
    )

    stderr = _standard_errors(jac, residual_norm)
    return FitResult(
        params=params,
        background=background,
        phase_offset=offset
        if offset is not None
        else float(problem.observations[0].drive.phase_offset),
        free=tuple(free),
        values={n: float(v) for n, v in zip(free, x)},
        stderr={n: s for n, s in zip(free, stderr)},
        residual_norm=residual_norm,
        converged=converged,
        n_evaluations=evaluations,
        message=message,
    )


def _standard_errors(jac: np.ndarray, residual_norm: float) -> list[float]:
    """Standard errors from the singular values of the column-scaled Jacobian.

    They are taken from the n by n R factor of its QR decomposition, which
    has the same singular values and right singular vectors as the m by n
    Jacobian.  Singular values at or below _NULL_SPACE_RTOL times the
    largest span the numerical null space; a parameter whose unit vector has
    a component above _NULL_COMPONENT_TOL in it is not identified and gets
    inf.  The others get the square root of the diagonal of the
    pseudo-inverse covariance (J^T J)^+ * residual_norm**2 / (m - n).

    Each column is first brought to a peak magnitude in [0.5, 1) by an exact
    power of two, so that its norm does not underflow on subnormal entries
    (a device scaled far below the data's detunings); an error past the
    largest double is inf.
    """
    m, n = jac.shape
    if m <= n:
        return [math.inf] * n
    _, exponents = np.frexp(np.max(np.abs(jac), axis=0))
    jac = np.ldexp(jac, -exponents)
    norms = np.linalg.norm(jac, axis=0)
    scale = np.where(norms > 0.0, norms, 1.0)
    r = np.linalg.qr(jac / scale, mode="r")
    _, singular, vt = np.linalg.svd(r)
    null = singular <= _NULL_SPACE_RTOL * singular[0]
    unidentified = np.linalg.norm(vt[null], axis=0) > _NULL_COMPONENT_TOL
    inverse_diag = np.sum((vt[~null] / singular[~null, None]) ** 2, axis=0)
    errors = np.sqrt(inverse_diag * (residual_norm**2 / (m - n))) / scale
    with np.errstate(over="ignore"):
        errors = np.ldexp(errors, -exponents)
    return [math.inf if bad else float(e) for bad, e in zip(unidentified, errors)]
