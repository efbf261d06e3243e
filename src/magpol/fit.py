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

One table, _PARAMETERS, gives each free parameter its role: the class
whose field its value sets (SystemParams, the drives' phase_offset, or
BackgroundModel), which also gives its start, its floor in the fit's box,
and its Jacobian column as the factors (scale, dN/dp, dden/dp).  At each
model point the residual forms every term once: the drive-free factors
(the core's response, t_probe, the background's rotation and prefactor)
once per distinct detuning array, and each observation's drive, with the
free phase_offset, and its pump coefficient once.  It hands them to the
Jacobian, which forms each array's drive-free column factors on first use
and builds no drive.

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
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import MAX_MAGNITUDE, DriveField, SystemParams, _drive_coefficient, _Response
from .spectra import DetuningGrid, trace

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
        return self._factors(detunings)[1] * t

    def _factors(self, detunings: np.ndarray):
        """(rotation, prefactor) at these detunings: rotation =
        exp(i*phase_slope*detunings) and prefactor = amplitude_scale*rotation.
        With phase_slope = 0 they are 1 and the float amplitude_scale, which
        numpy multiplies as amplitude_scale + 0j, the exp form's prefactor,
        so products keep the bits of the exp form."""
        if self.phase_slope == 0.0:
            return 1.0, self.amplitude_scale
        rotation = np.exp(1j * self.phase_slope * detunings)
        return rotation, self.amplitude_scale * rotation


# Each free parameter: the class whose field its value sets (phase_offset
# sets every drive's), its floor in the fit's box, and its Jacobian column
# (scale, dN/dp, dden/dp) from an observation's grid terms k, drive d, pump
# coefficient c, t and model m (see _jacobian).  The rates are the scaled
# ones of k.r, as c is; a SystemParams column carries the factor r.scale.
_PARAMETERS = {
    # c is linear in g, so dc/dg is c at unit coupling
    "coupling_g": (SystemParams, 0.0, lambda k, d, c, t, m: (
        k.per_rate, _drive_coefficient(2.0 * math.sqrt(k.r.kappa_c1 * k.r.kappa_m1), d),
        2.0 * k.r.g)),
    "kappa_c": (SystemParams, 1e-9, lambda k, d, c, t, m: (k.per_rate, 0.0, k.r.zm)),
    "kappa_m": (SystemParams, 1e-9, lambda k, d, c, t, m: (
        k.per_rate, -2.0 * k.r.kappa_c1, k.r.zc)),
    "kappa_c1": (SystemParams, 1e-9, lambda k, d, c, t, m: (
        k.per_rate, c / (2.0 * k.r.kappa_c1) - k.two_zm, None)),
    "kappa_m1": (SystemParams, 1e-9, lambda k, d, c, t, m: (
        k.per_rate, c / (2.0 * k.r.kappa_m1), None)),
    # Delta_m = Delta + magnon_freq - cavity_freq: the two frequencies enter
    # only through their difference, and their columns are exact negatives
    "cavity_freq": (SystemParams, -math.inf, lambda k, d, c, t, m: (
        k.per_rate, 2j * k.r.kappa_c1, k.minus_i_zc)),
    "magnon_freq": (SystemParams, -math.inf, lambda k, d, c, t, m: (
        k.per_rate, -2j * k.r.kappa_c1, k.i_zc)),
    "phase_offset": (DriveField, -math.inf, lambda k, d, c, t, m: (k.per_den, -1j * c, None)),
    "amplitude_scale": (BackgroundModel, 1e-9, lambda k, d, c, t, m: (k.rotation, t, None)),
    "phase_slope": (BackgroundModel, -math.inf, lambda k, d, c, t, m: (k.i_delta, m, None)),
}

FREE_PARAMETER_NAMES = tuple(_PARAMETERS)
DEFAULT_FREE = ("coupling_g", "kappa_c", "kappa_m", "kappa_c1")
_SYSTEM_FIELDS = tuple(n for n, (holder, _, _) in _PARAMETERS.items() if holder is SystemParams)


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
    """The fit's start for a free parameter: its field in params, in the
    first observation's drive, or in the default BackgroundModel."""
    holders = {
        SystemParams: params,
        DriveField: problem.observations[0].drive,
        BackgroundModel: BackgroundModel(),
    }
    return float(getattr(holders[_PARAMETERS[name][0]], name))


def _candidate(
    problem: FitProblem, base: SystemParams, x: np.ndarray
) -> tuple[SystemParams, BackgroundModel, float | None]:
    """(params, background, offset) at x; offset is None unless
    phase_offset is free."""
    updates = {SystemParams: {}, DriveField: {}, BackgroundModel: {}}
    for name, value in zip(problem.free, x):
        updates[_PARAMETERS[name][0]][name] = float(value)
    system, drives, background = updates.values()
    params = replace(base, **system) if system else base
    return params, BackgroundModel(**background), drives.get("phase_offset")


class _GridTerms:
    """The drive-free factors of the model on one detuning array at one
    model point, shared by every observation on that array: r, the core's
    model._Response (scaled rates, zc, zm, den and pump_scale), t_probe =
    r.probe() and the background's rotation and prefactor.  DomainError
    where t_probe is not finite.  The Jacobian's drive-free arrays are
    formed on first use, so a rejected trial point forms none of them."""

    def __init__(self, params: SystemParams, background: BackgroundModel, detunings):
        self.detunings = detunings
        self.r = _Response(params, detunings)
        self.t_probe = self.r.probe()
        self.rotation, self.prefactor = background._factors(detunings)

    @cached_property
    def per_den(self):
        return self.prefactor / self.r.den

    @cached_property
    def per_rate(self):
        return self.per_den * self.r.scale

    @cached_property
    def n_probe(self):  # 2*kappa_c1*zm, the probe's part of N
        return 2.0 * self.r.kappa_c1 * self.r.zm

    @cached_property
    def two_zm(self):
        return 2.0 * self.r.zm

    @cached_property
    def i_zc(self):
        return 1j * self.r.zc

    @cached_property
    def minus_i_zc(self):
        return -1j * self.r.zc

    @cached_property
    def i_delta(self):
        return 1j * self.detunings


def _residual_vector(
    problem: FitProblem,
    params: SystemParams,
    background: BackgroundModel,
    offset: float | None,
) -> tuple[np.ndarray, list]:
    """(residual, terms): the residual rows, and for _jacobian at the same
    point each observation's (grid terms, drive, pump coefficient c), its
    drive carrying the free phase_offset.  A complex observation's 2N rows
    are diff.view(float), Re and Im of each sample in turn.  The grid terms
    are formed once per distinct detuning array; arrays match by identity or
    equal values, never by grid equality, since a from_values grid keeps its
    own samples."""
    residual = np.empty(sum(obs.residual_size for obs in problem.observations))
    terms = []
    start = 0
    for obs in problem.observations:
        drive = obs.drive if offset is None else replace(obs.drive, phase_offset=offset)
        detunings = obs.grid.values
        for earlier, (k, _, _) in zip(problem.observations, terms):
            if earlier.grid.values is detunings or np.array_equal(earlier.grid.values, detunings):
                break
        else:
            k = _GridTerms(params, background, detunings)
        c = _drive_coefficient(k.r.pump_scale, drive)
        terms.append((k, drive, c))
        model = k.prefactor * (k.t_probe + c / k.r.den)
        rows = residual[start : start + obs.residual_size]
        if obs.has_phase:
            np.subtract(model, obs.values, out=rows.view(complex))
        else:
            np.subtract(np.abs(model), obs.values, out=rows)
        start += obs.residual_size
    return residual, terms


def _jacobian(
    problem: FitProblem,
    params: SystemParams,
    background: BackgroundModel,
    offset: float | None,
    terms: list,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """d(residual)/dx in closed form, rows in _residual_vector's order, from
    the terms _residual_vector returned at the same point (which fix params,
    background and offset).

    With t = 1 + q, q = N/den and model = prefactor * t, the column of a
    response parameter p is scale * (dN/dp - q * dden/dp), or scale * dN/dp
    where den does not depend on p, with scale = prefactor/den (times the
    prescale for a SystemParams field); amplitude_scale and phase_slope
    differentiate the prefactor.  _PARAMETERS gives each column's three
    factors.  Magnitude rows are Re(conj(model) * dmodel) / |model|, and 0
    where the model vanishes.

    J^T is one (n, m) float buffer, out if given, and each parameter's row
    of it is written in place.  A complex observation's 2N-wide block is
    viewed as n complex rows of dmodel, so its rows of J interleave Re and
    Im of each sample, as the residual's do.  Returns the (m, n) transpose
    view.
    """
    columns = [_PARAMETERS[name][2] for name in problem.free]
    if out is None:
        out = np.empty((len(columns), sum(obs.residual_size for obs in problem.observations)))
    start = 0
    for obs, (k, drive, c) in zip(problem.observations, terms):
        q = (c - k.n_probe) / k.r.den
        t = 1.0 + q
        model = k.prefactor * t
        block = out[:, start : start + obs.residual_size]
        start += obs.residual_size
        if obs.has_phase:
            dmodel = block.view(complex)
        else:  # reduced to the magnitude rows below
            dmodel = np.empty((len(columns), model.size), dtype=complex)
        for row, column in zip(dmodel, columns):
            scale, d_num, d_den = column(k, drive, c, t, model)
            if d_den is None:
                np.multiply(scale, d_num, out=row)
            else:
                np.multiply(q, d_den, out=row)
                np.subtract(d_num, row, out=row)
                np.multiply(scale, row, out=row)
        if not obs.has_phase:
            magnitude = np.abs(model)
            weight = np.divide(
                model.conj(), magnitude, out=np.zeros_like(model), where=magnitude > 0.0
            )
            block[...] = np.multiply(weight, dmodel, out=dmodel).real
    return out.T


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
    jac_t = np.empty((x.size, residual.size))  # J^T at each accepted point in turn
    while True:
        jac = _jacobian(problem, *point, terms, out=jac_t)
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
    The starting point must lie on or above those floors.  Each free
    parameter's field, start, floor and Jacobian column come from one table
    (see the module docstring).  Each residual evaluation forms the
    drive-independent factors (den, zm, t_probe and the background
    prefactor) once per distinct detuning grid and shares them across the
    observations taken on it, and each observation's drive and pump
    coefficient once; the Jacobian at an accepted point reuses all of them
    and forms its own drive-free factors once per grid.  Every Jacobian of
    one fit is written into one buffer.

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
    lower = np.array([_PARAMETERS[n][1] for n in free])
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
        phase_offset=_initial_value("phase_offset", initial, problem) if offset is None else offset,
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
    scaled = np.abs(jac)  # one m by n copy, in jac's layout, reused below
    _, exponents = np.frexp(np.max(scaled, axis=0))
    np.ldexp(jac, -exponents, out=scaled)
    # np.linalg.norm's arithmetic for real columns, without its temporaries
    norms = np.sqrt(np.add.reduce(scaled * scaled, axis=0))
    scale = np.where(norms > 0.0, norms, 1.0)
    scaled /= scale
    r = np.linalg.qr(scaled, mode="r")
    _, singular, vt = np.linalg.svd(r)
    null = singular <= _NULL_SPACE_RTOL * singular[0]
    unidentified = np.linalg.norm(vt[null], axis=0) > _NULL_COMPONENT_TOL
    inverse_diag = np.sum((vt[~null] / singular[~null, None]) ** 2, axis=0)
    errors = np.sqrt(inverse_diag * (residual_norm**2 / (m - n))) / scale
    with np.errstate(over="ignore"):
        errors = np.ldexp(errors, -exponents)
    return [math.inf if bad else float(e) for bad, e in zip(unidentified, errors)]
