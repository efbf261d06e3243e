"""Time-domain oracle for the closed-form steady state.

Integrates the rotating-frame equations of motion x' = A x + f, with
x = (a, m), by fixed-step RK4 from rest until the amplitudes settle, then
reports them normalized so that model.output_field turns the cavity
amplitude into the reflected probe.  This is deliberately an independent
route to the closed-form t_p of model.transmission: the closed form never
enters the integration.

Because A and f are constant, one RK4 step of size h is exactly the affine
map x -> M x + c with M = R(hA), where R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
is the RK4 stability function (Hairer & Wanner, Solving ODEs II, sec. IV.2),
and c = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) f.  The map of a whole settle
window of n steps, x -> M^n x + (sum_{k<n} M^k) c, is built once per
integration by binary powering of the augmented 3x3 step matrix, and the
windows are then iterated one map application each.  The iterates are those
of stepwise RK4 up to rounding.

Internally everything is converted to angular units (rad/us = 2*pi*MHz),
including the drive terms sqrt(2*eta*kappa)*amplitude; reported amplitudes
are rescaled by sqrt(2*pi) back to the linear-rate normalization, under
which the input-output relation of model.output_field holds unchanged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationTimeout
from .model import DriveField, ModeAmplitudes, SystemParams, output_field

_TWO_PI = 2.0 * math.pi
_TINY = 1e-300


def kernel_backend() -> str:
    """Name of the integrator backend: always "python".

    There is a single numpy integrator.  The name is kept as a constant
    because benchmark results record it (and refuse to compare results whose
    backends differ) and oracle-check prints it.
    """
    return "python"


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.

    Each given value must be positive and finite, and settle_tol must be
    below 1 (a window change of 100% or more settles nothing; the automatic
    max_time would be negative).  step and max_time are in us;
    None means derive from the system: step
    0.01/(2*pi*f_max) with f_max the largest rate or detuning in MHz, and
    max_time 3*(ln(1/settle_tol)+5)/(2*pi*min(kappa_c, kappa_m)), which stays
    above 10/min(kappa) for settle_tol <= 1e-10.
    """

    step: float | None = None
    settle_tol: float = 1e-10
    max_time: float | None = None

    def __post_init__(self):
        for name in ("step", "settle_tol", "max_time"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not self.settle_tol < 1.0:
            raise DomainError(f"settle_tol must be below 1, got {self.settle_tol}")


def _resolved(
    config: IntegratorConfig, params: SystemParams, delta_c: float, delta_m: float
) -> tuple[float, float, int, int, str]:
    """(step, max_time, n_window, max_steps, span) for this system, filling
    in auto values; span names the rates' spread for an error.

    Raises DomainError when the rates span so many orders of magnitude that a
    step count is not a finite double.
    """
    f_max = max(
        params.kappa_c, params.kappa_m, params.coupling_g, abs(delta_c), abs(delta_m)
    )
    step = config.step if config.step is not None else 0.01 / (_TWO_PI * f_max)
    kappa_min = min(params.kappa_c, params.kappa_m)
    if config.max_time is not None:
        max_time = config.max_time
    else:
        max_time = 3.0 * (math.log(1.0 / config.settle_tol) + 5.0) / (_TWO_PI * kappa_min)
    decay_time = 1.0 / (_TWO_PI * kappa_min)
    window_steps, total_steps = decay_time / step, max_time / step
    span = f"rates from {kappa_min:g} to {f_max:g} MHz are too far apart to integrate"
    if not math.isfinite(max(window_steps, total_steps)):
        raise DomainError(f"{span}: step {step:g} us, max_time {max_time:g} us")
    return step, max_time, max(1, int(window_steps)), int(total_steps) + 1, span


def _run_windows(za, zm, ig, fa, fm, h, n_window, settle_tol, max_steps):
    """RK4 for da/dt = za*a - ig*m + fa, dm/dt = zm*m - ig*a + fm from rest.

    Coefficients are complex and in angular units (rad per time unit of h).
    Windows of n_window steps are applied until the relative change of both
    amplitudes over one window is at most settle_tol, or until at least
    max_steps steps have been taken.

    Returns (a, m, steps_taken, settled, last_change).  DomainError when the
    window's map is not finite: a window of very many steps, from rates
    that span many decades, overflows the powers of the step map.
    """
    z = h * np.array([[za, -ig], [-ig, zm]])
    eye = np.eye(2)
    poly = eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0))
    step_map = np.eye(3, dtype=complex)
    step_map[:2, :2] = eye + z @ poly
    step_map[:2, 2] = h * (poly @ np.array([fa, fm]))
    with np.errstate(over="ignore", invalid="ignore"):
        window = np.linalg.matrix_power(step_map, n_window)
    if not np.isfinite(window).all():
        raise DomainError(f"the map of a window of {n_window:g} steps is not finite")
    (waa, wam, wa), (wma, wmm, wm) = window[:2].tolist()
    a = m = 0j
    steps = 0
    change = math.inf
    while steps < max_steps:
        a0, m0 = a, m
        a = waa * a0 + wam * m0 + wa
        m = wma * a0 + wmm * m0 + wm
        steps += n_window
        change = max(abs(a - a0) / (abs(a) + _TINY), abs(m - m0) / (abs(m) + _TINY))
        if change <= settle_tol:
            return a, m, steps, True, change
    return a, m, steps, False, change


def integrate_to_steady(
    params: SystemParams,
    drive: DriveField,
    probe_freq: float,
    config: IntegratorConfig | None = None,
) -> ModeAmplitudes:
    """Integrate the driven two-mode system from rest to steady state.

    Returns amplitudes in the linear-rate normalization under which
    model.output_field gives the reflected probe.  Raises IntegrationTimeout if the windowed settle
    criterion is not met within max_time, and DomainError for a probe_freq
    that is not finite, or where the rates span so many decades that the
    step count or a window's map is not a finite double.
    """
    if not math.isfinite(probe_freq):
        raise DomainError(f"probe_freq must be finite, got {probe_freq}")
    if config is None:
        config = IntegratorConfig()
    delta_c = params.cavity_freq - probe_freq
    delta_m = params.magnon_freq - probe_freq
    step, max_time, n_window, max_steps, span = _resolved(config, params, delta_c, delta_m)

    za = -(1j * delta_c + params.kappa_c) * _TWO_PI
    zm = -(1j * delta_m + params.kappa_m) * _TWO_PI
    ig = 1j * params.coupling_g * _TWO_PI
    fa = complex(math.sqrt(2.0 * params.kappa_c1 * _TWO_PI) * drive.probe_amp)
    fm = (
        math.sqrt(2.0 * params.kappa_m1 * _TWO_PI)
        * drive.ratio_delta
        * drive.probe_amp
        * cmath.exp(-1j * drive.effective_phase)
    )

    try:
        a, m, steps, settled, change = _run_windows(
            za, zm, ig, fa, fm, step, n_window, config.settle_tol, max_steps
        )
    except DomainError as exc:
        raise DomainError(f"{span}: {exc}") from None
    if not settled:
        raise IntegrationTimeout(
            f"no steady state within {max_time:g} us "
            f"({steps:g} steps, last relative change {change:.3e})",
            last_change=change,
        )
    scale = math.sqrt(_TWO_PI)
    return ModeAmplitudes(cavity_amp=a * scale, magnon_amp=m * scale)


def oracle_transmission(
    params: SystemParams,
    drive: DriveField,
    probe_freq: float,
    config: IntegratorConfig | None = None,
) -> complex:
    """t_p obtained from the time-domain steady state via input-output."""
    if drive.probe_amp == 0.0:
        raise DomainError("transmission is undefined for probe_amp == 0")
    amps = integrate_to_steady(params, drive, probe_freq, config)
    return output_field(params, amps.cavity_amp, drive.probe_amp) / drive.probe_amp
