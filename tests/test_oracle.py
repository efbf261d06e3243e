"""Time-domain integrator vs the closed form and vs stepwise RK4.

The integrator is the independent route: it never touches the closed-form
response, so agreement here validates both.  Its window propagator is pinned
to a plain stepwise RK4 loop on short horizons.
"""

import math

import numpy as np
import pytest

from magpol import oracle
from magpol.errors import DomainError, IntegrationTimeout
from magpol.model import DriveField, transmission
from magpol.oracle import (
    IntegratorConfig,
    integrate_to_steady,
    kernel_backend,
    oracle_transmission,
)

def test_backend_reports_a_known_name():
    assert kernel_backend() == "python"


def test_zero_drive_settles_dark(params):
    drive = DriveField(ratio_delta=0.0, probe_amp=0.0)
    amps = integrate_to_steady(params, drive, 3.0)
    assert amps.cavity_amp == 0.0
    assert amps.magnon_amp == 0.0


def test_matches_closed_form_on_resonance(params):
    drive = DriveField(ratio_delta=1.0, phase_phi=0.3)
    exact = transmission(params, drive, 0.0)
    integrated = oracle_transmission(params, drive, 0.0)
    assert abs(integrated - exact) / abs(exact) < 1e-8


@pytest.mark.parametrize("detuning", [-40.0, -5.0, 2.0, 55.0])
def test_matches_closed_form_off_resonance(params, detuning):
    drive = DriveField(ratio_delta=2.0, phase_phi=1.9)
    probe_freq = params.cavity_freq - detuning
    exact = transmission(params, drive, probe_freq)
    integrated = oracle_transmission(params, drive, probe_freq)
    assert abs(integrated - exact) / abs(exact) < 1e-8


def test_matches_closed_form_on_random_draws(draw_system, draw_drive):
    rng = np.random.default_rng(11)
    for _ in range(10):
        params = draw_system(rng)
        drive = draw_drive(rng)
        detuning = rng.uniform(-2.0 * params.kappa_c, 2.0 * params.kappa_c)
        probe_freq = params.cavity_freq - detuning
        exact = transmission(params, drive, probe_freq)
        integrated = oracle_transmission(params, drive, probe_freq)
        assert abs(integrated - exact) / max(abs(exact), 1e-30) < 1e-8


def test_tighter_settle_tolerance_is_more_accurate(params):
    drive = DriveField(ratio_delta=1.0, phase_phi=0.3)
    exact = transmission(params, drive, 0.0)
    errors = []
    for tol in (1e-6, 1e-10):
        value = oracle_transmission(
            params, drive, 0.0, IntegratorConfig(settle_tol=tol)
        )
        errors.append(abs(value - exact))
    assert errors[1] < errors[0]


def test_explicit_step_override(params):
    drive = DriveField(ratio_delta=0.5, phase_phi=0.1)
    exact = transmission(params, drive, 0.0)
    value = oracle_transmission(
        params, drive, 0.0, IntegratorConfig(step=5e-6, settle_tol=1e-10)
    )
    assert abs(value - exact) / abs(exact) < 1e-8


def test_timeout_reports_last_change(params):
    config = IntegratorConfig(max_time=1e-4, settle_tol=1e-14)
    with pytest.raises(IntegrationTimeout) as info:
        integrate_to_steady(params, DriveField(ratio_delta=1.0), 0.0, config)
    assert info.value.last_change is None or info.value.last_change > 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": 0.0},
        {"step": -1e-3},
        {"settle_tol": 0.0},
        {"max_time": -1.0},
        {"step": math.inf},
        {"step": math.nan},
        {"settle_tol": math.inf},
        {"max_time": math.inf},
        {"max_time": math.nan},
    ],
)
def test_config_validation(kwargs):
    (field,) = kwargs
    with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
        IntegratorConfig(**kwargs)


def test_zero_probe_transmission_rejected(params):
    with pytest.raises(DomainError, match="probe_amp"):
        oracle_transmission(params, DriveField(ratio_delta=1.0, probe_amp=0.0), 0.0)


def _stepwise_rk4(za, zm, ig, fa, fm, h, n_window, settle_tol, max_steps):
    """Reference: one RK4 step at a time, with the propagator's settle test."""

    def rhs(a, m):
        return za * a - ig * m + fa, zm * m - ig * a + fm

    a = m = 0j
    steps = 0
    change = math.inf
    while steps < max_steps:
        a0, m0 = a, m
        for _ in range(n_window):
            k1a, k1m = rhs(a, m)
            k2a, k2m = rhs(a + 0.5 * h * k1a, m + 0.5 * h * k1m)
            k3a, k3m = rhs(a + 0.5 * h * k2a, m + 0.5 * h * k2m)
            k4a, k4m = rhs(a + h * k3a, m + h * k3m)
            a = a + h / 6.0 * (k1a + 2.0 * (k2a + k3a) + k4a)
            m = m + h / 6.0 * (k1m + 2.0 * (k2m + k3m) + k4m)
        steps += n_window
        change = max(abs(a - a0) / (abs(a) + 1e-300), abs(m - m0) / (abs(m) + 1e-300))
        if change <= settle_tol:
            return a, m, steps, True, change
    return a, m, steps, False, change


def _run_both(*args):
    """Propagator and reference on the same arguments; asserts they agree."""
    got = oracle._run_windows(*args)
    want = _stepwise_rk4(*args)
    assert got[2] == want[2]
    assert got[3] == want[3]
    for value, reference in zip(got[:2], want[:2]):
        assert abs(value - reference) <= 1e-12 * abs(reference)
    return got


_TAU = 2.0 * math.pi
_COUPLED = (
    -_TAU * (0.4j + 1.0),
    -_TAU * (-0.3j + 0.2),
    _TAU * 0.5j,
    complex(1.1),
    0.3 * complex(math.cos(0.7), -math.sin(0.7)),
)


def test_window_settle_counts_whole_windows_at_the_fixed_point():
    # forcing balance: with za=-1, fa=1 the RK4 fixed point is exactly a=1
    a, m, steps, settled, _ = _run_both(
        complex(-1.0), complex(-1.0), 0j, complex(1.0), 0j, 0.05, 20, 1e-12, 100000
    )
    assert settled
    assert steps % 20 == 0
    assert 100 < steps < 1000
    assert a == pytest.approx(1.0, rel=1e-10)
    assert m == 0j


def test_coupled_system_settles_like_stepwise_rk4():
    a, m, steps, settled, change = _run_both(*_COUPLED, 0.01, 25, 1e-6, 100000)
    assert settled
    assert 0.0 <= change <= 1e-6
    assert 100 < steps < 1000


def test_zero_drive_stays_exactly_dark():
    a, m, steps, settled, change = _run_both(
        *_COUPLED[:3], 0j, 0j, 0.01, 25, 1e-10, 400
    )
    assert (a, m) == (0j, 0j)
    assert settled
    assert steps == 25
    assert change == 0.0


def test_timeout_reports_finite_last_change():
    a, m, steps, settled, change = _run_both(*_COUPLED, 0.01, 30, 1e-14, 200)
    assert not settled
    assert steps == 210
    assert math.isfinite(change) and change > 0.0


def test_window_longer_than_max_steps_runs_once():
    a, m, steps, settled, change = _run_both(*_COUPLED, 0.01, 300, 1e-14, 50)
    assert not settled
    assert steps == 300
    assert math.isfinite(change) and change > 0.0
