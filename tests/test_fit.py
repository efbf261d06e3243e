"""Parameter recovery: synthesis, joint fitting, uncertainties, edge cases."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE, examples, valid_params
from magpol import fit as fit_module
from magpol.errors import DomainError
from magpol.fit import (
    DEFAULT_FREE,
    FREE_PARAMETER_NAMES,
    BackgroundModel,
    FitObservation,
    FitProblem,
    NoiseModel,
    _candidate,
    _jacobian,
    _residual_vector,
    fit_parameters,
    synthesize_trace,
)
from magpol.model import DriveField, SystemParams
from magpol.spectra import DetuningGrid, trace

GRID = DetuningGrid(-60.0, 60.0, 1201)
COMPLEX9_FREE = (
    "coupling_g",
    "kappa_c",
    "kappa_m",
    "kappa_c1",
    "kappa_m1",
    "cavity_freq",
    "magnon_freq",
    "amplitude_scale",
    "phase_slope",
)


def _drives():
    return [DriveField(ratio_delta=d, phase_phi=0.35 * math.pi) for d in (0.0, 1.0, 2.0)]


def _perturbed(params):
    return replace(
        params,
        coupling_g=params.coupling_g * 1.15,
        kappa_c=params.kappa_c * 0.9,
        kappa_m=params.kappa_m * 1.2,
        kappa_c1=params.kappa_c1 * 0.9,
    )


def residual_reference(problem, params, background, offset):
    """One full trace per observation: the plain loop _residual_vector must
    reproduce bit for bit."""
    parts = []
    for obs in problem.observations:
        drive = obs.drive if offset is None else replace(obs.drive, phase_offset=offset)
        model = background.apply(trace(params, drive, obs.grid).t, obs.grid.values)
        if obs.has_phase:
            diff = model - obs.values
            parts.append(diff.view(float))  # Re and Im of each sample in turn
        else:
            parts.append(np.abs(model) - obs.values)
    return np.concatenate(parts)


class TestSynthesize:
    def test_noiseless_equals_model(self, params):
        drive = DriveField(ratio_delta=1.0, phase_phi=0.2)
        obs = synthesize_trace(params, drive, GRID)
        np.testing.assert_array_equal(obs.values, trace(params, drive, GRID).t)
        assert obs.has_phase

    def test_seeded_noise_is_reproducible(self, params):
        drive = DriveField(ratio_delta=1.0)
        a = synthesize_trace(params, drive, GRID, noise=NoiseModel(40.0), rng=5)
        b = synthesize_trace(params, drive, GRID, noise=NoiseModel(40.0), rng=5)
        c = synthesize_trace(params, drive, GRID, noise=NoiseModel(40.0), rng=6)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.any(a.values != c.values)

    def test_noise_scale_matches_snr(self, params):
        drive = DriveField(ratio_delta=0.0)
        clean = synthesize_trace(params, drive, GRID)
        noisy = synthesize_trace(params, drive, GRID, noise=NoiseModel(40.0), rng=1)
        residual = noisy.values - clean.values
        peak = float(np.max(np.abs(clean.values)))
        rms = float(np.sqrt(np.mean(np.abs(residual) ** 2)))
        assert rms == pytest.approx(peak * 1e-2, rel=0.1)

    def test_background_applied(self, params):
        drive = DriveField(ratio_delta=0.5)
        background = BackgroundModel(amplitude_scale=0.9, phase_slope=0.002)
        obs = synthesize_trace(params, drive, GRID, background=background)
        expected = background.apply(trace(params, drive, GRID).t, GRID.values)
        np.testing.assert_array_equal(obs.values, expected)

    def test_noise_model_sigma(self):
        assert NoiseModel(40.0).sigma(1.0) == pytest.approx(0.01)
        assert NoiseModel(20.0).sigma(2.0) == pytest.approx(0.2)


class TestFitProblemValidation:
    def test_needs_observations(self):
        with pytest.raises(DomainError, match="observation"):
            FitProblem(observations=())

    def test_rejects_unknown_free_name(self, params):
        obs = synthesize_trace(params, DriveField(ratio_delta=0.0), GRID)
        with pytest.raises(DomainError, match="unknown free parameter"):
            FitProblem(observations=(obs,), free=("quality_factor",))

    def test_rejects_duplicate_free_name(self, params):
        obs = synthesize_trace(params, DriveField(ratio_delta=0.0), GRID)
        with pytest.raises(DomainError, match="duplicate"):
            FitProblem(observations=(obs,), free=("kappa_c", "kappa_c"))

    def test_observation_shape_checked(self, params):
        with pytest.raises(DomainError, match="length"):
            FitObservation(
                grid=GRID, values=np.ones(7, complex), drive=DriveField(ratio_delta=0.0)
            )

    @pytest.mark.parametrize(
        "has_phase,value", [(True, 1.5e308 + 1.5e308j), (True, 1e50j + 1e49), (False, 2e50)]
    )
    def test_observation_magnitude_is_capped(self, has_phase, value):
        # the cap of rates and grid bounds, so the residual's squares stay finite
        values = np.full(GRID.count, 1e50, complex if has_phase else float)
        drive = DriveField(ratio_delta=0.0)
        FitObservation(grid=GRID, values=values, drive=drive, has_phase=has_phase)
        values[3] = value
        with pytest.raises(DomainError, match="at most 1e\\+50 in magnitude"):
            FitObservation(grid=GRID, values=values, drive=drive, has_phase=has_phase)


    def test_start_below_the_fit_floor(self, params):
        # a valid device, but below the 1e-9 floor the fit keeps rates on
        obs = synthesize_trace(params, DriveField(ratio_delta=0.0), GRID)
        problem = FitProblem(observations=(obs,), free=("kappa_m",))
        with pytest.raises(DomainError, match="kappa_m"):
            fit_parameters(problem, replace(params, kappa_m=1e-12, kappa_m1=1e-13))


class TestFitRecovery:
    def test_noiseless_joint_round_trip(self, params):
        observations = tuple(synthesize_trace(params, d, GRID) for d in _drives())
        problem = FitProblem(observations=observations)
        result = fit_parameters(problem, _perturbed(params))
        assert result.converged
        assert result.residual_norm < 1e-10
        assert result.values["coupling_g"] == pytest.approx(7.6, rel=1e-6)
        assert result.values["kappa_c"] == pytest.approx(113.9, rel=1e-6)
        assert result.values["kappa_m"] == pytest.approx(1.2, rel=1e-6)
        assert result.values["kappa_c1"] == pytest.approx(21.8, rel=1e-6)

    def test_noisy_recovery_within_two_percent(self, params):
        noise = NoiseModel(40.0)
        observations = tuple(
            synthesize_trace(params, d, GRID, noise=noise, rng=100 + i)
            for i, d in enumerate(_drives())
        )
        result = fit_parameters(FitProblem(observations=observations), _perturbed(params))
        assert result.converged
        assert result.values["coupling_g"] == pytest.approx(7.6, rel=0.02)
        assert result.values["kappa_c"] == pytest.approx(113.9, rel=0.02)
        assert result.values["kappa_m"] == pytest.approx(1.2, rel=0.02)

    def test_stderr_finite_and_positive_for_noisy_fit(self, params):
        noise = NoiseModel(40.0)
        observations = tuple(
            synthesize_trace(params, d, GRID, noise=noise, rng=7 + i)
            for i, d in enumerate(_drives())
        )
        result = fit_parameters(FitProblem(observations=observations), _perturbed(params))
        for name in DEFAULT_FREE:
            assert 0.0 < result.stderr[name] < math.inf

    def test_unconstrained_parameter_gets_infinite_stderr(self, params):
        # with the pump off, kappa_m1 never enters the response
        obs = synthesize_trace(
            params, DriveField(ratio_delta=0.0), GRID, noise=NoiseModel(60.0), rng=3
        )
        problem = FitProblem(observations=(obs,), free=("kappa_c", "kappa_m1"))
        result = fit_parameters(problem, replace(params, kappa_c=100.0))
        assert result.stderr["kappa_m1"] == math.inf
        assert result.values["kappa_m1"] == params.kappa_m1  # untouched
        assert result.values["kappa_c"] == pytest.approx(113.9, rel=0.01)

    def test_both_mode_frequencies_free_get_infinite_stderr(self, params):
        # only magnon_freq - cavity_freq enters the response, so the two
        # Jacobian columns are exact negatives and their sum is unconstrained
        truth = replace(params, magnon_freq=2.0)
        observations = tuple(
            synthesize_trace(truth, d, GRID, noise=NoiseModel(40.0), rng=20 + i)
            for i, d in enumerate(_drives())
        )
        problem = FitProblem(
            observations=observations, free=DEFAULT_FREE + ("cavity_freq", "magnon_freq")
        )
        result = fit_parameters(problem, replace(_perturbed(truth), magnon_freq=1.5))
        assert result.stderr["cavity_freq"] == math.inf
        assert result.stderr["magnon_freq"] == math.inf
        for name in DEFAULT_FREE:
            assert 0.0 < result.stderr[name] < math.inf
        offset = result.values["magnon_freq"] - result.values["cavity_freq"]
        assert offset == pytest.approx(2.0, abs=0.05)
        assert result.values["coupling_g"] == pytest.approx(7.6, rel=0.02)

    def test_background_parameters_recovered(self, params):
        background = BackgroundModel(amplitude_scale=0.93, phase_slope=0.0015)
        observations = tuple(
            synthesize_trace(params, d, GRID, background=background) for d in _drives()
        )
        problem = FitProblem(
            observations=observations,
            free=DEFAULT_FREE + ("amplitude_scale", "phase_slope"),
        )
        result = fit_parameters(problem, _perturbed(params))
        assert result.converged
        assert result.background.amplitude_scale == pytest.approx(0.93, rel=1e-6)
        assert result.background.phase_slope == pytest.approx(0.0015, rel=1e-4)
        assert result.values["coupling_g"] == pytest.approx(7.6, rel=1e-6)

    def test_magnitude_only_drops_phase_slope_with_warning(self, params):
        clean = trace(params, DriveField(ratio_delta=1.0, phase_phi=0.35 * math.pi), GRID)
        obs = FitObservation(
            grid=GRID,
            values=np.abs(clean.t),
            drive=DriveField(ratio_delta=1.0, phase_phi=0.35 * math.pi),
            has_phase=False,
        )
        problem = FitProblem(
            observations=(obs,), free=("coupling_g", "phase_slope")
        )
        with pytest.warns(UserWarning, match="phase_slope"):
            result = fit_parameters(problem, replace(params, coupling_g=8.5))
        assert result.free == ("coupling_g",)
        assert result.values["coupling_g"] == pytest.approx(7.6, rel=1e-4)

    def test_magnitude_only_observation_fits(self, params):
        drive = DriveField(ratio_delta=1.2, phase_phi=0.35 * math.pi)
        clean = trace(params, drive, GRID)
        obs = FitObservation(
            grid=GRID, values=np.abs(clean.t), drive=drive, has_phase=False
        )
        problem = FitProblem(observations=(obs,), free=("coupling_g", "kappa_m"))
        result = fit_parameters(
            problem, replace(params, coupling_g=8.2, kappa_m=1.5)
        )
        assert result.converged
        assert result.values["coupling_g"] == pytest.approx(7.6, rel=1e-6)
        assert result.values["kappa_m"] == pytest.approx(1.2, rel=1e-6)


class TestResidualExactness:
    """The residual shares den, t_probe and the background prefactor across
    observations on equal detunings; it must equal the per-trace loop."""

    BACKGROUND = BackgroundModel(amplitude_scale=0.95, phase_slope=0.003)

    @staticmethod
    def _problem(params, grids):
        observations = [
            synthesize_trace(params, drive, grid, noise=NoiseModel(40.0), rng=k)
            for k, (drive, grid) in enumerate(zip(_drives(), grids))
        ]
        last = observations[-1]
        observations[-1] = FitObservation(
            grid=last.grid, values=np.abs(last.values), drive=last.drive, has_phase=False
        )
        return FitProblem(observations=tuple(observations))

    def _check(self, params, grids, background=BACKGROUND):
        problem = self._problem(params, grids)
        candidate = _perturbed(params)
        for offset in (None, 0.4):
            result, _ = _residual_vector(problem, candidate, background, offset)
            expected = residual_reference(problem, candidate, background, offset)
            assert np.array_equal(result, expected)

    def test_default_background_skips_the_rotation(self, params):
        # phase_slope = 0 and amplitude_scale = 1: no exp, same bits
        grid = DetuningGrid(-60.0, 60.0, 241)
        self._check(params, [grid, grid, DetuningGrid(-25.0, 35.0, 151)], BackgroundModel())

    def test_one_shared_grid_object(self, params):
        grid = DetuningGrid(-60.0, 60.0, 241)
        self._check(params, [grid, grid, grid])

    def test_equal_valued_distinct_grids(self, params):
        self._check(params, [DetuningGrid(-60.0, 60.0, 241) for _ in range(3)])

    def test_from_values_grid_with_equal_fields_is_not_shared(self, params):
        grid = DetuningGrid(-60.0, 60.0, 241)
        shifted = grid.values.copy()
        shifted[1:-1] += 1e-12  # within the uniformity tolerance
        twin = DetuningGrid.from_values(shifted)
        assert twin == grid  # same start, stop and count ...
        drive = _drives()[1]
        # ... but other samples, and so another trace
        assert not np.array_equal(trace(params, drive, twin).t, trace(params, drive, grid).t)
        self._check(params, [grid, twin, grid])
        self._check(params, [twin, grid, twin])


def _point(problem, params, background, offset):
    """The parameter vector x of problem at this model point."""
    values = {
        "phase_offset": offset,
        "amplitude_scale": background.amplitude_scale,
        "phase_slope": background.phase_slope,
    }
    return np.array(
        [values[n] if n in values else getattr(params, n) for n in problem.free]
    )


def _residual_at(x, problem, initial):
    return _residual_vector(problem, *_candidate(problem, initial, x))[0]


def _jacobian_at(x, problem, initial):
    point = _candidate(problem, initial, x)
    return _jacobian(problem, *point, _residual_vector(problem, *point)[1])


def _central_differences(problem, initial, x):
    columns = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = 1e-6 * max(1.0, abs(x[k]))
        upper = _residual_at(x + step, problem, initial)
        lower = _residual_at(x - step, problem, initial)
        columns.append((upper - lower) / (2.0 * step[k]))
    return np.stack(columns, axis=1)


def _assert_matches_central_differences(problem, params, x):
    """Each column within 1e-6 of its largest entry, plus 1e-8 for the
    rounding of the differences (about 1e-16 / step for residuals of order 1)."""
    jac = _jacobian_at(x, problem, params)
    reference = _central_differences(problem, params, x)
    assert jac.shape == reference.shape
    for k, name in enumerate(problem.free):
        scale = np.max(np.abs(jac[:, k]))
        assert scale > 0.0, name
        assert np.max(np.abs(jac[:, k] - reference[:, k])) <= 1e-6 * scale + 1e-8, name


def _jacobian_problem(params, has_phase):
    """Observations on two distinct grids, all parameters free; the last
    observation is magnitude-only unless every one must carry phase."""
    wide = DetuningGrid(-60.0, 60.0, 241)
    narrow = DetuningGrid(-25.0, 35.0, 151)
    drives = (
        DriveField(ratio_delta=0.0),
        DriveField(ratio_delta=1.5, phase_phi=0.35 * math.pi),
        DriveField(ratio_delta=0.8, phase_phi=1.2),
    )
    observations = [
        synthesize_trace(params, drive, grid)
        for drive, grid in zip(drives, (wide, narrow, wide))
    ]
    if not has_phase:
        last = observations[-1]
        observations[-1] = FitObservation(
            grid=last.grid, values=np.abs(last.values), drive=last.drive, has_phase=False
        )
    return FitProblem(observations=tuple(observations), free=FREE_PARAMETER_NAMES)


class TestJacobian:
    """The closed-form Jacobian against central differences of the residual."""

    BACKGROUND = BackgroundModel(amplitude_scale=0.95, phase_slope=0.003)

    @pytest.mark.parametrize("has_phase", [True, False])
    def test_matches_central_differences(self, params, has_phase):
        device = replace(params, cavity_freq=1.5, magnon_freq=-2.0)
        problem = _jacobian_problem(device, has_phase)
        x = _point(problem, replace(device, coupling_g=8.1), self.BACKGROUND, 2.9)
        _assert_matches_central_differences(problem, device, x)

    @given(valid_params(), st.floats(-4.0, 4.0))
    @settings(max_examples=examples(50), deadline=None)
    def test_matches_central_differences_on_any_device(self, device, offset):
        # kept clear of the validity boundary by more than the difference
        # step; complex data only, since |model| has a kink where it vanishes
        device = replace(
            device,
            coupling_g=max(device.coupling_g, 1e-3),
            kappa_c1=min(device.kappa_c1, 0.999 * device.kappa_c),
            kappa_m1=min(device.kappa_m1, 0.999 * device.kappa_m),
        )
        problem = _jacobian_problem(device, has_phase=True)
        x = _point(problem, device, self.BACKGROUND, offset)
        _assert_matches_central_differences(problem, device, x)

    def test_steps_across_the_validity_boundary_are_rejected(self, params, monkeypatch):
        # kappa_c1 sits just below kappa_c, so trial steps that overshoot
        # kappa_c downwards are not a valid model and must be rejected
        truth = replace(params, kappa_c=25.0, kappa_c1=24.9)
        observations = tuple(
            synthesize_trace(truth, d, GRID, noise=NoiseModel(40.0), rng=30 + i)
            for i, d in enumerate(_drives())
        )
        problem = FitProblem(observations=observations, free=("kappa_c",))
        start = replace(truth, kappa_c=40.0)
        rejected = []

        def counting_candidate(*args):
            try:
                return _candidate(*args)
            except DomainError:
                rejected.append(args[-1])
                raise

        monkeypatch.setattr(fit_module, "_candidate", counting_candidate)
        result = fit_parameters(problem, start)
        assert rejected
        assert isinstance(result.params, SystemParams)
        assert replace(result.params) == result.params  # passes validation
        reference = _reference_fit(problem, start)
        assert result.residual_norm <= np.linalg.norm(reference.fun) * (1.0 + 1e-12)

    def test_magnitude_rows_are_finite_where_the_model_vanishes(self, params):
        problem = _jacobian_problem(params, has_phase=False)
        # a zero amplitude scale makes the model exactly 0 on every sample
        vanishing = BackgroundModel(amplitude_scale=0.0, phase_slope=0.003)
        terms = _residual_vector(problem, params, vanishing, 0.0)[1]
        jac = _jacobian(problem, params, vanishing, 0.0, terms)
        assert np.all(np.isfinite(jac))
        rows = problem.observations[-1].residual_size
        assert not np.any(jac[-rows:])


class TestJacobianSharing:
    """The Jacobian forms each grid's drive-free arrays once and shares them
    across the observations on equal detunings; each observation's rows
    must equal, bit for bit, its rows in a problem that holds it alone."""

    @pytest.mark.parametrize(
        "background",
        [BackgroundModel(), BackgroundModel(amplitude_scale=0.95, phase_slope=0.003)],
    )
    @pytest.mark.parametrize("offset", [None, 0.4])
    @pytest.mark.parametrize("layout", ["shared", "equal-valued", "twin-first", "twin-between"])
    def test_rows_equal_each_observation_alone(self, params, background, offset, layout):
        grid = DetuningGrid(-60.0, 60.0, 241)
        shifted = grid.values.copy()
        shifted[1:-1] += 1e-12
        twin = DetuningGrid.from_values(shifted)
        grids = {
            "shared": [grid, grid, grid],
            "equal-valued": [DetuningGrid(-60.0, 60.0, 241) for _ in range(3)],
            "twin-first": [twin, grid, twin],
            "twin-between": [grid, twin, grid],
        }[layout]
        # two complex observations and a magnitude-only one, every parameter free
        problem = replace(
            TestResidualExactness._problem(params, grids), free=FREE_PARAMETER_NAMES
        )
        point = (_perturbed(params), background, offset)
        jac = _jacobian(problem, *point, _residual_vector(problem, *point)[1])
        start = 0
        for obs in problem.observations:
            alone = replace(problem, observations=(obs,))
            expected = _jacobian(alone, *point, _residual_vector(alone, *point)[1])
            rows = jac[start : start + obs.residual_size]
            assert rows.tobytes() == expected.tobytes()
            start += obs.residual_size
        assert start == jac.shape[0]


def _benchmark_problem(case, rng):
    """Three noisy traces of the reference device as the benchmark draws
    them: complex at 40 dB, or their magnitudes, with the default free set."""
    observations = tuple(
        synthesize_trace(REFERENCE, d, GRID, noise=NoiseModel(40.0), rng=rng) for d in _drives()
    )
    if case == "magnitude4":
        observations = tuple(
            FitObservation(grid=o.grid, values=np.abs(o.values), drive=o.drive, has_phase=False)
            for o in observations
        )
    return FitProblem(observations=observations)


def _rescaled(problem, initial, k):
    """The same problem and start with every rate, frequency and detuning
    scaled by 2^k, which leaves every trace sample unchanged."""
    grid = DetuningGrid(math.ldexp(GRID.start, k), math.ldexp(GRID.stop, k), GRID.count)
    observations = tuple(replace(o, grid=grid) for o in problem.observations)
    fields = fit_module._SYSTEM_FIELDS
    start = replace(initial, **{n: math.ldexp(getattr(initial, n), k) for n in fields})
    return replace(problem, observations=observations), start


def _complex9_problem(seed):
    """Three 30 dB traces with all five rates, both mode frequencies and the
    background free."""
    rng = np.random.default_rng(seed)
    observations = tuple(
        synthesize_trace(REFERENCE, d, GRID, noise=NoiseModel(30.0), rng=rng)
        for d in _drives()
    )
    return FitProblem(observations=observations, free=COMPLEX9_FREE)


class TestConvergedFlag:
    """converged: stopped on a tolerance test, with a small column-scaled
    gradient."""

    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_nine_parameter_fits_converge(self, seed):
        result = fit_parameters(_complex9_problem(seed), _perturbed(REFERENCE))
        assert result.converged, result.message

    @pytest.mark.parametrize("k", [-20, 20, 40, 60])
    @pytest.mark.parametrize("case", ["complex4", "magnitude4"])
    def test_unit_rescaling_keeps_the_fit(self, case, k):
        # the gradient stop test divides by the column scale D, so units do not move it
        problem = _benchmark_problem(case, np.random.default_rng(1))
        start = _perturbed(REFERENCE)
        expected = fit_parameters(problem, start)
        result = fit_parameters(*_rescaled(problem, start, k))
        assert expected.converged
        assert (result.converged, result.message, result.n_evaluations) == (
            expected.converged,
            expected.message,
            expected.n_evaluations,
        )
        for name in problem.free:
            assert result.values[name] == math.ldexp(expected.values[name], k), name

    def test_a_phase_offset_whose_square_overflows(self):
        # the step test compares |step| with |x|; x's squares overflowed here,
        # and any step the data can ask for is below 1e-14 of this |x|
        offset = 1.3407807929942597e154
        grid = DetuningGrid(-60.0, 60.0, 21)
        sample = trace(REFERENCE, DriveField(1.0, 0.35 * math.pi), grid)
        observation = FitObservation(grid, sample.t, DriveField(1.0, 0.35 * math.pi, offset))
        problem = FitProblem((observation,), free=("coupling_g", "phase_offset"))
        result = fit_parameters(problem, REFERENCE)
        assert result.message == "step below tolerance"
        assert result.values["phase_offset"] == offset
        assert math.isfinite(result.values["coupling_g"])

    def test_evaluation_cap_is_not_convergence(self, monkeypatch):
        # one free parameter: the start and a single trial step
        monkeypatch.setattr(fit_module, "_EVALUATIONS_PER_PARAMETER", 2)
        observations = tuple(synthesize_trace(REFERENCE, d, GRID) for d in _drives())
        problem = FitProblem(observations=observations, free=("coupling_g",))
        result = fit_parameters(problem, _perturbed(REFERENCE))
        assert not result.converged
        assert result.n_evaluations == 2
        assert "evaluation cap of 2" in result.message

    def test_capped_fit_is_not_converged_at_the_minimum(self, monkeypatch):
        # the gradient test alone would pass here: the start is the minimum
        observations = tuple(
            synthesize_trace(REFERENCE, d, GRID, noise=NoiseModel(40.0), rng=50 + i)
            for i, d in enumerate(_drives())
        )
        problem = FitProblem(observations=observations)
        fitted = fit_parameters(problem, _perturbed(REFERENCE))
        assert fitted.converged
        monkeypatch.setattr(fit_module, "_EVALUATIONS_PER_PARAMETER", 0)
        result = fit_parameters(problem, fitted.params)
        assert result.values == fitted.values
        assert not result.converged
        assert "evaluation cap of 0" in result.message


def _reference_fit(problem, initial):
    """The former solver: scipy's trust-region reflective least squares on
    the Jacobian-scaled problem, with the old bounds, the three 1e-14
    tolerances, and a flat 1e6 residual (zero Jacobian) wherever a candidate
    is not a valid model."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    m = sum(o.residual_size for o in problem.observations)

    def objective(x):
        try:
            return _residual_at(x, problem, initial)
        except DomainError:
            return np.full(m, 1e6)

    def jacobian(x):
        try:
            return _jacobian_at(x, problem, initial)
        except DomainError:
            return np.zeros((m, len(problem.free)))

    floors = {"coupling_g": 0.0, "amplitude_scale": 1e-9}
    floors.update(dict.fromkeys(("kappa_c", "kappa_m", "kappa_c1", "kappa_m1"), 1e-9))
    free = problem.free
    x0 = np.array([fit_module._initial_value(n, initial, problem) for n in free])
    lower = np.array([floors.get(n, -np.inf) for n in free])
    return least_squares(
        objective,
        x0,
        jac=jacobian,
        bounds=(lower, np.inf),
        method="trf",
        x_scale="jac",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )


class TestSolverReference:
    """The Levenberg-Marquardt fit against the former scipy solver on the
    benchmark's three fit cases."""

    CASES = {
        "complex4": (DEFAULT_FREE, 40.0, True),
        "complex9": (COMPLEX9_FREE, 30.0, True),
        "magnitude4": (DEFAULT_FREE, 40.0, False),
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_reference(self, case, seed):
        free, snr_db, has_phase = self.CASES[case]
        rng = np.random.default_rng(1000 + seed)
        observations = [
            synthesize_trace(REFERENCE, d, GRID, noise=NoiseModel(snr_db), rng=rng)
            for d in _drives()
        ]
        if not has_phase:
            observations = [
                FitObservation(
                    grid=o.grid, values=np.abs(o.values), drive=o.drive, has_phase=False
                )
                for o in observations
            ]
        problem = FitProblem(observations=tuple(observations), free=free)
        initial = _perturbed(REFERENCE)
        result = fit_parameters(problem, initial)
        reference = _reference_fit(problem, initial)
        expected = dict(zip(free, reference.x))
        reference_norm = np.linalg.norm(reference.fun)
        reference_stderr = dict(
            zip(free, fit_module._standard_errors(reference.jac, reference_norm))
        )
        assert result.residual_norm <= reference_norm * (1.0 + 1e-12)
        for name in free:
            if math.isfinite(reference_stderr[name]):
                difference = abs(result.values[name] - expected[name])
                assert difference <= 1e-4 * reference_stderr[name], name
        if "magnon_freq" in free and "cavity_freq" in free:
            offset = result.values["magnon_freq"] - result.values["cavity_freq"]
            assert offset == pytest.approx(
                expected["magnon_freq"] - expected["cavity_freq"], rel=1e-5
            )


def _svd_standard_errors(jac, residual_norm):
    """_standard_errors as an SVD of the whole m by n Jacobian."""
    m, n = jac.shape
    norms = np.linalg.norm(jac, axis=0)
    scale = np.where(norms > 0.0, norms, 1.0)
    _, singular, vt = np.linalg.svd(jac / scale, full_matrices=False)
    null = singular <= fit_module._NULL_SPACE_RTOL * singular[0]
    unidentified = np.linalg.norm(vt[null], axis=0) > fit_module._NULL_COMPONENT_TOL
    inverse_diag = np.sum((vt[~null] / singular[~null, None]) ** 2, axis=0)
    errors = np.sqrt(inverse_diag * (residual_norm**2 / (m - n))) / scale
    return [math.inf if bad else float(e) for bad, e in zip(unidentified, errors)]


class TestStandardErrors:
    """stderr from the R factor of a QR against the SVD of the Jacobian."""

    @staticmethod
    def _assert_matches_the_svd(problem, initial):
        result = fit_parameters(problem, initial)
        x = np.array([result.values[n] for n in problem.free])
        point = _candidate(problem, initial, x)
        residual, terms = _residual_vector(problem, *point)
        jac = _jacobian(problem, *point, terms)
        residual_norm = float(np.linalg.norm(residual))
        errors = fit_module._standard_errors(jac, residual_norm)
        expected = _svd_standard_errors(jac, residual_norm)
        assert [math.isinf(e) for e in errors] == [math.isinf(e) for e in expected]
        for name, error, reference in zip(problem.free, errors, expected):
            if math.isfinite(reference):
                assert error == pytest.approx(reference, rel=1e-10, abs=0.0), name
        return errors

    @pytest.mark.parametrize("seed", range(4))
    def test_both_mode_frequencies_free(self, seed):
        errors = self._assert_matches_the_svd(_complex9_problem(seed), _perturbed(REFERENCE))
        free = COMPLEX9_FREE
        assert errors[free.index("cavity_freq")] == errors[free.index("magnon_freq")] == math.inf

    def test_a_parameter_the_data_never_touches(self, params):
        # with the pump off, kappa_m1 never enters the response
        obs = synthesize_trace(
            params, DriveField(ratio_delta=0.0), GRID, noise=NoiseModel(60.0), rng=3
        )
        problem = FitProblem(observations=(obs,), free=("kappa_c", "kappa_m1", "coupling_g"))
        errors = self._assert_matches_the_svd(problem, replace(params, kappa_c=100.0))
        assert errors[1] == math.inf
        assert math.isfinite(errors[0]) and math.isfinite(errors[2])

    def test_a_column_scaled_by_a_power_of_two(self):
        # 2^-1000 keeps every entry normal: the column's error scales exactly
        jac = np.random.default_rng(5).normal(size=(40, 2))
        errors = fit_module._standard_errors(jac, 1.5)
        scaled = fit_module._standard_errors(jac * np.array([1.0, 2.0**-1000]), 1.5)
        assert scaled == [errors[0], math.ldexp(errors[1], 1000)]

    def test_a_column_of_subnormals(self):
        # a device far below the data's detunings: the column's norm must not
        # underflow to zero, and its error, past the largest double, is inf
        jac = np.random.default_rng(5).normal(size=(40, 1))
        assert fit_module._standard_errors(jac * 2.0**-1070, 1.5) == [math.inf]
