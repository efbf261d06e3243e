"""Two-tone driven cavity-magnon polariton reflection model.

A cavity mode and a magnon mode hybridize through a coherent coupling; a
probe tone drives the cavity port while a second pump tone drives the magnon
directly.  The relative pump amplitude and phase steer the reflected probe
between transparency, absorption, amplification, and Fano line shapes, with
matching swings in group delay.  This package computes the closed-form
complex reflection, classifies the interference regime, finds
zero-reflection points, and fits the model to measured traces, with an
independent ODE integrator for cross-checks.
"""

from .config import RunConfig, load_config, parse_config, parse_phase
from .delay import (
    DelayTrace,
    TransitionReport,
    TransitionSign,
    ZeroReflectionPoint,
    delay_at,
    delay_extremum_vs_ratio,
    detect_abrupt_transition,
    find_zero_reflection,
    group_delay,
)
from .errors import (
    ConfigError,
    DomainError,
    IntegrationTimeout,
    MagpolError,
    TraceParseError,
)
from .fit import (
    BackgroundModel,
    FitObservation,
    FitProblem,
    FitResult,
    NoiseModel,
    fit_parameters,
    synthesize_trace,
)
from .io import TraceFile, TraceFormat, read_trace, write_trace
from .model import (
    DriveField,
    ModeAmplitudes,
    SystemParams,
    output_field,
    transmission,
)
from .oracle import IntegratorConfig, integrate_to_steady, kernel_backend, oracle_transmission
from .spectra import (
    DetuningGrid,
    RegimeLabel,
    SpectrumTrace,
    SweepAxis,
    SweepMap,
    classify_regime,
    default_grid,
    sweep,
    trace,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundModel",
    "ConfigError",
    "DelayTrace",
    "DetuningGrid",
    "DomainError",
    "DriveField",
    "FitObservation",
    "FitProblem",
    "FitResult",
    "IntegrationTimeout",
    "IntegratorConfig",
    "MagpolError",
    "ModeAmplitudes",
    "NoiseModel",
    "RegimeLabel",
    "RunConfig",
    "SpectrumTrace",
    "SweepAxis",
    "SweepMap",
    "SystemParams",
    "TraceFile",
    "TraceFormat",
    "TraceParseError",
    "TransitionReport",
    "TransitionSign",
    "ZeroReflectionPoint",
    "classify_regime",
    "default_grid",
    "delay_at",
    "delay_extremum_vs_ratio",
    "detect_abrupt_transition",
    "find_zero_reflection",
    "fit_parameters",
    "group_delay",
    "integrate_to_steady",
    "kernel_backend",
    "load_config",
    "oracle_transmission",
    "output_field",
    "parse_config",
    "parse_phase",
    "read_trace",
    "sweep",
    "synthesize_trace",
    "trace",
    "transmission",
    "write_trace",
]
