"""Two-tone driven cavity-magnon polariton reflection model.

A cavity mode and a magnon mode hybridize through a coherent coupling; a
probe tone drives the cavity port while a second pump tone drives the magnon
directly.  The relative pump amplitude and phase steer the reflected probe
between transparency, absorption, amplification, and Fano line shapes, with
matching swings in group delay.  This package computes the closed-form
complex reflection, classifies the interference regime, finds
zero-reflection points, and fits the model to measured traces, with an
independent ODE integrator for cross-checks.

The public names load on first use (PEP 562): `import magpol` imports no
submodule, and `magpol.fit_parameters` imports `magpol.fit` when it is
first read, so a command pays only for the modules it runs.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "config": ("RunConfig", "load_config", "parse_config", "parse_phase"),
    "delay": (
        "DelayTrace",
        "TransitionReport",
        "TransitionSign",
        "ZeroReflectionPoint",
        "delay_at",
        "delay_extremum_vs_ratio",
        "detect_abrupt_transition",
        "find_zero_reflection",
        "group_delay",
    ),
    "errors": (
        "ConfigError",
        "DomainError",
        "IntegrationTimeout",
        "MagpolError",
        "TraceParseError",
    ),
    "fit": (
        "BackgroundModel",
        "FitObservation",
        "FitProblem",
        "FitResult",
        "NoiseModel",
        "fit_parameters",
        "synthesize_trace",
    ),
    "io": ("TraceFile", "TraceFormat", "read_trace", "write_trace"),
    "model": ("DriveField", "ModeAmplitudes", "SystemParams", "output_field", "transmission"),
    "oracle": ("IntegratorConfig", "integrate_to_steady", "kernel_backend", "oracle_transmission"),
    "spectra": (
        "DetuningGrid",
        "RegimeLabel",
        "SpectrumTrace",
        "SweepAxis",
        "SweepMap",
        "classify_regime",
        "default_grid",
        "sweep",
        "trace",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
