"""Shared fixtures: the published reference device and random draws."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from magpol.model import DriveField, SystemParams

# python -m pytest --hypothesis-profile=deep runs every property at 25 times
# its examples, with no deadline; the default profile runs what examples(n)
# gives at its 100 examples, n.
settings.register_profile("deep", max_examples=2500, deadline=None)


def examples(n: int) -> int:
    """A property's example count: n under the default profile, scaled by
    the loaded profile's max_examples over the default's 100."""
    return n * settings.default.max_examples // 100

REFERENCE = SystemParams(
    cavity_freq=0.0,
    magnon_freq=0.0,
    coupling_g=7.6,
    kappa_c=113.9,
    kappa_m=1.2,
    kappa_c1=21.8,
    kappa_m1=0.6,
)


@pytest.fixture
def params() -> SystemParams:
    return REFERENCE


@pytest.fixture
def drive_off() -> DriveField:
    return DriveField(ratio_delta=0.0)


@pytest.fixture
def draw_system():
    """Callable drawing a random valid device around the reference scales."""

    def _draw(rng: np.random.Generator) -> SystemParams:
        kappa_c = 113.9 * rng.uniform(0.5, 2.0)
        kappa_m = 1.2 * rng.uniform(0.5, 2.0)
        return SystemParams(
            cavity_freq=0.0,
            magnon_freq=rng.uniform(-5.0, 5.0),
            coupling_g=7.6 * rng.uniform(0.5, 2.0),
            kappa_c=kappa_c,
            kappa_m=kappa_m,
            kappa_c1=kappa_c * rng.uniform(0.05, 0.45),
            kappa_m1=kappa_m * rng.uniform(0.1, 0.9),
        )

    return _draw


@pytest.fixture
def draw_drive():
    """Callable drawing a random two-tone drive."""

    def _draw(rng: np.random.Generator) -> DriveField:
        return DriveField(
            ratio_delta=rng.uniform(0.0, 3.0),
            phase_phi=rng.uniform(0.0, 2.0 * math.pi),
        )

    return _draw


@st.composite
def valid_params(draw) -> SystemParams:
    """Hypothesis strategy: any valid device over wide rate and frequency ranges."""
    kappa_c = draw(st.floats(1.0, 300.0))
    kappa_m = draw(st.floats(0.1, 20.0))
    return SystemParams(
        cavity_freq=draw(st.floats(-50.0, 50.0)),
        magnon_freq=draw(st.floats(-50.0, 50.0)),
        coupling_g=draw(st.floats(0.0, 40.0)),
        kappa_c=kappa_c,
        kappa_m=kappa_m,
        kappa_c1=kappa_c * draw(st.floats(0.01, 1.0)),
        kappa_m1=kappa_m * draw(st.floats(0.01, 1.0)),
    )


@st.composite
def valid_drives(draw) -> DriveField:
    """Hypothesis strategy: any valid two-tone drive."""
    return DriveField(
        ratio_delta=draw(st.floats(0.0, 5.0)),
        phase_phi=draw(st.floats(-20.0, 20.0)),
        phase_offset=draw(st.floats(-20.0, 20.0)),
        probe_amp=draw(st.floats(0.01, 10.0)),
    )
