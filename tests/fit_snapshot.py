"""Fingerprint fit_parameters' answers for bit-identity checks.

Usage: python tests/fit_snapshot.py SRC_DIR

SRC_DIR is a directory holding the magpol package (a checkout's src/).  In a
fresh interpreter with that package, the script runs fit_parameters on a
fixed set of cases and prints one line per case: its name, and the sha256 of
each fit's values, stderr, residual_norm, converged, n_evaluations and
message, or of its error (type and message).  Floats are hashed by their
bits.  Run it on two checkouts and diff the output; identical lines mean
bit-identical fits.

The cases: the perfbench fit workload's three cases, 32 problems each, drawn
as it draws them at seed 211 (three noisy traces of the reference device on
the 1201-point grid); phase_offset free; three observations on equal-valued
but distinct grids; a from_values twin of the grid beside the grid itself;
the default free set with every rate, frequency and detuning scaled by
2^-40 and by 2^100; and synthesize_trace with a background at phase_slope 0
with amplitude_scale 0.8, and at phase_slope 0.003, whose samples are hashed
as well as the fit with the background free.
"""

from __future__ import annotations

import os
import subprocess
import sys

_SNAPSHOT = """
import hashlib
import math
from dataclasses import replace

import numpy as np

import magpol

REFERENCE = magpol.SystemParams(0.0, 0.0, 7.6, 113.9, 1.2, 21.8, 0.6)
GRID = magpol.DetuningGrid(-60.0, 60.0, 1201)
RATES = ("coupling_g", "kappa_c", "kappa_m", "kappa_c1", "kappa_m1")
DEFAULT = ("coupling_g", "kappa_c", "kappa_m", "kappa_c1")
FREE = {
    "complex4": DEFAULT,
    "complex9": RATES + ("cavity_freq", "magnon_freq", "amplitude_scale", "phase_slope"),
    "magnitude4": DEFAULT,
}
SNR_DB = {"complex4": 40.0, "complex9": 30.0, "magnitude4": 40.0}
DRIVES = tuple(magpol.DriveField(ratio_delta=d, phase_phi=0.35 * math.pi) for d in (0.0, 1.0, 2.0))
INITIAL = replace(
    REFERENCE, coupling_g=7.6 * 1.15, kappa_c=113.9 * 0.9, kappa_m=1.2 * 1.2, kappa_c1=21.8 * 0.9
)


def text(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, np.ndarray):
        return value.tobytes().hex()
    return repr(value)


def fingerprint(problem, initial):
    try:
        r = magpol.fit_parameters(problem, initial)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    fields = (r.values, r.stderr, r.residual_norm, r.converged, r.n_evaluations, r.message)
    return ";".join(text(f) for f in fields)


def line(name, fits, extra=()):
    digest = hashlib.sha256()
    for item in (*extra, *fits):
        digest.update(item.encode() + b"\\n")
    print(f"{name} {digest.hexdigest()}")


def observations(grids, drives=DRIVES, snr_db=40.0, rng=None, background=None):
    noise = None if snr_db is None else magpol.NoiseModel(snr_db=snr_db)
    return tuple(
        magpol.synthesize_trace(REFERENCE, d, g, noise=noise, rng=rng, background=background)
        for d, g in zip(drives, grids)
    )


# the fit workload's pool, drawn in its order from one generator
rng = np.random.default_rng(211)
for kind in FREE:
    fits = []
    for _ in range(32):
        obs = observations([GRID] * 3, snr_db=SNR_DB[kind], rng=rng)
        if kind == "magnitude4":
            obs = tuple(replace(o, values=np.abs(o.values), has_phase=False) for o in obs)
        fits.append(fingerprint(magpol.FitProblem(obs, FREE[kind]), INITIAL))
    line(kind, fits)

offset_drives = tuple(replace(d, phase_offset=0.9 * math.pi) for d in DRIVES)
fits = [
    fingerprint(magpol.FitProblem(observations([GRID] * 3, offset_drives, rng=seed), free), INITIAL)
    for seed in range(4)
    for free in (DEFAULT + ("phase_offset",), ("coupling_g", "phase_offset"))
]
line("phase_offset-free", fits)

distinct = [magpol.DetuningGrid(-60.0, 60.0, 1201) for _ in range(3)]
fits = [
    fingerprint(magpol.FitProblem(observations(distinct, rng=seed), free), INITIAL)
    for seed in range(4)
    for free in (DEFAULT, FREE["complex9"])
]
line("distinct-equal-grids", fits)

shifted = GRID.values.copy()
shifted[1:-1] += 1e-12
twin = magpol.DetuningGrid.from_values(shifted)
fits = [
    fingerprint(magpol.FitProblem(observations(grids, rng=seed), free), INITIAL)
    for seed in range(4)
    for grids in ([GRID, twin, GRID], [twin, GRID, twin])
    for free in (DEFAULT, FREE["complex9"])
]
line("from_values-twin", fits)

for k in (-40, 100):
    grid = magpol.DetuningGrid(math.ldexp(-60.0, k), math.ldexp(60.0, k), 1201)
    fields = RATES + ("cavity_freq", "magnon_freq")
    start = replace(INITIAL, **{n: math.ldexp(getattr(INITIAL, n), k) for n in fields})
    fits = []
    for seed in range(4):
        obs = tuple(replace(o, grid=grid) for o in observations([GRID] * 3, rng=seed))
        fits.append(fingerprint(magpol.FitProblem(obs), start))
    line(f"default-at-2^{k}", fits)

for name, background in (
    ("background-s0", magpol.BackgroundModel(amplitude_scale=0.8, phase_slope=0.0)),
    ("background-s", magpol.BackgroundModel(amplitude_scale=0.8, phase_slope=0.003)),
):
    samples, fits = [], []
    for seed in range(4):
        obs = observations([GRID] * 3, rng=seed, background=background)
        clean = observations([GRID] * 3, snr_db=None, background=background)
        samples += [text(o.values) for o in obs + clean]
        free = DEFAULT + ("amplitude_scale", "phase_slope")
        fits.append(fingerprint(magpol.FitProblem(obs, free), INITIAL))
    line(name, fits, samples)
"""


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.abspath(argv[0]), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _SNAPSHOT], env=env, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    return done.returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
