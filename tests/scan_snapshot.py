"""Fingerprint the scan's library answers for bit-identity checks.

Usage: python tests/scan_snapshot.py SRC_DIR

SRC_DIR is a directory holding the magpol package (a checkout's src/).  In a
fresh interpreter with that package, the script runs the library calls of
perfbench's scan op in the op's order, so classify_regime keeps and reuses
its terms as it does there: the ratio scan's extremal delays on the op's
grid, the transition detector on them, the zero-reflection point, a ratio
sweep on the op's grid and the 12-label table on the default grid, then the
same table on the op's grid.  Then it runs each entry of the delay kernel
that the op does not: group_delay, analytic and finite-difference (delay,
diverged mask and t), at ratios 0, the zero's ratio (when there is a zero)
and 2 on the op's grid, and delay_at at the zero's ratio (2 without a zero)
at detunings 0, -3 MHz and the zero's (3 MHz without a zero), where it
raises DomainError.  The
devices are the reference device with each rate scaled by a seeded
U(0.9, 1.1), as in the scan's pool; the phases are the pool's (1.25-1.45 pi)
or uniform in (-pi, pi]; the op's grid is +-10 MHz or +-60 MHz with 4001
samples.  It prints one line per grid, phase source and kind of answer,
with the sha256 of every answer of that kind in order, errors (type and
message) included.  Run it on two checkouts and diff the output; identical
lines mean bit-identical answers.
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
RATES = ("coupling_g", "kappa_c", "kappa_m", "kappa_c1", "kappa_m1")
RATIOS = np.round(np.arange(0.0, 4.0001, 0.05), 10)
SWEEP_RATIOS = np.linspace(0.0, 4.0, 41)
TABLE = [(r, s * 0.1 * math.pi) for r in (0.2, 1.0, 2.0, 3.0) for s in (-1, 0, 1)]
KINDS = (
    "extremum", "transition", "zero", "sweep", "labels", "labels-on-grid",
    "group-delay", "group-delay-fd", "delay-at",
)


def text(value):
    if isinstance(value, np.ndarray):
        return value.tobytes().hex()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, magpol.SpectrumTrace):
        return text(value.t)
    if isinstance(value, magpol.DelayTrace):
        return text([value.delay, value.diverged, value.t])
    if isinstance(value, magpol.RegimeLabel):
        return value.value
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(text(item) for item in value) + "]"
    return repr(value)  # None, and the frozen dataclasses, whose float reprs round-trip


def answer(call):
    try:
        value = call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}", None
    return text(value), value


def each(call, values):
    return ";".join(answer(lambda: call(value))[0] for value in values)


def table(params, phase, grid=None):
    return [
        magpol.classify_regime(params, magpol.DriveField.with_effective_phase(r, phase + dp), grid)
        for r, dp in TABLE
    ]


for span in (10.0, 60.0):
    grid = magpol.DetuningGrid(-span, span, 4001)
    for source in ("pool", "random"):
        rng = np.random.default_rng(2501)
        digests = {kind: hashlib.sha256() for kind in KINDS}
        for _ in range(64):
            params = replace(
                REFERENCE,
                **{name: getattr(REFERENCE, name) * rng.uniform(0.9, 1.1) for name in RATES},
            )
            if source == "pool":
                phase = rng.uniform(1.25, 1.45) * math.pi
            else:
                phase = -rng.uniform(-math.pi, math.pi)
            extremes, value = answer(
                lambda: magpol.delay_extremum_vs_ratio(params, phase, RATIOS, grid)
            )
            transition, _ = answer(lambda: magpol.detect_abrupt_transition(RATIOS, value))
            zero, root = answer(lambda: magpol.find_zero_reflection(params, phase))
            drive = magpol.DriveField.with_effective_phase(0.0, phase)
            traces, _ = answer(
                lambda: magpol.sweep(
                    params, drive, magpol.SweepAxis.RATIO, SWEEP_RATIOS, grid
                ).traces
            )
            labels, _ = answer(lambda: table(params, phase))
            on_grid, _ = answer(lambda: table(params, phase, grid))
            ratios = [0.0, 2.0] if root is None else [0.0, root.ratio_delta, 2.0]
            delays = [
                each(
                    lambda r: magpol.group_delay(
                        params, magpol.DriveField.with_effective_phase(r, phase), grid, method
                    ),
                    ratios,
                )
                for method in ("analytic", "finite-difference")
            ]
            at_zero = magpol.DriveField.with_effective_phase(
                2.0 if root is None else root.ratio_delta, phase
            )
            at = each(
                lambda d: magpol.delay_at(params, at_zero, d),
                [0.0, -3.0, 3.0 if root is None else root.detuning],
            )
            lines = (extremes, transition, zero, traces, labels, on_grid, *delays, at)
            for kind, line in zip(KINDS, lines):
                digests[kind].update(line.encode() + b"\\n")
        for kind in KINDS:
            print(f"+-{span:g}MHz/4001 {source} {kind} {digests[kind].hexdigest()}")
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
