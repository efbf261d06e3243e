"""Fingerprint the magpol command line for byte-identity checks.

Usage: python tests/cli_snapshot.py SRC_DIR

SRC_DIR is a directory holding the magpol package (a checkout's src/).  The
script runs a fixed set of invocations on configs/example_device.toml with
that package in a fresh interpreter each, and prints one line per
invocation: its name, its exit code, and the sha256 of its stdout and of its
stderr.  Run it on two checkouts and diff the output; identical lines mean
byte-identical output.  The parser's own output is fingerprinted too: the
top-level and each subcommand's --help, and one usage error (exit 2), at a
fixed 80-column width.

The two s1p files that `fit` reads are written first, in a temporary
directory, by the same package: noisy traces (40 dB, fixed seed) of a device
perturbed from the config's, so the fit has work to do.  Their sha256 is
printed too, so a difference in the inputs shows on its own line.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example_device.toml"

_MAKE_FIT_INPUTS = """
import math
from dataclasses import replace
import magpol

config = magpol.load_config("device.toml")
system = config.system
truth = replace(
    system,
    coupling_g=1.1 * system.coupling_g,
    kappa_c=0.95 * system.kappa_c,
    kappa_m=1.2 * system.kappa_m,
    kappa_c1=0.9 * system.kappa_c1,
)
for k, delta in enumerate((0.0, 1.0)):
    drive = replace(config.drive, ratio_delta=delta, phase_phi=0.35 * math.pi)
    obs = magpol.synthesize_trace(
        truth, drive, config.grid, noise=magpol.NoiseModel(snr_db=40.0), rng=7 + k
    )
    magpol.write_trace(
        magpol.SpectrumTrace(grid=obs.grid, t=obs.values),
        f"fit-{k}.s1p",
        magpol.TraceFormat.TOUCHSTONE_S1P,
        cavity_freq=system.cavity_freq,
        metadata={
            "delta": format(delta, ".17g"),
            "phi": format(drive.phase_phi, ".17g"),
            "phi0": format(drive.phase_offset, ".17g"),
        },
    )
"""

_NINE_FREE = (
    "coupling_g,kappa_c,kappa_m,kappa_c1,kappa_m1,cavity_freq,magnon_freq,"
    "amplitude_scale,phase_slope"
)

INVOCATIONS = [
    ("spectrum-csv", ["spectrum", "--delta", "1.2", "--phi", "0.35pi"]),
    ("spectrum-s1p", ["spectrum", "--delta", "1.2", "--phi", "0.35pi", "--format", "s1p"]),
    ("map-ratio", ["map", "--axis", "ratio", "--values", "0,0.5,1.2,2.1"]),
    ("map-phase", ["map", "--axis", "phase", "--delta", "1.2", "--values", "0,0.35pi,1.35pi"]),
    ("map-ratio-bad", ["map", "--axis", "ratio", "--values", "2,nan,-1"]),
    ("delay-analytic", ["delay", "--delta", "1.2", "--phi", "1.35pi"]),
    ("delay-fd", ["delay", "--delta", "1.2", "--phi", "1.35pi", "--method", "fd"]),
    ("zero", ["zero", "--phase-eff", "1.35pi"]),
    ("classify-probe", ["classify"]),
    ("classify-null", ["classify", "--delta", "0.3", "--phi", "0.35pi"]),
    ("classify-amplify", ["classify", "--delta", "2.1", "--phi", "1.35pi"]),
    ("oracle-check", ["oracle-check", "--count", "5"]),
    ("fit-default", ["fit", "--data", "fit-0.s1p", "--data", "fit-1.s1p"]),
    ("fit-nine", ["fit", "--data", "fit-0.s1p", "--data", "fit-1.s1p", "--free", _NINE_FREE]),
]

_COMMANDS = ("spectrum", "map", "delay", "zero", "classify", "fit", "oracle-check")

# Run with exactly these arguments: the parser's help and usage text.
PARSER_INVOCATIONS = [
    ("help", ["--help"]),
    *((f"help-{command}", [command, "--help"]) for command in _COMMANDS),
    ("usage-error", ["spectrum", "--config", "device.toml", "--format", "txt"]),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    with tempfile.TemporaryDirectory() as directory:
        shutil.copyfile(CONFIG, os.path.join(directory, "device.toml"))

        def run(command):
            return subprocess.run(command, cwd=directory, env=env, capture_output=True)

        made = run([sys.executable, "-c", _MAKE_FIT_INPUTS])
        if made.returncode != 0:
            sys.stderr.write(made.stderr.decode(errors="replace"))
            return 1
        for name in ("fit-0.s1p", "fit-1.s1p"):
            print(f"input {name} {_digest(Path(directory, name).read_bytes())}")
        runs = [
            (name, [args[0], "--config", "device.toml", *args[1:]]) for name, args in INVOCATIONS
        ]
        for name, args in runs + PARSER_INVOCATIONS:
            done = run([sys.executable, "-m", "magpol", *args])
            print(f"{name} exit={done.returncode} "
                  f"stdout={_digest(done.stdout)} stderr={_digest(done.stderr)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
