"""Closed-loop op runner, the calls it makes into magpol, and the metrics it reports.

Every call into magpol goes through the namespace `bind` returns: the
functions in `magpol.__all__`, `magpol.cli.dispatch`, and `cold`, which runs
one `magpol` command in a fresh interpreter.  With a tracer each of them gets
a span named `<layer>.<function>`; without one they are the plain functions,
so an untraced run pays nothing for tracing.
"""

from __future__ import annotations

import functools
import inspect
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy

import magpol
import magpol.cli

CLI_MAIN = "from magpol.cli import main; main()"

# name -> (unit, better, bound); the bound is the share of the parent's
# median by which a later change may worsen the metric (BENCHMARK.json).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "ok_ratio": ("ratio", "higher", 0.02),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


@dataclass(frozen=True)
class Context:
    root: str  # checkout root; children run here
    tmp: str  # scratch directory inside the checkout, removed at exit
    env: dict  # environment for child interpreters (PYTHONPATH -> root/src)
    seed: int
    tiny: bool = False  # small pools and few probe repeats, for the self-test


@dataclass(frozen=True)
class CliRun:
    returncode: int
    stdout: str
    stderr: str
    max_rss_kb: int


@dataclass(frozen=True)
class OpRecord:
    index: int
    kind: str
    latency: float
    ok: bool


class CheckFailed(Exception):
    """An op's output disagreed with its expected value or tolerance."""


def expect(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def run_cold(ctx: Context, argv: list[str]) -> CliRun:
    """Run one `magpol` command in a fresh interpreter and wait for it.

    The child is reaped with wait4 so its own peak RSS is known.
    """
    with open(os.path.join(ctx.tmp, "stderr.txt"), "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_MAIN, *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=ctx.env,
            cwd=ctx.root,
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errtext = err.read()
    return CliRun(
        proc.returncode,
        out.decode("utf-8"),
        errtext.decode("utf-8", errors="replace"),
        usage.ru_maxrss,
    )


def run_python(ctx: Context, code: str) -> None:
    """Run `python -c code` in a fresh interpreter; raises if it fails."""
    subprocess.run(
        [sys.executable, "-c", code],
        env=ctx.env,
        cwd=ctx.root,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def bind(ctx: Context, tracer=None) -> SimpleNamespace:
    """magpol's public functions and the cold CLI runner, span-wrapped when tracing."""
    calls = {
        name: getattr(magpol, name)
        for name in magpol.__all__
        if inspect.isfunction(getattr(magpol, name))
    }
    calls["dispatch"] = magpol.cli.dispatch
    names = {
        key: f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        for key, fn in calls.items()
    }
    calls["cold"] = functools.partial(run_cold, ctx)
    names["cold"] = "cli.cold"
    if tracer is not None:
        calls = {key: tracer.wrap(names[key], fn) for key, fn in calls.items()}
    return SimpleNamespace(**calls)


def run_loop(workload, api, seconds=None, count=None, start=0, tracer=None, log=None):
    """One client in a closed loop: each op is sent after the previous op and
    its check have completed.

    Runs until `seconds` have elapsed, or for exactly `count` ops starting at
    op index `start`.  An op fails when it raises (an `IntegrationTimeout`
    included) or its check fails; failures are recorded, never dropped.
    Returns (records, wall seconds).
    """
    records = []
    begin = time.perf_counter()
    index = start
    while True:
        if count is not None:
            if index - start >= count:
                break
        elif time.perf_counter() - begin >= seconds:
            break
        kind = workload.kind(index)
        scope = tracer.span("op", kind=kind, index=index) if tracer else nullcontext()
        with scope:
            latency = None
            t0 = time.perf_counter()
            try:
                out = workload.run(api, index)
                latency = time.perf_counter() - t0
                workload.check(api, index, out)
                ok = True
            except Exception as exc:  # any failure of the op counts against it
                if latency is None:
                    latency = time.perf_counter() - t0
                ok = False
                if log is not None:
                    log(f"op {index} ({kind}) failed: {type(exc).__name__}: {exc}")
        records.append(OpRecord(index, kind, latency, ok))
        index += 1
    return records, time.perf_counter() - begin


def tail(latencies):
    """(latency, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(records, wall, setup_s, peak_rss_mb):
    """(metrics, details) for one untraced run."""
    latencies = [r.latency for r in records]
    ok = sum(r.ok for r in records)
    tail_value, tail_pct, beyond = tail(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ok / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "ok_ratio": ok / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    kinds = sorted({r.kind for r in records})
    details = {
        "fail_ratio": (len(records) - ok) / len(records),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(records),
        "timed_wall_s": wall,
        "kind_p50_ms": {
            kind: statistics.median(r.latency for r in records if r.kind == kind) * 1e3
            for kind in kinds
        },
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}, details


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """What a result depends on besides the code; compare.py refuses to
    compare results whose environments differ."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "magpol": magpol.__version__,
        "kernel_backend": magpol.kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
