"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)

# Every metric the benchmark is defined to report, spelled out here so that a
# metric dropped from the code or from BENCHMARK.json fails the test.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
COMMANDS = ("spectrum", "spectrum_s1p", "delay", "classify", "zero", "map", "fit")
PER_LAYER = {
    "import.cold_s": "s",
    "import.python_s": "s",
    "config.load_ms": "ms",
    **{f"cli.{c}.warm_ms": "ms" for c in COMMANDS},
    **{f"cli.{c}.cold_ms": "ms" for c in COMMANDS},
    "io.render_csv_ms": "ms",
    "io.render_touchstone_ms": "ms",
    "io.read_trace_ms": "ms",
    "io.bytes_out": "bytes",
    "spectra.trace_us": "us",
    "spectra.sweep_ms": "ms",
    "spectra.classify_ms": "ms",
    "spectra.samples_per_s": "1/s",
    "delay.extremum_ms": "ms",
    "delay.group_delay_us": "us",
    "delay.zero_us": "us",
    "delay.zero_residual_max": "1",
    "fit.complex4_ms": "ms",
    "fit.complex9_ms": "ms",
    "fit.magnitude4_ms": "ms",
    "fit.nfev_per_fit": "count",
    "fit.converged_ratio": "ratio",
    "oracle.draw_ms": "ms",
    "oracle.timeouts": "count",
    "oracle.max_rel_err": "1",
    "model.transmission_us": "us",
    "tracing.overhead_ms": "ms",
    "tracing.overhead_pct": "%",
}


def bench(tmp_path, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "3",
         "--seconds", "1", "--tiny", "--out", str(tmp_path), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def printed(stdout, metrics):
    """The last line's metrics, after checking each is also printed by name with its unit."""
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics
    for name, unit in metrics.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in stdout.splitlines()), name
    return result


def test_benchmark_json_lists_the_metrics():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER
    assert {k: v[0] for k, v in harness.END_TO_END.items()} == END_TO_END
    assert {k: v[0] for k, v in layers.PER_LAYER.items()} == PER_LAYER
    for m in BENCH["end_to_end"]:
        assert (m["better"], m["bound"]) == harness.END_TO_END[m["name"]][1:]
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    # `oracle` runs on request but is not gated (see README.md)
    assert [w["name"] for w in BENCH["workloads"]] == ["cli-cold", "scan", "fit"]
    assert set(workloads.WORKLOADS) == {"cli-cold", "scan", "fit", "oracle"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(tmp_path, workload):
    proc = bench(tmp_path, "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    printed(proc.stdout, END_TO_END)
    assert "fail_ratio = 0 ratio" in proc.stdout
    assert "op_tail_ms is the p" in proc.stdout
    (result_file,) = tmp_path.glob("*.json")
    result = json.loads(result_file.read_text())
    assert result["env"]["kernel_backend"] in ("compiled", "python")
    assert result["details"]["fail_ratio"] == 0


def test_traced_run_prints_every_layer_metric_and_writes_spans(tmp_path):
    proc = bench(tmp_path, "--workload", "scan", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    printed(proc.stdout, PER_LAYER)
    (spans_file,) = tmp_path.glob("*.spans.json")
    spans = json.loads(spans_file.read_text())["spans"]
    names = {s["name"] for s in spans}
    assert {"op", "probe", "cli.cold", "cli.dispatch", "import.cold", "config.load_config",
            "spectra.sweep", "delay.delay_extremum_vs_ratio", "fit.fit_parameters",
            "oracle.oracle_transmission", "io.write_trace", "model.transmission"} <= names
    by_id = {s["id"]: s for s in spans}
    assert all(s["parent"] is None or s["parent"] in by_id for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)


def context(tmp_path):
    return harness.Context(root=ROOT, tmp=str(tmp_path), env=dict(os.environ), seed=5, tiny=True)


def test_wrong_expected_fit_value_counts_as_failure(tmp_path):
    ctx = context(tmp_path)
    api = harness.bind(ctx)
    fit = workloads.Fit(ctx, defaultdict(list), api)
    records, _ = harness.run_loop(fit, api, count=3)
    assert [r.ok for r in fit.finish(records)] == [True, True, True]
    fit.truth = replace(fit.truth, coupling_g=fit.truth.coupling_g * 1.5)
    records = fit.finish(harness.run_loop(fit, api, count=3)[0])
    assert len(records) == 3
    assert [(r.kind, r.ok) for r in records] == [
        ("complex4", False), ("complex9", True), ("magnitude4", True)
    ]


def test_wrong_expected_cli_output_counts_as_failure(tmp_path):
    ctx = context(tmp_path)
    api = harness.bind(ctx)
    cli = workloads.CliCold(ctx, defaultdict(list), api)
    warm = SimpleNamespace(kind=cli.kind, run=cli.warm, check=cli.check)
    records, _ = harness.run_loop(warm, api, count=len(cli.kinds))
    assert all(r.ok for r in records)
    system = cli.config.system
    cli.config = replace(cli.config, system=replace(system, coupling_g=system.coupling_g * 1.01))
    records, _ = harness.run_loop(warm, api, count=len(cli.kinds))
    assert len(records) == len(cli.kinds)
    assert not any(r.ok for r in records if r.kind in ("spectrum", "spectrum_s1p", "delay", "map"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path / "out", "--workload", "scan", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_results_from_different_backends(tmp_path):
    base = {"workload": "scan", "seed": 1, "trace": 0,
            "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    for side, backend in (("parent", "python"), ("change", "compiled")):
        (tmp_path / side).mkdir()
        env = {"python": "3", "numpy": "2", "scipy": "1", "kernel_backend": backend}
        (tmp_path / side / "r.json").write_text(json.dumps({**base, "env": env}))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), str(tmp_path / "parent"),
         str(tmp_path / "change")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "refusing" in proc.stderr
