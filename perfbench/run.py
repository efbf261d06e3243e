"""magpol benchmark: one workload, one client in a closed loop.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; magpol is imported from its `src/`.  With
--trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics; with --trace 1 they are the per-layer metrics and the
tracing overhead.  The full result, with the environment it was measured in,
goes to --out (default .perfbench/results).  --workload all runs the four
workloads in turn.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("cli-cold", "scan", "fit", "oracle")
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench", "results"))
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_args(args, workload):
    out = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", args.out]
    return out + (["--tiny"] if args.tiny else [])


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in NAMES:
        proc = subprocess.run(child_args(args, workload), stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print(proc.stdout.rstrip().rsplit("\n", 1)[0])
        result = last_json(proc.stdout)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "magpol", "__init__.py")):
        print(f"error: no magpol sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One BLAS thread: the load is one client, and an idle-spinning second BLAS
    # thread makes the SVD inside every fit step swing by up to 10x whenever
    # the other core is busy.  Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    # magpol is imported only now, from the checkout's src/
    import magpol

    if os.path.dirname(os.path.abspath(magpol.__file__)) != os.path.join(SRC, "magpol"):
        print(f"error: magpol imported from {magpol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import layers
    import workloads
    from tracing import Tracer

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        ctx = harness.Context(root=ROOT, tmp=tmp, env=dict(os.environ), seed=args.seed, tiny=args.tiny)
        plain = harness.bind(ctx)
        stats = defaultdict(list)  # counts kept at the call sites, for the layer metrics
        workload = workloads.WORKLOADS[args.workload](ctx, stats, plain)
        workload.warm_up(plain)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        def log(message):
            print(message, file=sys.stderr)

        env = harness.environment()
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env}
        if args.trace == 0:
            setups = [setup_s]
            for _ in range(1 if args.tiny else SETUP_REPEATS - 1):
                proc = subprocess.run(child_args(args, args.workload) + ["--setup-only"],
                                      stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
                setups.append(last_json(proc.stdout)["setup_s"])
            records, wall = harness.run_loop(workload, plain, seconds=args.seconds, log=log)
            records = workload.finish(records)
            metrics, details = harness.end_to_end(
                records, wall, statistics.median(setups), workload.peak_rss_mb()
            )
            details["setup_samples_s"] = setups
        else:
            tracer = Tracer()
            traced = harness.bind(ctx, tracer)
            # each op untraced and then traced, so that both see the same host
            # load: the difference of the summed times is the overhead
            untraced, spanned, wall_u, wall_t = [], [], 0.0, 0.0
            begin = time.perf_counter()
            while time.perf_counter() - begin < args.seconds:
                index = len(untraced)
                ops, wall = harness.run_loop(workload, plain, count=1, start=index, log=log)
                untraced += ops
                wall_u += wall
                ops, wall = harness.run_loop(
                    workload, traced, count=1, start=index, tracer=tracer, log=log
                )
                spanned += ops
                wall_t += wall
            records = workload.finish(untraced) + workload.finish(spanned)
            others = {name: cls(ctx, stats, plain)
                      for name, cls in workloads.WORKLOADS.items() if name != args.workload}
            others[args.workload] = workload
            records += layers.run_probes(ctx, traced, tracer, stats, others)
            metrics = layers.layer_metrics(
                tracer, stats, (wall_t - wall_u) / len(untraced) * 1e3, (wall_t - wall_u) / wall_u * 100
            )
            details = {"traced_ops": len(spanned), "untraced_wall_s": wall_u, "traced_wall_s": wall_t,
                       "spans": len(tracer.spans)}

        failed = sum(not r.ok for r in records)
        details["fail_ratio"] = failed / len(records)
        result.update(metrics=metrics, details=details)
        os.makedirs(args.out, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        with open(os.path.join(args.out, stem + ".json"), "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        if args.trace:
            tracer.dump(os.path.join(args.out, stem + ".spans.json"), workload=args.workload, seed=args.seed)

        print(f"# magpol benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
              f"backend={env['kernel_backend']} python={env['python']} numpy={env['numpy']} "
              f"scipy={env['scipy']} nproc={env['nproc']} cpu={env['cpu']!r}")
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        print(f"fail_ratio = {details['fail_ratio']:.6g} ratio ({failed} of {len(records)} ops)")
        if args.trace == 0:
            print(f"op_tail_ms is the p{details['op_tail_percentile']:.4g} latency of "
                  f"{details['op_samples']} ops ({details['op_tail_samples_beyond']} beyond it)")
        print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
