"""Child process: set up one workload, measure one window, check it.

Run as ``python -m bench.child`` by :mod:`bench.runner`, one fresh
process per run.  ``repro`` (and numpy) are imported only here, after
the set-up clock below has started, and any tracing wrappers live and
die with this process.
"""

import time

_T0 = time.perf_counter()  # set-up clock: import + build + warm-up follow

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A stray ~/.repro/tune.json must not pick the code path measured.
os.environ["REPRO_TUNE"] = "0"


def _host() -> dict:
    import numpy
    from repro.exec.pool import default_workers

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": default_workers(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS") or "library default",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from bench.workloads import make_all
    from bench.workloads.base import Context

    workload = make_all()[args.workload]
    ctx = Context(seed=args.seed, seconds=args.seconds, quick=args.quick,
                  out=args.out)
    if args.trace:
        from bench.trace import Recorder
        from repro.telemetry import MetricsRegistry, NullTracer, Telemetry

        # Metrics only: counters the call boundary cannot show (spill
        # bytes, KV evictions, workspace bytes); the spans are ours.
        ctx.telemetry = Telemetry(tracer=NullTracer(),
                                  metrics=MetricsRegistry())
        ctx.recorder = Recorder()
        ctx.recorder.install()

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "traced": bool(args.trace),
              "quick": args.quick}
    try:
        workload.build(ctx)
        workload.warmup(ctx)
        result["setup_s"] = time.perf_counter() - _T0
        if not args.setup_only:
            window = workload.run(ctx)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
                / 1024.0
            if ctx.recorder is not None:
                ctx.recorder.uninstall()
            result.update(_report(workload, ctx, window, rss_mb))
        result["host"] = _host()
    finally:
        if ctx.recorder is not None:
            ctx.recorder.uninstall()
        workload.close()
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


def _report(workload, ctx, window, rss_mb: float) -> dict:
    from bench import trace

    failures = workload.check(ctx, window)
    end_to_end = window.end_to_end()
    end_to_end["peak_rss_mb"] = rss_mb
    report = {
        "correct": not failures and window.failed == 0,
        "check_failures": failures,
        "attempted": window.attempted,
        "failed": window.failed,
        "window_s": window.seconds,
        "samples": {
            "operations": window.attempted,
            "op_ms": len(window.op_ms),
        },
        "end_to_end": end_to_end,
    }
    if ctx.recorder is not None:
        spans = trace.in_window(ctx.recorder.spans, window.start,
                                window.end)
        view = workload.view(window, spans)
        per_layer = workload.layer_metrics(ctx, window, view)
        per_layer["bench.selftime_residual_pct"] = \
            view.residual_pct(window.seconds)
        report["per_layer"] = per_layer
        report["layers_run"] = view.layers_run()
        report["samples"].update(spans=len(spans), layer_ops=view.n_ops)
        ctx.recorder.write(str(ctx.out / "trace.json"),
                           (window.start, window.end))
    return report


if __name__ == "__main__":
    sys.exit(main())
