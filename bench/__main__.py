"""Command line of the run-level benchmark.

``python3 -m bench measure --workload W --seed S --seconds T --trace 0|1``
    One workload, one mode; the last stdout line is the result object
    the driver reads (the ``command`` of ``BENCHMARK.json``).
``python3 -m bench run [--workload W] [--seed S] [--quick] --out DIR``
    Every workload (or one), untraced and traced: prints every metric by
    name with unit and sample count, runs every output check, writes
    ``DIR/results.json`` and one ``DIR/<workload>.trace.json`` each, and
    exits non-zero when a check or an operation failed.
``python3 -m bench compare A B``
    Verdict per (workload, end-to-end metric) between two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from bench import compare as cmp
from bench import runner


def _cmd_measure(args: argparse.Namespace) -> int:
    spec = runner.contract()
    runner.DEFAULT_OUT.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="measure.", dir=runner.DEFAULT_OUT))
    try:
        doc = runner.measure(
            args.workload, args.seed, args.seconds, out,
            end_to_end=not args.trace, per_layer=bool(args.trace))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in doc["check_failures"]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    print(json.dumps(runner.contract_line(doc, spec, bool(args.trace))))
    return 0


def _metric_lines(title: str, values: dict, declared: List[dict],
                  n: int, n_for: Optional[dict] = None) -> List[str]:
    """One line per declared metric the workload reported; ``n`` is the
    sample count, ``n_for`` the metrics that have their own."""
    lines = [f"  {title}"]
    for m in declared:
        name = m["name"]
        if name in values:
            count = (n_for or {}).get(name, n)
            lines.append(f"    {name:<36} {values[name]:>16.4f} "
                         f"{m['unit']:<8} n={count}")
    return lines


def format_report(doc: dict, spec: dict) -> str:
    """Every metric by name, with unit and sample count, per workload.

    A workload reports the per-layer metrics of the layers it drives and
    omits the rest rather than printing 0."""
    lines = [f"seed {doc['seed']}  seconds {doc['seconds']}  "
             f"git {doc['git_sha']}  host {doc['host']}"]
    for name, w in doc["workloads"].items():
        samples = w["samples"]
        lines.append(
            f"\n{name}: {'correct' if w['correct'] else 'INCORRECT'}  "
            f"failed_share {w['failed_share']:.4f} "
            f"({w['failed']}/{w['attempted']} operations)  "
            f"window {w['window_s']:.2f} s  spans {samples['spans']}")
        lines += [f"  check failed: {f}" for f in w["check_failures"]]
        lines += _metric_lines(
            "end to end (untraced run)", w["end_to_end"],
            spec["end_to_end"], samples["op_ms"],
            {"setup_s": samples["setups"], "peak_rss_mb": 1,
             "work_per_s": samples["operations"]})
        lines += _metric_lines("per layer (traced run)", w["per_layer"],
                               spec["per_layer"], samples["layer_ops"])
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = runner.contract()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    doc = runner.run_all(names, args.seed, args.seconds, args.out,
                         args.quick)
    (args.out / "results.json").write_text(json.dumps(doc, indent=1))
    print(format_report(doc, spec))
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    a, b = cmp.load_set(args.a), cmp.load_set(args.b)
    rows = cmp.compare(a, b, runner.contract())
    print(cmp.format_rows(rows, len(a), len(b)))
    counts = cmp.summary(rows)
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts[cmp.WORSE] else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = runner.contract()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one workload, one mode (driver)")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("run", help="all workloads, both modes, report")
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   default=float(spec["run_seconds"]))
    p.add_argument("--quick", action="store_true",
                   help="tiny counts, checks still on")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="verdicts between two sets of runs")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    # Die by exception on SIGTERM, so that the child in flight is killed
    # and reaped and the scratch directories are removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return args.func(args)
    except runner.ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
