"""Parent side: spawn one fresh child per run, gather, clean up.

Never imports ``repro``.  Every directory a run needs (spill files,
checkpoints, KV pages, the child's result) lives in a scratch directory
under ``--out`` that is removed when the run ends, however it ends.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from bench import stats

ROOT = Path(__file__).resolve().parent.parent

#: Default parent of the scratch directories (inside the checkout).
DEFAULT_OUT = ROOT / ".bench_out"

#: Fresh children that set up per untraced run; ``setup_s`` is their
#: median.  First-touch page faults make one start of the 530 MB ZeRO
#: workloads take anywhere from 1.3 to 3.5 s on the sizing host, so
#: three were too few to keep two sets of runs within the bound.
SETUP_REPEATS = 5

CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    """A child exited non-zero, timed out or left no result."""


def contract() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, out: Path, *,
              trace: bool = False, setup_only: bool = False,
              quick: bool = False,
              keep_trace: Optional[Path] = None) -> dict:
    """One child process from start to exit; returns its result."""
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}.", dir=out))
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--out", str(scratch)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--quick"] if quick else []
    try:
        # The child's stdout joins our stderr: our stdout carries only
        # the report.  run() kills and reaps the child on timeout.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
        result_file = scratch / "result.json"
        if proc.returncode != 0 or not result_file.is_file():
            raise ChildFailed(
                f"{workload}: child exited {proc.returncode}")
        if keep_trace is not None and (scratch / "trace.json").is_file():
            shutil.move(str(scratch / "trace.json"), str(keep_trace))
        return json.loads(result_file.read_text())
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(
            f"{workload}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, out: Path, *,
            end_to_end: bool, per_layer: bool, quick: bool = False,
            keep_trace: Optional[Path] = None) -> dict:
    """Measure one workload: untraced for the end-to-end metrics, traced
    for the per-layer metrics (the untraced run is then the reference
    for ``bench.trace_overhead_pct``)."""
    untraced = run_child(workload, seed, seconds, out, quick=quick)
    doc = {
        "correct": untraced["correct"],
        "check_failures": list(untraced["check_failures"]),
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "failed_share": untraced["failed"] / untraced["attempted"],
        "samples": dict(untraced["samples"]),
        "window_s": untraced["window_s"],
        "host": untraced["host"],
    }
    if end_to_end:
        setups = [untraced["setup_s"]] + [
            run_child(workload, seed, seconds, out, setup_only=True,
                      quick=quick)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        doc["end_to_end"] = dict(untraced["end_to_end"],
                                 setup_s=stats.median(setups))
        doc["samples"]["setups"] = len(setups)
    if per_layer:
        traced = run_child(workload, seed, seconds, out, trace=True,
                           quick=quick, keep_trace=keep_trace)
        rate, reference = (r["end_to_end"]["work_per_s"]
                           for r in (traced, untraced))
        doc["per_layer"] = dict(
            traced["per_layer"],
            **{"bench.trace_overhead_pct":
               100.0 * (reference - rate) / reference})
        doc["layers_run"] = traced["layers_run"]
        doc["samples"].update(
            {k: traced["samples"][k] for k in ("spans", "layer_ops")})
        doc["correct"] = doc["correct"] and traced["correct"]
        doc["check_failures"] += traced["check_failures"]
    return doc


def contract_line(doc: dict, spec: dict, traced: bool) -> dict:
    """The one-line result the driver reads: every ``end_to_end`` metric
    untraced, every ``per_layer`` metric traced.  A layer that did not
    run on the workload reports 0 for its metrics."""
    section = "per_layer" if traced else "end_to_end"
    measured = doc[section]
    declared = {m["name"]: m["unit"] for m in spec[section]}
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(measured))
    if missing and not traced:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    return {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
    }


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_all(names: List[str], seed: int, seconds: float, out: Path,
            quick: bool) -> dict:
    """Both runs of every named workload, as one results document."""
    out.mkdir(parents=True, exist_ok=True)
    workloads: Dict[str, dict] = {}
    for name in names:
        print(f"bench: {name} ...", file=sys.stderr)
        workloads[name] = measure(
            name, seed, seconds, out, end_to_end=True, per_layer=True,
            quick=quick, keep_trace=out / f"{name}.trace.json")
    host = next(iter(workloads.values()))["host"] if workloads else {}
    return {
        "schema": 1, "seed": seed, "seconds": seconds, "quick": quick,
        "git_sha": git_sha(), "host": host, "workloads": workloads,
    }
