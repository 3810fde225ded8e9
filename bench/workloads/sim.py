"""The simulator workload: Table 2 plus the Fig. 10 sweep, two passes."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from bench import gen, stats, trace
from bench.workloads.base import (
    WARMUP_OPS, Context, SpanView, Window, Workload, sized, timed_ops,
)

#: Table 2 of the paper: TFLOPS per cumulative optimisation (5B model).
PAPER_TABLE2_TFLOPS = (116.20, 128.23, 144.49, 209.36, 238.92)

#: Fig. 10: single superchip, global batch 8.
FIG10_SYSTEMS = ("ddp", "zero_offload", "zero_infinity", "fsdp_offload",
                 "superoffload")
FIG10_SIZES = (1, 2, 3, 4, 5, 6, 8, 10, 13, 15, 20, 25)

PASSES = 2
_TABLE2 = "table2"


class SimSweep(Workload):
    """Host time of the performance models that regenerate the paper's
    figures.  Simulated statistics are deterministic, so the seed only
    orders the points; the second pass must reproduce the first."""

    def __init__(self, name: str, why: str, sizes_per_second: float):
        self.name, self.why = name, why
        self._rate = sizes_per_second

    def build(self, ctx: Context) -> None:
        from repro.training import ablation_table, throughput_sweep

        self._ablation, self._sweep = ablation_table, throughput_sweep
        n = min(len(FIG10_SIZES),
                sized(ctx, self._rate, floor=3, quick=1))
        # n sizes spread evenly over the figure's range.
        last = len(FIG10_SIZES) - 1
        self.sizes = sorted({
            FIG10_SIZES[round(i * last / max(1, n - 1))] for i in range(n)
        })
        points: List[Any] = [_TABLE2] + [
            (system, size) for size in self.sizes
            for system in FIG10_SYSTEMS
        ]
        self.order = gen.shuffled(ctx.seed, points)
        self.passes: List[Dict[Any, Any]] = [{} for _ in range(PASSES)]

    def _estimate(self, point, into: Dict[Any, Any]) -> int:
        """Estimate one item; returns how many points it held."""
        if point == _TABLE2:
            rows = self._ablation()
            into[point] = [(r["row"], r["tflops"], r["iter_time"])
                           for r in rows]
            return len(rows)
        system, size = point
        row, = self._sweep([system], [size], n_superchips=1, global_batch=8)
        into[point] = (row["tflops"], row["iter_time"],
                       row.get("micro_batch"), row.get("checkpointing"))
        return 1

    def warmup(self, ctx: Context) -> None:
        # Fixed points, not the first of the seeded order: set-up time
        # must not depend on which points the seed puts first.
        for system in FIG10_SYSTEMS[-WARMUP_OPS:]:
            self._estimate((system, self.sizes[0]), {})

    def run(self, ctx: Context) -> Window:
        window = Window()
        items = [(p, k) for k in range(PASSES) for p in self.order]
        held = [0] * len(items)  # points each call estimated

        def op(i: int) -> bool:
            point, k = items[i]
            held[i] = self._estimate(point, self.passes[k])
            return True

        window.start = time.perf_counter()
        durations = timed_ops(ctx, window, len(items), op)
        window.end = time.perf_counter()
        # One sample per point: Table 2's five rows share their call.
        window.op_ms = [d * 1e3 / n for d, n in zip(durations, held)
                        for _ in range(n)]
        window.work = sum(held)
        return window

    def _table2_tflops(self) -> List[float]:
        return [tflops for _, tflops, _ in self.passes[0][_TABLE2]]

    def paper_err_pct(self) -> float:
        """Mean absolute relative error against the paper's Table 2."""
        errs = [abs(ours - paper) / paper for ours, paper in
                zip(self._table2_tflops(), PAPER_TABLE2_TFLOPS)]
        return 100.0 * sum(errs) / len(errs)

    def check(self, ctx: Context, window: Window) -> List[str]:
        first = self.passes[0]
        failures = []
        for size in self.sizes:
            tflops = {s: first.get((s, size), (None,))[0]
                      for s in FIG10_SYSTEMS}
            ours = tflops.pop("superoffload")
            if ours is None:
                failures.append(f"SuperOffload infeasible at {size}B")
                continue
            failures += [
                f"{size}B: {name} at {other} TFLOPS >= SuperOffload {ours}"
                for name, other in tflops.items()
                if other is not None and other >= ours
            ]
        table2 = self._table2_tflops()
        if table2 != sorted(table2):
            failures.append(f"Table 2 is not monotone: {table2}")
        for k, later in enumerate(self.passes[1:], start=2):
            if later != first:
                failures.append(
                    f"pass {k} simulated statistics differ from pass 1")
        return failures

    def layer_metrics(self, ctx: Context, window: Window,
                      view: SpanView) -> Dict[str, float]:
        first = self.passes[0]
        runs = view.named("sim.run")
        tasks = sum(view.values("sim.run"))
        run_s = trace.total_seconds(runs)
        feasible: List[Tuple[float, float]] = [
            (first[("superoffload", s)][0], first[("zero_offload", s)][0])
            for s in self.sizes
            if first[("zero_offload", s)][0] is not None
        ]
        return {
            "systems.estimates": view.count("systems.estimate"),
            "systems.infeasible_points": sum(
                v[0] is None for p, v in first.items() if p != _TABLE2),
            "systems.best_estimate_ms_p50": stats.median([
                trace.duration(s) * 1e3
                for s in view.named("systems.best_estimate")]),
            "systems.tflops_so_5b": self._table2_tflops()[-1],
            "systems.so_over_zo_mean":
                sum(so / zo for so, zo in feasible) / len(feasible)
                if feasible else 0.0,
            "systems.paper_err_pct": self.paper_err_pct(),
            "sim.runs": len(runs),
            "sim.tasks": tasks,
            "sim.run_ms_total": run_s * 1e3,
            "sim.us_per_task": run_s * 1e6 / tasks if tasks else 0.0,
            "sim.share": run_s / window.seconds,
        }
