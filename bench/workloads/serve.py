"""The two serving workloads: a saturated server and a spilling KV-cache."""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import gen, stats, trace
from bench.workloads.base import (
    WARMUP_OPS, Context, SpanView, Window, Workload, pool_workers, sized,
)

#: Sessions compared token for token against solo ``generate()``.
SOLO_SAMPLE = 8


class Serve(Workload):
    """``StreamingServer`` over the int8 ``InferenceEngine``, closed loop
    at concurrency ``MAX_BATCH``.

    The closed loop is realised as a backlog: every request is submitted
    before the server thread starts, so the scheduler refills a slot the
    instant a session retires, the load generator needs one thread, and
    batch composition (hence every count) repeats exactly for a seed.
    """

    MAX_BATCH = 8
    MODEL = dict(vocab=512, hidden=128, n_layers=4, n_heads=8)

    def __init__(self, name: str, why: str, max_seq: int,
                 prompt_len: Tuple[int, int], output_len: Tuple[int, int],
                 max_pages: Optional[int], requests_per_second: float,
                 floor: int):
        self.name, self.why = name, why
        self.max_seq = max_seq
        self.prompt_len, self.output_len = prompt_len, output_len
        self.max_pages = max_pages
        self._rate, self._floor = requests_per_second, floor
        self.server = None

    def _engine(self, ctx: Context, bounded: bool, telemetry=None):
        from repro.numeric.transformer import TinyTransformer
        from repro.serving import InferenceEngine

        kwargs: Dict[str, Any] = {}
        if telemetry is not None:
            kwargs["telemetry"] = telemetry
        if bounded and self.max_pages is not None:
            kwargs.update(max_pages=self.max_pages,
                          spill=str(ctx.out / "kv"))
        return InferenceEngine(
            TinyTransformer(self.spec, seed=ctx.seed), **kwargs)

    def build(self, ctx: Context) -> None:
        from repro.numeric.transformer import TransformerParams
        from repro.serving import StreamingServer

        self.spec = TransformerParams(max_seq=self.max_seq, **self.MODEL)
        engine = self._engine(ctx, bounded=True, telemetry=ctx.telemetry)
        self.server = StreamingServer(engine, max_batch=self.MAX_BATCH)
        n = sized(ctx, self._rate, floor=self._floor, quick=SOLO_SAMPLE)
        made = gen.requests(ctx.seed, n + WARMUP_OPS, self.spec.vocab,
                            self.prompt_len, self.output_len)
        self.warm_requests, self.requests = \
            made[:WARMUP_OPS], made[WARMUP_OPS:]

    def warmup(self, ctx: Context) -> None:
        # Solo generations on the server's own engine (the loop thread
        # is not running yet); session ids sit above the registry's.
        from repro.serving.engine import generate

        for i, (prompt, budget) in enumerate(self.warm_requests):
            generate(self.server.engine, prompt, budget,
                     session=10**9 + i)

    def run(self, ctx: Context) -> Window:
        window = Window()
        counters = ("kv_pages_evicted", "kv_pages_restored")
        before = {c: ctx.counter(c) for c in counters}
        sids: List[Optional[int]] = []
        for prompt, budget in self.requests:
            try:
                sids.append(self.server.submit(prompt, budget))
            except ValueError as exc:  # refused: counts as failed
                print(f"request refused: {exc}", file=sys.stderr)
                sids.append(None)
        window.start = time.perf_counter()
        self.server.start()
        outputs: List[List[int]] = []
        for sid, (_, budget) in zip(sids, self.requests):
            tokens: List[int] = []
            try:
                if sid is not None:
                    tokens = self.server.result(sid)
            except RuntimeError as exc:  # the serving loop failed
                print(f"session {sid}: {exc!r}", file=sys.stderr)
            outputs.append(tokens)
            window.attempted += 1
            window.failed += len(tokens) != budget
        window.end = time.perf_counter()
        sessions = [self.server.registry.get(sid) for sid in sids
                    if sid is not None]
        window.op_ms = [
            (b - a) * 1e3 for s in sessions
            for a, b in zip(s.token_times, s.token_times[1:])
        ]
        window.work = sum(len(t) for t in outputs)
        window.notes.update(
            outputs=outputs,
            ttft_ms=[(s.first_token_at - window.start) * 1e3
                     for s in sessions if s.first_token_at is not None],
            **{c: ctx.counter(c) - v for c, v in before.items()},
        )
        return window

    def expected_tokens(self, ctx: Context, index: int) -> List[int]:
        """What request ``index`` generates alone on a fresh engine."""
        from repro.serving.engine import generate

        prompt, budget = self.requests[index]
        return generate(self._solo, prompt, budget, session=index)

    def check(self, ctx: Context, window: Window) -> List[str]:
        """Every session got its budget, and continuous batching (with or
        without KV spill) did not change what a session generates."""
        outputs = window.notes["outputs"]
        failures = [
            f"session {i} emitted {len(out)} of {budget} tokens"
            for i, (out, (_, budget)) in enumerate(
                zip(outputs, self.requests))
            if len(out) != budget
        ]
        # Sessions that fell short are already failures; sample the rest.
        whole = [i for i, (out, (_, budget)) in enumerate(
            zip(outputs, self.requests)) if len(out) == budget]
        step = max(1, len(whole) // SOLO_SAMPLE)
        self._solo = self._engine(ctx, bounded=False)
        try:
            for i in whole[::step][:SOLO_SAMPLE]:
                expected = self.expected_tokens(ctx, i)
                if outputs[i] != expected:
                    failures.append(
                        f"session {i} differs from solo generate(): "
                        f"{outputs[i]} vs {expected}")
        finally:
            self._solo.close()
        return failures

    def view(self, window: Window, spans) -> SpanView:
        # The server loop thread drives the work; figures are per serve
        # step (one engine step each).
        steps = [s for s in spans if s[trace.NAME] == "serving.engine_step"]
        tid = steps[0][trace.TID] if steps else 0
        return SpanView(spans, tid, len(steps))

    def layer_metrics(self, ctx: Context, window: Window,
                      view: SpanView) -> Dict[str, float]:
        engine_steps = view.named("serving.engine_step")
        sched_steps = view.named("serving.sched_step")
        steps, n = len(engine_steps), view.n_ops
        mixes = [s[trace.VALUE] for s in engine_steps]
        prefill = [trace.duration(s) * 1e3
                   for s, m in zip(engine_steps, mixes) if m[1]]
        decode = [trace.duration(s) * 1e3
                  for s, m in zip(engine_steps, mixes) if not m[1]]
        tokens = max(1.0, window.work)
        page_tokens = self.server.engine.cache.page_tokens
        touches = sum(-(-t // page_tokens)
                      for t in view.values("tensors.kv_attention"))
        restored = window.notes["kv_pages_restored"]
        pack = [s for s in ctx.recorder.spans
                if s[trace.NAME] == "numeric.quant_pack"]
        sched_s = trace.total_seconds(sched_steps)
        return {
            "numeric.quant_pack_ms": trace.total_seconds(pack[:1]) * 1e3,
            "exec.workers": pool_workers(),
            "exec.qmatmul_ms": view.ms_per_op("exec.qmatmul"),
            "exec.qmatmul_calls": view.count("exec.qmatmul"),
            "exec.qmatmul_gflop":
                sum(view.values("exec.qmatmul")) / 1e9,
            "tensors.kv_append_ms": view.ms_per_op("tensors.kv_append"),
            "tensors.kv_attention_ms":
                view.ms_per_op("tensors.kv_attention"),
            "tensors.kv_pages_evicted":
                window.notes["kv_pages_evicted"] / tokens,
            "tensors.kv_pages_restored": restored / tokens,
            "tensors.kv_restore_share":
                restored / touches if touches else 0.0,
            "tensors.kv_resident_pages_peak":
                max(view.values("serving.sched_step"), default=0),
            "serving.steps": steps,
            "serving.batch_size_mean":
                sum(m[0] for m in mixes) / n,
            "serving.prefill_tokens_per_step":
                sum(m[1] for m in mixes) / n,
            "serving.decode_tokens_per_step":
                sum(m[2] for m in mixes) / n,
            "serving.sched_step_ms_p50": stats.median(
                [trace.duration(s) * 1e3 for s in sched_steps]),
            "serving.engine_step_ms_decode_p50":
                stats.median(decode) if decode else 0.0,
            "serving.engine_step_ms_prefill_p50":
                stats.median(prefill) if prefill else 0.0,
            "serving.handoff_ms":
                (window.seconds - sched_s) * 1e3 / n,
            "serving.admit_requeues": view.count("serving.requeue"),
            "serving.ttft_ms_p50": stats.median(window.notes["ttft_ms"]),
            "serving.itl_ms_p95": stats.percentile(window.op_ms, 95.0),
            "serving.itl_ms_p99": stats.percentile(window.op_ms, 99.0),
        }

    def close(self) -> None:
        if self.server is not None:
            # An unstarted server has no thread to join; close() still
            # closes the engine (and its KV spill arena).
            self.server.close(drain=False)
