"""1F1B pipeline parallelism over :class:`TinyTransformer`.

The model's blocks partition into contiguous layer ranges, one per
pipeline stage (:func:`partition_layers`); the global batch splits into
microbatches (:func:`split_microbatches`); and
:class:`PipelinedTransformer` drives the classic one-forward-one-backward
schedule — warmup, steady 1F/1B alternation, drain — moving activations
forward and gradients backward through the point-to-point
``send``/``recv`` ops on :class:`~repro.parallel.comm.SimProcessGroup`
(payload-accounted and traced like every collective).

Numerics contract (tested by ``tests/parallel/test_pipeline.py``):
pipelining changes *no* arithmetic.  Splitting layers across stages only
relocates where the activation/gradient stream lives, and 1F1B retires
each stage's backwards in microbatch order ``0..m-1``, so gradient
accumulation order matches the unpipelined reference
(:func:`microbatched_loss_and_grads`) exactly — the pipelined step is
**bitwise identical** to it for ``tp == 1``.  With a tensor-parallel
group attached the per-block math routes through
:mod:`repro.parallel.tensor` and inherits its documented tolerance.

Bubble accounting: the in-process schedule runs serially, so wall clock
contains no real pipeline bubble.  Instead every op's duration is
recorded and :meth:`PipelinedTransformer.measured_bubble_fraction`
replays them through the simulator's 1F1B task graph
(:func:`repro.sim.engine.build_1f1b_tasks`) as if stages ran on parallel
resources — the measured counterpart of the simulator's predicted
fraction, cross-checked by ``repro profile --compare-sim``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.numeric.layers import Embedding, LayerNorm, cross_entropy
from repro.numeric.transformer import Params, TinyTransformer
from repro.parallel.comm import SimProcessGroup
from repro.parallel.tensor import (
    ColumnParallelLinear,
    TensorParallelAttention,
    TensorParallelMLP,
)
from repro.sim.engine import (
    ScheduleSimulator,
    build_1f1b_tasks,
    ideal_1f1b_bubble,
    pipeline_bubble_fraction,
    stage_op_order,
)
from repro.tune import registry as tune_registry
from repro.tune import runtime as tune_runtime

#: Default 1F1B microbatch count (``repro tune`` can override at runtime).
MICROBATCHES_DEFAULT = tune_registry.default("pp.microbatches")

#: Default layers shifted off the final (head-owning) stage.
STAGE_BALANCE_DEFAULT = tune_registry.default("pp.stage_balance")


def partition_layers(
    n_layers: int, n_stages: int, balance: int = 0
) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` layer ranges, one per stage.

    Layers distribute as evenly as possible with the remainder on the
    *early* stages; ``balance`` then shifts that many layers off the
    final stage (which also owns ``ln_f`` and the LM head) onto earlier
    stages round-robin — the knob ``pp.stage_balance`` tunes.
    """
    if n_stages < 1:
        raise ValueError(f"need at least one stage, got {n_stages}")
    if balance < 0:
        raise ValueError(f"stage balance must be >= 0, got {balance}")
    if n_layers < n_stages:
        raise ValueError(
            f"cannot split {n_layers} layers across {n_stages} pipeline "
            "stages (every stage needs at least one layer)"
        )
    q, r = divmod(n_layers, n_stages)
    sizes = [q + (1 if s < r else 0) for s in range(n_stages)]
    if balance:
        if n_stages == 1:
            raise ValueError("stage balance needs at least two stages")
        if balance > sizes[-1]:
            raise ValueError(
                f"stage balance {balance} exceeds the final stage's "
                f"{sizes[-1]} layers"
            )
        sizes[-1] -= balance
        for k in range(balance):
            sizes[k % (n_stages - 1)] += 1
    ranges: List[Tuple[int, int]] = []
    start = 0
    for size in sizes:
        ranges.append((start, start + size))
        start += size
    return ranges


def split_microbatches(
    ids: np.ndarray, targets: np.ndarray, n_microbatches: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Split a global batch into ``n_microbatches`` along the batch axis."""
    if n_microbatches < 1:
        raise ValueError(
            f"need at least one microbatch, got {n_microbatches}"
        )
    b = ids.shape[0]
    if ids.shape != targets.shape:
        raise ValueError(
            f"ids shape {ids.shape} != targets shape {targets.shape}"
        )
    if b % n_microbatches:
        raise ValueError(
            f"batch size {b} not divisible by {n_microbatches} microbatches"
        )
    per = b // n_microbatches
    return (
        [ids[j * per : (j + 1) * per] for j in range(n_microbatches)],
        [targets[j * per : (j + 1) * per] for j in range(n_microbatches)],
    )


# -- microbatch accumulation (shared by pipeline and reference) --------------
#
# Both sides run *these exact ops* in microbatch order, which is what
# makes the 1F1B step bitwise-comparable to the unpipelined reference.


def _accumulate_grads(acc: Params, grads: Params) -> None:
    for name, g in grads.items():
        g32 = np.ascontiguousarray(g, dtype=np.float32)
        if name in acc:
            acc[name] += g32
        else:
            acc[name] = g32.copy()


def _finalize_grads(acc: Params, n_microbatches: int) -> Params:
    inv = np.float32(1.0 / n_microbatches)
    for name in acc:
        acc[name] *= inv
    return acc


def _mean_loss(losses: Sequence[float]) -> float:
    total = float(losses[0])
    for value in losses[1:]:
        total = total + value
    return total / len(losses)


def microbatched_loss_and_grads(
    model: TinyTransformer,
    ids: np.ndarray,
    targets: np.ndarray,
    n_microbatches: int,
    loss_scale: float = 1.0,
) -> Tuple[float, Params]:
    """The unpipelined reference: sequential microbatches, same averaging.

    Runs each microbatch through the plain model in order and accumulates
    with the identical cast/add/scale sequence the pipeline uses — the
    bitwise baseline the 1F1B tests compare against.
    """
    mb_ids, mb_targets = split_microbatches(ids, targets, n_microbatches)
    acc: Params = {}
    losses: List[float] = []
    for j in range(n_microbatches):
        loss, grads = model.loss_and_grads(
            mb_ids[j], mb_targets[j], loss_scale=loss_scale
        )
        losses.append(loss)
        _accumulate_grads(acc, grads)
    return _mean_loss(losses), _finalize_grads(acc, n_microbatches)


class PipelinedTransformer:
    """A :class:`TinyTransformer` split into 1F1B pipeline stages.

    One pipeline rank per stage (``group.world_size`` stages).  The first
    stage owns the embeddings, the last owns ``ln_f`` and the LM head;
    blocks partition by :func:`partition_layers`.  With ``tp == 1`` every
    block and the head run the unsharded model's own methods
    (``block_forward``/``block_backward``, ``head_forward``/
    ``head_backward``); with a ``tp_group`` they route through the
    tensor-parallel executors (the TPxPP composition: every stage's
    blocks shard across the TP group).

    Args:
        model: the unsharded reference; must not carry an activation
            workspace (1F1B keeps multiple microbatches in flight, which
            would alias its recycled buffers).
        group: pipeline communicator; its world size is the stage count.
        balance: layers shifted off the final stage (defaults to the
            ``pp.stage_balance`` tunable).
        tp_group: optional tensor-parallel communicator.
    """

    def __init__(
        self,
        model: TinyTransformer,
        group: SimProcessGroup,
        balance: Optional[int] = None,
        tp_group: Optional[SimProcessGroup] = None,
    ):
        if model.workspace is not None:
            raise ValueError(
                "pipelined model must not use an activation workspace "
                "(in-flight microbatches would alias recycled buffers)"
            )
        if balance is None:
            balance = tune_runtime.value(
                "pp.stage_balance", STAGE_BALANCE_DEFAULT
            )
        self.model = model
        self.spec = model.spec
        self.group = group
        self.n_stages = group.world_size
        self.stage_ranges = partition_layers(
            model.spec.n_layers, self.n_stages, balance
        )
        self.tp_group = tp_group
        self.tp = tp_group.world_size if tp_group is not None else 1
        if self.tp > 1:
            p = model.params
            spec = model.spec
            self.tp_blocks: List[
                Tuple[TensorParallelAttention, TensorParallelMLP]
            ] = []
            for i in range(spec.n_layers):
                attn = TensorParallelAttention(
                    spec.hidden, spec.n_heads,
                    p[f"h{i}.qkv.w"], p[f"h{i}.qkv.b"],
                    p[f"h{i}.proj.w"], p[f"h{i}.proj.b"],
                    tp_group,
                )
                mlp = TensorParallelMLP(
                    p[f"h{i}.fc1.w"], p[f"h{i}.fc1.b"],
                    p[f"h{i}.fc2.w"], p[f"h{i}.fc2.b"],
                    tp_group,
                )
                self.tp_blocks.append((attn, mlp))
            self.tp_head = ColumnParallelLinear(
                p["head.w"], p["head.b"], tp_group, gather_output=True
            )
        # Measured-replay state from the most recent pipelined step.
        self.last_op_durations: Dict[Tuple[str, int, int], float] = {}
        self.last_comm_durations: List[float] = []
        self.last_microbatches = 0
        self._caches: Dict[Tuple[int, int], tuple] = {}

    # -- stage-local math ---------------------------------------------------

    def _block_forward(self, i: int, x: np.ndarray) -> Tuple[np.ndarray, tuple]:
        """One transformer block — the unsharded model's own
        :meth:`~TinyTransformer.block_forward` (``tp == 1``) or the TP
        executors."""
        p = self.model.params
        if self.tp == 1:
            return self.model.block_forward(i, x, p)
        attn, mlp = self.tp_blocks[i]
        ln1, ln1_cache = LayerNorm.forward(
            x, p[f"h{i}.ln1.g"], p[f"h{i}.ln1.b"]
        )
        outs, attn_cache = attn.forward([ln1] * self.tp)
        x = x + outs[0]
        ln2, ln2_cache = LayerNorm.forward(
            x, p[f"h{i}.ln2.g"], p[f"h{i}.ln2.b"]
        )
        mlp_out, mlp_cache = mlp.forward([ln2] * self.tp)
        x = x + mlp_out[0]
        return x, (ln1_cache, attn_cache, ln2_cache, mlp_cache)

    def _block_backward(
        self, i: int, cache: tuple, dx: np.ndarray, grads: Params
    ) -> np.ndarray:
        if self.tp == 1:
            return self.model.block_backward(i, cache, dx, grads)
        ln1_cache, attn_cache, ln2_cache, mlp_cache = cache
        attn, mlp = self.tp_blocks[i]
        dmlp, mlp_sharded, db2 = mlp.backward([dx] * self.tp, mlp_cache)
        (grads[f"h{i}.fc1.w"], grads[f"h{i}.fc1.b"],
         grads[f"h{i}.fc2.w"], grads[f"h{i}.fc2.b"]) = mlp.full_grads(
            mlp_sharded, db2
        )
        dln2, grads[f"h{i}.ln2.g"], grads[f"h{i}.ln2.b"] = LayerNorm.backward(
            dmlp[0], ln2_cache
        )
        dx = dx + dln2
        dattn, attn_sharded, db_proj = attn.backward(
            [dx] * self.tp, attn_cache
        )
        (grads[f"h{i}.qkv.w"], grads[f"h{i}.qkv.b"],
         grads[f"h{i}.proj.w"], grads[f"h{i}.proj.b"]) = attn.full_grads(
            attn_sharded, db_proj
        )
        dln1, grads[f"h{i}.ln1.g"], grads[f"h{i}.ln1.b"] = LayerNorm.backward(
            dattn[0], ln1_cache
        )
        dx = dx + dln1
        return dx

    def _forward_stage(
        self,
        s: int,
        j: int,
        payload: np.ndarray,
        targets: np.ndarray,
        loss_scale: float,
    ) -> Tuple[Optional[np.ndarray], Optional[float]]:
        """Run stage ``s``'s forward for microbatch ``j``.

        Returns (activation to send downstream or ``None`` on the last
        stage, loss or ``None`` before the last stage); the backward
        cache is stored under ``(s, j)``.
        """
        p = self.model.params
        last = self.n_stages - 1
        if s == 0:
            ids = payload
            seq = ids.shape[1]
            x, tok_cache = Embedding.forward(ids, p["tok_emb"])
            x = x + p["pos_emb"][:seq][None, :, :]
        else:
            x = payload
            seq = x.shape[1]
            tok_cache = None
        block_caches: List[Tuple[int, tuple]] = []
        lo, hi = self.stage_ranges[s]
        for i in range(lo, hi):
            x, cache = self._block_forward(i, x)
            block_caches.append((i, cache))
        if s != last:
            self._caches[(s, j)] = (tok_cache, seq, block_caches, None)
            return x, None
        if self.tp == 1:
            logits, head_cache = self.model.head_forward(x, p)
        else:
            lnf, lnf_cache = LayerNorm.forward(x, p["ln_f.g"], p["ln_f.b"])
            logits_r, tp_cache = self.tp_head.forward([lnf] * self.tp)
            logits, head_cache = logits_r[0], (lnf_cache, tp_cache)
        loss, dlogits = cross_entropy(logits, targets)
        if loss_scale != 1.0:
            dlogits *= np.float32(loss_scale)
        self._caches[(s, j)] = (
            tok_cache, seq, block_caches, (head_cache, dlogits),
        )
        return None, loss

    def _backward_stage(
        self, s: int, j: int, dy: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], Params]:
        """Run stage ``s``'s backward for microbatch ``j``.

        Returns (gradient to send upstream or ``None`` on stage 0, this
        stage's parameter gradients for the microbatch).
        """
        p = self.model.params
        grads: Params = {}
        tok_cache, seq, block_caches, final = self._caches.pop((s, j))
        if s == self.n_stages - 1:
            head_cache, dlogits = final
            if self.tp == 1:
                dx = self.model.head_backward(dlogits, head_cache, grads)
            else:
                lnf_cache, tp_cache = head_cache
                dlnf_r, dw_head, db_head = self.tp_head.backward(
                    [dlogits] * self.tp, tp_cache
                )
                grads["head.w"] = self.tp_head.full_weight_grad(dw_head)
                grads["head.b"] = self.tp_head.full_bias_grad(db_head)
                dx, grads["ln_f.g"], grads["ln_f.b"] = LayerNorm.backward(
                    dlnf_r[0], lnf_cache
                )
        else:
            assert dy is not None
            dx = dy
        for i, cache in reversed(block_caches):
            dx = self._block_backward(i, cache, dx, grads)
        if s == 0:
            grads["pos_emb"] = np.zeros_like(p["pos_emb"])
            grads["pos_emb"][:seq] = dx.sum(axis=0)
            grads["tok_emb"] = Embedding.backward(dx, tok_cache)
            return None, grads
        return dx, grads

    # -- the 1F1B schedule --------------------------------------------------

    def loss_and_grads(
        self,
        ids: np.ndarray,
        targets: np.ndarray,
        n_microbatches: Optional[int] = None,
        loss_scale: float = 1.0,
    ) -> Tuple[float, Params]:
        """One pipelined step: 1F1B over ``n_microbatches`` microbatches.

        Returns (mean microbatch loss, microbatch-averaged gradients
        keyed like ``TinyTransformer.loss_and_grads``) — bitwise equal to
        :func:`microbatched_loss_and_grads` when ``tp == 1``.
        """
        if n_microbatches is None:
            n_microbatches = tune_runtime.value(
                "pp.microbatches", MICROBATCHES_DEFAULT
            )
        m = n_microbatches
        n = self.n_stages
        if ids.shape[1] > self.spec.max_seq:
            raise ValueError(
                f"sequence {ids.shape[1]} exceeds max_seq {self.spec.max_seq}"
            )
        mb_ids, mb_targets = split_microbatches(ids, targets, m)
        tracer = self.group.telemetry.tracer
        orders = [stage_op_order(n, m, s) for s in range(n)]
        pointers = [0] * n
        sent_f: set = set()
        sent_b: set = set()
        stage_grads: List[Params] = [{} for _ in range(n)]
        losses: List[Optional[float]] = [None] * m
        op_durations: Dict[Tuple[str, int, int], float] = {}
        comm_durations: List[float] = []
        self._caches.clear()
        remaining = sum(len(o) for o in orders)
        while remaining:
            progressed = False
            for s in range(n):
                if pointers[s] >= len(orders[s]):
                    continue
                kind, j = orders[s][pointers[s]]
                if kind == "F":
                    if s > 0 and (s - 1, j) not in sent_f:
                        # The stall a real pipeline would spend waiting on
                        # upstream — a marker span for phase attribution.
                        with tracer.span("pp_bubble", category="pp_stall",
                                         stage=s, microbatch=j):
                            pass
                        continue
                    if s == 0:
                        payload: np.ndarray = mb_ids[j]
                    else:
                        t0 = time.perf_counter()
                        payload = self.group.recv(s - 1, s, tag=j)
                        comm_durations.append(time.perf_counter() - t0)
                    with tracer.span("pp_fwd", category="compute",
                                     stage=s, microbatch=j):
                        t0 = time.perf_counter()
                        out, loss = self._forward_stage(
                            s, j, payload, mb_targets[j], loss_scale
                        )
                        op_durations[("F", s, j)] = time.perf_counter() - t0
                    if loss is not None:
                        losses[j] = loss
                    if out is not None:
                        t0 = time.perf_counter()
                        self.group.send(out, s, s + 1, tag=j)
                        comm_durations.append(time.perf_counter() - t0)
                        sent_f.add((s, j))
                else:
                    if s < n - 1 and (s + 1, j) not in sent_b:
                        with tracer.span("pp_bubble", category="pp_stall",
                                         stage=s, microbatch=j):
                            pass
                        continue
                    if s < n - 1:
                        t0 = time.perf_counter()
                        dy: Optional[np.ndarray] = self.group.recv(
                            s + 1, s, tag=j
                        )
                        comm_durations.append(time.perf_counter() - t0)
                    else:
                        dy = None
                    with tracer.span("pp_bwd", category="compute",
                                     stage=s, microbatch=j):
                        t0 = time.perf_counter()
                        dsend, grads = self._backward_stage(s, j, dy)
                        op_durations[("B", s, j)] = time.perf_counter() - t0
                    # 1F1B retires backwards in microbatch order per
                    # stage, so this accumulation matches the sequential
                    # reference bit-for-bit.
                    _accumulate_grads(stage_grads[s], grads)
                    if dsend is not None:
                        t0 = time.perf_counter()
                        self.group.send(dsend, s, s - 1, tag=j)
                        comm_durations.append(time.perf_counter() - t0)
                        sent_b.add((s, j))
                pointers[s] += 1
                remaining -= 1
                progressed = True
            if not progressed:
                raise RuntimeError("1F1B schedule deadlocked (executor bug)")
        if self.group.pending_messages():
            raise RuntimeError(
                f"{self.group.pending_messages()} unconsumed pipeline "
                "messages after the step"
            )
        merged: Params = {}
        for s in range(n):
            overlap = merged.keys() & stage_grads[s].keys()
            if overlap:
                raise RuntimeError(
                    f"stages produced overlapping gradients: {sorted(overlap)}"
                )
            merged.update(stage_grads[s])
        self.last_op_durations = op_durations
        self.last_comm_durations = comm_durations
        self.last_microbatches = m
        return _mean_loss([l for l in losses if l is not None]), (
            _finalize_grads(merged, m)
        )

    # -- bubble accounting --------------------------------------------------

    def measured_bubble_fraction(self) -> float:
        """Replay the last step's measured op durations through the 1F1B
        task graph and return the stage-aggregate bubble fraction.

        The serial in-process run has no real concurrency, so this is the
        honest "measured" number: actual per-op wall times, laid out on
        the schedule a parallel machine would execute.
        """
        if not self.last_op_durations:
            raise RuntimeError("no pipelined step has run yet")
        n, m = self.n_stages, self.last_microbatches
        send = (
            float(np.mean(self.last_comm_durations))
            if self.last_comm_durations else 0.0
        )
        durations = self.last_op_durations
        tasks = build_1f1b_tasks(
            n, m,
            lambda s, j: durations[("F", s, j)],
            lambda s, j: durations[("B", s, j)],
            send_time=send,
        )
        sim = ScheduleSimulator(
            [f"pp.stage{s}" for s in range(n)]
            + [f"pp.link{s}" for s in range(n - 1)]
        )
        return pipeline_bubble_fraction(sim.run(tasks), n)

    def predicted_bubble_fraction(self) -> float:
        """The analytic uniform-stage prediction ``(p-1)/(m+p-1)``."""
        if not self.last_microbatches:
            raise RuntimeError("no pipelined step has run yet")
        return ideal_1f1b_bubble(self.n_stages, self.last_microbatches)


def simulated_bubble_fraction(
    n_stages: int,
    n_microbatches: int,
    fwd_time: float = 1.0,
    bwd_time: float = 2.0,
    send_time: float = 0.0,
) -> float:
    """Bubble fraction of a modeled 1F1B timeline (uniform stage costs).

    With ``send_time == 0`` this reproduces the analytic
    ``(p-1)/(m+p-1)`` exactly — the simulator-side prediction the
    substrate's measured replay is compared against.
    """
    tasks = build_1f1b_tasks(
        n_stages, n_microbatches, fwd_time, bwd_time, send_time=send_time
    )
    sim = ScheduleSimulator(
        [f"pp.stage{s}" for s in range(n_stages)]
        + [f"pp.link{s}" for s in range(n_stages - 1)]
    )
    return pipeline_bubble_fraction(sim.run(tasks), n_stages)
