"""Slow ancestors of the production fast paths, kept as plain functions.

Everything here exists only as a measured baseline arm (``repro bench``,
``repro tune``) or a test oracle: the code a production class ran before
its fast path replaced it, written over bare arrays with no classes and
no mode flags.  Production modules never import this one
(``tests/test_reference_imports.py`` holds that line); only
``training/bench.py``, ``tune/search.py`` and the equivalence suites do.

Each function names the production path that must stay bitwise (or, for
the quantized matmul, GELU and attention, tolerance) equal to it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec import kernels
from repro.numeric.layers import softmax
from repro.optim.adam import AdamConfig
from repro.optim.mixed_precision import (
    GradientHealth,
    check_gradients,
    clip_coefficient,
)
from repro.parallel.comm import SimProcessGroup
from repro.parallel.dp import shard_batch
from repro.tensors.arena import ArenaLayout
from repro.tensors.spill import SpillArena

Params = Dict[str, np.ndarray]
#: One rank's private ``(master, m, v)`` shard copies.
ShardState = Tuple[np.ndarray, np.ndarray, np.ndarray]


# -- Adam ----------------------------------------------------------------


def cpu_adam_serial(
    p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
    config: AdamConfig, step: int,
) -> None:
    """CPUAdam's pre-executor step: whole-plane fused passes, one
    full-size out-of-place temporary per expression.

    The bitwise twin of :func:`repro.exec.ops.parallel_adam_flat` (what
    :class:`~repro.optim.CPUAdam` and :class:`~repro.optim.GraceAdam`
    run on arena-backed steps) and the ``parallel_step`` bench baseline;
    the temporaries are what the chunked scratch kernels eliminate.
    """
    c = config
    m *= c.beta1
    m += (1 - c.beta1) * g
    v *= c.beta2
    v += (1 - c.beta2) * np.square(g)
    bc1 = 1 - c.beta1**step if c.bias_correction else 1.0
    bc2 = 1 - c.beta2**step if c.bias_correction else 1.0
    denom = np.sqrt(v / bc2)
    denom += c.eps
    if c.weight_decay:
        p *= 1.0 - c.lr * c.weight_decay
    p -= c.lr * ((m / bc1) / denom)


def grace_adam_serial(
    p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
    config: AdamConfig, step: int, tile_size: int,
) -> None:
    """GraceAdam's serial flat walk: the same passes per cache tile, so
    the temporaries stay cache-resident.  Bitwise twin of the chunked
    executor step and the tighter ``parallel_step`` contest."""
    for lo in range(0, p.size, tile_size):
        hi = lo + tile_size
        cpu_adam_serial(p[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi],
                        config, step)


# -- GELU ----------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_pow(x: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation) with the cube spelled ``x**3``.

    numpy fast-paths only exponents 2, 0.5 and -1, so this runs libm
    ``powf`` per element.  Tolerance twin (1 ulp of x**3 apart) of
    :func:`repro.numeric.layers.gelu` and the ``elementwise`` bench
    baseline.
    """
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def gelu_grad_pow(x: np.ndarray) -> np.ndarray:
    """d gelu / dx over the same ``x**3``: tolerance twin of
    :func:`repro.numeric.layers.gelu_grad`."""
    tanh_inner = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    sech2 = 1.0 - tanh_inner**2
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner


# -- attention -----------------------------------------------------------


@lru_cache(maxsize=64)
def causal_mask(seq_q: int, seq_k: int) -> np.ndarray:
    """The memoized upper-triangular ``(seq_q, seq_k)`` causal mask
    (read-only)."""
    mask = np.triu(np.ones((seq_q, seq_k), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def masked_fill_value(dtype) -> np.ndarray:
    """Half the most negative finite value of ``dtype``: a masked score
    that underflows to exactly zero probability without overflowing fp16
    (where ``-1e9`` is already infinite)."""
    return np.asarray(np.finfo(np.dtype(dtype)).min / 2, dtype=dtype)


def _dense_probs(q: np.ndarray, k: np.ndarray, causal: bool) -> np.ndarray:
    """The full probability matrix, shared by forward and the backward
    recomputation so both produce identical bits."""
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(q.shape[-1])
    if causal:
        scores = np.where(
            causal_mask(*scores.shape[-2:]),
            masked_fill_value(scores.dtype),
            scores,
        )
    return softmax(scores, axis=-1)


def dense_attention_forward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, causal: bool = True
) -> Tuple[np.ndarray, Tuple]:
    """Scaled dot-product attention over ``(b, heads, s, d)`` that
    materializes the ``S x S`` score and probability matrices.

    Tolerance twin of :meth:`repro.numeric.attention.MultiHeadAttention.
    attend` (the streaming kernel reorders the softmax reduction) and the
    ``attention`` bench baseline.  The cache is ``(q, k, v, causal)``.
    """
    return _dense_probs(q, k, causal) @ v, (q, k, v, causal)


def dense_attention_backward(
    dcontext: np.ndarray, cache: Tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. q, k, v with the probabilities recomputed:
    tolerance twin of ``MultiHeadAttention.attend_backward``."""
    q, k, v, causal = cache
    probs = _dense_probs(q, k, causal)
    dv = probs.transpose(0, 1, 3, 2) @ dcontext
    dprobs = dcontext @ v.transpose(0, 1, 3, 2)
    # softmax backward: dS = P * (dP - sum(dP * P))
    dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    dscores = dscores / math.sqrt(q.shape[-1])
    return dscores @ k, dscores.transpose(0, 1, 3, 2) @ q, dv


# -- quantized matmul ----------------------------------------------------


def qmatmul_reference(
    x: np.ndarray,
    qt,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dense-dequant reference: reconstruct the full fp32 weight, then
    one plain matmul.  Same quantized operand, unfused data path — the
    tolerance twin of :func:`repro.exec.ops.parallel_qmatmul`.
    """
    w = qt.dequantize()
    y = np.matmul(np.asarray(x, dtype=np.float32), w)
    if bias is not None:
        y = y + bias
    return np.asarray(y, dtype=np.float32)


# -- ZeRO: the dict-copy dataflow ----------------------------------------


def flatten(tensors: Params, layout: ArenaLayout) -> np.ndarray:
    """Copy named tensors into a fresh padded flat vector."""
    flat = np.zeros(layout.total, dtype=np.float32)
    for name, offset, shape in zip(
        layout.names, layout.offsets, layout.shapes
    ):
        size = int(np.prod(shape)) if shape else 1
        flat[offset : offset + size] = np.asarray(
            tensors[name], dtype=np.float32
        ).reshape(-1)
    return flat


def unflatten_into(flat: np.ndarray, layout: ArenaLayout, out: Params) -> None:
    """Scatter a flat vector back into the named tensors of ``out``."""
    for name, offset, shape in zip(
        layout.names, layout.offsets, layout.shapes
    ):
        size = int(np.prod(shape)) if shape else 1
        out[name][...] = flat[offset : offset + size].reshape(shape)


def zero_dict_copy_shards(
    params: Params, world_size: int
) -> Tuple[ArenaLayout, List[ShardState]]:
    """The dict-copy dataflow's state: the flat layout and, per rank, a
    *private copy* of its master shard with zeroed moments."""
    layout = ArenaLayout.plan(
        {name: p.shape for name, p in params.items()}, world_size
    )
    flat = flatten(params, layout)
    n = layout.total // world_size
    return layout, [
        (flat[r * n : (r + 1) * n].copy(),
         np.zeros(n, dtype=np.float32), np.zeros(n, dtype=np.float32))
        for r in range(world_size)
    ]


def zero_dict_copy_step(
    params: Params,
    layout: ArenaLayout,
    shards: Sequence[ShardState],
    per_rank_grads: Sequence[Params],
    config: AdamConfig,
    step: int,
) -> None:
    """The historical ZeRO step: flatten every rank's gradient dict,
    reduce-scatter (averaging), Adam on each private shard, all-gather,
    and unflatten into ``params``.

    Bitwise twin of :meth:`repro.parallel.zero.ZeroShardedAdam.step` —
    same collectives, same shard kernel, plus the four copies the arena
    dataflow removed — and the ``zero_step`` bench baseline.  ``step`` is
    the 1-based update number.
    """
    world = len(shards)
    group = SimProcessGroup(world)
    reduced = [
        s / np.float32(world) for s in group.reduce_scatter(
            [flatten(g, layout) for g in per_rank_grads]
        )
    ]
    hyper = kernels.AdamChunkHyper.from_config(config, step)
    for (p, m, v), g in zip(shards, reduced):
        kernels.adam_chunk(0, p.size, p, m, v, g, hyper)
    gathered = group.all_gather([p for p, _, _ in shards])[0]
    unflatten_into(gathered, layout, params)


# -- ZeRO: the strict-sequence disk step ---------------------------------


def zero_disk_sync_step(
    master: np.ndarray,
    spill: SpillArena,
    per_rank_flat: Sequence[np.ndarray],
    scratch: np.ndarray,
    config: AdamConfig,
    step: int,
) -> None:
    """Non-overlapped disk-offloaded ZeRO step: per bucket, read (m, v),
    reduce (averaging), Adam, write back, each waiting on the one before.

    Same buckets and kernels as the production disk step
    (``ZeroShardedAdam(offload="disk")``) and therefore bitwise
    identical to it; every disk byte is an exposed stall, which is what
    the ``spill`` bench measures the prefetched step against.

    Args:
        master: the flat fp32 master plane (updated in place).
        spill: arena holding the ``"m"`` and ``"v"`` planes.
        per_rank_flat: one flat gradient per rank (``len`` = world size).
        scratch: ``(3, bucket_elements)`` fp32 — reduce staging and the
            (m, v) slots.
        step: the 1-based update number (uniform across shards).
    """
    world = len(per_rank_flat)
    shard_len = master.size // world
    staging, m_slot, v_slot = scratch
    bucket = staging.size
    divisor = np.float32(world)
    hyper = kernels.AdamChunkHyper.from_config(config, step)
    for shard_lo in range(0, master.size, shard_len):
        for lo in range(shard_lo, shard_lo + shard_len, bucket):
            hi = min(shard_lo + shard_len, lo + bucket)
            n = hi - lo
            spill.read("m", lo, hi, m_slot)
            spill.read("v", lo, hi, v_slot)
            kernels.reduce_chunk(lo, hi, staging, lo, per_rank_flat, divisor)
            kernels.adam_chunk(0, n, master[lo:hi], m_slot[:n], v_slot[:n],
                               staging[:n], hyper)
            spill.write("m", lo, hi, m_slot)
            spill.write("v", lo, hi, v_slot)


# -- data-parallel trainer: the unfused gradient path --------------------


def fp16_model_copy(arena, out=None):
    """Narrow ``arena``'s fp32 plane into a float16 arena of its layout.

    The model copy :func:`dp_step_reference` reads and refreshes —
    native float16 storage, numpy's scalar casts.  A fresh arena unless
    ``out`` (a float16 arena of the same layout) is given.
    """
    if out is None:
        out = arena.like(np.float16)
    with np.errstate(over="ignore"):
        out.flat[...] = arena.flat
    return out


def dp_step_reference(
    model,
    optimizer,
    fp16,
    ids: np.ndarray,
    targets: np.ndarray,
    clip_norm: Optional[float],
) -> Tuple[float, GradientHealth]:
    """The data-parallel trainer's step before its gradient path was
    fused into the ZeRO bucket loop.

    Per rank a fresh gradient dict; a float64 mean over the stacked
    dicts, validated by :func:`check_gradients` and then thrown away;
    one ``fill_from`` copy per rank into its gradient arena; a
    full-plane clip multiply per rank; and the plain ``step_flat``,
    which reduces the same gradients a second time.  A non-finite mean
    skips the update.

    Tolerance twin of :meth:`repro.training.DataParallelTrainer.
    train_step` — same clip decisions, ``grad_norm`` to fp32 rounding
    (the production norm is taken on the fp32 reduce-scatter output, not
    on a float64 mean), parameters to the trainer suite's 1e-5 — and the
    ``dp_step`` bench baseline.

    Args:
        model: a :class:`~repro.numeric.transformer.TinyTransformer`
            whose ``params`` ``optimizer`` adopted.
        optimizer: the :class:`~repro.parallel.zero.ZeroShardedAdam`.
        fp16: a float16 arena with the optimizer's layout (see
            :func:`fp16_model_copy`) — the model copy the forward reads
            and this step refreshes.
        clip_norm: global clipping threshold (``None`` disables).

    Returns:
        (mean rank loss, the health verdict on the float64 mean).
    """
    world = optimizer.world_size
    widened = {k: v.astype(np.float32) for k, v in fp16.views.items()}
    losses, per_rank = [], []
    for rank_ids, rank_targets in shard_batch(ids, targets, world):
        loss, grads = model.loss_and_grads(
            rank_ids, rank_targets, params=widened
        )
        losses.append(loss)
        per_rank.append(grads)
    mean_grads = {
        k: np.mean([g[k] for g in per_rank], axis=0, dtype=np.float64)
        .astype(np.float32)
        for k in per_rank[0]
    }
    health = check_gradients(mean_grads, clip_norm)
    if health.has_nan_or_inf:
        return float(np.mean(losses)), health
    grad_arenas = [optimizer.grad_arena(r) for r in range(world)]
    for ga, grads in zip(grad_arenas, per_rank):
        ga.fill_from(grads)
    if health.clip_triggered:
        coef = np.float32(clip_coefficient(health.global_norm, clip_norm))
        for ga in grad_arenas:
            ga.flat *= coef
    optimizer.step_flat([ga.flat for ga in grad_arenas])
    fp16_model_copy(optimizer.arena, fp16)
    return float(np.mean(losses)), health
