"""Ulysses-style sequence parallelism (numeric substrate of §4.7).

Input activations are sharded along the *sequence* dimension.  Around each
attention block, an all-to-all re-shards to the *head* dimension so every
rank sees the full sequence for its subset of heads (attention needs global
sequence context), computes standard attention, and a second all-to-all
restores sequence sharding.  The tests assert the two-exchange pipeline is
exactly equivalent to single-rank attention.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.numeric.attention import MultiHeadAttention
from repro.parallel.comm import SimProcessGroup


def all_to_all_4d(
    shards: List[np.ndarray], group: SimProcessGroup, scatter_heads: bool
) -> List[np.ndarray]:
    """Ulysses' re-sharding collective over ``(b, heads, seq, dim)`` shards.

    Args:
        shards: per-rank arrays.  With ``scatter_heads=True`` each rank
            holds all heads for a sequence shard and receives all sequence
            for a head shard; ``False`` performs the inverse.
        group: the communicator.
        scatter_heads: direction of the exchange.

    Returns:
        Per-rank re-sharded arrays.
    """
    p = group.world_size
    group.telemetry.metrics.counter(
        "ulysses_reshards_total",
        direction="scatter_heads" if scatter_heads else "gather_seq",
    ).inc()
    outboxes: List[List[np.ndarray]] = []
    for shard in shards:
        b, heads, seq, dim = shard.shape
        if scatter_heads:
            if heads % p:
                raise ValueError(f"heads {heads} not divisible by world {p}")
            chunk = heads // p
            outboxes.append(
                [shard[:, r * chunk : (r + 1) * chunk] for r in range(p)]
            )
        else:
            if seq % p:
                raise ValueError(f"seq {seq} not divisible by world {p}")
            chunk = seq // p
            outboxes.append(
                [shard[:, :, r * chunk : (r + 1) * chunk] for r in range(p)]
            )
    inboxes = group.all_to_all(outboxes)
    out: List[np.ndarray] = []
    for inbox in inboxes:
        # Senders are ordered by rank; sender s contributed its sequence
        # (or head) chunk, so concatenation along the complementary axis
        # reassembles the full dimension.
        axis = 2 if scatter_heads else 1
        out.append(np.concatenate(inbox, axis=axis))
    return out


class UlyssesAttention:
    """Sequence-parallel causal attention over simulated ranks.

    Args:
        n_heads: total attention heads (must divide by world size).
        group: the communicator.
        backend: per-rank attention core — ``"dense"`` (bitwise
            reference) or ``"streaming"`` (blocked online-softmax).  The
            exchanges are backend-agnostic: each rank runs the chosen
            core over its full-sequence head shard.
        block_q, block_k: streaming tile sides.
    """

    def __init__(
        self,
        n_heads: int,
        group: SimProcessGroup,
        backend: str = "dense",
        block_q: int | None = None,
        block_k: int | None = None,
    ):
        if n_heads % group.world_size:
            raise ValueError(
                f"heads {n_heads} must divide across {group.world_size} ranks"
            )
        self.attn = MultiHeadAttention(
            n_heads, backend=backend, block_q=block_q, block_k=block_k,
            telemetry=group.telemetry,
        )
        self.group = group

    def forward(
        self, qkv_shards: List[np.ndarray]
    ) -> Tuple[List[np.ndarray], List[Tuple]]:
        """Attention over per-rank ``(b, seq/P, 3h)`` fused qkv shards.

        Returns per-rank ``(b, seq/P, h)`` outputs and backward caches.
        """
        p = self.group.world_size
        if len(qkv_shards) != p:
            raise ValueError("one qkv shard per rank required")
        h = qkv_shards[0].shape[-1] // 3
        q_shards, k_shards, v_shards = [], [], []
        for shard in qkv_shards:
            q_shards.append(self.attn.split_heads(shard[..., :h]))
            k_shards.append(self.attn.split_heads(shard[..., h : 2 * h]))
            v_shards.append(self.attn.split_heads(shard[..., 2 * h :]))
        # First all-to-all: sequence-sharded -> head-sharded (full sequence).
        q_full = all_to_all_4d(q_shards, self.group, scatter_heads=True)
        k_full = all_to_all_4d(k_shards, self.group, scatter_heads=True)
        v_full = all_to_all_4d(v_shards, self.group, scatter_heads=True)
        contexts, caches = [], []
        for r in range(p):
            ctx, cache = self.attn.attend(
                q_full[r], k_full[r], v_full[r], causal=True
            )
            contexts.append(ctx)
            caches.append(cache)
        # Second all-to-all: head-sharded -> sequence-sharded.
        ctx_shards = all_to_all_4d(contexts, self.group, scatter_heads=False)
        outputs = [self.attn.merge_heads(c) for c in ctx_shards]
        return outputs, caches

    def backward(
        self, dout_shards: List[np.ndarray], caches: List[Tuple]
    ) -> List[np.ndarray]:
        """Gradients w.r.t. the per-rank fused qkv shards.

        Mirrors the forward exchanges in reverse (all-to-all is its own
        adjoint up to the re-sharding direction).
        """
        p = self.group.world_size
        dctx_seq = [self.attn.split_heads(d) for d in dout_shards]
        dctx_heads = all_to_all_4d(dctx_seq, self.group, scatter_heads=True)
        dq_full, dk_full, dv_full = [], [], []
        for r in range(p):
            dq, dk, dv = self.attn.attend_backward(dctx_heads[r], caches[r])
            dq_full.append(dq)
            dk_full.append(dk)
            dv_full.append(dv)
        dq_seq = all_to_all_4d(dq_full, self.group, scatter_heads=False)
        dk_seq = all_to_all_4d(dk_full, self.group, scatter_heads=False)
        dv_seq = all_to_all_4d(dv_full, self.group, scatter_heads=False)
        out = []
        for r in range(p):
            out.append(
                np.concatenate(
                    [
                        self.attn.merge_heads(dq_seq[r]),
                        self.attn.merge_heads(dk_seq[r]),
                        self.attn.merge_heads(dv_seq[r]),
                    ],
                    axis=-1,
                )
            )
        return out
