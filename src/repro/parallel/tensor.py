"""Megatron-style tensor parallelism over :class:`SimProcessGroup`.

The two primitives (Megatron-LM §3) and their compositions:

* :class:`ColumnParallelLinear` — the weight shards along the *output*
  dimension; every rank sees the full input and produces a column slice
  of the output.  The forward optionally all-gathers the slices back to
  the full activation; the backward's input gradient is a partial sum
  all-reduced across ranks.
* :class:`RowParallelLinear` — the weight shards along the *input*
  dimension; every rank sees an input slice (usually the ungathered
  output of a preceding column-parallel layer) and produces a *partial*
  full-width output, summed by an all-reduce.
* :class:`TensorParallelMLP` — column-parallel fc1, per-shard GELU,
  row-parallel fc2: one all-reduce per pass, the canonical Megatron MLP.
* :class:`TensorParallelAttention` — heads partition across the TP
  group (the qkv projection is column-parallel *by head*, the output
  projection row-parallel).  Each rank's head subset can additionally be
  sequence-parallel via :class:`~repro.parallel.ulysses.UlyssesAttention`
  over an orthogonal SP group — the TPxSP composition.
* :class:`TensorParallelTransformer` — a full
  :class:`~repro.numeric.transformer.TinyTransformer` step with every
  block TP-sharded (LayerNorms and embeddings replicated, the LM head
  column-parallel over the vocabulary), returning full-model gradients
  keyed exactly like the unsharded model.

Numerics contract (tested by ``tests/parallel/test_tensor.py``): the
sharded paths are *tolerance*-identical to the unsharded reference, not
bitwise.  Two genuine reduction-order differences are documented here:
the row-parallel (and column-backward) partial sums run rank-by-rank
where the unsharded GEMM accumulates over the full K dimension in one
sweep, and BLAS itself selects different kernel blocking for the sharded
operand shapes (an ``x @ W[:, :n/2]`` is *not* guaranteed bit-equal to
the corresponding slice of ``x @ W`` — observed on OpenBLAS at specific
shapes).  What *is* exact: sharding and gathering are pure slicing and
concatenation, elementwise ops (GELU, residuals, LayerNorm affine)
commute with column slicing bit-for-bit, and every TP run is
deterministic for a fixed plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.numeric.attention import MultiHeadAttention
from repro.numeric.layers import (
    Dense,
    Embedding,
    LayerNorm,
    cross_entropy,
    gelu,
    gelu_grad,
)
from repro.numeric.transformer import TinyTransformer
from repro.parallel.comm import SimProcessGroup
from repro.parallel.ulysses import UlyssesAttention
from repro.tune import registry as tune_registry
from repro.tune import runtime as tune_runtime

Params = Dict[str, np.ndarray]

#: Output elements below which a gathered column-parallel forward uses the
#: broadcast-assemble path (latency-bound regime) instead of the
#: transpose-based all-gather (bandwidth regime).  Both paths produce
#: bitwise-identical arrays — the tunable moves modeled traffic, not math.
GATHER_CROSSOVER = tune_registry.default("tp.gather_crossover")


def shard_extent(total: int, world: int, what: str) -> int:
    """Per-rank extent of an evenly sharded dimension, or a clear error."""
    if world < 1:
        raise ValueError(f"world size must be >= 1, got {world}")
    if total % world:
        raise ValueError(
            f"{what} ({total}) not divisible by tensor-parallel world "
            f"size {world}"
        )
    return total // world


def gather_last_dim(
    shards: Sequence[np.ndarray],
    group: SimProcessGroup,
    crossover: Optional[int] = None,
) -> List[np.ndarray]:
    """All-gather per-rank slices of the trailing dimension.

    Every rank receives the concatenation (rank order) along the last
    axis.  Small payloads (< ``tp.gather_crossover`` elements) assemble
    once and broadcast; large payloads move the trailing axis to the
    front so the flat rank-ordered :meth:`SimProcessGroup.all_gather`
    concatenates the right dimension.  Both routes are exact
    (concatenation only), so the crossover is purely a traffic-shape
    choice the tuner can search under the bitwise gate.
    """
    if len(shards) != group.world_size:
        raise ValueError(
            f"expected {group.world_size} shards, got {len(shards)}"
        )
    if group.world_size == 1:
        return [np.asarray(shards[0])]
    if crossover is None:
        crossover = tune_runtime.value(
            "tp.gather_crossover", GATHER_CROSSOVER
        )
    full_elems = sum(np.asarray(s).size for s in shards)
    if full_elems < crossover:
        full = np.concatenate([np.asarray(s) for s in shards], axis=-1)
        return group.broadcast(full)
    first = np.asarray(shards[0])
    lead = first.shape[:-1]
    # Move the sharded axis to the front: the flat all-gather then
    # concatenates exactly along it, and one transpose restores layout.
    moved = [np.ascontiguousarray(np.moveaxis(s, -1, 0)) for s in shards]
    gathered = group.all_gather(moved)
    total_last = sum(s.shape[-1] for s in shards)
    out: List[np.ndarray] = []
    for g in gathered:
        stacked = g.reshape((total_last,) + lead)
        out.append(np.ascontiguousarray(np.moveaxis(stacked, 0, -1)))
    return out


class ColumnParallelLinear:
    """``y = x @ w + b`` with ``w``/``b`` sharded along the output axis.

    Args:
        w: full weight ``(in, out)``.
        b: full bias ``(out,)``.
        group: the tensor-parallel communicator.
        gather_output: all-gather the column slices into the full output
            (``True``) or hand each rank its slice (``False`` — the
            Megatron MLP/attention interior, where the next op is
            shard-local).
    """

    def __init__(
        self,
        w: np.ndarray,
        b: np.ndarray,
        group: SimProcessGroup,
        gather_output: bool = True,
    ):
        out = w.shape[-1]
        per = shard_extent(out, group.world_size, "output features")
        self.group = group
        self.gather_output = gather_output
        self.out_features = out
        self.per_rank = per
        self.w_shards = [
            np.ascontiguousarray(w[:, r * per : (r + 1) * per])
            for r in range(group.world_size)
        ]
        self.b_shards = [
            np.ascontiguousarray(b[r * per : (r + 1) * per])
            for r in range(group.world_size)
        ]

    def forward(
        self, x_per_rank: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], List[Tuple]]:
        """Per-rank forward over replicated inputs.

        Returns per-rank outputs (full-width if ``gather_output``, column
        slices otherwise) and the per-rank backward caches.
        """
        outs, caches = [], []
        for r in range(self.group.world_size):
            y, cache = Dense.forward(
                x_per_rank[r], self.w_shards[r], self.b_shards[r]
            )
            outs.append(y)
            caches.append(cache)
        if self.gather_output:
            outs = gather_last_dim(outs, self.group)
        return outs, caches

    def backward(
        self, dy_per_rank: Sequence[np.ndarray], caches: Sequence[Tuple]
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
        """Per-rank backward.

        ``dy_per_rank`` carries the full output gradient when the forward
        gathered (each rank slices out its columns), or per-rank slices
        otherwise.  The returned input gradients are the all-reduced
        partial sums (full width, replicated); weight/bias gradients stay
        sharded.
        """
        per = self.per_rank
        dxs, dws, dbs = [], [], []
        for r in range(self.group.world_size):
            dy = dy_per_rank[r]
            if self.gather_output:
                dy = dy[..., r * per : (r + 1) * per]
            dx, dw, db = Dense.backward(dy, caches[r])
            dxs.append(dx)
            dws.append(dw)
            dbs.append(db)
        # dx = Σ_r dy_r @ w_r^T — a genuine cross-rank reduction; order
        # is fixed (rank 0 first) but differs from the unsharded single
        # GEMM, hence the documented tolerance.
        dxs = self.group.all_reduce(dxs)
        return dxs, dws, dbs

    def full_weight_grad(self, dws: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank weight-gradient shards (exact)."""
        return np.concatenate(list(dws), axis=-1)

    def full_bias_grad(self, dbs: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate(list(dbs), axis=-1)


class RowParallelLinear:
    """``y = x @ w + b`` with ``w`` sharded along the *input* axis.

    Each rank holds an input slice and produces a partial full-width
    output; the forward all-reduces the partials and adds the
    (replicated) bias after the reduction — one collective per pass.

    Args:
        w: full weight ``(in, out)``.
        b: full bias ``(out,)`` (replicated, applied post-reduce).
        group: the tensor-parallel communicator.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray, group: SimProcessGroup):
        n_in = w.shape[0]
        per = shard_extent(n_in, group.world_size, "input features")
        self.group = group
        self.per_rank = per
        self.in_features = n_in
        self.b = np.ascontiguousarray(b)
        self.w_shards = [
            np.ascontiguousarray(w[r * per : (r + 1) * per, :])
            for r in range(group.world_size)
        ]

    def forward(
        self, x_per_rank: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], List[Tuple]]:
        """Per-rank forward over input slices; outputs are replicated.

        The partial-sum all-reduce is the Megatron ``g`` operator — the
        one place the TP forward reorders a reduction relative to the
        unsharded GEMM (documented tolerance).
        """
        partials, caches = [], []
        for r in range(self.group.world_size):
            x = x_per_rank[r]
            partials.append(x @ self.w_shards[r])
            caches.append((x, self.w_shards[r]))
        reduced = self.group.all_reduce(partials)
        outs = [y + self.b for y in reduced]
        return outs, caches

    def backward(
        self, dy_per_rank: Sequence[np.ndarray], caches: Sequence[Tuple]
    ) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
        """Per-rank backward; no collective needed.

        ``dy`` is replicated (the forward all-reduced); each rank's input
        gradient is its own slice ``dy @ w_r^T`` and its weight gradient
        is ``x_r^T @ dy``.  The bias gradient is identical on every rank;
        one copy is returned.
        """
        dxs, dws = [], []
        db: Optional[np.ndarray] = None
        for r in range(self.group.world_size):
            x, w = caches[r]
            dy = dy_per_rank[r]
            dxs.append(dy @ w.T)
            flat_x = x.reshape(-1, x.shape[-1])
            flat_dy = dy.reshape(-1, dy.shape[-1])
            dws.append(flat_x.T @ flat_dy)
            if db is None:
                db = flat_dy.sum(axis=0)
        assert db is not None
        return dxs, dws, db

    def full_weight_grad(self, dws: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank weight-gradient shards (exact)."""
        return np.concatenate(list(dws), axis=0)


class TensorParallelMLP:
    """The Megatron MLP: column fc1 -> shard-local GELU -> row fc2.

    Args:
        w1, b1: full fc1 parameters ``(h, f)`` / ``(f,)``.
        w2, b2: full fc2 parameters ``(f, h)`` / ``(h,)``.
        group: the tensor-parallel communicator.
    """

    def __init__(
        self,
        w1: np.ndarray,
        b1: np.ndarray,
        w2: np.ndarray,
        b2: np.ndarray,
        group: SimProcessGroup,
    ):
        self.group = group
        self.fc1 = ColumnParallelLinear(w1, b1, group, gather_output=False)
        self.fc2 = RowParallelLinear(w2, b2, group)

    def forward(
        self, x_per_rank: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], List[Tuple]]:
        """Replicated inputs in, replicated (reduced) outputs out."""
        h1, c1 = self.fc1.forward(x_per_rank)
        # GELU is elementwise: applying it to a column shard equals the
        # matching slice of the full activation bit-for-bit.
        act = [gelu(h) for h in h1]
        y, c2 = self.fc2.forward(act)
        return y, [(c1[r], h1[r], c2[r]) for r in range(len(c1))]

    def backward(
        self, dy_per_rank: Sequence[np.ndarray], caches: Sequence[Tuple]
    ) -> Tuple[List[np.ndarray], Dict[str, List[np.ndarray]], np.ndarray]:
        """Returns (dx replicated, sharded weight grads, fc2 bias grad).

        The sharded grads dict carries lists keyed ``"w1"``, ``"b1"``,
        ``"w2"``; assemble with :meth:`full_grads`.
        """
        c1s = [c[0] for c in caches]
        h1s = [c[1] for c in caches]
        c2s = [c[2] for c in caches]
        dact, dw2s, db2 = self.fc2.backward(dy_per_rank, c2s)
        dh1 = []
        for r in range(len(dact)):
            g = gelu_grad(h1s[r])
            g *= dact[r]
            dh1.append(g)
        dx, dw1s, db1s = self.fc1.backward(dh1, c1s)
        return dx, {"w1": dw1s, "b1": db1s, "w2": dw2s}, db2

    def full_grads(
        self, sharded: Dict[str, List[np.ndarray]], db2: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(dw1, db1, dw2, db2) assembled to full shapes (exact concat)."""
        return (
            self.fc1.full_weight_grad(sharded["w1"]),
            self.fc1.full_bias_grad(sharded["b1"]),
            self.fc2.full_weight_grad(sharded["w2"]),
            db2,
        )


def _shard_qkv_columns(
    w: np.ndarray, b: np.ndarray, hidden: int, n_heads: int, tp: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Head-partition the fused qkv projection for ``tp`` ranks.

    The fused weight is ``(h, 3h)`` with columns ordered ``[q | k | v]``;
    a rank's shard takes its head block from each of the three, so the
    per-rank output stays a valid fused ``(b, s, 3h/tp)`` qkv for the
    rank's head subset.
    """
    heads_per = shard_extent(n_heads, tp, "attention heads")
    head_dim = hidden // n_heads
    block = heads_per * head_dim
    w_shards, b_shards = [], []
    for r in range(tp):
        cols: List[np.ndarray] = []
        bcols: List[np.ndarray] = []
        for part in range(3):  # q, k, v
            lo = part * hidden + r * block
            cols.append(w[:, lo : lo + block])
            bcols.append(b[lo : lo + block])
        w_shards.append(np.ascontiguousarray(np.concatenate(cols, axis=-1)))
        b_shards.append(np.ascontiguousarray(np.concatenate(bcols)))
    return w_shards, b_shards


def _unshard_qkv_grads(
    dws: Sequence[np.ndarray],
    dbs: Sequence[np.ndarray],
    hidden: int,
    n_heads: int,
    tp: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter per-rank fused-qkv grads back into full ``(h, 3h)`` layout."""
    heads_per = n_heads // tp
    head_dim = hidden // n_heads
    block = heads_per * head_dim
    dw = np.zeros((dws[0].shape[0], 3 * hidden), dtype=dws[0].dtype)
    db = np.zeros(3 * hidden, dtype=dbs[0].dtype)
    for r in range(tp):
        for part in range(3):
            src = slice(part * block, (part + 1) * block)
            dst = slice(part * hidden + r * block,
                        part * hidden + (r + 1) * block)
            dw[:, dst] = dws[r][:, src]
            db[dst] = dbs[r][src]
    return dw, db


class TensorParallelAttention:
    """Causal attention with heads partitioned across the TP group.

    The qkv projection is column-parallel by head block, attention runs
    shard-locally over each rank's head subset, and the output projection
    is row-parallel (one all-reduce).  With an orthogonal SP group, each
    TP rank's head subset runs sequence-parallel
    :class:`~repro.parallel.ulysses.UlyssesAttention` instead — the
    TPxSP composition: heads divide by ``tp`` first, then by ``sp``.

    Args:
        hidden: model width.
        n_heads: total heads (must divide by ``tp``; the per-TP-rank
            count must divide by ``sp``).
        qkv_w, qkv_b: full fused projection ``(h, 3h)`` / ``(3h,)``.
        proj_w, proj_b: full output projection ``(h, h)`` / ``(h,)``.
        tp_group: the tensor-parallel communicator.
        sp_group: optional sequence-parallel communicator (Ulysses).
    """

    def __init__(
        self,
        hidden: int,
        n_heads: int,
        qkv_w: np.ndarray,
        qkv_b: np.ndarray,
        proj_w: np.ndarray,
        proj_b: np.ndarray,
        tp_group: SimProcessGroup,
        sp_group: Optional[SimProcessGroup] = None,
    ):
        if hidden % n_heads:
            raise ValueError(
                f"hidden ({hidden}) not divisible by n_heads ({n_heads})"
            )
        tp = tp_group.world_size
        self.heads_per_rank = shard_extent(n_heads, tp, "attention heads")
        self.hidden = hidden
        self.n_heads = n_heads
        self.tp_group = tp_group
        self.sp_group = sp_group
        self.qkv_w_shards, self.qkv_b_shards = _shard_qkv_columns(
            qkv_w, qkv_b, hidden, n_heads, tp
        )
        self.proj = RowParallelLinear(proj_w, proj_b, tp_group)
        if sp_group is not None and sp_group.world_size > 1:
            # Ulysses validates heads_per_rank % sp with its own error.
            self.attn: object = UlyssesAttention(self.heads_per_rank, sp_group)
        else:
            self.attn = MultiHeadAttention(
                self.heads_per_rank, telemetry=tp_group.telemetry
            )

    def forward(
        self, x_per_rank: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], List[Tuple]]:
        """Replicated ``(b, s, h)`` inputs -> replicated outputs.

        With an SP group, ``x_per_rank[r]`` is instead a *list* of
        per-SP-rank sequence shards ``(b, s/sp, h)``, and the outputs
        mirror that nesting.
        """
        tp = self.tp_group.world_size
        qkvs, qkv_caches = [], []
        for r in range(tp):
            x = x_per_rank[r]
            if self.sp_group is not None and isinstance(x, (list, tuple)):
                pair = [
                    Dense.forward(xs, self.qkv_w_shards[r],
                                  self.qkv_b_shards[r])
                    for xs in x
                ]
                qkvs.append([p[0] for p in pair])
                qkv_caches.append([p[1] for p in pair])
            else:
                qkv, cache = Dense.forward(
                    x, self.qkv_w_shards[r], self.qkv_b_shards[r]
                )
                qkvs.append(qkv)
                qkv_caches.append(cache)
        ctxs, attn_caches = [], []
        for r in range(tp):
            if isinstance(self.attn, UlyssesAttention):
                outs, caches = self.attn.forward(list(qkvs[r]))
                ctxs.append(outs)
                attn_caches.append(caches)
            else:
                ctx, cache = self.attn.forward(qkvs[r])
                ctxs.append(ctx)
                attn_caches.append(cache)
        if isinstance(self.attn, UlyssesAttention):
            # Row-parallel projection per sequence shard: for each SP
            # index, reduce the TP partials across the TP group.
            sp = self.sp_group.world_size  # type: ignore[union-attr]
            outs_nested: List[List[np.ndarray]] = [[] for _ in range(tp)]
            proj_caches: List[List[Tuple]] = [[] for _ in range(tp)]
            for s in range(sp):
                col = [ctxs[r][s] for r in range(tp)]
                y, caches = self.proj.forward(col)
                for r in range(tp):
                    outs_nested[r].append(y[r])
                    proj_caches[r].append(caches[r])
            return outs_nested, [
                (qkv_caches[r], attn_caches[r], proj_caches[r])
                for r in range(tp)
            ]
        y, proj_caches_flat = self.proj.forward(ctxs)
        return y, [
            (qkv_caches[r], attn_caches[r], proj_caches_flat[r])
            for r in range(tp)
        ]

    def backward(
        self, dy_per_rank: Sequence, caches: Sequence[Tuple]
    ) -> Tuple[List, Dict[str, List[np.ndarray]], np.ndarray]:
        """Returns (dx, sharded grads {qkv_w, qkv_b, proj_w}, proj_b grad).

        ``dx`` is replicated full-width (all-reduced), or SP-nested when
        sequence parallel.
        """
        tp = self.tp_group.world_size
        qkv_caches = [c[0] for c in caches]
        attn_caches = [c[1] for c in caches]
        proj_caches = [c[2] for c in caches]
        if isinstance(self.attn, UlyssesAttention):
            sp = self.sp_group.world_size  # type: ignore[union-attr]
            dctx_nested: List[List[np.ndarray]] = [[] for _ in range(tp)]
            dw_proj = [None] * tp
            db_proj: Optional[np.ndarray] = None
            for s in range(sp):
                col_dy = [dy_per_rank[r][s] for r in range(tp)]
                col_cache = [proj_caches[r][s] for r in range(tp)]
                dctx, dws, db = self.proj.backward(col_dy, col_cache)
                for r in range(tp):
                    dctx_nested[r].append(dctx[r])
                    dw_proj[r] = (
                        dws[r] if dw_proj[r] is None else dw_proj[r] + dws[r]
                    )
                db_proj = db if db_proj is None else db_proj + db
            dxs: List = []
            dqkv_w, dqkv_b = [], []
            for r in range(tp):
                dqkv_shards = self.attn.backward(
                    dctx_nested[r], attn_caches[r]
                )
                dx_shards, dw_acc, db_acc = [], None, None
                for s in range(sp):
                    dx_s, dw_s, db_s = Dense.backward(
                        dqkv_shards[s], qkv_caches[r][s]
                    )
                    dx_shards.append(dx_s)
                    dw_acc = dw_s if dw_acc is None else dw_acc + dw_s
                    db_acc = db_s if db_acc is None else db_acc + db_s
                dxs.append(dx_shards)
                dqkv_w.append(dw_acc)
                dqkv_b.append(db_acc)
            # all-reduce the TP-partial dx per sequence shard
            reduced: List[List[np.ndarray]] = [[] for _ in range(tp)]
            for s in range(sp):
                col = self.tp_group.all_reduce(
                    [dxs[r][s] for r in range(tp)]
                )
                for r in range(tp):
                    reduced[r].append(col[r])
            assert db_proj is not None
            return reduced, {
                "qkv_w": dqkv_w, "qkv_b": dqkv_b, "proj_w": list(dw_proj),
            }, db_proj
        dctx, dw_proj_flat, db_proj2 = self.proj.backward(
            list(dy_per_rank), proj_caches
        )
        dxs2, dqkv_w2, dqkv_b2 = [], [], []
        for r in range(tp):
            dqkv = self.attn.backward(dctx[r], attn_caches[r])
            dx, dw, db = Dense.backward(dqkv, qkv_caches[r])
            dxs2.append(dx)
            dqkv_w2.append(dw)
            dqkv_b2.append(db)
        dxs2 = self.tp_group.all_reduce(dxs2)
        return dxs2, {
            "qkv_w": dqkv_w2, "qkv_b": dqkv_b2, "proj_w": dw_proj_flat,
        }, db_proj2

    def full_grads(
        self, sharded: Dict[str, List[np.ndarray]], db_proj: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(dqkv_w, dqkv_b, dproj_w, dproj_b) at full shapes."""
        dw, db = _unshard_qkv_grads(
            sharded["qkv_w"], sharded["qkv_b"],
            self.hidden, self.n_heads, self.tp_group.world_size,
        )
        return dw, db, self.proj.full_weight_grad(sharded["proj_w"]), db_proj


class TensorParallelTransformer:
    """A full TP-sharded :class:`TinyTransformer` step.

    Embeddings, LayerNorms, and residual streams are replicated (their
    grads are computed once); every block's attention and MLP shard
    across the TP group; the LM head is column-parallel over the
    vocabulary with a gathered output feeding the (replicated)
    cross-entropy.  ``loss_and_grads`` returns gradients keyed exactly
    like ``TinyTransformer.loss_and_grads`` so optimizers, ZeRO, and the
    trainers consume them unchanged.

    Args:
        model: the unsharded reference whose parameters are sharded.
        group: the tensor-parallel communicator.
        sp_group: optional Ulysses sequence-parallel group (heads divide
            by ``tp`` then ``sp``; inputs stay full — the model
            re-shards internally around attention only).
    """

    def __init__(
        self,
        model: TinyTransformer,
        group: SimProcessGroup,
        sp_group: Optional[SimProcessGroup] = None,
    ):
        spec = model.spec
        shard_extent(spec.hidden, group.world_size, "hidden width")
        shard_extent(
            spec.hidden * spec.ffn_mult, group.world_size, "ffn width"
        )
        self.model = model
        self.spec = spec
        self.group = group
        self.sp_group = sp_group
        p = model.params
        self.blocks: List[Tuple[TensorParallelAttention, TensorParallelMLP]] = []
        for i in range(spec.n_layers):
            attn = TensorParallelAttention(
                spec.hidden, spec.n_heads,
                p[f"h{i}.qkv.w"], p[f"h{i}.qkv.b"],
                p[f"h{i}.proj.w"], p[f"h{i}.proj.b"],
                group, sp_group=sp_group,
            )
            mlp = TensorParallelMLP(
                p[f"h{i}.fc1.w"], p[f"h{i}.fc1.b"],
                p[f"h{i}.fc2.w"], p[f"h{i}.fc2.b"],
                group,
            )
            self.blocks.append((attn, mlp))
        self.head = ColumnParallelLinear(
            p["head.w"], p["head.b"], group, gather_output=True
        )

    def _sp_split(self, x: np.ndarray) -> List[np.ndarray]:
        sp = self.sp_group.world_size  # type: ignore[union-attr]
        s = x.shape[1]
        chunk = shard_extent(s, sp, "sequence length")
        return [x[:, i * chunk : (i + 1) * chunk] for i in range(sp)]

    def loss_and_grads(
        self,
        ids: np.ndarray,
        targets: np.ndarray,
        loss_scale: float = 1.0,
    ) -> Tuple[float, Params]:
        """TP forward+backward mirroring ``TinyTransformer``'s op order."""
        p = self.model.params
        spec = self.spec
        tp = self.group.world_size
        b, s = ids.shape
        if s > spec.max_seq:
            raise ValueError(f"sequence {s} exceeds max_seq {spec.max_seq}")
        use_sp = self.sp_group is not None and self.sp_group.world_size > 1
        grads: Params = {}
        # -- forward (replicated stream; math done once, fanned out) ----
        x, tok_cache = Embedding.forward(ids, p["tok_emb"])
        x = x + p["pos_emb"][:s][None, :, :]
        block_caches = []
        for i, (attn, mlp) in enumerate(self.blocks):
            ln1, ln1_cache = LayerNorm.forward(
                x, p[f"h{i}.ln1.g"], p[f"h{i}.ln1.b"]
            )
            if use_sp:
                shards = self._sp_split(ln1)
                attn_in = [list(shards) for _ in range(tp)]
            else:
                attn_in = [ln1 for _ in range(tp)]
            attn_out, attn_cache = attn.forward(attn_in)
            if use_sp:
                proj = np.concatenate(attn_out[0], axis=1)
            else:
                proj = attn_out[0]
            x = x + proj
            ln2, ln2_cache = LayerNorm.forward(
                x, p[f"h{i}.ln2.g"], p[f"h{i}.ln2.b"]
            )
            mlp_out, mlp_cache = mlp.forward([ln2 for _ in range(tp)])
            x = x + mlp_out[0]
            block_caches.append((ln1_cache, attn_cache, ln2_cache, mlp_cache))
        lnf, lnf_cache = LayerNorm.forward(x, p["ln_f.g"], p["ln_f.b"])
        logits, head_caches = self.head.forward([lnf for _ in range(tp)])
        loss, dlogits = cross_entropy(logits[0], targets)
        if loss_scale != 1.0:
            dlogits *= np.float32(loss_scale)
        # -- backward ---------------------------------------------------
        dlnf_r, dw_head, db_head = self.head.backward(
            [dlogits for _ in range(tp)], head_caches
        )
        grads["head.w"] = self.head.full_weight_grad(dw_head)
        grads["head.b"] = self.head.full_bias_grad(db_head)
        dx, grads["ln_f.g"], grads["ln_f.b"] = LayerNorm.backward(
            dlnf_r[0], lnf_cache
        )
        for i in reversed(range(spec.n_layers)):
            attn, mlp = self.blocks[i]
            ln1_cache, attn_cache, ln2_cache, mlp_cache = block_caches[i]
            dmlp, mlp_sharded, db2 = mlp.backward(
                [dx for _ in range(tp)], mlp_cache
            )
            (grads[f"h{i}.fc1.w"], grads[f"h{i}.fc1.b"],
             grads[f"h{i}.fc2.w"], grads[f"h{i}.fc2.b"]) = mlp.full_grads(
                mlp_sharded, db2
            )
            dln2, grads[f"h{i}.ln2.g"], grads[f"h{i}.ln2.b"] = (
                LayerNorm.backward(dmlp[0], ln2_cache)
            )
            dx = dx + dln2
            if use_sp:
                d_shards = self._sp_split(dx)
                dy_in: Sequence = [list(d_shards) for _ in range(tp)]
            else:
                dy_in = [dx for _ in range(tp)]
            dattn, attn_sharded, db_proj = attn.backward(dy_in, attn_cache)
            (grads[f"h{i}.qkv.w"], grads[f"h{i}.qkv.b"],
             grads[f"h{i}.proj.w"], grads[f"h{i}.proj.b"]) = attn.full_grads(
                attn_sharded, db_proj
            )
            if use_sp:
                dattn_full = np.concatenate(dattn[0], axis=1)
            else:
                dattn_full = dattn[0]
            dln1, grads[f"h{i}.ln1.g"], grads[f"h{i}.ln1.b"] = (
                LayerNorm.backward(dattn_full, ln1_cache)
            )
            dx = dx + dln1
        grads["pos_emb"] = np.zeros_like(p["pos_emb"])
        grads["pos_emb"][:s] = dx.sum(axis=0)
        grads["tok_emb"] = Embedding.backward(dx, tok_cache)
        for name, g in grads.items():
            grads[name] = np.ascontiguousarray(g, dtype=np.float32)
        return loss, grads
