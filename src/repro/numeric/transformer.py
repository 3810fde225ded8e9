"""A small-but-real GPT-style transformer on numpy.

Pre-LayerNorm decoder blocks with causal attention, GELU MLPs, learned
positional embeddings, and an untied LM head.  Forward and backward are
explicit (no autograd); parameters and gradients are flat ``dict[str,
ndarray]`` so the Adam implementations, ZeRO sharding, and the STV engine
operate on them directly.

The model step can run allocation-free: pass an
:class:`~repro.tensors.workspace.ActivationWorkspace` and every
activation, backward temporary, and attention cache is served from
reused shape-keyed buffers (zero workspace allocations after the first
step).  Attention always runs the blocked online-softmax kernel
(:mod:`repro.numeric.flash`), which never materializes the ``S x S``
score matrix.  Parameter *gradients* never
live in the workspace — they outlive the step: they are freshly
allocated, or written straight into caller-owned buffers when
``loss_and_grads(..., grads_out=)`` names them (the data-parallel
trainer passes each rank's gradient-arena views).

Workspace lifetime contract: each ``forward`` recycles the previous
step's buffers, so a workspace-backed model must pair every ``forward``
with its ``backward`` (as :meth:`loss_and_grads` does) before the next
forward begins.

One block spelling: :meth:`TinyTransformer.block_forward` /
:meth:`~TinyTransformer.block_backward` are the whole per-layer math
and :meth:`~TinyTransformer.head_forward` / ``head_backward`` the final
LayerNorm + LM head; ``forward``/``backward`` call them, and so does
the 1F1B pipeline (:mod:`repro.parallel.pipeline`) per stage, which is
what makes it bitwise equal to the unpipelined model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tensors.workspace import ActivationWorkspace

Params = Dict[str, np.ndarray]


def _out(grads_out: Params | None, name: str) -> Optional[np.ndarray]:
    """The caller's destination buffer for gradient ``name``, if any."""
    return None if grads_out is None else grads_out[name]


@dataclass(frozen=True)
class TransformerParams:
    """Structural hyperparameters of the tiny transformer.

    Attributes:
        vocab: vocabulary size.
        max_seq: positional table length.
        hidden: model width.
        n_layers: block count.
        n_heads: attention heads.
        ffn_mult: MLP expansion factor.
    """

    vocab: int = 128
    max_seq: int = 64
    hidden: int = 32
    n_layers: int = 2
    n_heads: int = 4
    ffn_mult: int = 4

    def __post_init__(self) -> None:
        if self.hidden % self.n_heads:
            raise ValueError("hidden must be divisible by n_heads")


class TinyTransformer:
    """The numeric-substrate model.

    Args:
        spec: structural hyperparameters.
        seed: parameter-initialization seed (fully deterministic).
        workspace: optional activation workspace; when given, the whole
            model step reuses its buffers across layers and steps.
        block_q, block_k: streaming attention tile sides.
        telemetry: metric sink for the attention cache-byte counters.
    """

    def __init__(
        self,
        spec: TransformerParams,
        seed: int = 0,
        workspace: Optional[ActivationWorkspace] = None,
        block_q: Optional[int] = None,
        block_k: Optional[int] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.spec = spec
        self.workspace = workspace
        self.telemetry = telemetry
        self.attn = MultiHeadAttention(
            spec.n_heads,
            block_q=block_q,
            block_k=block_k,
            workspace=workspace,
            telemetry=telemetry,
        )
        rng = np.random.default_rng(seed)
        h, f = spec.hidden, spec.hidden * spec.ffn_mult
        scale = 0.02

        def init(*shape: int) -> np.ndarray:
            return (scale * rng.standard_normal(shape)).astype(np.float32)

        params: Params = {
            "tok_emb": init(spec.vocab, h),
            "pos_emb": init(spec.max_seq, h),
            "ln_f.g": np.ones(h, dtype=np.float32),
            "ln_f.b": np.zeros(h, dtype=np.float32),
            "head.w": init(h, spec.vocab),
            "head.b": np.zeros(spec.vocab, dtype=np.float32),
        }
        for i in range(spec.n_layers):
            params[f"h{i}.ln1.g"] = np.ones(h, dtype=np.float32)
            params[f"h{i}.ln1.b"] = np.zeros(h, dtype=np.float32)
            params[f"h{i}.qkv.w"] = init(h, 3 * h)
            params[f"h{i}.qkv.b"] = np.zeros(3 * h, dtype=np.float32)
            params[f"h{i}.proj.w"] = init(h, h)
            params[f"h{i}.proj.b"] = np.zeros(h, dtype=np.float32)
            params[f"h{i}.ln2.g"] = np.ones(h, dtype=np.float32)
            params[f"h{i}.ln2.b"] = np.zeros(h, dtype=np.float32)
            params[f"h{i}.fc1.w"] = init(h, f)
            params[f"h{i}.fc1.b"] = np.zeros(f, dtype=np.float32)
            params[f"h{i}.fc2.w"] = init(f, h)
            params[f"h{i}.fc2.b"] = np.zeros(h, dtype=np.float32)
        self.params = params

    # -- forward --------------------------------------------------------------

    def forward(
        self, ids: np.ndarray, params: Params | None = None
    ) -> Tuple[np.ndarray, List]:
        """Compute logits for ``(batch, seq)`` token ids.

        Args:
            ids: integer token ids.
            params: parameter set to use; defaults to the model's own (the
                mixed-precision engine passes the fp16 copy widened to fp32).

        Returns:
            (logits, caches) — caches feed :meth:`backward`.  With a
            workspace, logits and caches are workspace buffers that stay
            valid until the *next* ``forward`` call.
        """
        p = params if params is not None else self.params
        b, s = ids.shape
        if s > self.spec.max_seq:
            raise ValueError(f"sequence {s} exceeds max_seq {self.spec.max_seq}")
        ws = self.workspace
        if ws is not None:
            ws.new_step()
        caches: List = []
        x, tok_cache = Embedding.forward(ids, p["tok_emb"], ws)
        x += p["pos_emb"][:s][None, :, :]
        caches.append((tok_cache, s))
        for i in range(self.spec.n_layers):
            x, cache = self.block_forward(i, x, p)
            caches.append(cache)
        logits, head_cache = self.head_forward(x, p)
        caches.append(head_cache)
        return logits, caches

    # -- one transformer block, and the head ----------------------------------

    def _residual(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``x + y``; with a workspace, into a recycled buffer that frees
        both operands."""
        ws = self.workspace
        if ws is None:
            return x + y
        res = ws.take(x.shape, x.dtype)
        np.add(x, y, out=res)
        ws.give(x)
        ws.give(y)
        return res

    def block_forward(
        self, i: int, x: np.ndarray, p: Params
    ) -> Tuple[np.ndarray, tuple]:
        """Block ``i`` (pre-LN attention + GELU MLP, both residual) over
        ``(batch, seq, hidden)`` activations; returns (output, cache for
        :meth:`block_backward`)."""
        ws = self.workspace
        ln1, ln1_cache = LayerNorm.forward(
            x, p[f"h{i}.ln1.g"], p[f"h{i}.ln1.b"], ws
        )
        qkv, qkv_cache = Dense.forward(
            ln1, p[f"h{i}.qkv.w"], p[f"h{i}.qkv.b"], ws
        )
        attn_out, attn_cache = self.attn.forward(qkv)
        if ws is not None:
            # The attention cache holds contiguous per-head copies, not
            # views into qkv, so the fused buffer is free already.
            ws.give(qkv)
        proj, proj_cache = Dense.forward(
            attn_out, p[f"h{i}.proj.w"], p[f"h{i}.proj.b"], ws
        )
        x = self._residual(x, proj)
        ln2, ln2_cache = LayerNorm.forward(
            x, p[f"h{i}.ln2.g"], p[f"h{i}.ln2.b"], ws
        )
        fc1, fc1_cache = Dense.forward(
            ln2, p[f"h{i}.fc1.w"], p[f"h{i}.fc1.b"], ws
        )
        act = gelu(fc1, ws)
        fc2, fc2_cache = Dense.forward(
            act, p[f"h{i}.fc2.w"], p[f"h{i}.fc2.b"], ws
        )
        x = self._residual(x, fc2)
        return x, (
            ln1_cache, qkv_cache, attn_cache, proj_cache, ln2_cache,
            fc1_cache, fc1, fc2_cache,
        )

    def block_backward(
        self,
        i: int,
        cache: tuple,
        dx: np.ndarray,
        grads: Params,
        grads_out: Params | None = None,
    ) -> np.ndarray:
        """Backward of :meth:`block_forward`: accumulates into ``dx`` in
        place and returns it, storing block ``i``'s parameter gradients
        in ``grads`` (written into ``grads_out``'s buffers when given)."""
        ws = self.workspace
        (ln1_cache, qkv_cache, attn_cache, proj_cache, ln2_cache,
         fc1_cache, fc1, fc2_cache) = cache

        def out(name: str) -> Optional[np.ndarray]:
            return _out(grads_out, f"h{i}.{name}")

        dfc2, grads[f"h{i}.fc2.w"], grads[f"h{i}.fc2.b"] = Dense.backward(
            dx, fc2_cache, ws, out("fc2.w"), out("fc2.b")
        )
        dact = gelu_grad(fc1, ws)
        dact *= dfc2
        dln2, grads[f"h{i}.fc1.w"], grads[f"h{i}.fc1.b"] = Dense.backward(
            dact, fc1_cache, ws, out("fc1.w"), out("fc1.b")
        )
        dres, grads[f"h{i}.ln2.g"], grads[f"h{i}.ln2.b"] = LayerNorm.backward(
            dln2, ln2_cache, ws, out("ln2.g"), out("ln2.b")
        )
        dx += dres
        dproj, grads[f"h{i}.proj.w"], grads[f"h{i}.proj.b"] = Dense.backward(
            dx, proj_cache, ws, out("proj.w"), out("proj.b")
        )
        dqkv = self.attn.backward(dproj, attn_cache)
        dln1, grads[f"h{i}.qkv.w"], grads[f"h{i}.qkv.b"] = Dense.backward(
            dqkv, qkv_cache, ws, out("qkv.w"), out("qkv.b")
        )
        dres1, grads[f"h{i}.ln1.g"], grads[f"h{i}.ln1.b"] = LayerNorm.backward(
            dln1, ln1_cache, ws, out("ln1.g"), out("ln1.b")
        )
        dx += dres1
        if ws is not None:
            for buf in (dfc2, dact, dln2, dres, dproj, dqkv, dln1, dres1):
                ws.give(buf)
        return dx

    def head_forward(
        self, x: np.ndarray, p: Params
    ) -> Tuple[np.ndarray, tuple]:
        """Final LayerNorm + LM head over the last block's output;
        returns (logits, cache for :meth:`head_backward`)."""
        ws = self.workspace
        lnf, lnf_cache = LayerNorm.forward(x, p["ln_f.g"], p["ln_f.b"], ws)
        if ws is not None:
            ws.give(x)
        logits, dense_cache = Dense.forward(lnf, p["head.w"], p["head.b"], ws)
        return logits, (lnf_cache, dense_cache)

    def head_backward(
        self,
        dlogits: np.ndarray,
        cache: tuple,
        grads: Params,
        grads_out: Params | None = None,
    ) -> np.ndarray:
        """Backward of :meth:`head_forward`; returns the gradient w.r.t.
        the last block's output."""
        ws = self.workspace
        lnf_cache, dense_cache = cache
        dlnf, grads["head.w"], grads["head.b"] = Dense.backward(
            dlogits, dense_cache, ws,
            _out(grads_out, "head.w"), _out(grads_out, "head.b"),
        )
        dx, grads["ln_f.g"], grads["ln_f.b"] = LayerNorm.backward(
            dlnf, lnf_cache, ws,
            _out(grads_out, "ln_f.g"), _out(grads_out, "ln_f.b"),
        )
        if ws is not None:
            ws.give(dlogits)
            ws.give(dlnf)
        return dx

    # -- loss + backward --------------------------------------------------------

    def loss_and_grads(
        self,
        ids: np.ndarray,
        targets: np.ndarray,
        params: Params | None = None,
        loss_scale: float = 1.0,
        grads_out: Params | None = None,
    ) -> Tuple[float, Params]:
        """Full forward + backward.

        Args:
            ids: input token ids ``(batch, seq)``.
            targets: next-token targets, same shape.
            params: parameter set (defaults to the master copy).
            loss_scale: multiplier applied to the loss before backward —
                the mixed-precision loss-scaling hook.
            grads_out: optional destination buffers keyed like the
                parameters (see :meth:`backward`).

        Returns:
            (unscaled loss, gradients keyed like the parameters; gradients
            are of the *scaled* loss).
        """
        tracer = self.telemetry.tracer
        with tracer.span("forward", category="compute"):
            logits, caches = self.forward(ids, params)
            loss, dlogits = cross_entropy(logits, targets, self.workspace)
        if loss_scale != 1.0:
            dlogits *= np.float32(loss_scale)
        with tracer.span("backward", category="compute"):
            grads = self.backward(dlogits, caches, grads_out)
        return loss, grads

    def backward(
        self,
        dlogits: np.ndarray,
        caches: List,
        grads_out: Params | None = None,
    ) -> Params:
        """Backpropagate from logits gradient to parameter gradients.

        Parameter gradients are freshly allocated (they outlive the
        step) unless ``grads_out`` supplies a C-contiguous fp32 buffer
        per parameter — e.g. a gradient arena's views.  Then every
        element of every buffer is overwritten by the same BLAS calls
        and reductions (bitwise equal to the fresh-allocation path) and
        ``grads_out`` itself is returned.  The activation-gradient chain
        runs through the workspace when one is attached, ping-ponging a
        handful of buffers across layers.
        """
        ws = self.workspace
        grads: Params = {}
        dx = self.head_backward(dlogits, caches[-1], grads, grads_out)
        for i in reversed(range(self.spec.n_layers)):
            dx = self.block_backward(i, caches[1 + i], dx, grads, grads_out)
        tok_cache, s = caches[0]
        if grads_out is None:
            grads["pos_emb"] = np.zeros_like(self.params["pos_emb"])
            grads["pos_emb"][:s] = dx.sum(axis=0)
        else:
            grads["pos_emb"] = grads_out["pos_emb"]
            dx.sum(axis=0, out=grads["pos_emb"][:s])
            grads["pos_emb"][s:] = 0
        grads["tok_emb"] = Embedding.backward(
            dx, tok_cache, _out(grads_out, "tok_emb")
        )
        if ws is not None:
            ws.give(dx)
        if grads_out is not None:
            return grads_out
        for name, g in grads.items():
            grads[name] = np.ascontiguousarray(g, dtype=np.float32)
        return grads

    def loss(self, ids: np.ndarray, targets: np.ndarray, params: Params | None = None) -> float:
        """Forward-only loss (used by finite-difference tests)."""
        logits, _ = self.forward(ids, params)
        value, _ = cross_entropy(logits, targets, self.workspace)
        return value

    def param_count(self) -> int:
        """Total scalar parameters."""
        return sum(p.size for p in self.params.values())
