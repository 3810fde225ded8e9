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
step), and ``attn_backend="streaming"`` routes attention through the
blocked online-softmax kernel (:mod:`repro.numeric.flash`) that never
materializes the ``S x S`` score matrix.  Parameter *gradients* never
live in the workspace — they outlive the step: they are freshly
allocated, or written straight into caller-owned buffers when
``loss_and_grads(..., grads_out=)`` names them (the data-parallel
trainer passes each rank's gradient-arena views).

Workspace lifetime contract: each ``forward`` recycles the previous
step's buffers, so a workspace-backed model must pair every ``forward``
with its ``backward`` (as :meth:`loss_and_grads` does) before the next
forward begins.
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
        attn_backend: ``"dense"`` (bitwise reference) or ``"streaming"``
            (blocked, never materializes ``S x S``).
        block_q, block_k: streaming attention tile sides.
        telemetry: metric sink for the attention cache-byte counters.
    """

    def __init__(
        self,
        spec: TransformerParams,
        seed: int = 0,
        workspace: Optional[ActivationWorkspace] = None,
        attn_backend: str = "dense",
        block_q: Optional[int] = None,
        block_k: Optional[int] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.spec = spec
        self.workspace = workspace
        self.telemetry = telemetry
        self.attn = MultiHeadAttention(
            spec.n_heads,
            backend=attn_backend,
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
        caches.append(("embed", tok_cache, s))
        streaming_ws = ws is not None and self.attn.backend == "streaming"
        for i in range(self.spec.n_layers):
            ln1, ln1_cache = LayerNorm.forward(
                x, p[f"h{i}.ln1.g"], p[f"h{i}.ln1.b"], ws
            )
            qkv, qkv_cache = Dense.forward(
                ln1, p[f"h{i}.qkv.w"], p[f"h{i}.qkv.b"], ws
            )
            attn_out, attn_cache = self.attn.forward(qkv)
            if streaming_ws:
                # The streaming cache holds contiguous per-head copies,
                # not views into qkv, so the fused projection buffer can
                # be recycled immediately (the dense cache aliases it).
                ws.give(qkv)
            proj, proj_cache = Dense.forward(
                attn_out, p[f"h{i}.proj.w"], p[f"h{i}.proj.b"], ws
            )
            if ws is None:
                x = x + proj
            else:
                res = ws.take(x.shape, x.dtype)
                np.add(x, proj, out=res)
                ws.give(x)
                ws.give(proj)
                x = res
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
            if ws is None:
                x = x + fc2
            else:
                res = ws.take(x.shape, x.dtype)
                np.add(x, fc2, out=res)
                ws.give(x)
                ws.give(fc2)
                x = res
            caches.append(
                (
                    "block",
                    i,
                    ln1_cache,
                    qkv_cache,
                    attn_cache,
                    proj_cache,
                    ln2_cache,
                    fc1_cache,
                    fc1,
                    fc2_cache,
                )
            )
        lnf, lnf_cache = LayerNorm.forward(x, p["ln_f.g"], p["ln_f.b"], ws)
        if ws is not None:
            ws.give(x)
        logits, head_cache = Dense.forward(lnf, p["head.w"], p["head.b"], ws)
        caches.append(("final", lnf_cache, head_cache))
        return logits, caches

    # -- incremental decode ---------------------------------------------------

    def decode_step(
        self,
        ids: np.ndarray,
        kv,
        session: int,
        params: Params | None = None,
        linear=None,
        embed=None,
    ) -> np.ndarray:
        """Incremental forward of new tokens for one session.

        The per-session reference decode path: K/V for the new tokens
        is appended to a :class:`~repro.tensors.kvcache.PagedKVCache`
        and attention runs against the paged history via online softmax,
        so a prompt prefill (``len(ids) > 1``) and a single-token decode
        are the same code path.  A full-sequence :meth:`forward` over
        the concatenated history produces the same last-token logits up
        to fp32 summation order (the serving tests hold this line).

        Args:
            ids: 1-D new token ids (whole prompt for prefill, one token
                per decode step).
            kv: the paged cache holding this session's history.
            session: session id within ``kv``.
            params: parameter set (defaults to the model's own).
            linear: optional override ``linear(name, x) -> x @ w + b``
                for the five weight planes (``h{i}.qkv`` / ``h{i}.proj``
                / ``h{i}.fc1`` / ``h{i}.fc2`` / ``head``) — the hook the
                quantized serving engine injects ``qmatmul`` through.
            embed: optional override ``embed(ids) -> (t, hidden)`` token
                embedding gather (quantized-embedding hook).

        Returns:
            fp32 ``(vocab,)`` logits of the **last** new token.
        """
        from repro.tensors.kvcache import paged_attention

        p = params if params is not None else self.params
        if linear is None:
            def linear(name: str, x: np.ndarray) -> np.ndarray:
                return x @ p[f"{name}.w"] + p[f"{name}.b"]
        if embed is None:
            def embed(ids: np.ndarray) -> np.ndarray:
                return p["tok_emb"][ids]
        ids = np.asarray(ids).reshape(-1)
        t = ids.shape[0]
        past = kv.tokens(session)
        if past + t > self.spec.max_seq:
            raise ValueError(
                f"session {session} at {past}+{t} tokens exceeds "
                f"max_seq {self.spec.max_seq}"
            )
        heads = self.spec.n_heads
        h = self.spec.hidden
        d = h // heads
        x = embed(ids) + p["pos_emb"][past:past + t]
        for i in range(self.spec.n_layers):
            ln1, _ = LayerNorm.forward(
                x, p[f"h{i}.ln1.g"], p[f"h{i}.ln1.b"], None
            )
            qkv = linear(f"h{i}.qkv", ln1)
            q, k, v = (
                a.reshape(t, heads, d).transpose(1, 0, 2)
                for a in np.split(qkv, 3, axis=-1)
            )
            kv.append(session, i, np.ascontiguousarray(k),
                      np.ascontiguousarray(v))
            attn = paged_attention(
                np.ascontiguousarray(q), kv.iter_pages(session, i), past
            )
            merged = attn.transpose(1, 0, 2).reshape(t, h)
            x = x + linear(f"h{i}.proj", merged)
            ln2, _ = LayerNorm.forward(
                x, p[f"h{i}.ln2.g"], p[f"h{i}.ln2.b"], None
            )
            fc1 = linear(f"h{i}.fc1", ln2)
            x = x + linear(f"h{i}.fc2", gelu(fc1, None))
        lnf, _ = LayerNorm.forward(
            x[-1:], p["ln_f.g"], p["ln_f.b"], None
        )
        return linear("head", lnf)[0]

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

        def out(name: str) -> Optional[np.ndarray]:
            return None if grads_out is None else grads_out[name]

        kind, lnf_cache, head_cache = caches[-1]
        if kind != "final":
            raise RuntimeError("corrupt cache stack")
        dlnf, grads["head.w"], grads["head.b"] = Dense.backward(
            dlogits, head_cache, ws, out("head.w"), out("head.b")
        )
        dx, grads["ln_f.g"], grads["ln_f.b"] = LayerNorm.backward(
            dlnf, lnf_cache, ws, out("ln_f.g"), out("ln_f.b")
        )
        if ws is not None:
            ws.give(dlogits)
            ws.give(dlnf)
        for cache in reversed(caches[1:-1]):
            (
                _kind,
                i,
                ln1_cache,
                qkv_cache,
                attn_cache,
                proj_cache,
                ln2_cache,
                fc1_cache,
                fc1,
                fc2_cache,
            ) = cache
            dfc2, grads[f"h{i}.fc2.w"], grads[f"h{i}.fc2.b"] = Dense.backward(
                dx, fc2_cache, ws, out(f"h{i}.fc2.w"), out(f"h{i}.fc2.b")
            )
            dact = gelu_grad(fc1, ws)
            dact *= dfc2
            dln2, grads[f"h{i}.fc1.w"], grads[f"h{i}.fc1.b"] = Dense.backward(
                dact, fc1_cache, ws, out(f"h{i}.fc1.w"), out(f"h{i}.fc1.b")
            )
            dres, grads[f"h{i}.ln2.g"], grads[f"h{i}.ln2.b"] = LayerNorm.backward(
                dln2, ln2_cache, ws, out(f"h{i}.ln2.g"), out(f"h{i}.ln2.b")
            )
            dx += dres
            dproj, grads[f"h{i}.proj.w"], grads[f"h{i}.proj.b"] = Dense.backward(
                dx, proj_cache, ws, out(f"h{i}.proj.w"), out(f"h{i}.proj.b")
            )
            dqkv = self.attn.backward(dproj, attn_cache)
            dln1, grads[f"h{i}.qkv.w"], grads[f"h{i}.qkv.b"] = Dense.backward(
                dqkv, qkv_cache, ws, out(f"h{i}.qkv.w"), out(f"h{i}.qkv.b")
            )
            dres1, grads[f"h{i}.ln1.g"], grads[f"h{i}.ln1.b"] = LayerNorm.backward(
                dln1, ln1_cache, ws, out(f"h{i}.ln1.g"), out(f"h{i}.ln1.b")
            )
            dx += dres1
            if ws is not None:
                for buf in (dfc2, dact, dln2, dres, dproj, dqkv, dln1,
                            dres1):
                    ws.give(buf)
        _kind, tok_cache, s = caches[0]
        if grads_out is None:
            grads["pos_emb"] = np.zeros_like(self.params["pos_emb"])
            grads["pos_emb"][:s] = dx.sum(axis=0)
        else:
            grads["pos_emb"] = grads_out["pos_emb"]
            dx.sum(axis=0, out=grads["pos_emb"][:s])
            grads["pos_emb"][s:] = 0
        grads["tok_emb"] = Embedding.backward(dx, tok_cache, out("tok_emb"))
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
