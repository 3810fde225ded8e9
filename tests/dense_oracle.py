"""Route a model's attention through the dense reference oracle.

Production attention has one core, the streaming kernel.  Model-level
suites still want the dense ``S x S`` computation in
:mod:`repro.reference` as a second core: as the tolerance oracle a
whole model step is compared against, and as a second arm showing that
a contract of the block code (``grads_out``, workspace reuse) does not
depend on which attention core the blocks run.
"""

import numpy as np

from repro import reference


def _own(ws, x: np.ndarray) -> np.ndarray:
    """A private copy of ``x`` — from the workspace when there is one, so
    the module's ``give`` calls hand back buffers the workspace owns."""
    buf = np.empty_like(x) if ws is None else ws.take(x.shape, x.dtype)
    np.copyto(buf, x)
    return buf


def use_dense_reference(model):
    """Make ``model.attn`` run :func:`repro.reference.dense_attention_forward`
    / ``dense_attention_backward``; returns ``model``."""
    attn = model.attn
    ws = attn.workspace

    def attend(q, k, v, causal=True):
        # Own copies: a workspace-backed model recycles the fused qkv
        # buffer as soon as attention returns.
        q, k, v = (_own(ws, x) for x in (q, k, v))
        return reference.dense_attention_forward(q, k, v, causal)

    def attend_backward(dcontext, cache):
        return tuple(
            _own(ws, g)
            for g in reference.dense_attention_backward(dcontext, cache)
        )

    attn.attend = attend
    attn.attend_backward = attend_backward
    return model
