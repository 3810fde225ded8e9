"""Real-computation substrate: a small numpy transformer with explicit
backward passes, plus low-precision emulation helpers.

Everything algorithmic in the paper — mixed-precision casting, Adam math,
speculation-then-validation rollback, ZeRO sharding, Ulysses attention
exchange — is exercised for real against this substrate at reduced scale.
"""

from repro.numeric.lowprec import (
    cast_roundtrip_error,
    from_fp16,
    round_bf16,
    round_fp16,
    to_fp16,
)
from repro.numeric.layers import (
    Dense,
    Embedding,
    LayerNorm,
    cross_entropy,
    gelu,
    gelu_grad,
    softmax,
)
from repro.numeric.attention import MultiHeadAttention
from repro.numeric.flash import (
    FlashCache,
    streaming_attention_backward,
    streaming_attention_forward,
)
from repro.numeric.transformer import TinyTransformer, TransformerParams

__all__ = [
    "FlashCache",
    "streaming_attention_forward",
    "streaming_attention_backward",
    "to_fp16",
    "from_fp16",
    "round_fp16",
    "round_bf16",
    "cast_roundtrip_error",
    "Dense",
    "Embedding",
    "LayerNorm",
    "softmax",
    "gelu",
    "gelu_grad",
    "cross_entropy",
    "MultiHeadAttention",
    "TinyTransformer",
    "TransformerParams",
]
