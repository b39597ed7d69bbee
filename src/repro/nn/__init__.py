"""``repro.nn`` — a from-scratch numpy neural-network substrate.

This subpackage replaces PyTorch in the reproduction: it provides an autodiff
:class:`~repro.nn.tensor.Tensor`, layers, transformer encoder / decoder
stacks, the Adam optimiser and checkpointing.  Every model in ``repro.linking``,
``repro.generation`` and ``repro.meta`` is built on top of it.
"""

from . import functional
from .attention import KVCache, MultiHeadAttention
from .layers import Dropout, Embedding, FeedForward, LayerNorm, Linear
from .module import Module, ModuleList, Parameter
from .optim import Adam, clip_grad_norm
from .serialization import load_checkpoint, save_checkpoint
from .tensor import (
    Tensor,
    concatenate,
    no_grad,
    stack_tensors,
    tensor,
    zeros,
)
from .transformer import (
    DecoderState,
    PositionalEmbedding,
    TransformerDecoder,
    TransformerDecoderLayer,
    TransformerEncoder,
    TransformerEncoderLayer,
)

__all__ = [
    "functional",
    "Tensor",
    "tensor",
    "zeros",
    "concatenate",
    "stack_tensors",
    "no_grad",
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "FeedForward",
    "MultiHeadAttention",
    "KVCache",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "TransformerDecoder",
    "TransformerDecoderLayer",
    "DecoderState",
    "PositionalEmbedding",
    "Adam",
    "clip_grad_norm",
    "save_checkpoint",
    "load_checkpoint",
]
