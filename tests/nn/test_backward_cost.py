"""What a graph forward + backward costs, counted rather than timed.

The experiment-size cross-encoder (2 heads, 32 dims, 72 tokens) on seeded id
matrices in eval mode.  ``encode`` runs its rows in chunks of
``inference._CHUNK_ROWS`` = 16, so the node count is stated per chunk, on a
16-row input; the peak is read on the ``64 × 72`` seed-gradient batch that
dominates a MetaBLINK step.  Measured the same way in four states: op by op
(gradients copied, ``Linear`` three nodes, the attention map four); fused
(gradients handed over, ``Linear`` and the attention map one node each, the
padded graph forward); chunked (the graph ``encode`` runs the chunk plan of
the graph-free kernel through the ``Tensor`` modules); and one node (the
graph ``encode`` is the kernel's forward, recording what its written-out
backward reads, as one node whose parents are the encoder's parameters):

=========================================  ========  ========  ========  ========
                                           op by op  fused     chunked   one node
=========================================  ========  ========  ========  ========
graph nodes per encoder layer, per chunk   59        43        43        16
  of which non-leaf                        41        27        27        0
``tracemalloc`` peak, forward+backward     131.5 MB  55.9 MB   46.9 MB   27.8 MB
non-leaf tensors holding a ``.grad``       55        0         0         0
=========================================  ========  ========  ========  ========

With one node, an encoder layer adds only its 16 parameters to the graph.
Before chunking the whole ``64 × 72`` batch was one chunk.  All peaks were
read under numpy 2.4.6 (scipy-openblas 0.3.31) on CPython 3.11: 24.8, 10.5,
8.8 and 5.2 times the 5.3 MB ``(64, 2, 72, 72)`` float64 attention map of the
padded forward.  The bound asserted is 0.55 × the fused figure, i.e. 5.8
maps; a numpy that accounts its temporaries to ``tracemalloc`` differently
moves every number, so re-measure the fused state before reading a failure
here as a regression of this repo's code.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.eval.experiments import small_experiment_config
from repro.linking import CrossEncoder
from repro.nn import inference

NODES_PER_ENCODER_LAYER = 16
FUSED_PEAK_BYTES = 55.9e6


@pytest.fixture(scope="module")
def probe(tiny_tokenizer):
    """``probe(num_layers, rows=64) -> (model, ids)``: the experiment-size cross-encoder."""
    config = small_experiment_config().crossencoder

    def build(num_layers, rows=64):
        ids = np.random.default_rng(0).integers(8, tiny_tokenizer.vocab_size, size=(rows, 72))
        encoder = replace(config.encoder, num_layers=num_layers)
        model = CrossEncoder(replace(config, encoder=encoder), tiny_tokenizer)
        model.eval()
        return model, ids

    return build


def test_graph_nodes_per_encoder_layer(probe, graph_nodes):
    counts, non_leaf = [], []
    for num_layers in (1, 2):
        model, ids = probe(num_layers, rows=inference._CHUNK_ROWS)
        nodes = graph_nodes(model.scores_from_ids(ids).sum())
        counts.append(len(nodes))
        non_leaf.append(sum(1 for node in nodes if node._parents))
    assert counts[1] - counts[0] <= NODES_PER_ENCODER_LAYER
    assert non_leaf[1] == non_leaf[0]  # a layer adds parameters only


def test_forward_backward_peak_memory(probe):
    model, ids = probe(1)
    model.zero_grad()
    tracemalloc.start()
    try:
        model.scores_from_ids(ids).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.55 * FUSED_PEAK_BYTES, f"peak {peak / 1e6:.1f} MB"


def test_only_leaves_hold_a_gradient_after_backward(probe, graph_nodes):
    model, ids = probe(1)
    model.zero_grad()
    total = model.scores_from_ids(ids).sum()
    total.backward()
    holders = {id(node) for node in graph_nodes(total) if node.grad is not None}
    assert holders == {id(parameter) for parameter in model.parameters()}
