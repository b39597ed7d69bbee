"""What a graph forward + backward costs, counted rather than timed.

The experiment-size cross-encoder on a seeded ``64 × 72`` id matrix in eval
mode — the shape of the seed-gradient batch that dominates a MetaBLINK step.
Measured the same way before and after gradients were handed over instead of
copied and ``Linear`` / the attention map became one node each:

====================================  ========  ========
                                      PR 21     PR 22
====================================  ========  ========
graph nodes per encoder layer         59        43
  of which non-leaf                   41        27
``tracemalloc`` peak, forward+backward 131.5 MB  55.9 MB
non-leaf tensors holding a ``.grad``  55        0
====================================  ========  ========

Both peaks were read under numpy 2.4.6 (scipy-openblas 0.3.31) on CPython
3.11: 12.4 and 5.3 times the 10.6 MB ``(64, 4, 72, 72)`` float64 attention
map.  The bound asserted is 0.7 × the parent's figure, i.e. 8.7 maps; a numpy
that accounts its temporaries to ``tracemalloc`` differently moves both
numbers, so re-measure the parent before reading a failure here as a
regression of this repo's code.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.eval.experiments import small_experiment_config
from repro.linking import CrossEncoder

NODES_PER_ENCODER_LAYER = 43
PARENT_PEAK_BYTES = 131.5e6


@pytest.fixture(scope="module")
def probe(tiny_tokenizer):
    """``probe(num_layers) -> (model, ids)``: the experiment-size cross-encoder."""
    config = small_experiment_config().crossencoder
    ids = np.random.default_rng(0).integers(8, tiny_tokenizer.vocab_size, size=(64, 72))

    def build(num_layers):
        encoder = replace(config.encoder, num_layers=num_layers)
        model = CrossEncoder(replace(config, encoder=encoder), tiny_tokenizer)
        model.eval()
        return model, ids

    return build


def test_graph_nodes_per_encoder_layer(probe, graph_nodes):
    counts = []
    for num_layers in (1, 2):
        model, ids = probe(num_layers)
        counts.append(len(graph_nodes(model.scores_from_ids(ids).sum())))
    assert counts[1] - counts[0] <= NODES_PER_ENCODER_LAYER


def test_forward_backward_peak_memory(probe):
    model, ids = probe(1)
    model.zero_grad()
    tracemalloc.start()
    try:
        model.scores_from_ids(ids).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * PARENT_PEAK_BYTES, f"peak {peak / 1e6:.1f} MB"


def test_only_leaves_hold_a_gradient_after_backward(probe, graph_nodes):
    model, ids = probe(1)
    model.zero_grad()
    total = model.scores_from_ids(ids).sum()
    total.backward()
    holders = {id(node) for node in graph_nodes(total) if node.grad is not None}
    assert holders == {id(parameter) for parameter in model.parameters()}
