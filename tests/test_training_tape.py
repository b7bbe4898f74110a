"""What a training tape keeps: the arrays that its backward rules read, and no more.

At a wide configuration with dropout (a narrow GRU over wide embeddings, as in the
WikiHan presets), the tape of one batch loss is walked from the loss: every node's
output and every array that its backward rule closes over, a view counted as the array
that it views.  Each input gather drops out its own output in place, so it keeps one
(T, B, D) float array, and the classifier's hidden layer keeps two (T * B, F) arrays,
its affine map's output and its tanh's.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from protorecon import models
from protorecon.autodiff import Tensor
from protorecon.corpus import build_vocabulary
from protorecon.synthetic import generate_family

# E, H and F are distinct, and 2 * E and 2 * H differ from them, so that each counted
# shape is one layer's
WIDE = dict(embedding_size=96, hidden_size=20, feedforward_size=36, dropout=0.4, seed=3)
CONFIGS = {
    "recon": models.ReconModelConfig(**WIDE),
    "reflex": models.ReflexModelConfig(**WIDE, num_encoder_layers=2,
                                       target_gated_classifier=True),
}


def _batch(kind):
    """A model of kind and the inputs and targets of one batch of 24 cognate sets."""
    dataset, _rules = generate_family(24, 4, seed=11)
    model = models.new_model(kind, CONFIGS[kind], build_vocabulary(dataset))
    examples = models._examples(kind, dataset, model.vocab)
    return model, [ex[0] for ex in examples], [ex[1] for ex in examples]


def _tape(loss):
    """The tape's nodes, and the distinct float64 arrays that it holds, by their bases."""
    nodes, arrays, stack, seen = [], {}, [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)
        held = [node.data]
        for cell in getattr(node.backward_rule, "__closure__", None) or ():
            try:
                held.append(cell.cell_contents)
            except ValueError:  # a variable of another branch of the op, never bound
                pass
        while held:
            value = held.pop()
            if isinstance(value, Tensor):
                held.append(value.data)
            elif isinstance(value, (list, tuple)):
                held.extend(value)
            elif isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                if value.dtype == np.float64:
                    arrays[id(value)] = value
    return nodes, list(arrays.values())


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_the_tape_keeps_one_array_per_input_gather_and_two_for_the_hidden_layer(kind):
    model, inputs, targets = _batch(kind)
    loss = model._loss(inputs, targets, np.random.default_rng(5))
    nodes, arrays = _tape(loss)
    held = Counter(array.shape for array in arrays)
    tok_emb = model.params["tok_emb"]
    gathers = Counter(node.data.shape for node in nodes
                      if any(parent is tok_emb for parent in node.parents))
    # the encoder's input and the decoder's, each (T, B, D)
    assert sum(gathers.values()) == 2 and all(len(shape) == 3 for shape in gathers)
    logits = loss.parents[0]  # (T * B, V), a row per decoder step and batch row
    hidden = (len(logits.data), CONFIGS[kind].feedforward_size)
    assert {shape: held[shape] for shape in [*gathers, hidden]} == {**gathers, hidden: 2}


# Traced peak bytes of one batch's forward and backward, over the bytes of the encoder's
# input gather: (T, B, 2E) in the recon model, (T, B, E) in the reflex model
PEAK_PER_INPUT = {"recon": 4.1, "reflex": 12.2}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_the_traced_peak_of_a_batch_forward_and_backward_is_bounded(kind):
    model, inputs, targets = _batch(kind)
    width = WIDE["embedding_size"] * (2 if kind == "recon" else 1)
    input_bytes = max(map(len, inputs)) * len(inputs) * width * 8
    model._loss(inputs, targets, np.random.default_rng(5)).backward()  # warm every cache
    tracemalloc.start()
    try:
        model._loss(inputs, targets, np.random.default_rng(5)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_PER_INPUT[kind] * input_bytes
