"""Training at sequence granularity equals the per-step training graph it replaced.

The oracles in tests/oracles.py build the batch losses step by step:
per-step gathers and dropout draws, a primitive six-matmul GRU step graph
per step, and a classifier and cross-entropy per decoder step.  The library runs each encoder and the
teacher-forced decoder as one ad.gru_sequence node over the whole batch,
with one gather per table and one classifier pass.  On random batches, with
dropout on, the loss and every parameter gradient must agree within 1e-12
relative, for both models and every reflex conditioning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protorecon import models
from protorecon.corpus import CognateSet, assemble_reconstruction_input
from tests import oracles
from tests.conftest import REFLEX_CONDITIONING, tiny_recon_config, tiny_reflex_config
from tests.test_masked_reflex_loss import (
    FAMILY,
    REFLEX_IDS,
    VOCAB,
    _loss_and_grads,
    _spread,
    reflex_batches,
)

PROTO_IDS = sorted({i for cs in FAMILY.sets for i in VOCAB.encode(cs.protoform)})


@st.composite
def recon_batches(draw):
    """(inputs, targets): cognate sets with some daughters dropped, and protoform id lists."""
    inputs, targets = [], []
    for _ in range(draw(st.integers(1, 6))):
        cs = draw(st.sampled_from(FAMILY.sets))
        kept = draw(st.lists(st.sampled_from(FAMILY.languages), min_size=1, unique=True))
        reflexes = {lang: cs.reflexes[lang] for lang in kept if lang in cs.reflexes}
        inputs.append(assemble_reconstruction_input(
            CognateSet(cs.id, cs.protoform, reflexes), VOCAB))
        targets.append(draw(st.lists(st.sampled_from(PROTO_IDS + REFLEX_IDS), max_size=7)))
    return inputs, targets


def _assert_matches(got, want):
    got_loss, got_grads = got
    want_loss, want_grads = want
    assert got_loss == pytest.approx(want_loss, rel=1e-12)
    for key in want_grads:
        scale = np.abs(want_grads[key]).max()
        np.testing.assert_allclose(got_grads[key], want_grads[key], rtol=1e-12,
                                   atol=1e-12 * scale, err_msg=key)


@settings(max_examples=25)
@given(batch=recon_batches(), seed=st.integers(0, 2**16), dropout=st.sampled_from([0.0, 0.3]))
def test_recon_loss_matches_per_step_oracle(batch, seed, dropout):
    model = _spread(models.ReconModel(tiny_recon_config(seed=seed % 4, dropout=dropout), VOCAB),
                    seed)
    inputs, targets = batch
    got = _loss_and_grads(model, lambda b: model.batch_loss(
        *b, dropout_rng=np.random.default_rng(seed))[0], batch)
    want = _loss_and_grads(model, lambda b: oracles.step_recon_loss(
        model, *b, dropout_rng=np.random.default_rng(seed)), (inputs, targets))
    _assert_matches(got, want)


@pytest.mark.parametrize("name", sorted(REFLEX_CONDITIONING))
@settings(max_examples=15)
@given(batch=reflex_batches(), seed=st.integers(0, 2**16))
def test_reflex_loss_matches_per_step_oracle(name, batch, seed):
    model = _spread(models.ReflexModel(tiny_reflex_config(
        seed=seed % 4, dropout=0.3, **REFLEX_CONDITIONING[name]), VOCAB), seed)
    got = _loss_and_grads(model, lambda b: model.batch_loss(
        b, dropout_rng=np.random.default_rng(seed)), batch)
    want = _loss_and_grads(model, lambda b: oracles.step_reflex_loss(
        model, b, dropout_rng=np.random.default_rng(seed)), batch)
    _assert_matches(got, want)


def test_training_graph_has_one_gru_node_per_sequence(monkeypatch):
    """A reflex batch with a two-layer bidirectional encoder: four encoder nodes, one decoder."""
    from protorecon import autodiff as ad

    model = models.ReflexModel(tiny_reflex_config(num_encoder_layers=2), VOCAB)
    calls = []
    original = ad.gru_sequence
    monkeypatch.setattr(ad, "gru_sequence", lambda *a, **k: calls.append(a[0].shape) or
                        original(*a, **k))
    monkeypatch.setattr(ad, "gru_cell", lambda *a, **k: pytest.fail("per-step GRU on the tape"))
    batch = models._examples("reflex", FAMILY, VOCAB)[:9]
    model.batch_loss(batch, dropout_rng=np.random.default_rng(0)).backward()
    longest_input = max(len(ex[0]) for ex in batch)
    longest_target = max(len(ex[1]) for ex in batch) + 1
    assert calls == [(longest_input, 9, 8)] * 2 + [(longest_input, 9, 20)] * 2 + [
        (longest_target, 9, 8)]


@pytest.mark.parametrize("name", ["gated", "all"])
def test_loss_adds_each_step_in_the_per_step_row_order(name, monkeypatch):
    """The loss reduces each step's run of rows [tB, (t + 1)B) on its own, and those
    rows are the logits, targets and weights of the per-step oracle's step t."""
    from protorecon import autodiff as ad

    model = _spread(models.ReflexModel(tiny_reflex_config(**REFLEX_CONDITIONING[name]), VOCAB), 3)
    batch = models._examples("reflex", FAMILY, VOCAB)[:12]
    assert len({ex[0][0] for ex in batch}) > 2  # language tags
    calls = []
    original = ad.softmax_cross_entropy
    monkeypatch.setattr(ad, "softmax_cross_entropy",
                        lambda *a, **k: calls.append((a, k)) or original(*a, **k))
    model.batch_loss(batch)
    oracles.step_reflex_loss(model, batch)
    ((logits, targets, weights), kwargs), *step_calls = calls
    assert kwargs["steps"] == len(step_calls)
    B = len(batch)
    for t, ((step_logits, step_targets, step_weights), _) in enumerate(step_calls):
        step = slice(t * B, (t + 1) * B)
        np.testing.assert_allclose(logits.data[step], step_logits.data, rtol=1e-12)
        assert np.array_equal(targets[step], step_targets)
        assert np.array_equal(weights[step], step_weights)


def test_off_tape_decoder_step_takes_a_token_list():
    """Whether the parameters are tracked picks the path, not the type or shape of the tokens."""
    model = models.ReconModel(tiny_recon_config(), VOCAB)
    stepper = model.batch_decoder(
        [assemble_reconstruction_input(cs, VOCAB) for cs in FAMILY.sets[:2]])
    state = stepper.init_state(2)
    from_list, _ = stepper.step(state, [VOCAB.bos_id] * 2)
    from_array, _ = stepper.step(state, np.full(2, VOCAB.bos_id))
    assert np.array_equal(from_list, from_array)
