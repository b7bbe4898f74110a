"""The one-graph reflex batch loss equals the grouped loss it replaced.

The oracle in tests/oracles.py builds one graph per (language, input length)
group from the six-matmul GRU step.  The library builds one right-padded,
masked graph per batch from the fused step.  On random batches with mixed
input lengths, target lengths and languages, for every conditioning, the
loss and every parameter gradient must agree within 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protorecon import autodiff as ad
from protorecon import models
from protorecon.corpus import assemble_reflex_input, build_vocabulary
from protorecon.synthetic import generate_family
from tests import oracles
from tests.conftest import REFLEX_CONDITIONING, tiny_reflex_config

FAMILY, _RULES = generate_family(n_sets=12, n_daughters=4, seed=3)
VOCAB = build_vocabulary(FAMILY)
SEGMENTS = sorted({tok for cs in FAMILY.sets for tok in cs.protoform})
REFLEX_IDS = sorted({i for cs in FAMILY.sets for r in cs.reflexes.values()
                     for i in VOCAB.encode(r)})


@st.composite
def reflex_batches(draw):
    """(tagged protoform ids, reflex ids) rows of mixed lengths and languages."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        language = draw(st.sampled_from(FAMILY.languages))
        proto = draw(st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=6))
        reflex = draw(st.lists(st.sampled_from(REFLEX_IDS), max_size=6))
        rows.append((assemble_reflex_input(tuple(proto), language, VOCAB), reflex))
    return rows


def _loss_and_grads(model, loss_fn, batch):
    for p in model.parameters():
        p.zero_grad()
    loss = loss_fn(batch)
    loss.backward()
    return float(loss.data), {name: p.grad.copy() for name, p in model.params.items()}


def _spread(model, seed):
    """Nonzero biases and larger weights, so that no gate sits near its rest point."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = rng.normal(scale=0.5, size=p.data.shape)
    return model


@pytest.mark.parametrize("name", sorted(REFLEX_CONDITIONING))
@settings(max_examples=25)
@given(batch=reflex_batches(), seed=st.integers(0, 2**16))
def test_masked_loss_matches_grouped_oracle(name, batch, seed):
    model = _spread(models.ReflexModel(
        tiny_reflex_config(seed=seed % 4, **REFLEX_CONDITIONING[name]), VOCAB), seed)
    got_loss, got = _loss_and_grads(model, model.batch_loss, batch)
    want_loss, want = _loss_and_grads(
        model, lambda b: oracles.grouped_batch_loss(model, b), batch)
    assert got_loss == pytest.approx(want_loss, rel=1e-12)
    for key in want:
        scale = np.abs(want[key]).max()
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=key)


def test_batch_is_one_graph(monkeypatch):
    """batch_loss makes exactly one group_loss call, whatever the rows' lengths and languages."""
    model = models.ReflexModel(tiny_reflex_config(target_gated_classifier=True), VOCAB)
    batch = models._examples("reflex", FAMILY, VOCAB)
    assert len({(ex[0][0], len(ex[0])) for ex in batch}) > 4  # (language tag, input length)
    calls = []
    original = models.ReflexModel.group_loss
    monkeypatch.setattr(models.ReflexModel, "group_loss",
                        lambda self, *a, **k: calls.append(len(a[0])) or original(self, *a, **k))
    model.batch_loss(batch)
    assert calls == [len(batch)]


def test_reflex_loss_gradient_with_dropout():
    """Dropout masks drawn over the padded batch keep the gradient exact."""
    model = _spread(models.ReflexModel(tiny_reflex_config(
        dropout=0.3, num_encoder_layers=2, target_gated_classifier=True,
        decode_with_language_embedding=True), VOCAB), 0)
    batch = models._examples("reflex", FAMILY, VOCAB)[:10]
    assert len({len(ex[0]) for ex in batch}) > 1

    def loss():
        return model.batch_loss(batch, dropout_rng=np.random.default_rng(5))

    err = ad.gradient_check(loss, model.parameters(), eps=1e-4, samples_per_param=2)
    assert err < 1e-5, f"reflex dropout gradient error {err:.3g}"
