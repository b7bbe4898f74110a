"""Model gradient checks, decoding consistency, training, and checkpoints."""

import dataclasses
import inspect
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from protorecon import autodiff as ad
from protorecon import decode as dec
from protorecon import models
from protorecon.checkpoint import FORMAT_VERSION, MAGIC, read_checkpoint, write_checkpoint
from protorecon.corpus import (
    Vocabulary,
    apply_split_tags,
    assemble_reconstruction_input,
    assemble_reflex_input,
    build_vocabulary,
    parse_dataset,
    serialize_dataset,
    split_dataset,
)
from protorecon.errors import (
    CheckpointError,
    ConfigError,
    ProtoreconError,
    TrainingError,
    VocabularyError,
)
from protorecon.synthetic import generate_family
from tests.conftest import REFLEX_CONDITIONING, tiny_recon_config, tiny_reflex_config
from tests import oracles
from tests.oracles import pad_batch_loop, segment_language_indices_loop


def _recon_batch(dataset, vocab):
    inputs, targets = [], []
    for cs in dataset.sets[:3]:
        inputs.append(assemble_reconstruction_input(cs, vocab))
        targets.append(vocab.encode(cs.protoform))
    return inputs, targets


def _reflex_batch(dataset, vocab):
    out = []
    for cs in dataset.sets[:3]:
        for lang, reflex in cs.reflexes.items():
            out.append((assemble_reflex_input(cs.protoform, lang, vocab), vocab.encode(reflex)))
    return out


# -- config validation --------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_recon_config(dropout=1.0)
    with pytest.raises(ConfigError):
        tiny_recon_config(hidden_size=0)
    with pytest.raises(ConfigError):
        tiny_reflex_config(one_hot_target_encoding=False,
                           target_gated_classifier=False,
                           decode_with_language_embedding=False)
    for alpha in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            tiny_recon_config(alpha=alpha)
    with pytest.raises(ConfigError, match="num_encoder_layers must be >= 1"):
        tiny_reflex_config(num_encoder_layers=0)


def test_beam_config_resolves_against_the_model(tiny_vocab):
    """alpha and max_len are the recon model's; k is checked."""
    recon = models.ReconModel(tiny_recon_config(alpha=0.5), tiny_vocab)
    recon.max_decode_len = 7
    assert recon.beam_config(3) == dec.BeamConfig(k=3, alpha=0.5, max_len=7)
    with pytest.raises(ConfigError):
        recon.beam_config(0)


# -- gradient checks ----------------------------------------------------------


def test_recon_loss_gradient(tiny_dataset, tiny_vocab):
    model = models.ReconModel(tiny_recon_config(), tiny_vocab)
    inputs, targets = _recon_batch(tiny_dataset, tiny_vocab)

    def loss():
        return model.batch_loss(inputs, targets)[0]

    err = ad.gradient_check(loss, model.parameters(), eps=1e-4, samples_per_param=3)
    assert err < 1e-4, f"recon gradient error {err:.3g}"


def test_recon_loss_gradient_with_dropout(tiny_dataset, tiny_vocab):
    model = models.ReconModel(tiny_recon_config(dropout=0.2), tiny_vocab)
    inputs, targets = _recon_batch(tiny_dataset, tiny_vocab)

    def loss():
        # fixed dropout generator per evaluation keeps the mask constant
        return model.batch_loss(inputs, targets, dropout_rng=np.random.default_rng(3))[0]

    err = ad.gradient_check(loss, model.parameters(), eps=1e-4, samples_per_param=2)
    assert err < 1e-4


def test_reflex_loss_gradient_all_conditioning(tiny_dataset, tiny_vocab):
    """Bidirectional 2-layer encoder with every conditioning mechanism on."""
    cfg = tiny_reflex_config(
        bidirectional_encoder=True,
        num_encoder_layers=2,
        one_hot_target_encoding=True,
        target_gated_classifier=True,
        decode_with_language_embedding=True,
    )
    model = models.ReflexModel(cfg, tiny_vocab)
    batch = _reflex_batch(tiny_dataset, tiny_vocab)

    def loss():
        return model.batch_loss(batch)

    err = ad.gradient_check(loss, model.parameters(), eps=1e-4, samples_per_param=2)
    assert err < 1e-4, f"reflex gradient error {err:.3g}"


def test_reflex_loss_gradient_unidirectional(tiny_dataset, tiny_vocab):
    cfg = tiny_reflex_config(bidirectional_encoder=False)
    model = models.ReflexModel(cfg, tiny_vocab)
    batch = _reflex_batch(tiny_dataset, tiny_vocab)
    err = ad.gradient_check(lambda: model.batch_loss(batch), model.parameters(),
                            eps=1e-4, samples_per_param=2)
    assert err < 1e-4


# -- output masking and uniformity --------------------------------------------


def test_zero_model_uniform_over_allowed(tiny_dataset, tiny_vocab):
    """With all-zero parameters the decoder is uniform over non-banned ids."""
    model = models.ReconModel(tiny_recon_config(), tiny_vocab)
    for p in model.parameters():
        p.data[...] = 0.0
    ids = assemble_reconstruction_input(tiny_dataset.sets[0], tiny_vocab)
    stepper = model.decoder(ids)
    logp, _ = stepper.step(stepper.init_state(1), np.array([stepper.bos_id]))
    banned = set(model.banned_output_ids())
    allowed = [v for v in range(tiny_vocab.size) if v not in banned]
    expected = np.log(1.0 / len(allowed))
    assert np.allclose(logp[0][allowed], expected, atol=1e-9)
    assert np.all(logp[0][list(banned)] < -1e25)


def test_banned_ids_include_language_tags(tiny_vocab):
    model = models.ReconModel(tiny_recon_config(), tiny_vocab)
    banned = set(model.banned_output_ids())
    assert tiny_vocab.language_tag_id("LangA") in banned
    assert tiny_vocab.language_tag_id("LangB") in banned
    assert tiny_vocab.eos_id not in banned


def test_recon_rejects_unframed_input(tiny_vocab):
    model = models.ReconModel(tiny_recon_config(), tiny_vocab)
    with pytest.raises(ProtoreconError):
        model.encode_np([tiny_vocab.encode(["p", "a"])])


# -- determinism --------------------------------------------------------------


def test_model_init_deterministic(tiny_vocab):
    a = models.ReconModel(tiny_recon_config(seed=3), tiny_vocab)
    b = models.ReconModel(tiny_recon_config(seed=3), tiny_vocab)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)
    c = models.ReconModel(tiny_recon_config(seed=4), tiny_vocab)
    assert any(not np.array_equal(a.params[k].data, c.params[k].data) for k in a.params)


def test_training_deterministic(tiny_split):
    vocab = build_vocabulary(tiny_split)
    runs = []
    for _ in range(2):
        model = models.train(models.ReconModel(tiny_recon_config(max_epochs=2), vocab),
                             tiny_split)
        runs.append(model.snapshot())
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k])


def test_train_requires_split(tiny_dataset, tiny_vocab):
    model = models.ReconModel(tiny_recon_config(), tiny_vocab)
    with pytest.raises(ConfigError):
        models.train(model, tiny_dataset)


def _tiny_config(kind, **overrides):
    return (tiny_recon_config if kind == "recon" else tiny_reflex_config)(**overrides)


@pytest.mark.parametrize("kind", ["recon", "reflex"])
def test_train_skips_train_sets_without_a_protoform(tiny_split, monkeypatch, kind):
    """A train set without a protoform has no example: at batch size 1 it is a whole batch
    with none, which takes no step, and the sets that have one still train."""
    dataset = dataclasses.replace(tiny_split, sets=tuple(
        dataclasses.replace(cs, protoform=None) if cs.id in ("w1", "w3") else cs
        for cs in tiny_split.sets))  # w2 and w4 are the train sets left with a protoform
    steps, step = [], ad.Adam.step
    monkeypatch.setattr(ad.Adam, "step", lambda opt, **kw: steps.append(kw) or step(opt, **kw))
    model = models.new_model(kind, _tiny_config(kind, batch_size=1, max_epochs=3),
                             build_vocabulary(tiny_split))
    before = model.snapshot()
    models.train(model, dataset)
    assert len(steps) == 3 * 2
    assert all(np.isfinite(loss) and loss > 0 for _, loss in model.history.epoch_losses)
    assert any(not np.array_equal(before[k], p.data) for k, p in model.params.items())


@pytest.mark.parametrize("kind", ["recon", "reflex"])
def test_training_ignores_the_datasets_column_order(tmp_path, kind):
    """One vocabulary trained on a family and on its column-reversed copy writes equal bytes:
    examples follow the vocabulary's language order, as decoding does."""
    family, _rules = generate_family(n_sets=60, n_daughters=3, seed=2)
    family = split_dataset(family, seed=2)
    rows = [line.split("\t") for line in serialize_dataset(family).splitlines()]
    reversed_tsv = "".join("\t".join(cells[:2] + cells[:1:-1]) + "\n" for cells in rows)
    reversed_family = apply_split_tags(parse_dataset(reversed_tsv), family.split_tags)
    assert reversed_family.languages == family.languages[::-1]
    vocab = build_vocabulary(family)
    blobs = []
    for i, dataset in enumerate((family, reversed_family)):
        model = models.train(models.new_model(kind, _tiny_config(kind), vocab), dataset)
        model.save(tmp_path / f"{i}.ckpt")
        blobs.append((tmp_path / f"{i}.ckpt").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("kind", ["recon", "reflex"])
def test_train_refuses_a_language_the_vocabulary_lacks(tiny_split, tiny_vocab, kind):
    """A dataset language outside the model's vocabulary is refused, not silently skipped."""
    vocab = Vocabulary(tiny_vocab.id_to_token, ("LangA",))
    with pytest.raises(VocabularyError, match="LangB"):
        models.train(models.new_model(kind, _tiny_config(kind), vocab), tiny_split)


def test_train_zero_epochs_returns_unchanged(tiny_split):
    vocab = build_vocabulary(tiny_split)
    model = models.ReconModel(tiny_recon_config(max_epochs=0), vocab)
    before = model.snapshot()
    models.train(model, tiny_split)
    for k in before:
        assert np.array_equal(before[k], model.params[k].data)


@pytest.mark.parametrize("kind", ["recon", "reflex"])
def test_train_refuses_a_non_finite_loss(tiny_split, kind):
    """A NaN in a parameter makes the first batch's loss NaN: train() raises before any
    optimizer step, naming the epoch."""
    model = models.new_model(kind, _tiny_config(kind), build_vocabulary(tiny_split))
    model.params["clf.b1"].data[0] = np.nan
    before = model.snapshot()
    with pytest.raises(TrainingError, match="non-finite loss at epoch 0"):
        models.train(model, tiny_split)
    assert all(np.array_equal(before[k], model.params[k].data, equal_nan=True) for k in before)


def test_training_reduces_loss(tiny_split):
    vocab = build_vocabulary(tiny_split)
    model = models.train(
        models.ReconModel(tiny_recon_config(max_epochs=8, lr=0.02), vocab), tiny_split
    )
    losses = [loss for _, loss in model.history.epoch_losses]
    assert losses[-1] < losses[0]


def test_training_records_why_it_stopped(tiny_split):
    vocab = build_vocabulary(tiny_split)
    model = models.train(models.ReconModel(tiny_recon_config(max_epochs=2), vocab), tiny_split)
    assert model.history.stop_reason == "max_epochs"
    model = models.train(models.ReconModel(
        tiny_recon_config(max_epochs=40, validate_every=1, patience=1), vocab), tiny_split)
    assert model.history.stop_reason == "patience"
    assert len(model.history.epoch_losses) < 40


@pytest.mark.parametrize("kind", ["recon", "reflex"])
def test_an_empty_val_split_is_written_into_the_history(tiny_split, kind):
    """Without val examples train() runs every epoch unvalidated, and its history says so
    with the stop reason "no_val"; with them it still writes "max_epochs" or "patience"."""
    vocab = build_vocabulary(tiny_split)
    no_val = apply_split_tags(tiny_split, {**tiny_split.split_tags, "w5": "train"})
    history = models.train(models.new_model(kind, _tiny_config(kind, max_epochs=3), vocab),
                           no_val).history
    assert history.stop_reason == "no_val"
    assert len(history.epoch_losses) == 3 and history.validations == []
    assert history.as_tsv().splitlines()[-1].split("\t")[-1] == "no_val"
    for config in (_tiny_config(kind, max_epochs=3),
                   _tiny_config(kind, max_epochs=40, validate_every=1, patience=1)):
        history = models.train(models.new_model(kind, config, vocab), tiny_split).history
        assert history.validations and history.stop_reason in ("max_epochs", "patience")


def test_history_tsv_holds_the_training_history(tiny_split):
    """Every epoch's loss and validation TED reads back exactly, with the best epoch and
    the stop reason."""
    vocab = build_vocabulary(tiny_split)
    history = models.train(models.ReconModel(
        tiny_recon_config(max_epochs=40, validate_every=2, patience=2), vocab), tiny_split).history
    header, *rows = [line.split("\t") for line in history.as_tsv().splitlines()]
    assert header == ["epoch", "loss", "val_ted", "best", "stop_reason"]
    assert [(int(r[0]), float(r[1])) for r in rows] == history.epoch_losses
    assert [(int(r[0]), float(r[2])) for r in rows if r[2]] == history.validations
    assert [int(r[0]) for r in rows if r[3] == "*"] == [history.best_epoch]
    assert [r[4] for r in rows] == [""] * (len(rows) - 1) + [history.stop_reason]


def _has_mallopt():
    import ctypes

    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_training_reuses_freed_memory():
    """Once train() has run, the temporaries of an identical call come from the heap.

    At these criterion-6 recon shapes glibc's default thresholds make the
    second call fault in 50-90 K pages; kept in the heap, it takes under a
    hundred.
    """
    import resource

    from protorecon.corpus import split_dataset
    from protorecon.synthetic import generate_family

    dataset = split_dataset(generate_family(2000, 4, seed=0)[0], (0.7, 0.1, 0.2), 0)
    vocab = build_vocabulary(dataset)
    config = models.ReconModelConfig(embedding_size=32, hidden_size=64, feedforward_size=64,
                                     dropout=0.0, batch_size=16, lr=0.005, warmup_epochs=1,
                                     max_epochs=1, validate_every=1)
    models.train(models.ReconModel(config, vocab), dataset)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    models.train(models.ReconModel(config, vocab), dataset)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5000


def test_keep_freed_memory_changes_nothing_without_a_working_mallopt(monkeypatch):
    """No mallopt: the helper returns without raising.  A refused mmap threshold: the
    trim threshold is left alone too, since setting it alone disables glibc's dynamic
    threshold."""
    import ctypes
    import types

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    models._keep_freed_memory.__wrapped__()
    calls = []

    def refusing_mallopt(param, value):
        calls.append(param)
        return 0

    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=refusing_mallopt))
    models._keep_freed_memory.__wrapped__()
    assert calls == [-3]  # M_MMAP_THRESHOLD only


# -- reflex grouping ----------------------------------------------------------


def test_reflex_group_loss_matches_single_examples(tiny_dataset, tiny_vocab):
    """The grouped batch loss equals the token-weighted mean over singletons."""
    model = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    batch = _reflex_batch(tiny_dataset, tiny_vocab)
    whole = float(model.batch_loss(batch).data)
    total_tokens = sum(len(ex[1]) + 1 for ex in batch)
    acc = 0.0
    for ex in batch:
        acc += float(model.batch_loss([ex]).data) * (len(ex[1]) + 1)
    assert whole == pytest.approx(acc / total_tokens, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=12), min_size=1, max_size=20),
       st.integers(0, 30))
def test_pad_batch_is_the_transposed_loop(seqs, pad_id):
    """The time-major batch equals the transposed batch-major row loop, bitwise and in dtype."""
    got, want = models._pad_batch(seqs, pad_id), pad_batch_loop(seqs, pad_id)[:2]
    for g, w in zip(got, want):
        assert g.shape == w.T.shape and g.dtype == w.dtype
        assert g.tobytes() == np.ascontiguousarray(w.T).tobytes()


def test_oracles_do_not_pad_with_the_library():
    """The loss oracles pad with their own loop, not with the code under test."""
    assert "_pad_batch(" not in inspect.getsource(oracles)


def test_segment_language_indices(tiny_vocab):
    seq = ["*", "<LangA>", ":", "p", "o", "*", "<LangB>", ":", "b", "*"]
    idx = models.segment_language_indices(tiny_vocab.encode(seq), tiny_vocab)
    assert idx.tolist() == [0, 1, 0, 1, 1, 0, 2, 0, 2, 0]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # tiny_vocab is read-only
@given(st.lists(st.lists(st.integers(0, 16), min_size=1, max_size=12), min_size=1, max_size=6))
def test_segment_language_indices_of_a_padded_batch_match_the_loop(tiny_vocab, seqs):
    """Over a time-major padded matrix, each column equals the per-input loop, with 0 on its
    pads when the input ends in SEP; any id sequence is drawn, framed or not."""
    seqs = [s + [tiny_vocab.sep_id] for s in seqs]
    ids, _ = models._pad_batch(seqs, tiny_vocab.pad_id)
    got = models.segment_language_indices(ids, tiny_vocab)
    for col, s in enumerate(seqs):
        assert got[: len(s), col].tolist() == segment_language_indices_loop(s, tiny_vocab)
        assert not got[len(s) :, col].any()


# -- steppers and greedy/beam consistency -------------------------------------


def test_stepper_batch_consistency(tiny_dataset, tiny_vocab):
    """A 3-row stepper's rows agree with one-row steppers of the same inputs."""
    model = models.ReconModel(tiny_recon_config(), tiny_vocab)
    inputs = [assemble_reconstruction_input(cs, tiny_vocab) for cs in tiny_dataset.sets[:3]]
    stepper = model.batch_decoder(inputs)
    logp, state = stepper.step(stepper.init_state(3), np.full(3, stepper.bos_id))
    for row, ids in enumerate(inputs):
        one = model.decoder(ids)
        want, _ = one.step(one.init_state(1), np.array([one.bos_id]))
        np.testing.assert_allclose(logp[row], want[0], rtol=1e-10)
    hidden, lang, _cond = stepper.select(state, np.array([2, 0]))  # (hidden, row languages, ...)
    assert hidden.shape[0] == 2 and lang.tolist() == [0, 0]
    with pytest.raises(ProtoreconError, match="3 rows"):
        stepper.init_state(1)


@pytest.mark.parametrize("conditioning", sorted(REFLEX_CONDITIONING))
def test_reflex_stepper_select_follows_row_languages(tiny_dataset, tiny_vocab, conditioning):
    """After select(), the state holds the selected rows' languages, and stepping it equals,
    bitwise, stepping a fresh batch_decoder of those rows from the same hidden states."""
    model = models.ReflexModel(tiny_reflex_config(**REFLEX_CONDITIONING[conditioning]),
                               tiny_vocab)
    rows = [assemble_reflex_input(cs.protoform, lang, tiny_vocab)
            for cs in tiny_dataset.sets[:3] for lang in ("LangA", "LangB")]
    stepper = model.batch_decoder(rows)
    _, state = stepper.step(stepper.init_state(6), np.full(6, stepper.bos_id))
    idx = np.array([5, 0, 3, 2])
    selected = stepper.select(state, idx)
    tags = tiny_vocab.tag_languages()
    assert selected[1].tolist() == [tags[rows[i][0]] for i in idx] == [1, 0, 1, 0]
    fresh = model.batch_decoder([rows[i] for i in idx])
    fresh_state = (selected[0],) + fresh.init_state(4)[1:]
    tokens = np.array(tiny_vocab.encode(["p", "a", "t", "k"]))
    got_logp, got = stepper.step(selected, tokens)
    want_logp, want = fresh.step(fresh_state, tokens)
    assert np.array_equal(got_logp, want_logp) and np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("conditioning", ["one-hot", "all"])
def test_inference_builds_no_tape(tiny_dataset, tiny_vocab, monkeypatch, conditioning):
    """Greedy and beam decoding run the training forward on untracked parameters:
    they make no Tensor with parents and leave every gradient as it was."""
    recon = models.ReconModel(tiny_recon_config(), tiny_vocab)
    reflex = models.ReflexModel(tiny_reflex_config(**REFLEX_CONDITIONING[conditioning]),
                                tiny_vocab)
    rng = np.random.default_rng(0)
    for model in (recon, reflex):
        for p in model.parameters():
            p.zero_grad()
            p.grad[...] = rng.normal(size=p.grad.shape)
    grads = [p.grad.copy() for model in (recon, reflex) for p in model.parameters()]
    taped = []
    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.parents:
            taped.append(self)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    sets = tiny_dataset.sets
    recon_inputs = [assemble_reconstruction_input(cs, tiny_vocab) for cs in sets]
    reflex_rows = [(assemble_reflex_input(cs.protoform, lang, tiny_vocab), lang)
                   for cs in sets for lang in cs.reflexes]
    beam = dec.BeamConfig(k=3, max_len=5)
    recon.max_decode_len = reflex.max_decode_len = 5
    recon.greedy_decode_rows(recon_inputs)
    reflex.greedy_decode_rows([ids for ids, _ in reflex_rows])
    dec.beam_search(recon.decoder(recon_inputs[0]), beam)
    dec.beam_search(reflex.decoder(*reflex_rows[0]), beam)
    monkeypatch.undo()
    assert taped == []
    after = [p.grad for model in (recon, reflex) for p in model.parameters()]
    assert all(np.array_equal(a, b) for a, b in zip(grads, after))
    # the counter sees the tape of a training forward
    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    recon.batch_loss(recon_inputs[:2], [tiny_vocab.encode(cs.protoform) for cs in sets[:2]])
    assert taped


def test_reflex_decoder_language_sensitivity(tiny_dataset, tiny_vocab):
    """Different target languages must produce different distributions."""
    model = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    proto = tiny_dataset.sets[0].protoform
    rows = []
    for lang in ("LangA", "LangB"):
        tagged = assemble_reflex_input(proto, lang, tiny_vocab)
        stepper = model.decoder(tagged, lang)
        logp, _ = stepper.step(stepper.init_state(1), np.array([stepper.bos_id]))
        rows.append(logp[0])
    assert not np.allclose(rows[0], rows[1])


def test_reflex_decoder_refuses_another_language_than_the_tag(tiny_dataset, tiny_vocab):
    """The one-row decoder's language must be the one the input's tag names."""
    model = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    tagged = assemble_reflex_input(tiny_dataset.sets[0].protoform, "LangA", tiny_vocab)
    with pytest.raises(ProtoreconError, match="tagged for 'LangA'"):
        model.decoder(tagged, "LangB")
    with pytest.raises(ProtoreconError):
        model.decoder(tagged, "LangZ")
    model.max_decode_len = 5
    assert dec.greedy_decode(model.decoder(tagged, "LangA"), 5) == \
        model.greedy_decode_rows([tagged])[0]


@pytest.mark.parametrize("untagged", [
    "protoform", "empty", "unknown id", "SEP first", "tag second"])
def test_reflex_rows_without_a_leading_tag_are_refused(tiny_dataset, tiny_vocab, untagged):
    """A reflex row names its target language by its first id; a row without one is refused
    by decoding and by the loss alike."""
    model = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    proto = tiny_vocab.encode(tiny_dataset.sets[0].protoform)
    tag = tiny_vocab.language_tag_id("LangB")
    row = {"protoform": proto, "empty": [], "unknown id": [tiny_vocab.size + 2, *proto],
           "SEP first": [tiny_vocab.sep_id, *proto], "tag second": [proto[0], tag, *proto[1:]]
           }[untagged]
    good = [tag, *proto]
    with pytest.raises(ProtoreconError, match="does not start with a language tag"):
        model.greedy_decode_rows([good, row])
    with pytest.raises(ProtoreconError, match="does not start with a language tag"):
        model.batch_loss([(good, proto), (row, proto)])


def test_reflex_batch_loss_reads_only_input_and_target(tiny_dataset, tiny_vocab):
    """A third element of an example, such as a language name, is not read: the tag is."""
    model = models.ReflexModel(tiny_reflex_config(target_gated_classifier=True), tiny_vocab)
    batch = _reflex_batch(tiny_dataset, tiny_vocab)
    pairs = float(model.batch_loss(batch).data)
    assert float(model.batch_loss([(*ex, "LangZ") for ex in batch]).data) == pairs


# -- checkpointing ------------------------------------------------------------


def test_checkpoint_container_roundtrip(tmp_path):
    arrays = {
        "a": np.arange(6, dtype=np.float64).reshape(2, 3),
        "b": np.array([1, 2, 3], dtype=np.int64),
    }
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, arrays, {"x": 1}, "hash", 7)
    got, config, vocab_hash, seed = read_checkpoint(path)
    assert config == {"x": 1} and vocab_hash == "hash" and seed == 7
    for k in arrays:
        assert np.array_equal(got[k], arrays[k])
        assert got[k].dtype == arrays[k].dtype


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, {"a": np.zeros(2)}, {}, "h", 0)
    blob = path.read_bytes()
    (tmp_path / "bad_magic.ckpt").write_bytes(b"XX" + blob[2:])
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "bad_magic.ckpt")
    (tmp_path / "truncated.ckpt").write_bytes(blob[:-4])
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "truncated.ckpt")
    (tmp_path / "trailing.ckpt").write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "trailing.ckpt")


def test_checkpoint_refuses_an_unsupported_dtype_or_version(tmp_path):
    path = tmp_path / "c.ckpt"
    with pytest.raises(CheckpointError, match="unsupported dtype complex128 for array 'a'"):
        write_checkpoint(path, {"a": np.zeros(2, dtype=np.complex128)}, {}, "h", 0)
    assert not path.exists()
    write_checkpoint(path, {"a": np.zeros(2)}, {}, "h", 0)
    blob = path.read_bytes()
    (tmp_path / "dtype.ckpt").write_bytes(blob.replace(b'"float64"', b'"float16"'))
    with pytest.raises(CheckpointError, match="unsupported dtype 'float16' for array 'a'"):
        read_checkpoint(tmp_path / "dtype.ckpt")
    version = FORMAT_VERSION + 1
    (tmp_path / "version.ckpt").write_bytes(
        MAGIC + struct.pack("<I", version) + blob[len(MAGIC) + 4 :])
    with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
        read_checkpoint(tmp_path / "version.ckpt")


def test_load_checkpoint_refuses_a_model_header_that_is_not_an_object(tmp_path, tiny_vocab):
    """A model header that is a JSON list fails its first lookup with a TypeError, which
    load_checkpoint turns into a CheckpointError."""
    model = models.ReconModel(tiny_recon_config(), tiny_vocab)
    path = tmp_path / "list.ckpt"
    write_checkpoint(path, model.snapshot(), ["recon"], tiny_vocab.content_hash(), 0)
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        models.load_checkpoint(path)


def test_read_checkpoint_refuses_an_array_name_given_twice(tmp_path):
    """A second payload under one name would silently replace the first."""
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, {"a": np.zeros(2), "b": np.ones(2)}, {}, "h", 0)
    path.write_bytes(path.read_bytes().replace(b'"name":"b"', b'"name":"a"'))
    with pytest.raises(CheckpointError, match="duplicate array name 'a'"):
        read_checkpoint(path)


@pytest.mark.parametrize("shape", [[-1], [2, -1], [True], [1.0], ["1"], [None]], ids=json.dumps)
def test_read_checkpoint_refuses_a_dimension_that_is_not_an_int_of_at_least_0(tmp_path, shape):
    """Array a with shape [-1], then b with shape [3], over a 16-byte payload: a would read
    no bytes and move the read offset 8 bytes back, so b's first value would come from the
    header, and the trailing-bytes check would still pass.  A bool is no dimension either."""
    header = json.dumps({"arrays": [{"name": "a", "dtype": "float64", "shape": shape},
                                    {"name": "b", "dtype": "float64", "shape": [3]}],
                         "config": {}, "vocab_hash": "h", "seed": 0}).encode()
    path = tmp_path / "c.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header
                     + np.array([1.0, 2.0]).tobytes())
    with pytest.raises(CheckpointError, match="each dimension must be an int >= 0"):
        read_checkpoint(path)


def test_load_checkpoint_refuses_arrays_that_are_not_parameters(tmp_path, tiny_vocab):
    """A 2-layer reflex checkpoint whose header says 1 layer: layer 0's and the bridge's
    shapes still fit, so ignoring the 18 layer-1 arrays would decode with another encoder."""
    model = models.ReflexModel(tiny_reflex_config(num_encoder_layers=2), tiny_vocab)
    path = tmp_path / "reflex.ckpt"
    model.save(path)
    arrays, header, vocab_hash, seed = read_checkpoint(path)
    header["config"]["num_encoder_layers"] = 1
    write_checkpoint(path, arrays, header, vocab_hash, seed)
    layer_1 = sorted(k for k in arrays if k.startswith("enc1"))
    assert len(layer_1) == 18
    with pytest.raises(CheckpointError, match="are not parameters of the model") as info:
        models.load_checkpoint(path)
    assert str(layer_1) in str(info.value)


def test_model_checkpoint_byte_identical(tmp_path, tiny_split):
    vocab = build_vocabulary(tiny_split)
    model = models.train(models.ReconModel(tiny_recon_config(), vocab), tiny_split)
    p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    model.save(p1)
    model.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = models.load_checkpoint(p1)
    p3 = tmp_path / "m3.ckpt"
    loaded.save(p3)
    assert p1.read_bytes() == p3.read_bytes()


def test_model_checkpoint_decode_equivalence(tmp_path, tiny_split):
    """A reloaded model decodes identically on 20 inputs."""
    vocab = build_vocabulary(tiny_split)
    model = models.train(models.ReconModel(tiny_recon_config(), vocab), tiny_split)
    path = tmp_path / "m.ckpt"
    model.save(path)
    loaded = models.load_checkpoint(path)
    assert loaded.max_decode_len == model.max_decode_len
    rng = np.random.default_rng(0)
    for _ in range(20):
        cs = tiny_split.sets[int(rng.integers(len(tiny_split.sets)))]
        ids = assemble_reconstruction_input(cs, vocab)
        a = dec.greedy_decode(model.decoder(ids), 20)
        b = dec.greedy_decode(loaded.decoder(ids), 20)
        assert a == b
        ba = dec.beam_search(model.decoder(ids), dec.BeamConfig(k=3, max_len=10))
        bb = dec.beam_search(loaded.decoder(ids), dec.BeamConfig(k=3, max_len=10))
        assert [c.tokens for c in ba] == [c.tokens for c in bb]
        assert all(abs(x.m - y.m) < 1e-12 for x, y in zip(ba, bb))


def test_reflex_checkpoint_roundtrip(tmp_path, tiny_split):
    vocab = build_vocabulary(tiny_split)
    cfg = tiny_reflex_config(target_gated_classifier=True)
    model = models.train(models.ReflexModel(cfg, vocab), tiny_split)
    path = tmp_path / "r.ckpt"
    model.save(path)
    loaded = models.load_checkpoint(path)
    assert isinstance(loaded, models.ReflexModel)
    assert loaded.config == cfg
    proto = tiny_split.sets[0].protoform
    tagged = assemble_reflex_input(proto, "LangA", vocab)
    a = dec.greedy_decode(model.decoder(tagged, "LangA"), 20)
    b = dec.greedy_decode(loaded.decoder(tagged, "LangA"), 20)
    assert a == b
