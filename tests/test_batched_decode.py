"""Batched greedy decoding equals the per-item decodes it replaced.

The oracle (oracle_* in tests/oracles.py) is the one-row inference path as
it was before decoding was batched: each input is encoded alone at batch 1,
decoded by its own stepper, and greedy_decode runs one row until EOS.
Batched decodes must be token-identical to it.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protorecon import decode as dec
from protorecon import models
from protorecon.corpus import (
    assemble_reconstruction_input,
    assemble_reflex_input,
    build_vocabulary,
)
from protorecon.errors import ConfigError, ProtoreconError, VocabularyError
from protorecon.rerank import (
    ReflexCache,
    reconstruct_reranked,
    rerank,
    score_candidates,
    scored_beams,
)
from protorecon.synthetic import generate_family
from tests.conftest import (
    REFLEX_CONDITIONING,
    GoldReflexStub,
    tiny_recon_config,
    tiny_reflex_config,
)
from tests.oracles import (
    oracle_greedy,
    oracle_recon_decoder,
    oracle_reconstruct_reranked,
    oracle_reflex_decoder,
    oracle_scores,
)

# -- tiny random models -----------------------------------------------------------


@pytest.fixture(scope="module")
def family():
    dataset, _rules = generate_family(n_sets=16, n_daughters=4, seed=3)
    return dataset, build_vocabulary(dataset)


def _randomize(model, seed, scale=1.5, eos_bias=5.0):
    """Spread the parameters, and favour EOS, so that decode lengths vary."""
    rng = np.random.default_rng(seed)
    for name, p in model.params.items():
        p.data = rng.normal(scale=scale, size=p.data.shape)
        if name.startswith("clf.b2"):
            p.data[model.vocab.eos_id] += eos_bias
    return model


def _reflex_rows(dataset, vocab, n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        proto = dataset.sets[int(rng.integers(len(dataset.sets)))].protoform
        lang = dataset.languages[int(rng.integers(len(dataset.languages)))]
        rows.append((assemble_reflex_input(proto, lang, vocab), lang))
    return rows


@pytest.mark.parametrize("name", sorted(REFLEX_CONDITIONING))
def test_reflex_batch_matches_per_item_decodes(family, name):
    dataset, vocab = family
    lengths_seen = set()
    for seed in range(3):
        model = _randomize(models.ReflexModel(
            tiny_reflex_config(seed=seed, **REFLEX_CONDITIONING[name]), vocab), 100 + seed)
        rows = _reflex_rows(dataset, vocab, 30, seed)
        assert len({len(ids) for ids, _ in rows}) > 1
        assert len({lang for _, lang in rows}) > 1
        max_len = model.max_decode_len = 6
        got = model.greedy_decode_rows([ids for ids, _ in rows])
        want = [oracle_greedy(oracle_reflex_decoder(model, ids, lang), max_len)
                for ids, lang in rows]
        assert got == want
        # the one-row decoder is the batch of one
        assert [dec.greedy_decode(model.decoder(ids, lang), max_len) for ids, lang in rows] == want
        lengths_seen |= {len(w) for w in want}
    assert max_len in lengths_seen and min(lengths_seen) < max_len


def test_recon_batch_matches_per_item_decodes(family):
    dataset, vocab = family
    inputs = [assemble_reconstruction_input(cs, vocab) for cs in dataset.sets]
    first_two = dataset.languages[:2]  # shorter inputs: the other reflexes left out
    inputs += [assemble_reconstruction_input(dataclasses.replace(
        cs, reflexes={lang: cs.reflexes[lang] for lang in first_two if lang in cs.reflexes}), vocab)
        for cs in dataset.sets[:4]]
    assert len({len(ids) for ids in inputs}) > 1
    lengths_seen = set()
    for seed in range(3):
        model = _randomize(models.ReconModel(tiny_recon_config(seed=seed), vocab), 200 + seed)
        model.max_decode_len = 8
        got = model.greedy_decode_rows(inputs)
        want = [oracle_greedy(oracle_recon_decoder(model, ids), 8) for ids in inputs]
        assert got == want
        lengths_seen |= {len(w) for w in want}
    assert 8 in lengths_seen and min(lengths_seen) < 8


def test_decode_rows_split_into_chunks(family, monkeypatch):
    dataset, vocab = family
    model = _randomize(models.ReflexModel(tiny_reflex_config(), vocab), 7)
    rows = [ids for ids, _ in _reflex_rows(dataset, vocab, 11, 5)]
    model.max_decode_len = 6
    whole = model.greedy_decode_rows(rows)
    monkeypatch.setattr(models, "DECODE_CHUNK", 4)
    assert model.greedy_decode_rows(rows) == whole
    assert model.greedy_decode_rows([]) == []


def _record_encode_passes(monkeypatch, cls):
    """The list that each cls.encode_np call appends its (inputs, encoded rows) to."""
    passes, encode_np = [], cls.encode_np

    def recording(self, inputs, p=None):
        passes.append((list(inputs), encode_np(self, inputs, p)))
        return passes[-1][1]

    monkeypatch.setattr(cls, "encode_np", recording)
    return passes


def _record_batches(monkeypatch, name):
    """The list that each dec.<name> call appends its (stepper's h0 rows, results) to."""
    batches, decode = [], getattr(dec, name)

    def recording(stepper, n_rows, *args):
        batches.append((stepper.init_state(n_rows)[0], decode(stepper, n_rows, *args)))
        return batches[-1][1]

    monkeypatch.setattr(dec, name, recording)
    return batches


def test_greedy_rows_encode_once_per_pass_and_decode_the_parents_batches(family, monkeypatch):
    """A pass encodes the rows of encode_pass_chunks decode batches; each batch of
    DECODE_CHUNK consecutive rows decodes from its slice of the pass's states, to the tokens
    that encoding and decoding that batch alone gives."""
    dataset, vocab = family
    model = _randomize(models.ReflexModel(tiny_reflex_config(), vocab), 7)
    model.max_decode_len = 6
    rows = [ids for ids, _ in _reflex_rows(dataset, vocab, 37, 5)]
    monkeypatch.setattr(models, "DECODE_CHUNK", 4)
    batch_alone = [dec.greedy_decode_batch(model.batch_decoder(rows[i : i + 4]),
                                           len(rows[i : i + 4]), 6) for i in range(0, 37, 4)]
    passes = _record_encode_passes(monkeypatch, models.ReflexModel)
    batches = _record_batches(monkeypatch, "greedy_decode_batch")
    assert model.encode_pass_chunks == 4
    got = model.greedy_decode_rows(rows)
    assert [inputs for inputs, _ in passes] == [rows[i : i + 16] for i in range(0, 37, 16)]
    slices = [(h, i) for _, h in passes for i in range(0, len(h), 4)]
    assert len(batches) == len(slices) == len(batch_alone) == 10
    for (h0, tokens), (h, i), want in zip(batches, slices, batch_alone):
        assert np.shares_memory(h0, h) and np.array_equal(h0, h[i : i + 4])
        assert tokens == want
    assert got == [row for tokens in batch_alone for row in tokens]


def test_beam_sets_encode_whole_batches_per_pass(family, recon_beams, monkeypatch):
    """A beam batch holds DECODE_CHUNK // k sets, as before passes; a pass encodes as many
    whole batches as hold at most DECODE_CHUNK // 2 sets, and each batch searches from its
    slice of the pass's states to the beams that encoding that batch alone gives."""
    dataset, _ = family
    recon, k, _ = recon_beams
    monkeypatch.setattr(models, "DECODE_CHUNK", 16)  # 3 sets per batch, 2 batches per pass
    config, sets = recon.beam_config(k), dataset.sets
    batch_alone = [dec.beam_search_batch(recon.batch_decoder(
        [assemble_reconstruction_input(cs, recon.vocab) for cs in sets[i : i + 3]]),
        len(sets[i : i + 3]), config) for i in range(0, len(sets), 3)]
    passes = _record_encode_passes(monkeypatch, models.ReconModel)
    batches = _record_batches(monkeypatch, "beam_search_batch")
    got = list(recon.beam_search_sets(sets, k))
    assert len(sets) == 16
    assert [len(inputs) for inputs, _ in passes] == [6, 6, 4]
    assert [batch for batch, _ in got] == [sets[i : i + 3] for i in range(0, 16, 3)]
    slices = [(h, i) for _, h in passes for i in range(0, len(h), 3)]
    assert len(batches) == len(slices) == len(batch_alone) == 6
    for (h0, beams), (h, i), want, (_, yielded) in zip(batches, slices, batch_alone, got):
        assert np.shares_memory(h0, h) and np.array_equal(h0, h[i : i + 3])
        assert beams is yielded
        assert [[(c.tokens, c.length) for c in beam] for beam in beams] == \
            [[(c.tokens, c.length) for c in beam] for beam in want]
        assert [c.m for beam in beams for c in beam] == \
            pytest.approx([c.m for beam in want for c in beam], abs=1e-9)


def test_no_rows_and_no_sets_run_no_encoder_pass(family, recon_beams, monkeypatch):
    _, vocab = family
    recon, k, _ = recon_beams
    reflex = models.ReflexModel(tiny_reflex_config(), vocab)
    recon_passes = _record_encode_passes(monkeypatch, models.ReconModel)
    reflex_passes = _record_encode_passes(monkeypatch, models.ReflexModel)
    assert reflex.greedy_decode_rows([]) == recon.greedy_decode_rows([]) == []
    assert list(recon.beam_search_sets([], k)) == []
    assert recon_passes == reflex_passes == []
    no_sets = recon.beam_search_sets([], 0)  # k is checked at the first next, with no sets too
    with pytest.raises(ConfigError):
        next(no_sets)


def test_one_decode_call_stacks_gates_and_reads_languages_once(family, recon_beams, monkeypatch):
    """A greedy_decode_rows call over several DECODE_CHUNK batches stacks the decoder gates
    once, and a beam_search_sets call over several encoder passes reads the target languages
    once, however many batches and passes they run."""
    dataset, vocab = family
    recon, k, _ = recon_beams
    reflex = _randomize(models.ReflexModel(tiny_reflex_config(), vocab), 7)
    reflex.max_decode_len = 6
    rows = [ids for ids, _ in _reflex_rows(dataset, vocab, 37, 5)]
    stacked, stack = [], models._stacked_gates
    read, target_languages = [], models.ReconModel._target_languages

    def counting_stack(params, prefix):
        stacked.append(prefix)
        return stack(params, prefix)

    def counting_read(self, inputs):
        read.append(len(inputs))
        return target_languages(self, inputs)

    monkeypatch.setattr(models, "_stacked_gates", counting_stack)
    monkeypatch.setattr(models.ReconModel, "_target_languages", counting_read)
    passes = _record_encode_passes(monkeypatch, models.ReflexModel)
    monkeypatch.setattr(models, "DECODE_CHUNK", 4)  # 10 batches in 3 passes
    reflex.greedy_decode_rows(rows)
    assert len(passes) == 3 and stacked.count("dec") == 1
    recon_passes = _record_encode_passes(monkeypatch, models.ReconModel)
    monkeypatch.setattr(models, "DECODE_CHUNK", 16)  # 3 sets per batch, 2 batches per pass
    stacked.clear()
    list(recon.beam_search_sets(dataset.sets, k))
    assert [len(inputs) for inputs, _ in recon_passes] == [6, 6, 4]
    assert read == [16] and stacked.count("dec") == 1


def test_beam_sets_refuse_a_bad_set_before_the_first_batch(family, recon_beams, monkeypatch):
    """Every set's input is assembled before the first batch, so a set whose reflexes the
    vocabulary lacks is refused before any set is searched."""
    dataset, _ = family
    recon, k, _ = recon_beams
    lang = dataset.languages[0]
    bad = dataclasses.replace(dataset.sets[-1], reflexes={lang: ("not-a-phoneme",)})
    batches = _record_batches(monkeypatch, "beam_search_batch")
    monkeypatch.setattr(models, "DECODE_CHUNK", 16)
    with pytest.raises(VocabularyError):
        next(recon.beam_search_sets([*dataset.sets[:-1], bad], k))
    assert batches == []


def test_batch_decoder_of_no_inputs_is_refused(family):
    _, vocab = family
    for model in (models.ReconModel(tiny_recon_config(), vocab),
                  models.ReflexModel(tiny_reflex_config(), vocab)):
        with pytest.raises(ProtoreconError, match="at least one input"):
            model.batch_decoder([])


@pytest.mark.parametrize("name", ["one-hot", "all"])
def test_reconstruct_reranked_matches_per_item_path(family, name):
    dataset, vocab = family
    # no EOS bias here, so that beams hold long candidates (empty ones: test_rerank.py)
    recon = _randomize(models.ReconModel(tiny_recon_config(seed=1), vocab), 300, scale=0.8,
                       eos_bias=0.0)
    reflex = _randomize(models.ReflexModel(
        tiny_reflex_config(seed=2, **REFLEX_CONDITIONING[name]), vocab), 301, scale=0.8)
    recon.max_decode_len = reflex.max_decode_len = 6
    cache = ReflexCache()
    for cset in dataset.sets:
        want = oracle_reconstruct_reranked(recon, reflex, cset, recon.beam_config(5), 1.0)
        assert reconstruct_reranked(recon, reflex, cset, 5, 1.0) == want
        assert reconstruct_reranked(recon, reflex, cset, 5, 1.0, cache=cache) == want


@pytest.mark.parametrize("name", sorted(REFLEX_CONDITIONING))
def test_scored_beams_match_per_set_path(family, name, monkeypatch):
    """Batches of sets give each set's per-set beam, r, ranks and predictions.

    A many-row matmul may round differently from a one-row one, so m and s
    match within 1e-9; everything else matches exactly.
    """
    dataset, vocab = family
    # the EOS bias puts the empty candidate in a few beams
    recon = _randomize(models.ReconModel(tiny_recon_config(seed=1), vocab), 300, scale=0.8)
    reflex = _randomize(models.ReflexModel(
        tiny_reflex_config(seed=2, **REFLEX_CONDITIONING[name]), vocab), 301, scale=0.8)
    recon.max_decode_len = reflex.max_decode_len = 6
    want = [oracle_reconstruct_reranked(recon, reflex, cset, recon.beam_config(5), 1.0)
            for cset in dataset.sets]
    assert any(cand.tokens == () for _, _, beam, _ in want for cand in beam)
    monkeypatch.setattr(models, "DECODE_CHUNK", 16)  # 3 sets per batch, 6 batches
    cache = ReflexCache()
    for run_cache in (None, cache, cache):  # the last run reads every decode from the cache
        got = list(scored_beams(recon, reflex, dataset.sets, 5, run_cache))
        assert [cset for cset, _, _, _ in got] == list(dataset.sets)
        for (_, beam, r_values, preds), (_, w_reranked, w_beam, w_preds) in zip(got, want):
            assert [(c.tokens, c.length) for c in beam] == [(c.tokens, c.length) for c in w_beam]
            assert [c.m for c in beam] == pytest.approx([c.m for c in w_beam], abs=1e-9)
            assert dict(enumerate(preds)) == w_preds
            reranked = rerank(beam, r_values, 1.0)
            assert ([(c.tokens, c.r, c.beam_rank, c.rerank_rank) for c in reranked]
                    == [(c.tokens, c.r, c.beam_rank, c.rerank_rank) for c in w_reranked])
            assert [c.s for c in reranked] == pytest.approx([c.s for c in w_reranked], abs=1e-9)


def test_score_candidates_across_sets_matches_oracle(family):
    """One call over many sets scores each like the oracle, empty and unknown ids included,
    and warns once per candidate with unknown ids, as one call per set did."""
    dataset, vocab = family
    reflex = _randomize(models.ReflexModel(tiny_reflex_config(), vocab), 11, scale=0.8)
    reflex.max_decode_len = 6
    rng = np.random.default_rng(4)
    items = []
    for i, cset in enumerate(dataset.sets[:6]):
        candidates = [tuple(vocab.encode(cs.protoform))
                      for cs in rng.choice(dataset.sets[:6], size=3)]  # repeats across sets
        candidates += [(), (vocab.size + 3,), tuple(vocab.encode(cset.protoform))]
        if i % 2:  # the first reflex becomes the last candidate's decode, so that r > 0
            lang = next(iter(cset.reflexes))
            pred = oracle_scores(reflex, candidates[-1:], cset)[1][0][lang]
            cset = dataclasses.replace(cset, reflexes={**cset.reflexes,
                                                       lang: tuple(vocab.decode(pred))})
        items.append((candidates, cset))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = score_candidates(reflex, items, cache=ReflexCache())
    assert len(caught) == len(items)
    assert got == [oracle_scores(reflex, candidates, cset) for candidates, cset in items]
    assert sum(r > 0 for r_values, _ in got for r in r_values) >= 3


@pytest.fixture(scope="module")
def recon_beams(family):
    """A random recon model, its beam size, and each family set's oracle beam."""
    dataset, vocab = family
    recon = _randomize(models.ReconModel(tiny_recon_config(seed=1), vocab), 300, scale=0.8,
                       eos_bias=0.0)
    recon.max_decode_len = 6
    beams = [dec.beam_search(oracle_recon_decoder(recon, assemble_reconstruction_input(cs, vocab)),
                             recon.beam_config(5)) for cs in dataset.sets]
    return recon, 5, beams


LAST_EVERYWHERE = frozenset((i, 4, lang) for i in range(16) for lang in range(4))


@settings(max_examples=30)
@example(chosen=LAST_EVERYWHERE, lam=4.2)
@given(chosen=st.frozensets(st.tuples(st.integers(0, 15), st.integers(0, 4), st.integers(0, 3))),
       lam=st.sampled_from([0.0, 0.3, 1.0, 4.2]))
def test_rerank_with_gold_reflexes_matches_oracle(family, recon_beams, chosen, lam):
    """scored_beams plus rerank equal the per-set oracle when r > 0.

    chosen holds (set, beam rank, language index) rows whose reflex decode is
    the set's gold reflex, so r takes values from 0 to 1 and reranking moves
    candidates.
    """
    dataset, vocab = family
    recon, k, beams = recon_beams
    gold = {}
    for i, rank, lang in sorted(chosen):
        cset, beam = dataset.sets[i], beams[i]
        language = sorted(cset.reflexes)[lang % len(cset.reflexes)]
        gold[(beam[rank % len(beam)].tokens, language)] = vocab.encode(cset.reflexes[language])
    stub = GoldReflexStub(vocab, gold)
    got = list(scored_beams(recon, stub, dataset.sets, k))
    assert len(got) == len(beams)
    moved = False
    for cset, w_beam, (got_cset, beam, r_values, preds) in zip(dataset.sets, beams, got):
        assert got_cset is cset
        w_r_values, w_preds = oracle_scores(stub, [c.tokens for c in w_beam], cset,
                                             stub.decode_row)
        assert [c.tokens for c in beam] == [c.tokens for c in w_beam]
        assert (r_values, preds) == (w_r_values, w_preds)
        reranked, w_reranked = rerank(beam, r_values, lam), rerank(w_beam, w_r_values, lam)
        assert ([(c.tokens, c.r, c.beam_rank, c.rerank_rank) for c in reranked]
                == [(c.tokens, c.r, c.beam_rank, c.rerank_rank) for c in w_reranked])
        assert [c.s for c in reranked] == pytest.approx([c.s for c in w_reranked], abs=1e-9)
        moved |= reranked[0].beam_rank != 0
    some_r = any(r > 0 for _, _, r_values, _ in got for r in r_values)
    assert some_r == any(tokens for tokens, _ in gold)
    if chosen == LAST_EVERYWHERE:  # the last candidate of every beam has r = 1
        assert moved
