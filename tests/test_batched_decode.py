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
from protorecon.rerank import (
    ReflexCache,
    RerankConfig,
    reconstruct_reranked,
    rerank,
    score_candidates,
    scored_beams,
)
from protorecon.synthetic import generate_family
from tests.conftest import REFLEX_CONDITIONING, tiny_recon_config, tiny_reflex_config
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
        max_len = 6
        got = model.greedy_decode_rows(rows, max_len)
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
    inputs += [assemble_reconstruction_input(cs, vocab, dataset.languages[:2])
               for cs in dataset.sets[:4]]
    assert len({len(ids) for ids in inputs}) > 1
    lengths_seen = set()
    for seed in range(3):
        model = _randomize(models.ReconModel(tiny_recon_config(seed=seed), vocab), 200 + seed)
        got = model.greedy_decode_rows(inputs, 8)
        want = [oracle_greedy(oracle_recon_decoder(model, ids), 8) for ids in inputs]
        assert got == want
        lengths_seen |= {len(w) for w in want}
    assert 8 in lengths_seen and min(lengths_seen) < 8


def test_decode_rows_split_into_chunks(family, monkeypatch):
    dataset, vocab = family
    model = _randomize(models.ReflexModel(tiny_reflex_config(), vocab), 7)
    rows = _reflex_rows(dataset, vocab, 11, 5)
    whole = model.greedy_decode_rows(rows, 6)
    monkeypatch.setattr(models, "DECODE_CHUNK", 4)
    assert model.greedy_decode_rows(rows, 6) == whole
    assert model.greedy_decode_rows([], 6) == []


@pytest.mark.parametrize("name", ["one-hot", "all"])
def test_reconstruct_reranked_matches_per_item_path(family, name):
    dataset, vocab = family
    # no EOS bias here, so that beams hold long candidates (empty ones: test_rerank.py)
    recon = _randomize(models.ReconModel(tiny_recon_config(seed=1), vocab), 300, scale=0.8,
                       eos_bias=0.0)
    reflex = _randomize(models.ReflexModel(
        tiny_reflex_config(seed=2, **REFLEX_CONDITIONING[name]), vocab), 301, scale=0.8)
    recon.max_decode_len = reflex.max_decode_len = 6
    config = RerankConfig(lam=1.0, k=5, alpha=1.0, max_len=6)
    cache = ReflexCache()
    for cset in dataset.sets:
        want = oracle_reconstruct_reranked(recon, reflex, cset, config)
        assert reconstruct_reranked(recon, reflex, cset, config) == want
        assert reconstruct_reranked(recon, reflex, cset, config, cache=cache) == want


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
    config = RerankConfig(lam=1.0, k=5, alpha=1.0, max_len=6)
    want = [oracle_reconstruct_reranked(recon, reflex, cset, config) for cset in dataset.sets]
    assert any(cand.tokens == () for _, _, beam, _ in want for cand in beam)
    monkeypatch.setattr(models, "DECODE_CHUNK", 16)  # 3 sets per batch, 6 batches
    cache = ReflexCache()
    for run_cache in (None, cache, cache):  # the last run reads every decode from the cache
        got = list(scored_beams(recon, reflex, dataset.sets, config.beam, run_cache))
        assert len(got) == len(want)
        for (beam, r_values, preds), (_, w_reranked, w_beam, w_preds) in zip(got, want):
            assert [(c.tokens, c.length) for c in beam] == [(c.tokens, c.length) for c in w_beam]
            assert [c.m for c in beam] == pytest.approx([c.m for c in w_beam], abs=1e-9)
            assert dict(enumerate(preds)) == w_preds
            reranked = rerank(beam, r_values, config.lam)
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


class _GoldReflexStub:
    """A reflex model stand-in on the recon model's vocabulary.

    A (candidate, language) pair in gold decodes to gold[pair]; every other
    row decodes to nothing, which matches no reflex.
    """

    def __init__(self, vocab, gold):
        self.vocab, self.gold = vocab, gold

    def decode_row(self, tagged, language):
        assert tagged[0] == self.vocab.language_tag_id(language)
        return list(self.gold.get((tuple(tagged[1:]), language), ()))

    def greedy_decode_rows(self, rows, max_len=None):
        return [self.decode_row(tagged, language) for tagged, language in rows]


@pytest.fixture(scope="module")
def recon_beams(family):
    """A random recon model, its beam config, and each family set's oracle beam."""
    dataset, vocab = family
    recon = _randomize(models.ReconModel(tiny_recon_config(seed=1), vocab), 300, scale=0.8,
                       eos_bias=0.0)
    recon.max_decode_len = 6
    config = dec.BeamConfig(k=5, alpha=1.0, max_len=6)
    beams = [dec.beam_search(oracle_recon_decoder(recon, assemble_reconstruction_input(cs, vocab)),
                             config) for cs in dataset.sets]
    return recon, config, beams


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
    recon, config, beams = recon_beams
    gold = {}
    for i, rank, lang in sorted(chosen):
        cset, beam = dataset.sets[i], beams[i]
        language = sorted(cset.reflexes)[lang % len(cset.reflexes)]
        gold[(beam[rank % len(beam)].tokens, language)] = vocab.encode(cset.reflexes[language])
    stub = _GoldReflexStub(vocab, gold)
    got = list(scored_beams(recon, stub, dataset.sets, config))
    assert len(got) == len(beams)
    moved = False
    for cset, w_beam, (beam, r_values, preds) in zip(dataset.sets, beams, got):
        w_r_values, w_preds = oracle_scores(stub, [c.tokens for c in w_beam], cset,
                                             stub.decode_row)
        assert [c.tokens for c in beam] == [c.tokens for c in w_beam]
        assert (r_values, preds) == (w_r_values, w_preds)
        reranked, w_reranked = rerank(beam, r_values, lam), rerank(w_beam, w_r_values, lam)
        assert ([(c.tokens, c.r, c.beam_rank, c.rerank_rank) for c in reranked]
                == [(c.tokens, c.r, c.beam_rank, c.rerank_rank) for c in w_reranked])
        assert [c.s for c in reranked] == pytest.approx([c.s for c in w_reranked], abs=1e-9)
        moved |= reranked[0].beam_rank != 0
    some_r = any(r > 0 for _, r_values, _ in got for r in r_values)
    assert some_r == any(tokens for tokens, _ in gold)
    if chosen == LAST_EVERYWHERE:  # the last candidate of every beam has r = 1
        assert moved
