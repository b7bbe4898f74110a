"""Reranking arithmetic and the reflex-accuracy scoring path."""

import numpy as np
import pytest

from protorecon import decode as dec
from protorecon import models
from protorecon.corpus import build_vocabulary
from protorecon.decode import Candidate
from protorecon.errors import CheckpointError, ConfigError, ProtoreconError
from protorecon.experiment import grid_search
from protorecon.rerank import (
    ReflexCache,
    reconstruct_reranked,
    reflex_accuracy,
    format_rerank_tsv,
    rerank,
    rerank_sets,
    scored_beams,
)
from protorecon.synthetic import generate_family
from tests.conftest import tiny_recon_config, tiny_reflex_config

# Worked example: five candidates with model scores m and reflex accuracies r;
# at lambda = 1.26 the third beam candidate must move to the top.
EXAMPLE_M = [-0.1114, -0.2711, -0.5030, -1.5533, -1.6329]
EXAMPLE_R = [0.25, 0.25, 0.875, 0.25, 0.125]
EXAMPLE_LAMBDA = 1.26
EXAMPLE_S = [0.2036, 0.0439, 0.5995, -1.2383, -1.4754]


def _candidates(ms):
    return [
        Candidate(tokens=(10 + i,), m=m, raw_logp=2 * m, length=2)
        for i, m in enumerate(ms)
    ]


def test_worked_example_scores():
    reranked = rerank(_candidates(EXAMPLE_M), EXAMPLE_R, EXAMPLE_LAMBDA)
    by_beam = sorted(reranked, key=lambda c: c.beam_rank)
    for rc, want in zip(by_beam, EXAMPLE_S):
        assert rc.s == pytest.approx(want, abs=5e-4)


def test_worked_example_reranks_third_candidate_to_top():
    reranked = rerank(_candidates(EXAMPLE_M), EXAMPLE_R, EXAMPLE_LAMBDA)
    assert reranked[0].beam_rank == 2
    assert reranked[0].rerank_rank == 0
    # full reordering by adjusted score
    assert [rc.beam_rank for rc in reranked] == [2, 0, 1, 3, 4]


def test_lambda_zero_preserves_beam_order():
    reranked = rerank(_candidates(EXAMPLE_M), EXAMPLE_R, 0.0)
    assert [rc.beam_rank for rc in reranked] == [0, 1, 2, 3, 4]
    for rc in reranked:
        assert rc.s == pytest.approx(rc.m)


def test_rerank_stable_on_ties():
    cands = _candidates([-0.5, -0.5, -0.5])
    reranked = rerank(cands, [0.5, 0.5, 0.5], 1.0)
    assert [rc.beam_rank for rc in reranked] == [0, 1, 2]


def test_rerank_validates_lengths():
    with pytest.raises(ProtoreconError):
        rerank(_candidates([-0.1]), [0.5, 0.5], 1.0)


def test_rerank_config_validation(tiny_dataset, tiny_vocab):
    """A lambda that is negative or not finite is refused before any decode."""
    recon = models.ReconModel(tiny_recon_config(), tiny_vocab)
    reflex = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    cs = tiny_dataset.sets[0]
    recon.max_decode_len = 4
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            reconstruct_reranked(recon, reflex, cs, 2, bad)
    reconstruct_reranked(recon, reflex, cs, 2, 0.0)  # boundary allowed


def test_library_decodes_under_the_recon_models_own_settings(tiny_dataset, tiny_vocab,
                                                            monkeypatch):
    """The four library calls take the beam size k; alpha and the longest candidate are the
    recon model's.  A bad k is refused before any beam search, with no sets too: at the
    call, or at a generator's first next."""
    recon = models.ReconModel(tiny_recon_config(alpha=0.5), tiny_vocab)
    recon.params["clf.b2"].data[tiny_vocab.eos_id] -= 3.0  # long candidates, so the cap binds
    recon.max_decode_len = 3
    reflex = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    csets = list(tiny_dataset.sets)
    beams = [beam for _, batch_beams in recon.beam_search_sets(csets, 4) for beam in batch_beams]
    beams += [beam for _, beam, _, _ in scored_beams(recon, reflex, csets, 4)]
    beams += [beam for _, beam, _, _ in rerank_sets(recon, reflex, csets, 4, 1.0)]
    beams += [reconstruct_reranked(recon, reflex, cs, 4, 1.0)[2] for cs in csets]
    assert len(beams) == 4 * len(csets) and all(1 <= len(beam) <= 4 for beam in beams)
    candidates = [cand for beam in beams for cand in beam]
    assert all(c.length <= 4 and c.m == c.raw_logp / c.length ** 0.5 for c in candidates)
    assert any(c.length == 4 for c in candidates)

    def no_search(*_args, **_kwargs):
        raise AssertionError("beam search ran at a bad beam size")

    monkeypatch.setattr(dec, "beam_search_batch", no_search)
    for sets in (csets, []):
        for results in (recon.beam_search_sets(sets, 0), scored_beams(recon, reflex, sets, 0),
                        rerank_sets(recon, reflex, sets, 0, 1.0)):
            with pytest.raises(ConfigError, match="beam size"):
                next(results)
    with pytest.raises(ConfigError, match="beam size"):
        reconstruct_reranked(recon, reflex, csets[0], 0, 1.0)


def test_reflex_accuracy_counts_exact_matches(tiny_dataset, tiny_vocab):
    """With a model forced to echo nothing, r is 0; with gold decodes, r is a/n."""
    model = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    cs = tiny_dataset.sets[0]
    gold = tiny_vocab.encode(cs.protoform)
    r, preds = reflex_accuracy(model, tuple(gold), cs)
    assert set(preds) == set(cs.reflexes)
    n = len(cs.reflexes)
    assert r in {i / n for i in range(n + 1)}


def test_reflex_accuracy_unknown_ids_warns(tiny_dataset, tiny_vocab):
    model = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    cs = tiny_dataset.sets[0]
    with pytest.warns(UserWarning):
        r, preds = reflex_accuracy(model, (tiny_vocab.size + 5,), cs)
    assert r == 0.0
    assert all(p == () for p in preds.values())


def test_reflex_accuracy_scores_empty_candidate_zero(tiny_dataset, tiny_vocab):
    """An empty candidate is not decoded: r = 0 and empty predictions, like unknown ids."""
    model = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    cs = tiny_dataset.sets[0]
    r, preds = reflex_accuracy(model, (), cs)
    assert r == 0.0
    assert preds == {lang: () for lang in cs.reflexes}


def test_reconstruct_reranked_scores_empty_beam_candidate(tiny_dataset, tiny_vocab):
    """A recon model that ranks EOS first still reranks; its empty candidate gets r = 0."""
    recon = models.ReconModel(tiny_recon_config(), tiny_vocab)
    recon.params["clf.b2"].data[tiny_vocab.eos_id] += 5.0
    reflex = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    recon.max_decode_len = 6
    for cs in tiny_dataset.sets:
        top, reranked, beam, preds = reconstruct_reranked(recon, reflex, cs, 3, 1.0)
        assert beam[0].tokens == ()
        empty = next(rc for rc in reranked if rc.beam_rank == 0)
        assert empty.r == 0.0 and empty.s == empty.m
        assert preds[0] == {lang: () for lang in cs.reflexes}


def test_reflex_cache_hits(tiny_dataset, tiny_vocab):
    model = models.ReflexModel(tiny_reflex_config(), tiny_vocab)
    cs = tiny_dataset.sets[0]
    gold = tuple(tiny_vocab.encode(cs.protoform))
    cache = ReflexCache()
    r1, p1 = reflex_accuracy(model, gold, cs, cache=cache)
    # poison the memo to prove the second call reads from it
    for lang in cs.reflexes:
        cache.put((gold, lang), (999,))
    r2, p2 = reflex_accuracy(model, gold, cs, cache=cache)
    assert all(p == (999,) for p in p2.values())
    assert r2 == 0.0
    del r1, p1


def test_reconstruct_reranked_pipeline(tiny_split):
    """End-to-end composition returns consistent candidates and predictions."""
    vocab = build_vocabulary(tiny_split)
    recon = models.train(models.ReconModel(tiny_recon_config(), vocab), tiny_split)
    reflex = models.train(models.ReflexModel(tiny_reflex_config(), vocab), tiny_split)
    cs = tiny_split.sets[0]
    recon.max_decode_len = 8
    top, reranked, beam, preds = reconstruct_reranked(recon, reflex, cs, 4, 1.0)
    assert 1 <= len(beam) <= 4
    assert len(reranked) == len(beam)
    assert top == reranked[0]
    assert sorted(rc.rerank_rank for rc in reranked) == list(range(len(reranked)))
    assert set(preds) == set(range(len(beam)))
    # adjusted scores are non-increasing in rerank order
    ss = [rc.s for rc in reranked]
    assert all(a >= b - 1e-12 for a, b in zip(ss, ss[1:]))


def test_format_rerank_tsv(tiny_dataset, tiny_vocab):
    cands = _candidates(EXAMPLE_M[:2])
    # remap candidate tokens into the tiny vocabulary range
    cands = [
        Candidate(tokens=(tiny_vocab.encode(["p"])[0],), m=c.m, raw_logp=c.raw_logp, length=2)
        for c in cands
    ]
    reranked = rerank(cands, [0.5, 1.0], 1.0)
    preds = {i: {lang: tuple(tiny_vocab.encode(["p"])) for lang in ("LangA", "LangB")}
             for i in range(2)}
    text = format_rerank_tsv(tiny_dataset.sets[0], reranked, preds, tiny_vocab)
    lines = text.strip().split("\n")
    assert lines[0].split("\t")[:3] == ["beam_rank", "candidate", "m"]
    assert len(lines) == 3


def test_library_rejects_models_of_different_vocabularies(tiny_split, tiny_vocab):
    """A recon/reflex pair built on different vocabularies is refused before any decode."""
    recon = models.ReconModel(tiny_recon_config(), tiny_vocab)
    other, _ = generate_family(n_sets=10, n_daughters=2, seed=1)
    reflex = models.ReflexModel(tiny_reflex_config(), build_vocabulary(other))
    recon.max_decode_len = 6
    cs = tiny_split.sets[0]
    with pytest.raises(CheckpointError, match="different vocabularies"):
        next(scored_beams(recon, reflex, [cs], 3))
    with pytest.raises(CheckpointError, match="different vocabularies"):
        reconstruct_reranked(recon, reflex, cs, 3, 1.0)
    with pytest.raises(CheckpointError, match="different vocabularies"):
        grid_search(recon, reflex, tiny_split, k_range=(2,), lambda_range=(1.0,))
