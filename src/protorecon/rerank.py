"""Rerank beam candidates by reflex-prediction accuracy.

For each candidate protoform, the reflex model greedily derives the reflex
in every present daughter language; the fraction of exact matches is the
reranker score r, and candidates are reordered by s = m + lambda * r.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .corpus import CognateSet
from .errors import CheckpointError, ConfigError, ProtoreconError


def check_lambda(lam):
    """Raise ConfigError unless lam, the weight of r in s = m + lam * r, is finite and >= 0."""
    if not 0 <= lam < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"score adjustment weight must be finite and >= 0, got {lam}")


@dataclass(frozen=True)
class RerankedCandidate:
    tokens: tuple[int, ...]
    m: float
    r: float
    s: float
    beam_rank: int
    rerank_rank: int


class ReflexCache:
    """Memo of greedy reflex decodes keyed by (candidate tokens, language).

    Beam lists for neighboring cognate sets often share candidates; one cache
    per worker keeps the reranker pure while avoiding repeated decodes.
    """

    def __init__(self):
        self._memo = {}

    def get(self, key):
        return self._memo.get(key)

    def put(self, key, value):
        self._memo[key] = value


def score_candidates(reflex_model, items, cache=None):
    """Reflex accuracy r of every candidate protoform of some cognate sets.

    items lists (candidate token lists, cognate set) pairs.  Every
    (candidate, present language) pair of all items that is missing from the
    cache is decoded in one greedy_decode_rows call, as the row [language
    tag, *candidate].  Returns one (r values, predictions) pair per item,
    with one entry per candidate; a prediction maps language -> predicted id
    tuple.  An empty candidate (beam search ranked EOS first) and one with
    ids unknown to the reflex model's vocabulary (with a warning) are not
    decoded: they get r = 0 and empty predictions.
    """
    vocab = reflex_model.vocab
    found, pending = {}, []  # (candidate, language) -> prediction or None; keys to decode
    items = [([tuple(tokens) for tokens in candidates], cset) for candidates, cset in items]
    for candidates, cset in items:
        for tokens in candidates:
            unknown = [t for t in tokens if not 0 <= t < vocab.size]
            if unknown:
                warnings.warn(f"candidate contains ids unknown to the reflex vocabulary: "
                              f"{unknown}; its reflex decodes count as incorrect", stacklevel=2)
            if not tokens or unknown:
                continue
            for language in cset.reflexes:
                key = (tokens, language)
                if key not in found:
                    found[key] = None if cache is None else cache.get(key)
                    if found[key] is None:
                        pending.append(key)
    rows = [[vocab.language_tag_id(language), *tokens] for tokens, language in pending]
    for key, pred in zip(pending, reflex_model.greedy_decode_rows(rows)):
        found[key] = tuple(pred)
        if cache is not None:
            cache.put(key, found[key])

    out = []
    for candidates, cset in items:
        golds = {lang: tuple(vocab.encode(reflex)) for lang, reflex in cset.reflexes.items()}
        r_values, predictions = [], []
        for tokens in candidates:
            preds = {lang: found.get((tokens, lang)) for lang in golds}  # None: not decodable
            r_values.append(sum(preds[lang] == gold for lang, gold in golds.items()) / len(golds))
            predictions.append({lang: pred or () for lang, pred in preds.items()})
        out.append((r_values, predictions))
    return out


def reflex_accuracy(reflex_model, candidate_tokens, cset: CognateSet, cache=None):
    """score_candidates for one candidate: (r, predictions dict)."""
    r_values, predictions = score_candidates(reflex_model, [([candidate_tokens], cset)], cache)[0]
    return r_values[0], predictions[0]


def check_model_pair(recon_model, reflex_model, names="the recon and reflex models"):
    """Raise CheckpointError unless both models share one vocabulary."""
    if recon_model.vocab.content_hash() != reflex_model.vocab.content_hash():
        raise CheckpointError(f"{names} were trained on different vocabularies")


def scored_beams(recon_model, reflex_model, csets, k, cache=None):
    """Beam candidates and their reflex scores for a sequence of cognate sets.

    Sets go through recon_model.beam_search_sets(csets, k) a batch at a
    time, and every uncached (candidate, language) pair of a batch through
    one score_candidates call.  Yields (cognate set, beam candidates, r values,
    predictions) per set, in input order.  The two models must share one
    vocabulary.  Without a cache, one is made for this call.
    """
    check_model_pair(recon_model, reflex_model)
    cache = ReflexCache() if cache is None else cache
    for batch, beams in recon_model.beam_search_sets(csets, k):
        scores = score_candidates(reflex_model,
                                  [([c.tokens for c in beam], cset)
                                   for cset, beam in zip(batch, beams)], cache=cache)
        for cset, beam, (r_values, predictions) in zip(batch, beams, scores):
            yield cset, beam, r_values, predictions


def rerank_sets(recon_model, reflex_model, csets, k, lam, cache=None):
    """The paper's composition for a sequence of cognate sets: beam search,
    reflex scores, rerank at lam.

    Returns an iterator over (cognate set, beam candidates, reranked list,
    predictions) per set, in input order; see scored_beams.  lam is checked
    at the call, k and the model pair at the first item.
    """
    check_lambda(lam)
    return ((cset, beam, rerank(beam, r_values, lam), predictions)
            for cset, beam, r_values, predictions
            in scored_beams(recon_model, reflex_model, csets, k, cache))


def rerank(candidates, r_values, lam: float) -> list[RerankedCandidate]:
    """Stable sort by adjusted score s = m + lambda * r, descending."""
    if len(candidates) != len(r_values):
        raise ProtoreconError("candidate / reranker-score count mismatch")
    s_values = [cand.m + lam * r for cand, r in zip(candidates, r_values)]
    order = sorted(range(len(s_values)), key=lambda i: (-s_values[i], i))
    return [
        RerankedCandidate(tokens=tuple(candidates[i].tokens), m=candidates[i].m, r=r_values[i],
                          s=s_values[i], beam_rank=i, rerank_rank=rank)
        for rank, i in enumerate(order)
    ]


def reconstruct_reranked(recon_model, reflex_model, cset: CognateSet, k, lam, cache=None):
    """rerank_sets for one set.

    Returns (top RerankedCandidate, full reranked list, beam candidates,
    per-candidate reflex predictions keyed by beam rank).
    """
    [(_, beam, reranked, predictions)] = rerank_sets(recon_model, reflex_model, [cset], k, lam,
                                                     cache)
    return reranked[0], reranked, beam, dict(enumerate(predictions))


def format_rerank_tsv(cset: CognateSet, reranked, predictions, vocab) -> str:
    """Per-set TSV: beam rank, candidate, m, per-language reflexes, r, rerank rank, s."""
    langs = [lang for lang in vocab.languages if lang in cset.reflexes]
    header = ["beam_rank", "candidate", "m"] + langs + ["r", "rerank_rank", "s"]
    lines = ["\t".join(header)]
    for rc in sorted(reranked, key=lambda c: c.beam_rank):
        preds = predictions.get(rc.beam_rank, {})
        cells = [str(rc.beam_rank), " ".join(vocab.decode(rc.tokens)), f"{rc.m:.6f}"]
        cells += [" ".join(vocab.decode(preds.get(lang, ()))) for lang in langs]
        cells += [f"{rc.r:.4f}", str(rc.rerank_rank), f"{rc.s:.6f}"]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
