"""Post hoc reranking error analysis: behavior categories, similarity, error rates."""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

from .corpus import CognateSet, write_text
from .errors import ProtoreconError
from .metrics import FeatureTable, feature_edit_distance, token_edit_distance
from .rerank import score_candidates


class RerankBehavior(Enum):
    IMPROVED = "Improved"
    WORSENED = "Worsened"
    UNCHANGED = "Unchanged"
    NOT_IN = "Not-in"


@dataclass(frozen=True)
class SimilarityRecord:
    """Mean tone-stripped distances from one form to a set of reflexes."""

    d_t: float  # normalized token edit distance
    d_f: float  # normalized feature edit distance


def categorize(beam_candidates, reranked, gold_tokens) -> RerankBehavior:
    """Locate the gold protoform in the beam list and compare its two ranks."""
    gold = tuple(gold_tokens)
    beam_rank = next((i for i, c in enumerate(beam_candidates) if tuple(c.tokens) == gold), None)
    if beam_rank is None:
        return RerankBehavior.NOT_IN
    rerank_rank = next(rc.rerank_rank for rc in reranked if rc.beam_rank == beam_rank)
    if rerank_rank < beam_rank:
        return RerankBehavior.IMPROVED
    if rerank_rank > beam_rank:
        return RerankBehavior.WORSENED
    return RerankBehavior.UNCHANGED


def _strip_tones(tokens, table: FeatureTable):
    return [t for t in tokens if not table.is_tone(t)]


def _pair_distance(a, b, dist_fn) -> float:
    """Distance normalized by max length; empty-vs-empty is 0, empty-vs-any is 1."""
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    return dist_fn(a, b) / max(len(a), len(b))


def similarity_to_reflexes(form, cset: CognateSet, table: FeatureTable) -> SimilarityRecord:
    """Mean normalized token / feature edit distance to the present reflexes.

    Tone-flagged tokens are stripped from the form and every reflex first.
    """
    table.check_tokens([*form, *(t for seq in cset.reflexes.values() for t in seq)])
    form_s = _strip_tones(form, table)
    d_t = d_f = 0.0
    for reflex in cset.reflexes.values():
        reflex_s = _strip_tones(reflex, table)
        d_t += _pair_distance(form_s, reflex_s, token_edit_distance)
        d_f += _pair_distance(form_s, reflex_s, lambda a, b: feature_edit_distance(a, b, table))
    n = len(cset.reflexes)
    return SimilarityRecord(d_t=d_t / n, d_f=d_f / n)


def similarity_comparison_table(error_items, table: FeatureTable):
    """Per-category fraction of errors where the prediction is strictly closer
    to the reflexes than the gold protoform, by D_T and by D_F separately.

    error_items: (cognate set with a gold protoform, predicted token strings,
    RerankBehavior) per reranked reconstruction error.  Returns {behavior:
    {"d_t": fraction or None, "d_f": ..., "count": n}}; empty categories
    report None fractions.
    """
    out = {}
    for behavior in RerankBehavior:
        items = [(cset, predicted) for cset, predicted, b in error_items if b == behavior]
        if not items:
            out[behavior] = {"d_t": None, "d_f": None, "count": 0}
            continue
        t_wins = f_wins = 0
        for cset, predicted in items:
            pred_sim = similarity_to_reflexes(predicted, cset, table)
            gold_sim = similarity_to_reflexes(cset.protoform, cset, table)
            t_wins += pred_sim.d_t < gold_sim.d_t
            f_wins += pred_sim.d_f < gold_sim.d_f
        out[behavior] = {
            "d_t": t_wins / len(items),
            "d_f": f_wins / len(items),
            "count": len(items),
        }
    return out


def per_language_error_rates(reflex_model, items, cache=None):
    """Reflex error rates per daughter language, per behavior group and overall.

    items: iterable of (CognateSet, RerankBehavior); a set without a gold
    protoform is skipped.  The reflexes are predicted from the gold
    protoform by rerank.score_candidates, so a (protoform, language) pair
    that the cache holds, as rerank_sets leaves it, is not decoded again.
    Languages absent from every item are omitted.
    """
    vocab = reflex_model.vocab
    items = [(cset, behavior) for cset, behavior in items if cset.protoform is not None]
    scores = score_candidates(reflex_model, [([vocab.encode(cset.protoform)], cset)
                                             for cset, _ in items], cache)
    counts = {}  # (group, language) -> [errors, total]
    for (cset, behavior), (_, [preds]) in zip(items, scores):
        for language, reflex in cset.reflexes.items():
            wrong = preds[language] != tuple(vocab.encode(reflex))
            for group in (behavior, "overall"):
                c = counts.setdefault((group, language), [0, 0])
                c[0] += wrong
                c[1] += 1
    out = {}
    for (group, language), (errors, total) in counts.items():
        out.setdefault(group, {})[language] = errors / total
    return out


def behavior_distribution(behaviors) -> dict:
    """Counts per category plus the Improved/(Improved+Worsened) ratio."""
    counts = {b: 0 for b in RerankBehavior}
    for behavior in behaviors:
        counts[behavior] += 1
    changed = counts[RerankBehavior.IMPROVED] + counts[RerankBehavior.WORSENED]
    ratio = counts[RerankBehavior.IMPROVED] / changed if changed else None
    return {"counts": counts, "total": sum(counts.values()), "improved_over_changed": ratio}


def write_analysis_tables(out_dir, reflex_model, results, languages, table=None, stamp="",
                          cache=None):
    """Write behavior.tsv, similarity.tsv (with a feature table) and error_rates.tsv.

    results: (cognate set with a gold protoform, its beam candidates, its
    reranked list, predictions) per set, as rerank_sets yields them, read
    once.  cache is the ReflexCache that rerank_sets filled, if any, which
    per_language_error_rates reads.  error_rates.tsv lists the languages of
    languages that some set has.  Every file starts with stamp.  Returns
    each set's RerankBehavior.
    """
    vocab = reflex_model.vocab
    behaviors, error_items, rate_items = [], [], []
    for cset, beam, reranked, _ in results:
        gold_ids = tuple(vocab.encode(cset.protoform))
        behavior = categorize(beam, reranked, gold_ids)
        behaviors.append(behavior)
        rate_items.append((cset, behavior))
        if reranked[0].tokens != gold_ids:
            error_items.append((cset, vocab.decode(reranked[0].tokens), behavior))
    if not behaviors:
        raise ProtoreconError("no cognate set with a gold protoform to analyze")

    def write(name, lines):
        write_text(os.path.join(out_dir, name), stamp + "\n".join(lines) + "\n")

    dist = behavior_distribution(behaviors)
    lines = ["category\tcount\tpercent"]
    for b in RerankBehavior:
        c = dist["counts"][b]
        lines.append(f"{b.value}\t{c}\t{100 * c / dist['total']:.2f}")
    ratio = dist["improved_over_changed"]
    lines.append(f"Improved/Changed\t-\t{'-' if ratio is None else f'{100 * ratio:.2f}'}")
    write("behavior.tsv", lines)

    if table is not None:
        sim = similarity_comparison_table(error_items, table)
        lines = ["category\tn\tpct_pred_closer_d_t\tpct_pred_closer_d_f"]
        for b in RerankBehavior:
            row = sim[b]
            cells = ["-" if row[d] is None else f"{100 * row[d]:.2f}" for d in ("d_t", "d_f")]
            lines.append("\t".join([b.value, str(row["count"]), *cells]))
        write("similarity.tsv", lines)

    rates = per_language_error_rates(reflex_model, rate_items, cache=cache)
    langs = [lang for lang in languages if any(lang in group for group in rates.values())]
    lines = ["category\t" + "\t".join(langs)]
    for group in list(RerankBehavior) + ["overall"]:
        if group in rates:
            cells = [f"{100 * rates[group][lang]:.2f}" if lang in rates[group] else "-"
                     for lang in langs]
            lines.append("\t".join([group if group == "overall" else group.value, *cells]))
    write("error_rates.tsv", lines)
    return behaviors
