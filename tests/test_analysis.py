"""Behavior categorization, reflex-similarity comparisons, and error rates."""

import pytest

from protorecon import models
from protorecon.analysis import (
    RerankBehavior,
    behavior_distribution,
    categorize,
    per_language_error_rates,
    similarity_comparison_table,
    similarity_to_reflexes,
)
from protorecon.corpus import CognateSet, build_vocabulary
from protorecon.decode import Candidate
from protorecon.errors import ProtoreconError
from protorecon.metrics import FeatureTable
from protorecon.rerank import rerank
from tests.conftest import tiny_reflex_config

FEATURE_TSV = (
    "token\ttone\tf1\tf2\n"
    "p\t0\t1\t0\n"
    "b\t0\t1\t1\n"
    "a\t0\t-1\t0\n"
    "i\t0\t-1\t-1\n"
    "˥\t1\t0\t0\n"
)


@pytest.fixture(scope="module")
def table():
    return FeatureTable.from_tsv(FEATURE_TSV)


def _beam(token_lists, ms):
    return [
        Candidate(tokens=tuple(t), m=m, raw_logp=m, length=len(t) + 1)
        for t, m in zip(token_lists, ms)
    ]


def test_categorize_improved():
    beam = _beam([(1,), (2,), (3,)], [-0.1, -0.2, -0.3])
    reranked = rerank(beam, [0.0, 1.0, 0.0], 1.0)  # beam rank 1 moves to top
    assert categorize(beam, reranked, (2,)) is RerankBehavior.IMPROVED


def test_categorize_worsened():
    beam = _beam([(1,), (2,)], [-0.1, -0.2])
    reranked = rerank(beam, [0.0, 1.0], 1.0)
    assert categorize(beam, reranked, (1,)) is RerankBehavior.WORSENED


def test_categorize_unchanged():
    beam = _beam([(1,), (2,)], [-0.1, -0.2])
    reranked = rerank(beam, [0.5, 0.5], 1.0)
    assert categorize(beam, reranked, (1,)) is RerankBehavior.UNCHANGED


def test_categorize_not_in():
    beam = _beam([(1,), (2,)], [-0.1, -0.2])
    reranked = rerank(beam, [0.5, 0.5], 1.0)
    assert categorize(beam, reranked, (9,)) is RerankBehavior.NOT_IN


def test_similarity_strips_tones(table):
    cs = CognateSet("x", ("p", "a"), {"L1": ("p", "a", "˥"), "L2": ("b", "i")})
    sim = similarity_to_reflexes(("p", "a", "˥"), cs, table)
    # tone-stripped: ("p","a") vs ("p","a") -> 0 and vs ("b","i") -> 1.0 (2 edits / 2)
    assert sim.d_t == pytest.approx((0.0 + 1.0) / 2)
    # feature distance: p~b = 1/2, a~i = 1/2 -> (0.5+0.5)/2 per pair, / max len 2
    assert sim.d_f == pytest.approx((0.0 + 0.5) / 2)


def test_similarity_empty_conventions(table):
    cs = CognateSet("x", ("p",), {"L1": ("˥",)})  # reflex is tone-only -> empty
    sim = similarity_to_reflexes(("p",), cs, table)
    assert sim.d_t == 1.0
    sim2 = similarity_to_reflexes(("˥",), cs, table)
    assert sim2.d_t == 0.0


def test_similarity_unknown_token(table):
    cs = CognateSet("x", ("p",), {"L1": ("p",)})
    with pytest.raises(ProtoreconError):
        similarity_to_reflexes(("zz",), cs, table)


def test_similarity_comparison_table(table):
    cs = CognateSet("x", ("i", "i"), {"L1": ("p", "a"), "L2": ("p", "a")})
    items = [(cs, ("p", "a"), RerankBehavior.WORSENED)]
    out = similarity_comparison_table(items, table)
    row = out[RerankBehavior.WORSENED]
    assert row["count"] == 1
    # the (wrong) prediction is literally the reflex, so it is strictly closer
    assert row["d_t"] == 1.0 and row["d_f"] == 1.0
    assert out[RerankBehavior.IMPROVED]["count"] == 0
    assert out[RerankBehavior.IMPROVED]["d_t"] is None


def test_behavior_distribution():
    behaviors = [
        categorize(_beam([(1,)], [-0.1]), rerank(_beam([(1,)], [-0.1]), [0.5], 1.0), g)
        for g in [(1,), (1,), (9,)]
    ]
    dist = behavior_distribution(behaviors)
    assert dist["total"] == 3
    assert dist["counts"][RerankBehavior.UNCHANGED] == 2
    assert dist["counts"][RerankBehavior.NOT_IN] == 1
    assert dist["improved_over_changed"] is None  # nothing moved


def test_per_language_error_rates(tiny_split):
    vocab = build_vocabulary(tiny_split)
    model = models.ReflexModel(tiny_reflex_config(), vocab)
    items = [(cs, RerankBehavior.UNCHANGED) for cs in tiny_split.sets
             if cs.protoform is not None]
    rates = per_language_error_rates(model, items)
    assert "overall" in rates
    for group in rates.values():
        for rate in group.values():
            assert 0.0 <= rate <= 1.0
    assert rates["overall"] == rates[RerankBehavior.UNCHANGED]
