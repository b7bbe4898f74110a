"""Shared fixtures: tiny datasets, toy decode steppers, small trained models, and a reflex
model stub that decodes chosen gold reflexes."""

import numpy as np
import pytest
from hypothesis import settings

from protorecon import models
from protorecon.autodiff import log_softmax_rows
from protorecon.corpus import build_vocabulary, parse_dataset, split_dataset
from tests.oracles import tag_language

TINY_TSV = (
    "id\tprotoform\tLangA\tLangB\n"
    "w1\tp a\tp o\tb a\n"
    "w2\tt a k\tt o k\td a k\n"
    "w3\tk i\tk i\tg i\n"
    "w4\tp a t\tp o t\tb a t\n"
    "w5\tt i\tt i\td i\n"
    "w6\tk a p\tk o p\t\n"
)


@pytest.fixture
def tiny_dataset():
    return parse_dataset(TINY_TSV)


@pytest.fixture
def tiny_vocab(tiny_dataset):
    return build_vocabulary(tiny_dataset)


@pytest.fixture
def tiny_split(tiny_dataset):
    """All six sets tagged so every split is non-empty."""
    tags = {"w1": "train", "w2": "train", "w3": "train", "w4": "train",
            "w5": "val", "w6": "test"}
    from protorecon.corpus import apply_split_tags

    return apply_split_tags(tiny_dataset, tags)


# Property tests draw their examples from a fixed seed and have no time limit,
# so a slow spell of the machine cannot fail or change them.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def tiny_recon_config(**overrides):
    base = dict(embedding_size=8, hidden_size=10, feedforward_size=10, dropout=0.0,
                batch_size=4, lr=0.01, max_epochs=2, warmup_epochs=0, seed=0)
    base.update(overrides)
    return models.ReconModelConfig(**base)


def tiny_reflex_config(**overrides):
    base = dict(embedding_size=8, hidden_size=10, feedforward_size=10, dropout=0.0,
                batch_size=4, lr=0.01, max_epochs=2, warmup_epochs=0, seed=0)
    base.update(overrides)
    return models.ReflexModelConfig(**base)


# Reflex-model conditionings that together cover every encoder and classifier path.
REFLEX_CONDITIONING = {
    "one-hot": dict(),
    "gated": dict(one_hot_target_encoding=False, target_gated_classifier=True),
    "language-embedding": dict(one_hot_target_encoding=False,
                               decode_with_language_embedding=True),
    "unidirectional": dict(bidirectional_encoder=False),
    "two-layer": dict(num_encoder_layers=2),
    "all": dict(target_gated_classifier=True, decode_with_language_embedding=True,
                num_encoder_layers=2),
}


class GoldReflexStub:
    """A reflex model stand-in on the recon model's vocabulary.

    A (candidate, language) pair in gold decodes to gold[pair]; every other
    row decodes to nothing, which matches no reflex.
    """

    def __init__(self, vocab, gold):
        self.vocab, self.gold = vocab, gold

    def decode_row(self, tagged, language):
        assert tagged[0] == self.vocab.language_tag_id(language)
        return list(self.gold.get((tuple(tagged[1:]), language), ()))

    def greedy_decode_rows(self, rows):
        return [self.decode_row(tagged, tag_language(self.vocab, tagged)) for tagged in rows]


class ToyStepper:
    """Random autoregressive distributions, deterministic in (seed, prefix).

    Matches the stepper protocol in decode.py; state rows are emitted-token
    prefixes (BOS included), so the conditional at each step depends on the
    whole history.
    """

    def __init__(self, vocab_size, seed, bos_id=0, eos_id=1, banned=(0,)):
        self.vocab_size = vocab_size
        self.seed = seed
        self.bos_id = bos_id
        self.eos_id = eos_id
        self.banned_ids = tuple(banned)

    def init_state(self, batch):
        return [() for _ in range(batch)]

    def _logp_row(self, prefix):
        rng = np.random.default_rng([self.seed, *prefix, 104729])
        return log_softmax_rows(rng.normal(size=(1, self.vocab_size)) * 2.0)[0]

    def step(self, state, tokens):
        new_state = [p + (int(t),) for p, t in zip(state, tokens)]
        logp = np.stack([self._logp_row(p) for p in new_state])
        return logp, new_state

    def select(self, state, idx):
        return [state[i] for i in idx]


def enumerate_candidates(stepper, alpha, max_len):
    """All EOS-terminated hypotheses by brute force, sorted like beam_search."""
    allowed = [
        v for v in range(stepper.vocab_size)
        if v != stepper.eos_id and v not in stepper.banned_ids
    ]

    def raw_logp(tokens):
        state = stepper.init_state(1)
        prev = [stepper.bos_id]
        total = 0.0
        for tok in list(tokens) + [stepper.eos_id]:
            logp, state = stepper.step(state, prev)
            total += logp[0][tok]
            prev = [tok]
        return total

    out = []
    frontier = [()]
    for _ in range(max_len + 1):
        next_frontier = []
        for seq in frontier:
            raw = raw_logp(seq)
            out.append((seq, raw / (len(seq) + 1) ** alpha, raw))
            if len(seq) < max_len:
                next_frontier.extend(seq + (v,) for v in allowed)
        frontier = next_frontier
    out.sort(key=lambda c: -c[1])
    return out
