"""Beam search against exhaustive enumeration, greedy, and the scalar reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protorecon.autodiff import log_softmax_rows
from protorecon.decode import (
    BeamConfig,
    beam_search,
    beam_search_batch,
    greedy_decode,
)
from protorecon.errors import ConfigError
from tests.conftest import ToyStepper, enumerate_candidates
from tests.oracles import beam_search_reference


class UniformStepper:
    """Uniform distribution over a 3-token vocabulary at every step."""

    vocab_size = 3
    bos_id = 0
    eos_id = 1
    banned_ids = (0,)

    def init_state(self, batch):
        return batch

    def step(self, state, tokens):
        return np.full((state, self.vocab_size), np.log(1.0 / 3.0)), len(tokens)

    def select(self, state, idx):
        return len(idx)


def test_config_validation():
    with pytest.raises(ConfigError):
        BeamConfig(k=0)
    with pytest.raises(ConfigError):
        BeamConfig(k=2, alpha=-0.1)
    with pytest.raises(ConfigError):
        BeamConfig(k=2, max_len=0)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            BeamConfig(k=2, alpha=alpha)


def test_uniform_model_worked_example():
    """Uniform 1/3 logprobs, k=2, alpha=0, max_len=2.

    The empty hypothesis scores ln(1/3), any one-token hypothesis 2 ln(1/3);
    top-2 is exactly those.
    """
    cands = beam_search(UniformStepper(), BeamConfig(k=2, alpha=0.0, max_len=2))
    assert len(cands) == 2
    assert cands[0].tokens == ()
    assert cands[0].m == pytest.approx(np.log(1.0 / 3.0), abs=1e-12)
    assert cands[1].tokens == (2,)
    assert cands[1].m == pytest.approx(2 * np.log(1.0 / 3.0), abs=1e-12)


def test_eos_only_candidate_always_reachable():
    # k=1 always yields at least one EOS-terminated candidate
    for seed in range(10):
        stepper = ToyStepper(vocab_size=4, seed=seed)
        cands = beam_search(stepper, BeamConfig(k=1, alpha=1.0, max_len=3))
        assert len(cands) == 1
        assert cands[0].m <= 0.0


def test_exhaustive_oracle_equivalence():
    """With k >= |V|^max_len the beam must return the full enumeration."""
    rng = np.random.default_rng(123)
    for trial in range(100):
        vocab = int(rng.integers(3, 6))
        max_len = int(rng.integers(1, 5))
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        stepper = ToyStepper(vocab_size=vocab, seed=1000 + trial)
        k = vocab**max_len + max_len + 1
        got = beam_search(stepper, BeamConfig(k=k, alpha=alpha, max_len=max_len))
        want = enumerate_candidates(stepper, alpha, max_len)
        assert len(got) == len(want)
        for g, (tokens, m, _raw) in zip(got, want):
            assert g.tokens == tokens
            assert g.m == pytest.approx(m, abs=1e-9)


def test_beam_k1_equals_greedy():
    for trial in range(50):
        stepper = ToyStepper(vocab_size=5, seed=2000 + trial)
        greedy = greedy_decode(stepper, max_len=4)
        beam = beam_search(stepper, BeamConfig(k=1, alpha=1.0, max_len=4))
        assert beam[0].tokens == tuple(greedy)


def test_vectorized_matches_reference():
    rng = np.random.default_rng(7)
    for trial in range(100):
        vocab = int(rng.integers(3, 7))
        stepper = ToyStepper(vocab_size=vocab, seed=3000 + trial)
        cfg = BeamConfig(
            k=int(rng.integers(1, 6)),
            alpha=float(rng.choice([0.0, 0.7, 1.0])),
            max_len=int(rng.integers(1, 5)),
        )
        fast = beam_search(stepper, cfg)
        slow = beam_search_reference(stepper, cfg)
        assert [c.tokens for c in fast] == [c.tokens for c in slow]
        for a, b in zip(fast, slow):
            assert a.m == pytest.approx(b.m, abs=1e-9)
            assert a.raw_logp == pytest.approx(b.raw_logp, abs=1e-9)


class RowStepper(ToyStepper):
    """ToyStepper whose rows are different searches.

    Row i of init_state(n) draws its distributions from (seed, first + i,
    prefix), so RowStepper(v, seed, first=i) alone replays that row.  With
    tied=True the logits are small integers, so that expansions tie often.
    """

    def __init__(self, vocab_size, seed, first=0, tied=False):
        super().__init__(vocab_size, seed)
        self.first, self.tied = first, tied

    def init_state(self, batch):
        return [(self.first + i, ()) for i in range(batch)]

    def step(self, state, tokens):
        new_state = [(row, prefix + (int(t),)) for (row, prefix), t in zip(state, tokens)]
        rngs = [np.random.default_rng([self.seed, row, *prefix]) for row, prefix in new_state]
        size = self.vocab_size
        logits = [rng.integers(0, 2, size) if self.tied else rng.normal(size=size) for rng in rngs]
        return log_softmax_rows(np.stack(logits) * 2.0), new_state


@settings(max_examples=100)
@given(n=st.integers(1, 6), vocab=st.integers(3, 6), k=st.integers(1, 5),
       alpha=st.sampled_from([0.0, 0.7, 1.0]), max_len=st.integers(1, 4),
       seed=st.integers(0, 2**16), tied=st.booleans())
def test_batched_beam_matches_reference_row_by_row(n, vocab, k, alpha, max_len, seed, tied):
    """Searches sharing one flattened frontier each equal their own scalar search."""
    cfg = BeamConfig(k=k, alpha=alpha, max_len=max_len)
    got = beam_search_batch(RowStepper(vocab, seed, tied=tied), n, cfg)
    assert len(got) == n
    for row, cands in enumerate(got):
        assert cands == beam_search_reference(RowStepper(vocab, seed, first=row, tied=tied), cfg)


def test_batched_searches_stop_at_different_steps():
    """Rows of one batch stop on their own: some at the length cap, some before it."""
    cfg = BeamConfig(k=2, alpha=1.0, max_len=4)
    got = beam_search_batch(RowStepper(5, 9), 6, cfg)
    longest = [max(c.length for c in cands) for cands in got]
    assert cfg.max_len + 1 in longest and min(longest) < cfg.max_len + 1
    assert got == [beam_search(RowStepper(5, 9, first=row), cfg) for row in range(6)]


def test_exhaustive_k_returns_sorted_and_bounded():
    stepper = ToyStepper(vocab_size=4, seed=99)
    cands = beam_search(stepper, BeamConfig(k=200, alpha=1.0, max_len=3))
    ms = [c.m for c in cands]
    assert ms == sorted(ms, reverse=True)
    assert all(m <= 0.0 for m in ms)
    assert all(c.length == len(c.tokens) + 1 for c in cands)


def test_banned_ids_never_emitted():
    stepper = ToyStepper(vocab_size=6, seed=4, banned=(0, 3, 4))
    cands = beam_search(stepper, BeamConfig(k=50, alpha=1.0, max_len=3))
    for c in cands:
        assert not set(c.tokens) & {0, 3, 4}
    greedy = greedy_decode(stepper, max_len=5)
    assert not set(greedy) & {0, 3, 4}


def test_max_len_respected():
    stepper = ToyStepper(vocab_size=5, seed=11)
    for max_len in (1, 2, 3):
        cands = beam_search(stepper, BeamConfig(k=100, alpha=1.0, max_len=max_len))
        assert max(len(c.tokens) for c in cands) <= max_len


def test_returns_at_most_k():
    stepper = ToyStepper(vocab_size=5, seed=12)
    for k in (1, 2, 5):
        assert len(beam_search(stepper, BeamConfig(k=k, alpha=1.0, max_len=4))) <= k

