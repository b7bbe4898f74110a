"""Greedy decoding and beam search with length-normalized scoring.

Both decoders drive an abstract autoregressive stepper so that trained
models and toy test models share one code path:

    stepper.vocab_size, stepper.bos_id, stepper.eos_id, stepper.banned_ids
    stepper.init_state(batch) -> state
    stepper.step(state, tokens) -> (logprobs[batch, vocab], new_state)
    stepper.select(state, idx) -> state reindexed along the batch axis

A model's batch_decoder(inputs) is a stepper over many inputs, each an id
list (a reflex model's input starts with the tag of its target language):
row i of init_state(len(inputs)) decodes inputs[i], which
greedy_decode_batch and beam_search_batch use.

Scoring convention: a hypothesis's length counts emitted tokens including
the terminating EOS (BOS excluded); its normalized score is
raw_logprob / length**alpha.  When a hypothesis reaches max_len non-EOS
tokens, only the EOS continuation is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

NEG_INF = -np.inf


@dataclass(frozen=True)
class Candidate:
    """An EOS-terminated protoform hypothesis (EOS stripped for presentation)."""

    tokens: tuple[int, ...]
    m: float
    raw_logp: float
    length: int  # emitted tokens including EOS

    def __post_init__(self):
        assert self.length == len(self.tokens) + 1


@dataclass(frozen=True)
class BeamConfig:
    k: int
    alpha: float = 1.0
    max_len: int = 64

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"beam size must be >= 1, got {self.k}")
        if not 0 <= self.alpha < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"length normalization constant must be finite and >= 0, "
                              f"got {self.alpha}")
        if self.max_len < 1:
            raise ConfigError(f"max decode length must be >= 1, got {self.max_len}")


def _banned_mask(stepper) -> np.ndarray:
    mask = np.zeros(stepper.vocab_size)
    mask[list(stepper.banned_ids)] = NEG_INF
    return mask


def greedy_decode(stepper, max_len: int) -> list[int]:
    """Argmax per step until EOS or max_len tokens; ties go to the lowest id."""
    return greedy_decode_batch(stepper, 1, max_len)[0]


def greedy_decode_batch(stepper, n_rows: int, max_len: int) -> list[list[int]]:
    """greedy_decode of n_rows stepper rows at once.

    Every row steps together from stepper.init_state(n_rows); a row that
    emits EOS retires (stepper.select drops it).  A model's stepper can
    change a row's log-probs in their last bits with the other rows of its
    batch, so a row's tokens are its own greedy decode's as far as
    tests/test_batched_decode.py checks them: for drawn rows of every
    reflex conditioning and of the recon model.
    """
    mask = _banned_mask(stepper)
    state = stepper.init_state(n_rows)
    active = np.arange(n_rows)
    prev = np.full(n_rows, stepper.bos_id)
    out = [[] for _ in range(n_rows)]
    for _ in range(max_len):
        logp, state = stepper.step(state, prev)
        prev = np.argmax(logp + mask, axis=1)
        live = prev != stepper.eos_id
        if not live.all():
            keep = np.flatnonzero(live)
            if not len(keep):
                break
            state = stepper.select(state, keep)
            active, prev = active[keep], prev[keep]
        for row, tok in zip(active.tolist(), prev.tolist()):
            out[row].append(tok)
    return out


def beam_search(stepper, config: BeamConfig) -> list[Candidate]:
    """Beam search returning <= k candidates sorted by m descending.

    Frontier expansion keeps the k best expansions by raw log probability
    (ties: earlier beam, then lower token id); expansions ending in EOS move
    to a completed pool.  Search stops when the frontier is empty or no
    frontier hypothesis can still beat the k-th completed normalized score.
    """
    return beam_search_batch(stepper, 1, config)[0]


def beam_search_batch(stepper, n_rows: int, config: BeamConfig) -> list[list[Candidate]]:
    """beam_search of n_rows stepper rows at once, over one flattened frontier.

    Row i of stepper.init_state(n_rows) starts search i.  Each search keeps
    its own top-k selection, completed pool and stop rule; its frontier rows
    form one contiguous block of the state, and it leaves the frontier when
    it stops.  With a model's stepper, which can change a row's log-probs
    in their last bits with the other rows of its batch, each result has
    the tokens and lengths of that row's own beam_search, and m values that
    agree to within 1e-9, as far as tests/test_batched_decode.py checks.
    """
    mask = _banned_mask(stepper)
    eos, k = stepper.eos_id, config.k
    state = stepper.init_state(n_rows)
    prev = np.full(n_rows, stepper.bos_id)
    raw = np.zeros(n_rows)
    owner = np.arange(n_rows)  # search of each frontier row, ascending
    prefixes = [()] * n_rows
    completed: list[list[Candidate]] = [[] for _ in range(n_rows)]
    final_len_norm = (config.max_len + 1) ** config.alpha

    for t in range(1, config.max_len + 2):
        if not len(owner):
            break
        logp, state = stepper.step(state, prev)
        logp = logp + mask
        if t == config.max_len + 1:  # cap reached: force EOS
            forced = np.full_like(logp, NEG_INF)
            forced[:, eos] = logp[:, eos]
            logp = forced
        # each search's (beam, token) block, padded to the widest with -inf rows
        live, starts, counts = np.unique(owner, return_index=True, return_counts=True)
        vocab = logp.shape[1]
        blocks = np.full((len(live), counts.max(), vocab), NEG_INF)
        blocks[np.repeat(np.arange(len(live)), counts),
               np.arange(len(owner)) - np.repeat(starts, counts)] = raw[:, None] + logp
        flat = blocks.reshape(len(live), -1)
        # stable: equal scores keep row-major (beam, token) order
        top = np.argsort(-flat, axis=1, kind="stable")[:, :k]
        scores = np.take_along_axis(flat, top, axis=1)
        rows, toks = starts[:, None] + top // vocab, top % vocab
        finite = scores > NEG_INF  # sorted last, so a search ends its list at the first -inf
        for i, j in zip(*np.nonzero(finite & (toks == eos))):
            score = scores[i, j]
            completed[live[i]].append(Candidate(tokens=prefixes[rows[i, j]],
                                                m=score / t**config.alpha, raw_logp=score,
                                                length=t))
        keep = finite & (toks != eos)
        stays = keep.any(axis=1)
        for i in np.flatnonzero(stays):
            s = live[i]
            if len(completed[s]) >= k:
                kth = sorted(completed[s], key=lambda c: -c.m)[k - 1].m
                stays[i] = not np.all(scores[i][keep[i]] / final_len_norm <= kth)
        keep &= stays[:, None]
        sel = rows[keep]
        prefixes = [prefixes[r] + (v,) for r, v in zip(sel.tolist(), toks[keep].tolist())]
        owner = np.repeat(live, keep.sum(axis=1))
        if len(sel):
            state = stepper.select(state, sel)
        prev, raw = toks[keep], scores[keep]

    return [sorted(pool, key=lambda c: -c.m)[:k] for pool in completed]  # stable: ties keep order

