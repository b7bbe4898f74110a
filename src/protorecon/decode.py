"""Greedy decoding and beam search with length-normalized scoring.

Both decoders drive an abstract autoregressive stepper so that trained
models and toy test models share one code path:

    stepper.vocab_size, stepper.bos_id, stepper.eos_id, stepper.banned_ids
    stepper.init_state(batch) -> state
    stepper.step(state, tokens) -> (logprobs[batch, vocab], new_state)
    stepper.select(state, idx) -> state reindexed along the batch axis

A model's batch_decoder(rows) is a stepper over many inputs: row i of
init_state(len(rows)) decodes rows[i], which greedy_decode_batch uses.

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
        if self.alpha < 0:
            raise ConfigError(f"length normalization constant must be >= 0, got {self.alpha}")
        if self.max_len < 1:
            raise ConfigError(f"max decode length must be >= 1, got {self.max_len}")


def _banned_mask(stepper) -> np.ndarray:
    mask = np.zeros(stepper.vocab_size)
    banned = list(getattr(stepper, "banned_ids", ()))
    if banned:
        mask[banned] = NEG_INF
    return mask


def greedy_decode(stepper, max_len: int) -> list[int]:
    """Argmax per step until EOS or max_len tokens; ties go to the lowest id."""
    return greedy_decode_batch(stepper, 1, max_len)[0]


def greedy_decode_batch(stepper, n_rows: int, max_len: int) -> list[list[int]]:
    """greedy_decode of n_rows stepper rows at once.

    Every row steps together from stepper.init_state(n_rows); a row that
    emits EOS retires (stepper.select drops it), so each row's tokens are
    exactly its own greedy decode.
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
    """Vectorized beam search returning <= k candidates sorted by m descending.

    Frontier expansion keeps the k best expansions by raw log probability
    (ties: earlier beam, then lower token id); expansions ending in EOS move
    to a completed pool.  Search stops when the frontier is empty or no
    frontier hypothesis can still beat the k-th completed normalized score.
    """
    mask = _banned_mask(stepper)
    eos = stepper.eos_id
    state = stepper.init_state(1)
    prev = np.array([stepper.bos_id])
    raw = np.zeros(1)
    prefixes = [()]
    completed: list[Candidate] = []
    final_len_norm = (config.max_len + 1) ** config.alpha

    for t in range(1, config.max_len + 2):
        logp, state = stepper.step(state, prev)
        logp = logp + mask
        if t == config.max_len + 1:  # cap reached: force EOS
            forced = np.full_like(logp, NEG_INF)
            forced[:, eos] = logp[:, eos]
            logp = forced
        total = raw[:, None] + logp
        n_beams, vocab = total.shape
        flat = total.reshape(-1)
        beam_idx = np.repeat(np.arange(n_beams), vocab)
        tok_idx = np.tile(np.arange(vocab), n_beams)
        order = np.lexsort((tok_idx, beam_idx, -flat))
        keep_beams, keep_toks, keep_raw = [], [], []
        for pos in order[: config.k]:
            score = flat[pos]
            if score == NEG_INF:
                break
            b, v = int(beam_idx[pos]), int(tok_idx[pos])
            if v == eos:
                completed.append(
                    Candidate(tokens=prefixes[b], m=score / t**config.alpha, raw_logp=score, length=t)
                )
            else:
                keep_beams.append(b)
                keep_toks.append(v)
                keep_raw.append(score)
        if not keep_beams:
            break
        prefixes = [prefixes[b] + (v,) for b, v in zip(keep_beams, keep_toks)]
        state = stepper.select(state, np.array(keep_beams))
        prev = np.array(keep_toks)
        raw = np.array(keep_raw)
        if len(completed) >= config.k:
            kth = sorted(completed, key=lambda c: -c.m)[config.k - 1].m
            bound = raw / final_len_norm if config.alpha > 0 else raw
            if np.all(bound <= kth):
                break

    ranked = sorted(range(len(completed)), key=lambda i: (-completed[i].m, i))
    return [completed[i] for i in ranked[: config.k]]


def format_candidates_tsv(candidates, id_to_token) -> str:
    """Candidate list as TSV: rank, space-joined tokens, m with 6 decimals."""
    lines = ["rank\ttokens\tm"]
    for rank, cand in enumerate(candidates):
        toks = " ".join(id_to_token[i] for i in cand.tokens)
        lines.append(f"{rank}\t{toks}\t{cand.m:.6f}")
    return "\n".join(lines) + "\n"
