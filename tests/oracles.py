"""Test oracles: slow, simple versions of what faster library code does.

``gru_cell_six`` is the GRU step as it was before the gates were stacked
into one tape node: six gate matmuls and about twenty primitive nodes.
Its elementwise ops ``mul``, ``affine`` and ``sigmoid`` live here, with
``narrow``: only the oracles and their gradient checks use them.
``grouped_batch_loss`` is the reflex batch loss as it was before a batch
became one masked graph: one graph per (language, input length) group,
built from ``gru_cell_six``.  ``beam_search_reference`` is a scalar beam
search that expands one hypothesis and one token at a time, where
decode.beam_search ranks the whole frontier at once.  The library's
outputs and gradients must match these within rounding.
"""

import numpy as np

from protorecon import autodiff as ad
from protorecon import models
from protorecon.autodiff import Tensor
from protorecon.decode import BeamConfig, Candidate

NEG_INF = -np.inf

GATE_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting (e.g. column masks)."""

    def unbroadcast(g, shape):
        while g.ndim > len(shape):
            g = g.sum(axis=0)
        for ax, n in enumerate(shape):
            if n == 1 and g.shape[ax] != 1:
                g = g.sum(axis=ax, keepdims=True)
        return g

    def rule(g):
        return ((a, unbroadcast(g * b.data, a.data.shape)),
                (b, unbroadcast(g * a.data, b.data.shape)))

    return Tensor(a.data * b.data, parents=(a, b), backward_rule=rule)


def affine(x: Tensor, scale: float, shift: float) -> Tensor:
    """scale * x + shift with scalar constants (covers negation and 1 - x)."""
    return Tensor(scale * x.data + shift, parents=(x,), backward_rule=lambda g: ((x, scale * g),))


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor(out, parents=(x,), backward_rule=lambda g: ((x, g * out * (1.0 - out)),))


def narrow(x: Tensor, start: int, size: int, axis: int = 1) -> Tensor:
    """Contiguous slice along an axis."""
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + size)
    index = tuple(index)

    def rule(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return ((x, full),)

    return Tensor(x.data[index], parents=(x,), backward_rule=rule)


def gate_dict(params, prefix):
    """The nine per-gate parameters of one GRU, keyed W_z ... b_h."""
    return {name: params[f"{prefix}.{name}"] for name in GATE_NAMES}


def stack_gates(gates):
    """A W_z ... b_h dict as the stacked (W, U_zr, U_h, b) that ad.gru_cell takes."""
    return (ad.concat([gates["W_z"], gates["W_r"], gates["W_h"]]),
            ad.concat([gates["U_z"], gates["U_r"]]),
            gates["U_h"],
            ad.concat([gates["b_z"], gates["b_r"], gates["b_h"]], axis=0))


def gru_cell_six(x, h_prev, params):
    """One GRU step from primitives: h_next = (1 - z) * h_prev + z * h_tilde."""
    z = sigmoid(ad.add(ad.add(ad.matmul(x, params["W_z"]), ad.matmul(h_prev, params["U_z"])),
                       params["b_z"]))
    r = sigmoid(ad.add(ad.add(ad.matmul(x, params["W_r"]), ad.matmul(h_prev, params["U_r"])),
                       params["b_r"]))
    h_tilde = ad.tanh(ad.add(ad.add(ad.matmul(x, params["W_h"]),
                                    ad.matmul(mul(r, h_prev), params["U_h"])),
                             params["b_h"]))
    return ad.add(mul(affine(z, -1.0, 1.0), h_prev), mul(z, h_tilde))


def masked_step(h_prev, h_new, mask_col):
    """Keep h_prev on rows whose sequence already ended (mask 0)."""
    m = Tensor(mask_col[:, None])
    inv = Tensor(1.0 - mask_col[:, None])
    return ad.add(mul(h_new, m), mul(h_prev, inv))


def _encode_group(model, in_ids, rate, dropout_rng):
    """Bridged final encoder states of an equal-length group (no masking needed)."""
    p, cfg = model.params, model.config
    B, T = in_ids.shape
    seq = []
    for t in range(T):
        x = ad.embedding(p["tok_emb"], in_ids[:, t])
        if rate:
            x = ad.dropout(x, rate, dropout_rng)
        seq.append(x)
    dirs = ("f", "b") if cfg.bidirectional_encoder else ("f",)
    for layer in range(cfg.num_encoder_layers):
        outs = {}
        for d in dirs:
            gates = gate_dict(p, f"enc{layer}{d}")
            h = Tensor(np.zeros((B, cfg.hidden_size)))
            states = []
            for t in range(T) if d == "f" else range(T - 1, -1, -1):
                h = gru_cell_six(seq[t], h, gates)
                states.append(h)
            outs[d] = states if d == "f" else states[::-1]
        if cfg.bidirectional_encoder:
            new_seq = [ad.concat([outs["f"][t], outs["b"][t]]) for t in range(T)]
            final = ad.concat([outs["f"][-1], outs["b"][0]])
        else:
            new_seq = outs["f"]
            final = outs["f"][-1]
        if layer < cfg.num_encoder_layers - 1 and rate:
            new_seq = [ad.dropout(s, rate, dropout_rng) for s in new_seq]
        seq = new_seq
    return ad.tanh(ad.add(ad.matmul(final, p["bridge.W"]), p["bridge.b"]))


def grouped_group_loss(model, inputs, targets, lang_index, normalizer, dropout_rng=None):
    """Loss contribution of a same-language, same-input-length group."""
    p, cfg = model.params, model.config
    rate = cfg.dropout if dropout_rng is not None else 0.0
    B = len(inputs)
    h = _encode_group(model, np.asarray(inputs, dtype=np.int64), rate, dropout_rng)
    tgt = [list(t) + [model.vocab.eos_id] for t in targets]
    tgt_ids, tgt_mask, _ = models._pad_batch(tgt, model.vocab.pad_id)
    prev_ids = np.concatenate(
        [np.full((B, 1), model.vocab.bos_id, dtype=np.int64), tgt_ids[:, :-1]], axis=1
    )
    dec_p = gate_dict(p, "dec")
    w2, b2 = ((p[f"clf.W2.{lang_index}"], p[f"clf.b2.{lang_index}"])
              if cfg.target_gated_classifier else (p["clf.W2"], p["clf.b2"]))
    one_hot = None
    if cfg.one_hot_target_encoding:
        one_hot = Tensor(np.zeros((B, len(model.vocab.languages))))
        one_hot.data[:, lang_index] = 1.0
    lang_rows = None
    if cfg.decode_with_language_embedding:
        lang_rows = ad.embedding(p["lang_emb"], np.full(B, lang_index + 1, dtype=np.int64))
    step_losses = []
    for t in range(tgt_ids.shape[1]):
        x = ad.embedding(p["tok_emb"], prev_ids[:, t])
        if rate:
            x = ad.dropout(x, rate, dropout_rng)
        if lang_rows is not None:
            x = ad.concat([x, lang_rows])
        h = masked_step(h, gru_cell_six(x, h, dec_p), tgt_mask[:, t])
        h_in = ad.dropout(h, rate, dropout_rng) if rate else h
        clf_in = ad.concat([h_in, one_hot]) if one_hot is not None else h_in
        hidden = ad.tanh(ad.add(ad.matmul(clf_in, p["clf.W1"]), p["clf.b1"]))
        logits = ad.add(ad.add(ad.matmul(hidden, w2), b2), model._output_mask)
        step_losses.append(
            ad.softmax_cross_entropy(logits, tgt_ids[:, t], tgt_mask[:, t], normalizer=normalizer)
        )
    return ad.add_scalars(step_losses)


def grouped_batch_loss(model, examples, dropout_rng=None):
    """Mean token loss over (input_ids, target_ids, language) examples, one graph per group."""
    groups = {}
    for ex in examples:
        groups.setdefault((ex[2], len(ex[0])), []).append(ex)
    total_tokens = float(sum(len(ex[1]) + 1 for ex in examples))
    losses = []
    for (lang, _), exs in sorted(groups.items()):
        losses.append(grouped_group_loss(
            model, [ex[0] for ex in exs], [ex[1] for ex in exs], model.language_index(lang),
            normalizer=total_tokens, dropout_rng=dropout_rng,
        ))
    return ad.add_scalars(losses)


def beam_search_reference(stepper, config: BeamConfig) -> list[Candidate]:
    """Scalar beam search with the semantics of decode.beam_search, one expansion at a time."""
    mask = np.zeros(stepper.vocab_size)
    mask[list(stepper.banned_ids)] = NEG_INF
    eos = stepper.eos_id
    frontier = [((), 0.0, stepper.init_state(1), stepper.bos_id)]
    completed: list[Candidate] = []

    for t in range(1, config.max_len + 2):
        expansions = []
        for b, (prefix, score, state, last) in enumerate(frontier):
            logp, new_state = stepper.step(state, np.array([last]))
            row = logp[0] + mask
            for v in range(stepper.vocab_size):
                if t == config.max_len + 1 and v != eos:
                    continue
                if row[v] == NEG_INF:
                    continue
                expansions.append((score + row[v], b, v, prefix, new_state))
        expansions.sort(key=lambda e: (-e[0], e[1], e[2]))
        new_frontier = []
        for score, b, v, prefix, state in expansions[: config.k]:
            if v == eos:
                completed.append(
                    Candidate(tokens=prefix, m=score / t**config.alpha, raw_logp=score, length=t)
                )
            else:
                new_frontier.append((prefix + (v,), score, stepper.select(state, np.array([0])), v))
        frontier = new_frontier
        if not frontier:
            break
        if len(completed) >= config.k:
            kth = sorted(completed, key=lambda c: -c.m)[config.k - 1].m
            denom = (config.max_len + 1) ** config.alpha
            bounds = [s / denom if config.alpha > 0 else s for _, s, _, _ in frontier]
            if all(b <= kth for b in bounds):
                break

    ranked = sorted(range(len(completed)), key=lambda i: (-completed[i].m, i))
    return [completed[i] for i in ranked[: config.k]]
