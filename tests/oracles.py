"""Test oracles: slow, simple versions of what faster library code does.

``embedding_grad`` is an embedding table's gradient as np.add.at sums it.
``gru_cell_six`` is the GRU step as it was before the gates were stacked
into one tape node: six gate matmuls and about twenty primitive nodes.
Its elementwise ops ``mul``, ``affine`` and ``sigmoid`` live here, with
``narrow``: only the oracles and their gradient checks use them.
``grouped_batch_loss`` is the reflex batch loss as it was before a batch
became one masked graph: one graph per (language, input length) group,
built from ``gru_cell_six``.  ``step_recon_loss`` and ``step_reflex_loss``
are the batch losses as they were before training ran whole sequences:
per-step gathers and dropout draws, a ``gru_cell_six`` step kept by
``masked_step`` on padded rows, and a classifier and cross-entropy per
decoder step, which ``add_scalars`` adds; they share no GRU code with the
library.
The ``oracle_*`` functions are the one-row inference path as it was before
decoding was batched: each input encoded alone, each (candidate, language)
decoded by its own greedy loop.  ``beam_search_reference`` is a scalar beam
search that expands one hypothesis and one token at a time, where
decode.beam_search ranks the whole frontier at once, and
``rerank_ranks_reference`` ranks candidates by s = m + lambda * r by
counting, for each, the candidates that beat it, where rerank.rerank
sorts.  ``padded_gru_sequence`` is ad.gru_sequence as it was before it
stepped each distinct state once or kept only the final state: every row at
every step, all the states kept.  The library's
outputs and gradients must match these within rounding.
``held`` puts a tensor behind a view node, so that no op writes over its
buffer or frees it: the path of every op as it was before the tape reused
buffers (Tensor.backward), which ``tanh_copying``, tanh with a rule that
makes its gradient afresh, completes.  ``adam_step_copying`` is Adam.step as
it was before it updated in place: a new array per expression.
``reflex_encode_dropping_the_concat`` is ReflexModel._encode as it was
before a later layer's input was made as the concat of each run's dropout:
the dropout of the runs' concat, with tanh of the bridge a node of its own.
``exact_rank_sum_distribution`` enumerates the rank-sum distribution that
stats.wilcoxon_rank_sum counts for its exact p-values, and ``midranks_loop``
is stats._midranks as it was before it ranked by sorted positions: a walk
over each run of tied values in stable sort order.
``pad_batch_loop`` is models._pad_batch as it was before it built a time-major
batch by one scatter: a batch-major fill, one row at a time.
``segment_language_indices_loop`` is models.segment_language_indices as it
was before it ran over a padded id matrix: one input, one position at a
time.  ``tag_language`` names the language whose tag leads a reflex input,
by a search over the vocabulary's languages.
"""

from itertools import combinations

import numpy as np

from protorecon import autodiff as ad
from protorecon import decode as dec
from protorecon import models
from protorecon.autodiff import Tensor
from protorecon.corpus import assemble_reconstruction_input, assemble_reflex_input
from protorecon.decode import BeamConfig, Candidate
from protorecon.rerank import rerank

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


def held(x: Tensor) -> Tensor:
    """x behind a reshape node: a view, which no op writes over or frees, so that x's buffer
    keeps its values through the backward."""
    return ad.reshape(x, x.data.shape)


def tanh_copying(x: Tensor) -> Tensor:
    """tanh whose rule makes g * (1 - out * out) as a new array."""
    out = np.tanh(x.data)
    return Tensor(out, parents=(x,), backward_rule=lambda g: ((x, g * (1.0 - out * out)),))


def adam_step_copying(opt, lr_scale=1.0):
    """ad.Adam.step on opt's state, a new array per expression, m and v replaced."""
    opt.t += 1
    lr = opt.lr * lr_scale
    for i, p in enumerate(opt.params):
        g = p.grad
        opt.m[i] = opt.beta1 * opt.m[i] + (1.0 - opt.beta1) * g
        opt.v[i] = opt.beta2 * opt.v[i] + (1.0 - opt.beta2) * g * g
        m_hat = opt.m[i] / (1.0 - opt.beta1**opt.t)
        v_hat = opt.v[i] / (1.0 - opt.beta2**opt.t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + opt.eps)
        if opt.weight_decay:
            p.data -= lr * opt.weight_decay * p.data


def reflex_encode_dropping_the_concat(model, p, inputs, rate=0.0, dropout_rng=None):
    """ReflexModel._encode with each later layer's input ad.dropout of the runs' concat."""
    cfg = model.config
    ids, mask, _ = pad_batch_loop(inputs, model.vocab.pad_id)
    ids, mask = np.ascontiguousarray(ids.T), np.ascontiguousarray(mask.T)  # time-major
    h0 = Tensor(np.zeros((len(inputs), cfg.hidden_size)))
    dirs = ("f", "b") if cfg.bidirectional_encoder else ("f",)
    seq = ad.embeddings([(p["tok_emb"], ids)], rate, dropout_rng)
    for layer in range(cfg.num_encoder_layers):
        if layer:
            concat = models._concat(runs)
            keep = dropout_rng.random(concat.shape) >= rate if rate else None
            seq = ad.dropout(concat, rate, keep=keep)
        runs = [ad.gru_sequence(seq, h0, models._stacked_gates(p, f"enc{layer}{d}"), mask,
                                d == "b", None if layer else ids,
                                final=layer == cfg.num_encoder_layers - 1) for d in dirs]
    return tanh_copying(ad.grouped_affine(held(models._concat(runs)),
                                          [(None, p["bridge.W"], p["bridge.b"])]))


def add_scalars(tensors) -> Tensor:
    """The sum of scalar Tensors, added in order."""
    out = np.array(sum(float(t.data) for t in tensors))
    return Tensor(out, parents=tuple(tensors),
                  backward_rule=lambda g: tuple((t, g.reshape(t.data.shape)) for t in tensors))


def embedding_grad(table_shape, ids, g):
    """The gradient of a table gathered by ids from the gather's gradient g, by np.add.at."""
    full = np.zeros(table_shape)
    np.add.at(full, np.asarray(ids), g)
    return full


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


def pad_batch_loop(seqs, pad_id):
    """Right-pad id lists, one row at a time; returns batch-major (ids, mask, lengths)."""
    lengths = np.array([len(s) for s in seqs])
    T = int(lengths.max())
    ids = np.full((len(seqs), T), pad_id, dtype=np.int64)
    mask = np.zeros((len(seqs), T))
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = 1.0
    return ids, mask, lengths


def segment_language_indices_loop(ids, vocab) -> list[int]:
    """Per-position language index (0 = structural) for one concatenated input."""
    tag_to_index = {vocab.language_tag_id(lang): i + 1 for i, lang in enumerate(vocab.languages)}
    out, cur = [], 0
    for i in ids:
        if i == vocab.sep_id or i == vocab.delim_id:
            cur = 0 if i == vocab.sep_id else cur
            out.append(0)
        elif i in tag_to_index:
            cur = tag_to_index[i]
            out.append(cur)
        else:
            out.append(cur)
    return out


def tag_language(vocab, tagged) -> str:
    """The language whose tag is the first id of the reflex input tagged."""
    return next(lang for lang in vocab.languages if vocab.language_tag_id(lang) == tagged[0])


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
    tgt_ids, tgt_mask, _ = pad_batch_loop(tgt, model.vocab.pad_id)
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
    return add_scalars(step_losses)


def grouped_batch_loss(model, examples, dropout_rng=None):
    """Mean token loss over (tagged input ids, target ids) examples, one graph per group."""
    groups = {}
    for ex in examples:
        groups.setdefault((tag_language(model.vocab, ex[0]), len(ex[0])), []).append(ex)
    total_tokens = float(sum(len(ex[1]) + 1 for ex in examples))
    losses = []
    for (lang, _), exs in sorted(groups.items()):
        losses.append(grouped_group_loss(
            model, [ex[0] for ex in exs], [ex[1] for ex in exs], model.vocab.languages.index(lang),
            normalizer=total_tokens, dropout_rng=dropout_rng,
        ))
    return add_scalars(losses)


def _step_decoder_loss(model, h, targets, cond, rate, dropout_rng):
    """Teacher-forced decoder loss, one decoder step (and one loss node) at a time."""
    p, vocab = model.params, model.vocab
    tgt_ids, tgt_mask, _ = pad_batch_loop([list(t) + [vocab.eos_id] for t in targets],
                                          vocab.pad_id)
    prev_ids = np.concatenate(
        [np.full((len(targets), 1), vocab.bos_id, dtype=np.int64), tgt_ids[:, :-1]], axis=1)
    dec = gate_dict(p, "dec")
    step_losses = []
    for t in range(tgt_ids.shape[1]):
        x = ad.dropout(ad.embedding(p["tok_emb"], prev_ids[:, t]), rate, dropout_rng)
        if cond.lang_rows is not None:
            x = ad.concat([x, cond.lang_rows])
        h = masked_step(h, gru_cell_six(x, h, dec), tgt_mask[:, t])
        h_in = ad.dropout(h, rate, dropout_rng)
        clf_in = ad.concat([h_in, cond.one_hot]) if cond.one_hot is not None else h_in
        hidden = ad.tanh(ad.add(ad.matmul(clf_in, p["clf.W1"]), p["clf.b1"]))
        parts = [ad.add(ad.matmul(hidden if rows is None else ad.embedding(hidden, rows), w2), b2)
                 for rows, w2, b2 in cond.blocks]  # one output block per language present
        logits = parts[0]
        if len(parts) > 1:  # the blocks' rows concatenated, gathered back into row order
            order = np.concatenate([rows for rows, _, _ in cond.blocks])
            logits = ad.embedding(ad.concat(parts, axis=0), np.argsort(order))
        step_losses.append(ad.softmax_cross_entropy(
            logits, tgt_ids[:, t], tgt_mask[:, t], normalizer=tgt_mask.sum()))
    return add_scalars(step_losses)


def step_recon_loss(model, inputs, targets, dropout_rng=None):
    """ReconModel.batch_loss's loss with a primitive GRU step graph per encoder and decoder step."""
    p, vocab = model.params, model.vocab
    rate = model.config.dropout if dropout_rng is not None else 0.0
    in_ids, in_mask, _ = pad_batch_loop(inputs, vocab.pad_id)
    li_ids, _, _ = pad_batch_loop(
        [segment_language_indices_loop(s, vocab) for s in inputs], 0)
    h = Tensor(np.zeros((len(inputs), model.config.hidden_size)))
    enc = gate_dict(p, "enc")
    for t in range(in_ids.shape[1]):
        x = ad.concat([ad.embedding(p["tok_emb"], in_ids[:, t]),
                       ad.embedding(p["lang_emb"], li_ids[:, t])])
        h = masked_step(h, gru_cell_six(ad.dropout(x, rate, dropout_rng), h, enc), in_mask[:, t])
    return _step_decoder_loss(model, h, targets, model._conditioning(p, None), rate, dropout_rng)


def step_reflex_loss(model, examples, dropout_rng=None):
    """ReflexModel.batch_loss's loss with a primitive GRU step graph per encoder and decoder step."""
    p, cfg = model.params, model.config
    rate = cfg.dropout if dropout_rng is not None else 0.0
    in_ids, in_mask, _ = pad_batch_loop([ex[0] for ex in examples], model.vocab.pad_id)
    B, T = in_ids.shape
    seq = [ad.dropout(ad.embedding(p["tok_emb"], in_ids[:, t]), rate, dropout_rng)
           for t in range(T)]
    dirs = ("f", "b") if cfg.bidirectional_encoder else ("f",)
    for layer in range(cfg.num_encoder_layers):
        outs, finals = [], []
        for d in dirs:
            gates = gate_dict(p, f"enc{layer}{d}")
            h = Tensor(np.zeros((B, cfg.hidden_size)))
            states = [None] * T
            for t in range(T) if d == "f" else range(T - 1, -1, -1):
                h = states[t] = masked_step(h, gru_cell_six(seq[t], h, gates), in_mask[:, t])
            outs.append(states)
            finals.append(h)
        if layer < cfg.num_encoder_layers - 1:
            seq = [ad.dropout(ad.concat([states[t] for states in outs])
                              if len(outs) > 1 else outs[0][t], rate, dropout_rng)
                   for t in range(T)]
    final = ad.concat(finals) if len(finals) > 1 else finals[0]
    h = ad.tanh(ad.add(ad.matmul(final, p["bridge.W"]), p["bridge.b"]))
    lang = np.array([model.vocab.languages.index(tag_language(model.vocab, ex[0]))
                     for ex in examples], dtype=np.int64)
    return _step_decoder_loss(model, h, [ex[1] for ex in examples], model._conditioning(p, lang),
                              rate, dropout_rng)


GRU_SEQUENCE = ad.gru_sequence  # kept for padded_gru_sequence where a test replaces ad's


def padded_gru_sequence(X, h0, gates, mask=None, reverse=False, ids=None, final=False):
    """ad.gru_sequence as it was before it read ids or kept only the final state: every row
    stepped at every step, and with final the last step's row gathered from all the states."""
    states = GRU_SEQUENCE(X, h0, gates, mask, reverse)
    return ad.embedding(states, 0 if reverse else len(states.data) - 1) if final else states


def _gate_arrays(p, prefix):
    """One GRU's stacked (W, U_zr, U_h, b) arrays, as ad.gru_cell_np takes them."""
    g = {name: p[f"{prefix}.{name}"].data for name in GATE_NAMES}
    return (np.concatenate([g["W_z"], g["W_r"], g["W_h"]], axis=1),
            np.concatenate([g["U_z"], g["U_r"]], axis=1), g["U_h"],
            np.concatenate([g["b_z"], g["b_r"], g["b_h"]]))


def _classify(model, h, w1, b1, w2, b2):
    """Logits of the MLP classifier, with the banned output ids masked."""
    mask_row = np.zeros(model.vocab.size)
    mask_row[list(model.banned_output_ids())] = models.NEG
    return np.tanh(h @ w1.data + b1.data) @ w2.data + b2.data + mask_row


class _OracleStepper:
    def __init__(self, h0, dec_params, step_input_fn, classify_fn, model):
        self._h0, self._dec = h0, dec_params
        self._step_input, self._classify = step_input_fn, classify_fn
        self.vocab_size = model.vocab.size
        self.bos_id = model.vocab.bos_id
        self.eos_id = model.vocab.eos_id
        self.banned_ids = model.banned_output_ids()

    def init_state(self, batch):
        return np.repeat(self._h0, batch, axis=0)

    def step(self, state, tokens):
        h = ad.gru_cell_np(self._step_input(np.asarray(tokens)), state, self._dec)
        return ad.log_softmax_rows(self._classify(h)), h

    def select(self, state, idx):
        return state[idx]


def oracle_greedy(stepper, max_len):
    mask = np.zeros(stepper.vocab_size)
    mask[list(stepper.banned_ids)] = -np.inf
    state = stepper.init_state(1)
    prev = np.array([stepper.bos_id])
    out = []
    for _ in range(max_len):
        logp, state = stepper.step(state, prev)
        tok = int(np.argmax(logp[0] + mask))
        if tok == stepper.eos_id:
            break
        out.append(tok)
        prev = np.array([tok])
    return out


def oracle_recon_decoder(model, input_ids):
    p = model.params
    lidx = segment_language_indices_loop(input_ids, model.vocab)
    x = np.concatenate(
        [p["tok_emb"].data[np.asarray(input_ids)], p["lang_emb"].data[np.asarray(lidx)]], axis=1
    )
    h = np.zeros((1, model.config.hidden_size))
    enc = _gate_arrays(p, "enc")
    for t in range(len(input_ids)):
        h = ad.gru_cell_np(x[t : t + 1], h, enc)
    return _OracleStepper(
        h, _gate_arrays(p, "dec"),
        lambda toks: p["tok_emb"].data[toks],
        lambda hh: _classify(model, hh, p["clf.W1"], p["clf.b1"], p["clf.W2"], p["clf.b2"]),
        model,
    )


def _oracle_reflex_encode(model, input_ids):
    p, cfg = model.params, model.config
    seq = p["tok_emb"].data[np.asarray(input_ids)][None, :, :]
    dirs = ("f", "b") if cfg.bidirectional_encoder else ("f",)
    T = seq.shape[1]
    for layer in range(cfg.num_encoder_layers):
        outs = {}
        for d in dirs:
            gates = _gate_arrays(p, f"enc{layer}{d}")
            h = np.zeros((1, cfg.hidden_size))
            states = []
            for t in (range(T) if d == "f" else range(T - 1, -1, -1)):
                h = ad.gru_cell_np(seq[:, t, :], h, gates)
                states.append(h)
            outs[d] = states if d == "f" else states[::-1]
        if cfg.bidirectional_encoder:
            seq = np.stack(
                [np.concatenate([outs["f"][t], outs["b"][t]], axis=1) for t in range(T)], axis=1
            )
            final = np.concatenate([outs["f"][-1], outs["b"][0]], axis=1)
        else:
            seq = np.stack(outs["f"], axis=1)
            final = outs["f"][-1]
    return np.tanh(final @ p["bridge.W"].data + p["bridge.b"].data)


def oracle_reflex_decoder(model, tagged, language):
    p, cfg = model.params, model.config
    li = model.vocab.languages.index(language)
    w2, b2 = ((p[f"clf.W2.{li}"], p[f"clf.b2.{li}"]) if cfg.target_gated_classifier
              else (p["clf.W2"], p["clf.b2"]))

    def step_input(toks):
        x = p["tok_emb"].data[toks]
        if cfg.decode_with_language_embedding:
            x = np.concatenate([x, p["lang_emb"].data[np.full(len(toks), li + 1)]], axis=1)
        return x

    def classify(h):
        if cfg.one_hot_target_encoding:
            one_hot = np.zeros((h.shape[0], len(model.vocab.languages)))
            one_hot[:, li] = 1.0
            h = np.concatenate([h, one_hot], axis=1)
        return _classify(model, h, p["clf.W1"], p["clf.b1"], w2, b2)

    return _OracleStepper(_oracle_reflex_encode(model, tagged),
                          _gate_arrays(p, "dec"),
                          step_input, classify, model)


def oracle_scores(reflex, candidates, cset, decode_row=None):
    """r and predictions of each candidate, one decode per (candidate, language).

    An empty candidate, or one with ids unknown to the reflex vocabulary, is
    not decoded: r = 0 and empty predictions.  decode_row(tagged ids,
    language) decodes one row; by default it is the oracle decoder of the
    ReflexModel reflex.
    """
    vocab = reflex.vocab
    if decode_row is None:
        def decode_row(tagged, lang):
            return oracle_greedy(oracle_reflex_decoder(reflex, tagged, lang),
                                  reflex.max_decode_len)
    r_values, predictions = [], []
    for tokens in candidates:
        preds, correct = {lang: () for lang in cset.reflexes}, 0
        if tokens and all(0 <= t < vocab.size for t in tokens):
            for lang in cset.reflexes:
                tagged = assemble_reflex_input(vocab.decode(tokens), lang, vocab)
                preds[lang] = tuple(decode_row(tagged, lang))
                correct += preds[lang] == tuple(vocab.encode(cset.reflexes[lang]))
        r_values.append(correct / len(cset.reflexes))
        predictions.append(preds)
    return r_values, predictions


def oracle_reconstruct_reranked(recon, reflex, cset, config, lam):
    input_ids = assemble_reconstruction_input(cset, recon.vocab)
    beam = dec.beam_search(oracle_recon_decoder(recon, input_ids), config)
    r_values, predictions = oracle_scores(reflex, [cand.tokens for cand in beam], cset)
    reranked = rerank(beam, r_values, lam)
    return reranked[0], reranked, beam, dict(enumerate(predictions))


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


def rerank_ranks_reference(m_values, r_values, lam):
    """Each candidate's rank by s = m + lam * r, descending, from the number of candidates
    with a higher s or an equal s and a lower beam rank."""
    s = [m + lam * r for m, r in zip(m_values, r_values)]
    return [sum(s[j] > s[i] or (s[j] == s[i] and j < i) for j in range(len(s)))
            for i in range(len(s))]


def exact_rank_sum_distribution(nx, ny):
    """P(W = w) over the rank-sum support, by enumeration (small n)."""
    counts = {}
    total = 0
    for combo in combinations(range(1, nx + ny + 1), nx):
        s = sum(combo)
        counts[s] = counts.get(s, 0) + 1
        total += 1
    return {w: c / total for w, c in sorted(counts.items())}


def midranks_loop(values):
    """1-based ranks of values; each run of ties gets the mean of its positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sorted_vals = np.asarray(values)[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks
