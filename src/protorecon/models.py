"""GRU encoder-decoder models: reconstruction and reflex prediction.

The reconstruction model consumes a concatenated cognate-set sequence and
emits a protoform; the reflex model consumes a language-tagged protoform
and emits the reflex in that daughter language.  Each model's encoder and
decoder step are written once with autodiff ops: training runs them on the
parameters and builds a tape, and decoding (encode_np, and batch_decoder
through the stepper interface in decode.py) runs them on an untracked view
of the parameters, where the ops record nothing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import decode as dec
from .autodiff import Tensor
from .corpus import Dataset, Vocabulary
from .errors import CheckpointError, ConfigError, ProtoreconError, TrainingError
from .metrics import token_edit_distance

NEG = -1e30  # additive logit mask for ids the decoder must never emit
DECODE_CHUNK = 128  # rows per decode batch (greedy rows, or beam sets times k); bounds peak memory


@dataclass(frozen=True)
class ReconModelConfig:
    embedding_size: int = 32
    hidden_size: int = 64
    feedforward_size: int = 64
    dropout: float = 0.1
    batch_size: int = 32
    lr: float = 1e-3
    max_epochs: int = 60
    warmup_epochs: int = 0
    alpha: float = 1.0  # beam length-normalization constant
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    validate_every: int = 3
    patience: int = 5

    def __post_init__(self):
        for name in ("embedding_size", "hidden_size", "feedforward_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        dec.BeamConfig(k=1, alpha=self.alpha)  # alpha is a beam setting: BeamConfig checks it
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be >= 0")


@dataclass(frozen=True)
class ReflexModelConfig(ReconModelConfig):
    bidirectional_encoder: bool = True
    num_encoder_layers: int = 1
    one_hot_target_encoding: bool = True
    target_gated_classifier: bool = False
    decode_with_language_embedding: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.num_encoder_layers < 1:
            raise ConfigError("num_encoder_layers must be >= 1")
        if not (
            self.one_hot_target_encoding
            or self.target_gated_classifier
            or self.decode_with_language_embedding
        ):
            raise ConfigError(
                "reflex model needs at least one target-conditioning mechanism"
            )


_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def config_from_dict(cls, values):
    """A cls config (a model config dataclass) from a dict of field values.

    Unknown fields and values of the wrong type are a ConfigError: an int
    field takes an int but not a bool, a float field an int or a float.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{cls.__name__} values must be an object, not {type(values).__name__}")
    types = {f.name: _FIELD_TYPES[f.type] for f in fields(cls)}
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ConfigError(f"fields not valid for {cls.__name__}: {unknown}")
    for name, value in values.items():
        allowed = types[name]
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            kinds = " or ".join(t.__name__ for t in allowed)
            raise ConfigError(f"{cls.__name__} field {name!r} must be {kinds}, not {value!r}")
    return cls(**values)


@dataclass
class TrainingHistory:
    epoch_losses: list = field(default_factory=list)  # (epoch, mean train loss)
    validations: list = field(default_factory=list)  # (epoch, mean val edit distance)
    best_epoch: int = -1


def _glorot(rng, n_in, n_out):
    s = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-s, s, size=(n_in, n_out))


def _gru_params(rng, n_in, n_hid, prefix):
    params = {}
    for gate in ("z", "r", "h"):
        params[f"{prefix}.W_{gate}"] = ad.parameter(_glorot(rng, n_in, n_hid), f"{prefix}.W_{gate}")
        params[f"{prefix}.U_{gate}"] = ad.parameter(_glorot(rng, n_hid, n_hid), f"{prefix}.U_{gate}")
        params[f"{prefix}.b_{gate}"] = ad.parameter(np.zeros(n_hid), f"{prefix}.b_{gate}")
    return params


def _stacked_gates(params, prefix):
    """The (W, U_zr, U_h, b) that ad.gru_cell takes, from the nine per-gate parameters.

    Stacked with ad.concat once per forward pass, so gradients land on the
    named parameters and the checkpoint layout stays per gate.
    """
    def cat(names, axis=1):
        return ad.concat([params[f"{prefix}.{n}"] for n in names], axis=axis)

    return (cat(("W_z", "W_r", "W_h")), cat(("U_z", "U_r")), params[f"{prefix}.U_h"],
            cat(("b_z", "b_r", "b_h"), axis=0))


def segment_language_indices(ids, vocab: Vocabulary) -> list[int]:
    """Per-position language index (0 = structural) for a concatenated input."""
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


class _Conditioning(NamedTuple):
    """Per-row target-language inputs of a decoder step."""

    one_hot: Tensor | None  # rows appended to the classifier input
    lang_rows: Tensor | None  # lang_emb rows appended to the decoder input
    blocks: list  # classifier output blocks (rows or None, w2, masked b2), see _classifier
    order: np.ndarray | None  # row order of the logits; None when they come in row order


class _GruStepper:
    """decode.py stepper running a model's _decode_step on untracked parameters.

    h0 holds one encoded row per input.  init_state(batch) repeats a
    one-row encoding (beam search) or takes an n-row encoding whole
    (batched greedy decoding, batch = n).  The state is (hidden matrix,
    input index of each row, their _Conditioning), so per-input
    conditioning (the reflex model's target language) follows select(),
    the only place where the rows change.
    """

    def __init__(self, model, params, h0, conditioning):
        self._model, self._p, self._h0 = model, params, h0
        self._dec = _stacked_gates(params, "dec")
        self._conditioning = conditioning  # input indices of rows -> _Conditioning
        self.vocab_size = model.vocab.size
        self.bos_id = model.vocab.bos_id
        self.eos_id = model.vocab.eos_id
        self.banned_ids = model.banned_output_ids()

    def init_state(self, batch):
        rows = np.arange(batch) % len(self._h0)
        return self._h0[rows], rows, self._conditioning(rows)

    def step(self, state, tokens):
        h, rows, cond = state
        h, logits = self._model._decode_step(self._p, self._dec, Tensor(h), tokens, cond)
        if cond.order is not None:  # back from classifier-block order to row order
            logits = ad.embedding(logits, np.argsort(cond.order))
        return ad.log_softmax_rows(logits.data), (h.data, rows, cond)

    def select(self, state, idx):
        rows = state[1][idx]
        return state[0][idx], rows, self._conditioning(rows)


def _concat(parts):
    return ad.concat(parts, axis=-1) if len(parts) > 1 else parts[0]


def _on_tape(p):
    """Whether p is a model's parameter dict (a training forward) or an untracked view of it.

    This one test picks between whole sequences on the tape and one step at
    a time off it, in the encoders and the decoder alike.
    """
    return p["tok_emb"].requires_grad


def _gru_run(on_tape, seq, h0, gates, mask, reverse=False, keep_states=True):
    """(states, final state) of a GRU over the inputs of T steps, mask (T, B).

    On the tape seq is a (T, B, D) Tensor, and states the (T, B, H) Tensor
    of one ad.gru_sequence.  Off it (inference) seq is a function of a step
    index, the steps run one at a time through ad.gru_cell, so that only one
    step's inputs are gathered at once, and states is a list of per-step
    states (None unless keep_states).
    """
    T = len(mask)
    if on_tape:
        states = ad.gru_sequence(seq, h0, gates, mask, reverse)
        return states, ad.embedding(states, 0 if reverse else T - 1)
    states, h = [None] * T, h0
    for t in range(T - 1, -1, -1) if reverse else range(T):
        h = ad.gru_cell(seq(t), h, gates, mask[t])
        if keep_states:
            states[t] = h
    return states, h


def _pad_batch(seqs, pad_id):
    """Right-pad id lists; returns (ids matrix, mask matrix, lengths)."""
    lengths = np.array([len(s) for s in seqs])
    T = int(lengths.max())
    ids = np.full((len(seqs), T), pad_id, dtype=np.int64)
    mask = np.zeros((len(seqs), T))
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = 1.0
    return ids, mask, lengths


class _ModelBase:
    """Parameter bookkeeping, decoder and checkpointing of both models.

    Each model writes its forward once, with autodiff ops on a parameter
    dict p: training passes self.params and builds a tape; inference
    (encode_np, batch_decoder) passes _untracked_params() with dropout rate
    0, on which the same ops record nothing.
    """

    kind = ""

    def __init__(self, config, vocab: Vocabulary):
        self.config = config
        self.vocab = vocab
        self.params: dict[str, Tensor] = {}
        self.history = TrainingHistory()
        self.max_decode_len = 40
        row = np.zeros(vocab.size)
        row[list(self.banned_output_ids())] = NEG
        self._output_mask = Tensor(row)  # added to every output bias b2

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self):
        return list(self.params.values())

    def param_arrays(self):
        return {k: v.data for k, v in self.params.items()}

    def load_param_arrays(self, arrays):
        for k, p in self.params.items():
            if k not in arrays or arrays[k].shape != p.data.shape:
                raise CheckpointError(f"missing or misshapen array {k!r}")
            p.data = np.array(arrays[k], dtype=np.float64)

    def snapshot(self):
        return {k: v.data.copy() for k, v in self.params.items()}

    def _untracked_params(self):
        """The parameters as untracked Tensors, on which ops record no tape."""
        return {k: Tensor(v.data) for k, v in self.params.items()}

    def banned_output_ids(self):
        v = self.vocab
        banned = [v.pad_id, v.bos_id, v.sep_id, v.delim_id, v.unk_id]
        banned += [v.language_tag_id(lang) for lang in v.languages]
        return tuple(banned)

    # -- decoder --------------------------------------------------------------

    def _classifier(self, h: Tensor, w1, b1, blocks) -> Tensor:
        """Logits of the MLP classifier; the hidden layer is shared by all rows.

        blocks lists (rows, w2, b2) output blocks: rows is None for one block
        over every row, else an index array, and the logits come out in the
        order of the blocks' rows concatenated.  Each b2 already carries the
        banned-output mask row (NEG at banned ids), added once per forward.
        """
        return ad.grouped_affine(ad.tanh(ad.add(ad.matmul(h, w1), b1)), blocks)

    def _decode_step(self, p, dec_gates, h, prev_ids, cond: _Conditioning, mask=None, rate=0.0,
                     keep=(None, None)):
        """The decoder after tokens prev_ids: (hidden states, logits).

        Off the tape prev_ids (B,) is one step (ad.gru_cell), as decoding
        runs it.  On the tape prev_ids (T, B) is a whole teacher-forced batch
        (one ad.gru_sequence); its logits rows are the T * B (step, row)
        pairs, step-major, in the order cond's classifier blocks give them.
        keep holds the dropout keep masks of the inputs and of the states.
        """
        on_tape = _on_tape(p)
        x = ad.dropout(ad.embedding(p["tok_emb"], prev_ids), rate, keep=keep[0])
        if cond.lang_rows is not None:
            x = ad.concat([x, cond.lang_rows], axis=-1)
        h = (ad.gru_sequence if on_tape else ad.gru_cell)(x, h, dec_gates, mask)
        h_in = ad.dropout(h, rate, keep=keep[1])
        clf_in = ad.concat([h_in, cond.one_hot], axis=-1) if cond.one_hot is not None else h_in
        if on_tape:
            clf_in = ad.reshape(clf_in, (-1, clf_in.data.shape[2]))
        return h, self._classifier(clf_in, p["clf.W1"], p["clf.b1"], cond.blocks)

    def _decoder_loss(self, h, targets, conditioning, rate, dropout_rng):
        """Teacher-forced mean token loss of decoding targets from encoder states h.

        targets are id lists without EOS; EOS is appended here.  Every row's
        loss divides by the total target token count.  conditioning(rows)
        gives the _Conditioning of the batch rows at the positions of rows.
        The decoder runs once over the whole (T, B) batch.  Its dropout masks
        are drawn step by step, the input's before the state's, and the loss
        adds the steps in order, as a step-by-step decoder does.
        """
        p, cfg = self.params, self.config
        tgt_ids, tgt_mask, _ = _pad_batch([list(t) + [self.vocab.eos_id] for t in targets],
                                          self.vocab.pad_id)
        B, T = tgt_ids.shape
        prev_ids = np.concatenate(
            [np.full((B, 1), self.vocab.bos_id, dtype=np.int64), tgt_ids[:, :-1]], axis=1
        )
        cond = conditioning(np.broadcast_to(np.arange(B), (T, B)))
        keep = (None, None)
        if rate:
            keep = (np.empty((T, B, cfg.embedding_size), dtype=bool),
                    np.empty((T, B, cfg.hidden_size), dtype=bool))
            for t in range(T):
                for k in keep:
                    k[t] = dropout_rng.random(k.shape[1:]) >= rate
        _, logits = self._decode_step(p, _stacked_gates(p, "dec"), h, prev_ids.T, cond,
                                      tgt_mask.T, rate, keep)
        rows = np.arange(T * B) if cond.order is None else cond.order  # step * B + row, per logit
        # a step's logits in the order a step's classifier blocks give them
        steps = np.sort(np.argsort(rows).reshape(T, B), axis=1)
        return ad.softmax_cross_entropy(logits, tgt_ids.T.reshape(-1)[rows],
                                        tgt_mask.T.reshape(-1)[rows],
                                        normalizer=tgt_mask.sum(), steps=steps)

    def greedy_decode_rows(self, rows, max_len=None) -> list[list[int]]:
        """Greedy decodes of batch_decoder rows, DECODE_CHUNK rows per batch."""
        max_len = self.max_decode_len if max_len is None else max_len
        out = []
        for start in range(0, len(rows), DECODE_CHUNK):
            chunk = rows[start : start + DECODE_CHUNK]
            out += dec.greedy_decode_batch(self.batch_decoder(chunk), len(chunk), max_len)
        return out

    # -- checkpointing --------------------------------------------------------

    def save(self, path):
        header = {
            "kind": self.kind,
            "config": asdict(self.config),
            "vocab_tokens": list(self.vocab.id_to_token),
            "languages": list(self.vocab.languages),
            "max_decode_len": self.max_decode_len,
        }
        ckpt.write_checkpoint(
            path, self.param_arrays(), header, self.vocab.content_hash(), self.config.seed
        )


def load_checkpoint(path, vocab: Vocabulary | None = None):
    """Rebuild a trained model from a checkpoint container."""
    arrays, header, vocab_hash, _seed = ckpt.read_checkpoint(path)
    try:
        kind, config, tokens = header["kind"], header["config"], tuple(header["vocab_tokens"])
        languages, max_decode_len = tuple(header["languages"]), int(header["max_decode_len"])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint header lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    if kind not in ("recon", "reflex"):
        raise CheckpointError(f"unknown model kind {kind!r}")
    try:
        config = config_from_dict(ReconModelConfig if kind == "recon" else ReflexModelConfig,
                                  config)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from None
    if vocab is not None and vocab.content_hash() != vocab_hash:
        raise CheckpointError("vocabulary hash mismatch between checkpoint and dataset")
    if vocab is None:
        vocab = Vocabulary(id_to_token=tokens, token_to_id={t: i for i, t in enumerate(tokens)},
                           languages=languages)
    model = new_model(kind, config, vocab)
    model.load_param_arrays(arrays)
    model.max_decode_len = max_decode_len
    return model


class ReconModel(_ModelBase):
    """Single-layer unidirectional GRU encoder-decoder over concatenated reflexes.

    Encoder input at each position is the token embedding concatenated with
    the embedding of the position's segment language (a reserved index for
    structural tokens).  The decoder starts from the encoder's final hidden
    state and feeds back the previous token's embedding; an MLP classifier
    with one tanh hidden layer maps hidden states to vocabulary logits.
    """

    kind = "recon"

    def __init__(self, config: ReconModelConfig, vocab: Vocabulary):
        super().__init__(config, vocab)
        rng = np.random.default_rng(config.seed)
        E, H, F = config.embedding_size, config.hidden_size, config.feedforward_size
        V, L = vocab.size, len(vocab.languages)
        p = self.params
        p["tok_emb"] = ad.parameter(rng.uniform(-0.1, 0.1, (V, E)), "tok_emb")
        p["lang_emb"] = ad.parameter(rng.uniform(-0.1, 0.1, (L + 1, E)), "lang_emb")
        p.update(_gru_params(rng, 2 * E, H, "enc"))
        p.update(_gru_params(rng, E, H, "dec"))
        p["clf.W1"] = ad.parameter(_glorot(rng, H, F), "clf.W1")
        p["clf.b1"] = ad.parameter(np.zeros(F), "clf.b1")
        p["clf.W2"] = ad.parameter(_glorot(rng, F, V), "clf.W2")
        p["clf.b2"] = ad.parameter(np.zeros(V), "clf.b2")

    def _check_framing(self, input_ids):
        sep = self.vocab.sep_id
        if len(input_ids) < 3 or input_ids[0] != sep or input_ids[-1] != sep:
            raise ProtoreconError("reconstruction input must be SEP-framed")

    def _encode(self, p, inputs, rate=0.0, dropout_rng=None):
        """Final encoder states (len(inputs), H) of SEP-framed id sequences.

        On the tape the batch is one (T, B) gather per table and one GRU
        node; off it the embeddings are gathered step by step (see _gru_run).
        """
        for seq in inputs:
            self._check_framing(seq)
        in_ids, in_mask, _ = _pad_batch(inputs, self.vocab.pad_id)
        li_ids, _, _ = _pad_batch([segment_language_indices(s, self.vocab) for s in inputs], 0)
        ids, lang_ids = in_ids.T, li_ids.T  # time-major

        def x(t):  # the inputs of step t, or of every step for t = slice(None)
            return ad.embeddings([(p["tok_emb"], ids[t]), (p["lang_emb"], lang_ids[t])])

        on_tape = _on_tape(p)
        seq = ad.dropout(x(slice(None)), rate, dropout_rng) if on_tape else x
        h0 = Tensor(np.zeros((len(inputs), self.config.hidden_size)))
        return _gru_run(on_tape, seq, h0, _stacked_gates(p, "enc"), in_mask.T, keep_states=False)[1]

    def _conditioning(self, p):
        blocks = [(None, p["clf.W2"], ad.add(p["clf.b2"], self._output_mask))]
        return _Conditioning(None, None, blocks, None)

    # -- training forward -----------------------------------------------------

    def batch_loss(self, inputs, targets, dropout_rng=None):
        """Teacher-forced mean token loss over a batch of (input, protoform).

        targets are protoform id lists without EOS; EOS is appended here.
        Returns (loss Tensor, None).
        """
        rate = self.config.dropout if dropout_rng is not None else 0.0
        h = self._encode(self.params, inputs, rate, dropout_rng)
        cond = self._conditioning(self.params)
        return self._decoder_loss(h, targets, lambda rows: cond, rate, dropout_rng), None

    # -- inference ------------------------------------------------------------

    def encode_np(self, inputs):
        """Final encoder states (len(inputs), H) of SEP-framed id sequences, as an array."""
        return self._encode(self._untracked_params(), inputs).data

    def decoder(self, input_ids) -> _GruStepper:
        return self.batch_decoder([input_ids])

    def batch_decoder(self, inputs) -> _GruStepper:
        """Stepper whose init_state(len(inputs)) row i decodes inputs[i]."""
        p = self._untracked_params()
        cond = self._conditioning(p)
        return _GruStepper(self, p, self.encode_np(inputs), lambda rows: cond)

    def beam_config(self, k, alpha=None, max_len=None) -> dec.BeamConfig:
        """The checked beam settings of k, alpha and max_len for this model.

        alpha defaults to the config's alpha and max_len to max_decode_len.
        """
        return dec.BeamConfig(k=k, alpha=self.config.alpha if alpha is None else alpha,
                              max_len=self.max_decode_len if max_len is None else max_len)

    def beam_search_sets(self, csets, config: dec.BeamConfig):
        """Beam candidates of a sequence of cognate sets, one batch of sets at a time.

        A batch holds max(1, DECODE_CHUNK // k) sets, so that its frontier has
        at most DECODE_CHUNK rows, and runs one beam_search_batch.  Yields
        (the batch's sets, their candidate lists).
        """
        from .corpus import assemble_reconstruction_input

        size = max(1, DECODE_CHUNK // config.k)
        for start in range(0, len(csets), size):
            batch = csets[start : start + size]
            inputs = [assemble_reconstruction_input(cs, self.vocab) for cs in batch]
            yield batch, dec.beam_search_batch(self.batch_decoder(inputs), len(batch), config)


class ReflexModel(_ModelBase):
    """GRU reflex predictor with configurable target-conditioning mechanisms.

    Encoder: stacked, optionally bidirectional GRU over the tagged protoform.
    Decoder: unidirectional GRU seeded from a learned bridge over the final
    encoder states.  Conditioning flags: a one-hot language vector on the
    classifier input, a per-language classifier output block, and a language
    embedding concatenated to each decoder input.
    """

    kind = "reflex"

    def __init__(self, config: ReflexModelConfig, vocab: Vocabulary):
        super().__init__(config, vocab)
        rng = np.random.default_rng(config.seed)
        E, H, F = config.embedding_size, config.hidden_size, config.feedforward_size
        V, L = vocab.size, len(vocab.languages)
        p = self.params
        p["tok_emb"] = ad.parameter(rng.uniform(-0.1, 0.1, (V, E)), "tok_emb")
        dirs = ("f", "b") if config.bidirectional_encoder else ("f",)
        out_dim = H * len(dirs)
        for layer in range(config.num_encoder_layers):
            in_dim = E if layer == 0 else out_dim
            for d in dirs:
                p.update(_gru_params(rng, in_dim, H, f"enc{layer}{d}"))
        p["bridge.W"] = ad.parameter(_glorot(rng, out_dim, H), "bridge.W")
        p["bridge.b"] = ad.parameter(np.zeros(H), "bridge.b")
        dec_in = E + (E if config.decode_with_language_embedding else 0)
        if config.decode_with_language_embedding:
            p["lang_emb"] = ad.parameter(rng.uniform(-0.1, 0.1, (L + 1, E)), "lang_emb")
        p.update(_gru_params(rng, dec_in, H, "dec"))
        clf_in = H + (L if config.one_hot_target_encoding else 0)
        p["clf.W1"] = ad.parameter(_glorot(rng, clf_in, F), "clf.W1")
        p["clf.b1"] = ad.parameter(np.zeros(F), "clf.b1")
        if config.target_gated_classifier:
            for i, lang in enumerate(vocab.languages):
                p[f"clf.W2.{i}"] = ad.parameter(_glorot(rng, F, V), f"clf.W2.{lang}")
                p[f"clf.b2.{i}"] = ad.parameter(np.zeros(V), f"clf.b2.{lang}")
        else:
            p["clf.W2"] = ad.parameter(_glorot(rng, F, V), "clf.W2")
            p["clf.b2"] = ad.parameter(np.zeros(V), "clf.b2")

    def language_index(self, language: str) -> int:
        try:
            return self.vocab.languages.index(language)
        except ValueError:
            raise ProtoreconError(f"language {language!r} outside inventory") from None

    def _encode(self, p, inputs, rate=0.0, dropout_rng=None):
        """Bridged final encoder states (len(inputs), H) of tagged protoforms.

        Inputs are right-padded.  A padded step keeps the row's state, so the
        backward direction, which meets a row's pads first, stays at zero
        until its last real token.  On the tape each layer and direction is
        one GRU node over the whole batch; off it the steps run one at a time
        (see _gru_run), and per-step states are kept only for a layer that a
        next layer reads.
        """
        cfg = self.config
        in_ids, in_mask, _ = _pad_batch(inputs, self.vocab.pad_id)
        ids, mask = in_ids.T, in_mask.T  # time-major
        h0 = Tensor(np.zeros((len(inputs), cfg.hidden_size)))
        dirs = ("f", "b") if cfg.bidirectional_encoder else ("f",)
        on_tape = _on_tape(p)
        if on_tape:
            seq = ad.dropout(ad.embedding(p["tok_emb"], ids), rate, dropout_rng)
        else:
            def seq(t):  # each direction gathers again: cheaper than keeping the gathers
                return ad.embedding(p["tok_emb"], ids[t])
        for layer in range(cfg.num_encoder_layers):
            last = layer == cfg.num_encoder_layers - 1
            runs = [_gru_run(on_tape, seq, h0, _stacked_gates(p, f"enc{layer}{d}"), mask, d == "b",
                             keep_states=not last) for d in dirs]
            if last:
                break
            if on_tape:
                seq = ad.dropout(_concat([states for states, _ in runs]), rate, dropout_rng)
            else:
                steps = [_concat([states[t] for states, _ in runs]) for t in range(len(ids))]
                seq = steps.__getitem__
        final = _concat([h for _, h in runs])  # forward: state at the last token; backward: first
        return ad.tanh(ad.add(ad.matmul(final, p["bridge.W"]), p["bridge.b"]))

    def _conditioning(self, p, lang) -> _Conditioning:
        """Decoder-step conditioning of rows whose language indices are lang.

        The target-gated classifier gets one output block per language
        present, so its logits come in the order of those blocks' rows.
        """
        cfg = self.config
        one_hot = (Tensor(np.eye(len(self.vocab.languages))[lang])
                   if cfg.one_hot_target_encoding else None)
        lang_rows = (ad.embedding(p["lang_emb"], lang + 1)
                     if cfg.decode_with_language_embedding else None)
        if not cfg.target_gated_classifier:
            blocks = [(None, p["clf.W2"], ad.add(p["clf.b2"], self._output_mask))]
            return _Conditioning(one_hot, lang_rows, blocks, None)
        blocks = [(np.flatnonzero(lang == l), p[f"clf.W2.{l}"],
                   ad.add(p[f"clf.b2.{l}"], self._output_mask)) for l in np.unique(lang)]
        order = np.concatenate([rows for rows, _, _ in blocks])
        return _Conditioning(one_hot, lang_rows, blocks, order)

    # -- training forward -----------------------------------------------------

    def group_loss(self, inputs, targets, lang_indices, dropout_rng=None):
        """Mean token loss of rows of any input length and target language.

        inputs: tagged protoform id lists; targets: reflex id lists (EOS
        appended here); lang_indices: each row's language index.  Rows are
        right-padded and masked into one graph; every row's loss divides by
        the total target token count.
        """
        rate = self.config.dropout if dropout_rng is not None else 0.0
        h = self._encode(self.params, inputs, rate, dropout_rng)
        lang = np.asarray(lang_indices, dtype=np.int64)
        return self._decoder_loss(
            h, targets, lambda rows: self._conditioning(self.params, lang[rows]), rate, dropout_rng)

    def batch_loss(self, examples, dropout_rng=None):
        """Mean token loss over (input_ids, target_ids, language) examples, in one graph."""
        return self.group_loss(
            [ex[0] for ex in examples],
            [ex[1] for ex in examples],
            [self.language_index(ex[2]) for ex in examples],
            dropout_rng=dropout_rng,
        )

    # -- inference ------------------------------------------------------------

    def encode_np(self, inputs):
        """Bridged encoder states (len(inputs), H) of tagged protoforms, as an array."""
        return self._encode(self._untracked_params(), inputs).data

    def decoder(self, tagged_input_ids, language: str) -> _GruStepper:
        return self.batch_decoder([(tagged_input_ids, language)])

    def batch_decoder(self, rows) -> _GruStepper:
        """Stepper over (tagged protoform ids, language) rows; see _GruStepper."""
        p = self._untracked_params()
        lang = np.array([self.language_index(row[1]) for row in rows], dtype=np.int64)
        return _GruStepper(self, p, self.encode_np([row[0] for row in rows]),
                           lambda idx: self._conditioning(p, lang[idx]))


# -- training loop ------------------------------------------------------------


def _recon_examples(dataset: Dataset, vocab: Vocabulary):
    from .corpus import assemble_reconstruction_input

    out = []
    for cs in dataset.sets:
        if cs.protoform is None:
            continue
        out.append(
            (assemble_reconstruction_input(cs, vocab, dataset.languages), vocab.encode(cs.protoform))
        )
    return out


def _reflex_examples(dataset: Dataset, vocab: Vocabulary):
    from .corpus import assemble_reflex_input

    out = []
    for cs in dataset.sets:
        if cs.protoform is None:
            continue
        for lang in dataset.languages:
            if lang in cs.reflexes:
                out.append(
                    (
                        assemble_reflex_input(cs.protoform, lang, vocab),
                        vocab.encode(cs.reflexes[lang]),
                        lang,
                    )
                )
    return out


def _greedy_val_ted(model, examples):
    """Mean token edit distance of greedy decodes against gold targets."""
    if not examples:
        return 0.0
    rows = [ex[0] if model.kind == "recon" else (ex[0], ex[2]) for ex in examples]
    preds = model.greedy_decode_rows(rows)
    total = sum(token_edit_distance(pred, ex[1]) for pred, ex in zip(preds, examples))
    return total / len(examples)


def train(model, dataset: Dataset, log=None):
    """Mini-batch Adam training with periodic greedy validation and early stop.

    The dataset must be split-tagged.  Batches count cognate sets; for the
    reflex model each set contributes one example per present reflex.
    Returns the model (trained in place, best-validation parameters kept).
    """
    if dataset.split_tags is None:
        raise ConfigError("dataset must be split-tagged before training")
    cfg = model.config
    train_split = dataset.subset("train")
    val_split = dataset.subset("val")
    if not train_split.sets:
        raise TrainingError("empty train split")
    if model.kind == "recon":
        make = _recon_examples
    else:
        make = _reflex_examples
    train_sets = list(train_split.sets)
    val_examples = make(val_split, model.vocab)

    longest_target = max(
        (len(ex[1]) for ex in make(train_split, model.vocab)), default=10
    )
    model.max_decode_len = 2 * longest_target + 5

    if cfg.max_epochs == 0:
        return model

    opt = ad.Adam(
        model.parameters(),
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        eps=cfg.eps,
        weight_decay=cfg.weight_decay,
    )
    best_val, best_params, bad_validations = np.inf, None, 0
    for epoch in range(cfg.max_epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(train_sets))
        scale = ad.warmup_scale(epoch, cfg.warmup_epochs)
        epoch_loss, n_batches = 0.0, 0
        for b_start in range(0, len(order), cfg.batch_size):
            batch_sets = [train_sets[i] for i in order[b_start : b_start + cfg.batch_size]]
            batch = make(
                Dataset(dataset.languages, tuple(batch_sets)), model.vocab
            )
            if not batch:
                continue
            drop_rng = np.random.default_rng([cfg.seed, epoch, n_batches, 7919])
            if model.kind == "recon":
                loss, _ = model.batch_loss(
                    [ex[0] for ex in batch], [ex[1] for ex in batch], dropout_rng=drop_rng
                )
            else:
                loss = model.batch_loss(batch, dropout_rng=drop_rng)
            if not np.isfinite(float(loss.data)):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            opt.zero_grad()
            loss.backward()
            opt.step(lr_scale=scale)
            epoch_loss += float(loss.data)
            n_batches += 1
        model.history.epoch_losses.append((epoch, epoch_loss / max(n_batches, 1)))
        if log:
            log(f"epoch {epoch}: loss {epoch_loss / max(n_batches, 1):.4f}")

        if (epoch + 1) % cfg.validate_every == 0 and val_examples:
            val_ted = _greedy_val_ted(model, val_examples)
            model.history.validations.append((epoch, val_ted))
            if log:
                log(f"epoch {epoch}: val TED {val_ted:.4f}")
            if val_ted < best_val:
                best_val, best_params = val_ted, model.snapshot()
                model.history.best_epoch = epoch
                bad_validations = 0
            else:
                bad_validations += 1
                if bad_validations >= cfg.patience:
                    break
    if best_params is not None:
        model.load_param_arrays(best_params)
    return model


def new_model(kind: str, config, vocab: Vocabulary):
    if kind == "recon":
        return ReconModel(config, vocab)
    if kind == "reflex":
        return ReflexModel(config, vocab)
    raise ConfigError(f"unknown model kind {kind!r}")
