"""GRU encoder-decoder models: reconstruction and reflex prediction.

The reconstruction model consumes a concatenated cognate-set sequence and
emits a protoform; the reflex model consumes a language-tagged protoform
and emits the reflex in the daughter language that its leading tag names;
either input is one id list.  Each model's encoder and decoder step are
written once with autodiff ops over whole (T, B) batches: training runs
them on the parameters and builds a tape, and decoding (encode_np, and
batch_decoder through the stepper interface in decode.py) runs them on an
untracked view of the parameters, where the ops record nothing and
ad.gru_sequence steps one position at a time, in the reflex encoder's first
layer each distinct state once, and keeps only the final state of each
encoder's last layer.  Every decode call (batch_decoder, greedy_decode_rows,
beam_search_sets) takes its steppers from one generator, _steppers, which
makes the untracked view, the decoder's stacked gates and the inputs' target
languages once per call.  A decode batch holds at most DECODE_CHUNK rows, and
one encoder pass the inputs of one or more whole batches.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import decode as dec
from .autodiff import Tensor
from .corpus import Dataset, Vocabulary, assemble_reconstruction_input, assemble_reflex_input
from .errors import CheckpointError, ConfigError, ProtoreconError, TrainingError
from .metrics import token_edit_distance

NEG = -1e30  # additive logit mask for ids the decoder must never emit
# rows per decode batch (greedy rows, or beam sets times k), bounding its memory; an encoder pass
# encodes the inputs of one or more whole batches (see encode_pass_chunks and beam_search_sets)
DECODE_CHUNK = 128


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
        for name in ("embedding_size", "hidden_size", "feedforward_size", "batch_size",
                     "validate_every", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        dec.BeamConfig(k=1, alpha=self.alpha)  # alpha is a beam setting: BeamConfig checks it
        for name in ("max_epochs", "warmup_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError("weight_decay must be finite and >= 0")


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
    stop_reason: str = ""  # why train() stopped: "patience", "max_epochs" or "no_val" (no val set)

    def as_tsv(self) -> str:
        """One row per epoch: its loss, its validation TED (empty when not validated),
        "*" on the best epoch, and on the last row the stop reason."""
        val_teds = dict(self.validations)
        rows = ["epoch\tloss\tval_ted\tbest\tstop_reason"]
        for epoch, loss in self.epoch_losses:
            rows.append("\t".join([
                str(epoch), repr(float(loss)),
                repr(float(val_teds[epoch])) if epoch in val_teds else "",
                "*" if epoch == self.best_epoch else "",
                self.stop_reason if epoch == self.epoch_losses[-1][0] else "",
            ]))
        return "\n".join(rows) + "\n"


def _glorot(rng, n_in, n_out):
    s = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-s, s, size=(n_in, n_out))


def _stacked_gates(params, prefix):
    """The (W, U_zr, U_h, b) that ad.gru_sequence takes, from the nine per-gate parameters.

    Stacked with ad.concat once per forward pass, so gradients land on the
    named parameters and the checkpoint layout stays per gate.
    """
    def cat(names, axis=1):
        return ad.concat([params[f"{prefix}.{n}"] for n in names], axis=axis)

    return (cat(("W_z", "W_r", "W_h")), cat(("U_z", "U_r")), params[f"{prefix}.U_h"],
            cat(("b_z", "b_r", "b_h"), axis=0))


def segment_language_indices(ids, vocab: Vocabulary) -> np.ndarray:
    """Per-position language index (0 = structural) of concatenated inputs.

    ids holds positions along axis 0: one input, or a time-major padded
    (T, B) batch.  A position takes the index of the last language tag at
    or before it, unless a SEP came after that tag; SEP and DELIM positions
    are 0.  Pads after a closing SEP are 0.
    """
    ids = np.asarray(ids, dtype=np.int64)
    sep, tags = ids == vocab.sep_id, (vocab.tag_languages() + 1)[ids]
    steps = np.arange(len(ids)).reshape((-1,) + (1,) * (ids.ndim - 1))
    last = np.maximum.accumulate(np.where(sep | (tags > 0), steps, 0), axis=0)  # SEP or tag
    current = np.take_along_axis(tags, last, axis=0)
    current[sep | (ids == vocab.delim_id)] = 0
    return current


class _Conditioning(NamedTuple):
    """Per-row target-language inputs of a decoder step."""

    one_hot: Tensor | None  # rows appended to the classifier input
    lang_rows: Tensor | None  # lang_emb rows appended to the decoder input
    blocks: list  # classifier output blocks (rows or None, w2, masked b2), see _decode_step


class _GruStepper:
    """decode.py stepper running a model's _decode_step on untracked parameters.

    dec_gates are the decoder's _stacked_gates of params.  h0 holds one
    encoded row per input and lang each row's target language index (all 0
    for the recon model); init_state(len(h0)) takes them whole.  The state
    is (hidden matrix, languages of the rows, their _Conditioning), so the
    conditioning follows select(), the only place where the rows change.  A
    step is a one-step (1, B) batch of _decode_step, so the conditioning is
    of lang[None].
    """

    def __init__(self, model, params, dec_gates, h0, lang):
        self._model, self._p, self._dec, self._h0, self._lang = model, params, dec_gates, h0, lang
        vocab = model.vocab
        self.vocab_size, self.bos_id, self.eos_id = vocab.size, vocab.bos_id, vocab.eos_id
        self.banned_ids = model.banned_output_ids()

    def init_state(self, batch):
        if batch != len(self._h0):
            raise ProtoreconError(f"stepper of {len(self._h0)} rows asked for {batch}")
        return self._h0, self._lang, self._model._conditioning(self._p, self._lang[None])

    def step(self, state, tokens):
        h, lang, cond = state
        states, logits = self._model._decode_step(self._p, self._dec, Tensor(h), [tokens], cond)
        return ad.log_softmax_rows(logits.data), (states.data[0], lang, cond)

    def select(self, state, idx):
        lang = state[1][idx]
        return state[0][idx], lang, self._model._conditioning(self._p, lang[None])


def _concat(parts):
    return ad.concat(parts, axis=-1) if len(parts) > 1 else parts[0]


def _pad_batch(seqs, pad_id):
    """Right-padded, time-major (T, B) int64 ids and float64 mask (1 on real tokens) of id
    lists, filled by one scatter of their concatenation."""
    lengths = np.array([len(s) for s in seqs])
    real = np.arange(lengths.max())[:, None] < lengths
    ids = np.full(real.shape, pad_id, dtype=np.int64)
    ids.T[real.T] = np.fromiter(itertools.chain.from_iterable(seqs), np.int64, lengths.sum())
    return ids, real.astype(np.float64)


class _ModelBase:
    """Parameter bookkeeping, decoder and checkpointing of both models.

    Each model writes its forward once, with autodiff ops on a parameter
    dict p: training passes self.params and builds a tape; inference
    (encode_np, batch_decoder) passes _untracked_params() with dropout rate
    0, on which the same ops record nothing.  A model supplies _init_encoder,
    _encode, _target_languages and _conditioning; the rest is written here once.
    Making a model sets the process's heap policy (_keep_freed_memory).
    """

    kind = ""
    # decode batches per greedy_decode_rows encoder pass: 1 where an input is a whole cognate set
    encode_pass_chunks = 1

    def __init__(self, config, vocab: Vocabulary):
        _keep_freed_memory()
        self.config = config
        self.vocab = vocab
        self.params: dict[str, Tensor] = {}
        self.history = TrainingHistory()
        self.max_decode_len = 40
        row = np.zeros(vocab.size)
        row[list(self.banned_output_ids())] = NEG
        self._output_mask = Tensor(row)  # added to every output bias b2
        rng = np.random.default_rng(config.seed)
        E, H, F, V = config.embedding_size, config.hidden_size, config.feedforward_size, vocab.size
        self._draw("tok_emb", rng.uniform(-0.1, 0.1, (V, E)))
        dec_in, clf_in, block_suffixes = self._init_encoder(rng)
        self._draw_gru(rng, dec_in, "dec")
        self._draw("clf.W1", _glorot(rng, clf_in, F))
        self._draw("clf.b1", np.zeros(F))
        for suffix in block_suffixes:
            self._draw(f"clf.W2{suffix}", _glorot(rng, F, V))
            self._draw(f"clf.b2{suffix}", np.zeros(V))

    # -- parameter bookkeeping ------------------------------------------------

    def _draw(self, name, data):
        self.params[name] = ad.parameter(data, name)

    def _draw_gru(self, rng, n_in, prefix):
        H = self.config.hidden_size
        for gate in ("z", "r", "h"):
            self._draw(f"{prefix}.W_{gate}", _glorot(rng, n_in, H))
            self._draw(f"{prefix}.U_{gate}", _glorot(rng, H, H))
            self._draw(f"{prefix}.b_{gate}", np.zeros(H))

    def parameters(self):
        return list(self.params.values())

    def load_param_arrays(self, arrays):
        """Each parameter's values from arrays, which must hold exactly the parameters' names."""
        unknown = sorted(set(arrays) - set(self.params))
        if unknown:  # e.g. a later encoder layer's, which the model would silently ignore
            raise CheckpointError(f"arrays {unknown} are not parameters of the model")
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
        """Every structural id but EOS's, and every language tag's."""
        return tuple(i for i in range(self.vocab.n_reserved) if i != self.vocab.eos_id)

    # -- decoder --------------------------------------------------------------

    def _decode_step(self, p, dec_gates, h, prev_ids, cond: _Conditioning, mask=None, rate=0.0,
                     keep=(None, None)):
        """The decoder from states h after tokens prev_ids (T, B): (states (T, B, H), logits).

        Training passes a whole teacher-forced batch, and decoding one step
        (T = 1).  The logits rows are the T * B (step, row) pairs, step-major.
        keep holds the dropout keep masks of the inputs and of the states.
        The MLP classifier's hidden layer is shared by all rows; cond.blocks
        lists its (rows, w2, b2) output blocks: rows is None for one block
        over every row, else the index array of its rows, and the logits come
        out in row order.  Each b2 already carries the banned-output mask row
        (NEG at banned ids), added once per forward.
        """
        x = ad.embeddings([(p["tok_emb"], prev_ids)], rate, keep=keep[0])
        if cond.lang_rows is not None:
            x = ad.concat([x, cond.lang_rows], axis=-1)
        states = ad.gru_sequence(x, h, dec_gates, mask)
        h_in = ad.dropout(states, rate, keep=keep[1])
        clf_in = ad.concat([h_in, cond.one_hot], axis=-1) if cond.one_hot is not None else h_in
        clf_in = ad.reshape(clf_in, (-1, clf_in.data.shape[2]))
        hidden = ad.tanh(ad.grouped_affine(clf_in, [(None, p["clf.W1"], p["clf.b1"])]))
        return states, ad.grouped_affine(hidden, cond.blocks)

    def _loss(self, inputs, targets, dropout_rng):
        """Teacher-forced mean token loss of decoding targets from input id lists.

        targets are id lists without EOS; EOS is appended here.  Every row's
        loss divides by the total target token count.  With a dropout_rng, the
        encoder draws its dropout masks, then the decoder step by step, the
        input's before the state's.  The decoder runs once over the whole
        (T, B) batch, and the loss adds the steps (runs of B rows) in order,
        as a step-by-step decoder does.
        """
        p, cfg = self.params, self.config
        lang = self._target_languages(inputs)
        rate = cfg.dropout if dropout_rng is not None else 0.0
        h = self._encode(p, inputs, rate, dropout_rng)
        tgt_ids, tgt_mask = _pad_batch([list(t) + [self.vocab.eos_id] for t in targets],
                                       self.vocab.pad_id)
        T, B = tgt_ids.shape
        prev_ids = np.vstack([np.full(B, self.vocab.bos_id), tgt_ids[:-1]])
        cond = self._conditioning(p, np.broadcast_to(lang, (T, B)))
        keep = (None, None)
        if rate:
            keep = (np.empty((T, B, cfg.embedding_size), dtype=bool),
                    np.empty((T, B, cfg.hidden_size), dtype=bool))
            for t in range(T):
                for k in keep:
                    k[t] = dropout_rng.random(k.shape[1:]) >= rate
        _, logits = self._decode_step(p, _stacked_gates(p, "dec"), h, prev_ids, cond, tgt_mask,
                                      rate, keep)
        return ad.softmax_cross_entropy(logits, tgt_ids.reshape(-1), tgt_mask.reshape(-1),
                                        normalizer=tgt_mask.sum(), steps=T)

    def batch_decoder(self, inputs) -> _GruStepper:
        """Stepper whose init_state(len(inputs)) row i decodes the input id list inputs[i]
        (a reflex input into the language of its leading tag); see _GruStepper."""
        for stepper, _ in self._steppers(inputs, max(1, len(inputs)), 1):
            return stepper
        raise ProtoreconError("a batch decoder needs at least one input")

    def _steppers(self, inputs, batch, per_pass):
        """(stepper, rows) of each batch consecutive inputs, after one encode_np pass over per_pass
        such batches.  The untracked parameters, the decoder's gates and the inputs' target
        languages are made once, first: an input without a target language is refused unencoded."""
        p, lang = self._untracked_params(), self._target_languages(inputs)
        dec_gates, size = _stacked_gates(p, "dec"), batch * per_pass
        for start in range(0, len(inputs), size):
            h = self.encode_np(inputs[start : start + size], p)
            for i in range(start, start + len(h), batch):
                h0 = h[i - start : i - start + batch]
                yield _GruStepper(self, p, dec_gates, h0, lang[i : i + batch]), len(h0)

    def greedy_decode_rows(self, rows) -> list[list[int]]:
        """Greedy decodes of input id lists to max_decode_len, in batches of DECODE_CHUNK rows
        that each decode their slice of one encode_np pass over encode_pass_chunks batches."""
        steppers = self._steppers(rows, DECODE_CHUNK, self.encode_pass_chunks)
        return [tokens for stepper, n in steppers
                for tokens in dec.greedy_decode_batch(stepper, n, self.max_decode_len)]

    # -- checkpointing --------------------------------------------------------

    def save(self, path):
        header = {
            "kind": self.kind,
            "config": asdict(self.config),
            "vocab_tokens": list(self.vocab.id_to_token),
            "languages": list(self.vocab.languages),
            "max_decode_len": self.max_decode_len,
        }
        arrays = {k: v.data for k, v in self.params.items()}
        ckpt.write_checkpoint(path, arrays, header, self.vocab.content_hash(), self.config.seed)


def load_checkpoint(path):
    """Rebuild a trained model from a checkpoint container."""
    arrays, header, vocab_hash, _seed = ckpt.read_checkpoint(path)
    try:
        kind, config, tokens = header["kind"], header["config"], tuple(header["vocab_tokens"])
        languages, max_decode_len = tuple(header["languages"]), header["max_decode_len"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint header lacks {exc}") from None
    except TypeError as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    # every decode's cap: refused, not coerced (int() floors 2.7, and bool is an int)
    if type(max_decode_len) is not int or max_decode_len < 1:
        raise CheckpointError(f"checkpoint max_decode_len must be an int >= 1, "
                              f"not {max_decode_len!r}")
    cls = MODELS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise CheckpointError(f"unknown model kind {kind!r}")
    try:
        config = config_from_dict(cls.config_class, config)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from None
    header_vocab = Vocabulary(tokens, languages)
    if header_vocab.content_hash() != vocab_hash:
        raise CheckpointError("checkpoint vocabulary does not match its stored hash")
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise CheckpointError(f"array {name!r} holds a non-finite value")
    model = cls(config, header_vocab)
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
    config_class = ReconModelConfig

    def _init_encoder(self, rng):
        """Draws lang_emb and the encoder GRU.  Returns the decoder's and the classifier's
        input widths, and the key suffixes of the output blocks: one, unsuffixed."""
        E, H = self.config.embedding_size, self.config.hidden_size
        self._draw("lang_emb", rng.uniform(-0.1, 0.1, (len(self.vocab.languages) + 1, E)))
        self._draw_gru(rng, 2 * E, "enc")
        return E, H, ("",)

    def _check_framing(self, input_ids):
        sep = self.vocab.sep_id
        if len(input_ids) < 3 or input_ids[0] != sep or input_ids[-1] != sep:
            raise ProtoreconError("reconstruction input must be SEP-framed")

    def _encode(self, p, inputs, rate=0.0, dropout_rng=None):
        """Final encoder states (len(inputs), H) of SEP-framed id sequences.

        The batch is one (T, B) gather of both tables, dropped out in place,
        and one ad.gru_sequence.
        """
        for seq in inputs:
            self._check_framing(seq)
        ids, mask = _pad_batch(inputs, self.vocab.pad_id)
        lang_ids = segment_language_indices(ids, self.vocab)
        h0 = Tensor(np.zeros((len(inputs), self.config.hidden_size)))
        return ad.gru_sequence(
            ad.embeddings([(p["tok_emb"], ids), (p["lang_emb"], lang_ids)], rate, dropout_rng),
            h0, _stacked_gates(p, "enc"), mask, final=True)

    def _target_languages(self, inputs) -> np.ndarray:
        """0 for every input: the recon model has no target language."""
        return np.zeros(len(inputs), dtype=np.int64)

    def _conditioning(self, p, lang) -> _Conditioning:
        """The one output block over every row; lang is not read."""
        blocks = [(None, p["clf.W2"], ad.add(p["clf.b2"], self._output_mask))]
        return _Conditioning(None, None, blocks)

    # -- training forward -----------------------------------------------------

    def batch_loss(self, inputs, targets, dropout_rng=None):
        """Teacher-forced mean token loss over a batch of (input, protoform).

        targets are protoform id lists without EOS; EOS is appended here.
        Returns (loss Tensor, None).
        """
        return self._loss(inputs, targets, dropout_rng), None

    # -- inference ------------------------------------------------------------

    def encode_np(self, inputs, p=None):
        """Final encoder states (len(inputs), H) of SEP-framed id sequences, as an array, on
        the untracked parameters p (made here if not given)."""
        return self._encode(self._untracked_params() if p is None else p, inputs).data

    def decoder(self, input_ids) -> _GruStepper:
        return self.batch_decoder([input_ids])

    def beam_config(self, k) -> dec.BeamConfig:
        """The checked beam settings of beam size k for this model: the config's alpha,
        and max_decode_len as the longest candidate."""
        return dec.BeamConfig(k=k, alpha=self.config.alpha, max_len=self.max_decode_len)

    def beam_search_sets(self, csets, k):
        """Beam candidates of a sequence of cognate sets, one batch of sets at a time.

        The search runs under beam_config(k), which the first next resolves and
        checks before any batch, with no sets too; then it assembles (or
        refuses) every set's input.  A batch holds max(1, DECODE_CHUNK // k)
        sets, so that its frontier has at most DECODE_CHUNK rows, and runs one
        beam_search_batch.  One encode_np pass encodes as many whole batches as
        hold at most DECODE_CHUNK // 2 sets (at least one), as a pass embeds
        each set's whole input at once.  Yields (the batch's sets, their
        candidate lists).
        """
        config = self.beam_config(k)
        size = max(1, DECODE_CHUNK // k)
        inputs = [assemble_reconstruction_input(cs, self.vocab) for cs in csets]
        steppers = self._steppers(inputs, size, max(1, DECODE_CHUNK // 2 // size))
        for start, (stepper, n) in zip(range(0, len(csets), size), steppers):
            yield csets[start : start + size], dec.beam_search_batch(stepper, n, config)


class ReflexModel(_ModelBase):
    """GRU reflex predictor with configurable target-conditioning mechanisms.

    Encoder: stacked, optionally bidirectional GRU over the tagged protoform.
    Decoder: unidirectional GRU seeded from a learned bridge over the final
    encoder states.  Conditioning flags: a one-hot language vector on the
    classifier input, a per-language classifier output block, and a language
    embedding concatenated to each decoder input.
    """

    kind = "reflex"
    config_class = ReflexModelConfig
    encode_pass_chunks = 4  # short inputs: a larger pass shares more layer-0 states

    def _init_encoder(self, rng):
        """Draws the encoder GRUs, the bridge, and lang_emb if the decoder reads it; returns
        what ReconModel's does, with a block per language index if target-gated."""
        cfg, L = self.config, len(self.vocab.languages)
        E, H = cfg.embedding_size, cfg.hidden_size
        out_dim = H * (2 if cfg.bidirectional_encoder else 1)
        for layer in range(cfg.num_encoder_layers):
            for d in ("f", "b") if cfg.bidirectional_encoder else ("f",):
                self._draw_gru(rng, out_dim if layer else E, f"enc{layer}{d}")
        self._draw("bridge.W", _glorot(rng, out_dim, H))
        self._draw("bridge.b", np.zeros(H))
        if cfg.decode_with_language_embedding:
            self._draw("lang_emb", rng.uniform(-0.1, 0.1, (L + 1, E)))
        return (E * (2 if cfg.decode_with_language_embedding else 1),
                H + (L if cfg.one_hot_target_encoding else 0),
                [f".{i}" for i in range(L)] if cfg.target_gated_classifier else [""])

    def _target_languages(self, inputs) -> np.ndarray:
        """Each tagged protoform's language index, read from its leading tag."""
        tags = self.vocab.tag_languages()
        lang = [tags[seq[0]] if len(seq) and 0 <= seq[0] < len(tags) else -1 for seq in inputs]
        if -1 in lang:
            raise ProtoreconError(f"reflex input {list(inputs[lang.index(-1)])} does not start "
                                  "with a language tag")
        return np.array(lang, dtype=np.int64)

    def _encode(self, p, inputs, rate=0.0, dropout_rng=None):
        """Bridged final encoder states (len(inputs), H) of tagged protoforms.

        Inputs are right-padded.  A padded step keeps the row's state, so the
        backward direction, which meets a row's pads first, stays at zero
        until its last real token.  Each layer and direction is one
        ad.gru_sequence over the whole batch.  Layer 0 reads the ids that it
        embeds, so off the tape it steps each distinct state once: forward,
        each distinct (tag, prefix); backward, each distinct suffix of the
        same length, then each row's tag.
        """
        cfg = self.config
        ids, mask = _pad_batch(inputs, self.vocab.pad_id)
        h0 = Tensor(np.zeros((len(inputs), cfg.hidden_size)))
        dirs = ("f", "b") if cfg.bidirectional_encoder else ("f",)
        seq = ad.embeddings([(p["tok_emb"], ids)], rate, dropout_rng)
        for layer in range(cfg.num_encoder_layers):
            if layer:
                seq = ad.dropout(_concat(runs), rate, dropout_rng)
            runs = [ad.gru_sequence(seq, h0, _stacked_gates(p, f"enc{layer}{d}"), mask, d == "b",
                                    None if layer else ids,
                                    final=layer == cfg.num_encoder_layers - 1) for d in dirs]
        return ad.tanh(ad.grouped_affine(_concat(runs), [(None, p["bridge.W"], p["bridge.b"])]))

    def _conditioning(self, p, lang) -> _Conditioning:
        """Decoder-step conditioning of rows whose language indices are lang (any shape).

        The target-gated classifier gets one output block per language
        present, over the flat indices of that language's rows.
        """
        cfg = self.config
        one_hot = (Tensor(np.eye(len(self.vocab.languages))[lang])
                   if cfg.one_hot_target_encoding else None)
        lang_rows = (ad.embedding(p["lang_emb"], lang + 1)
                     if cfg.decode_with_language_embedding else None)
        if cfg.target_gated_classifier:
            blocks = [(np.flatnonzero(lang == l), p[f"clf.W2.{l}"],
                       ad.add(p[f"clf.b2.{l}"], self._output_mask)) for l in np.unique(lang)]
        else:
            blocks = [(None, p["clf.W2"], ad.add(p["clf.b2"], self._output_mask))]
        return _Conditioning(one_hot, lang_rows, blocks)

    # -- training forward -----------------------------------------------------

    def group_loss(self, inputs, targets, dropout_rng=None):
        """Mean token loss of rows of any input length and target language.

        inputs: tagged protoform id lists, whose tags name the target
        languages; targets: reflex id lists (EOS appended here).  Rows are
        right-padded and masked into one graph; every row's loss divides by
        the total target token count.
        """
        return self._loss(inputs, targets, dropout_rng)

    def batch_loss(self, examples, dropout_rng=None):
        """Mean token loss over (tagged input ids, target ids) examples, in one graph.

        Only the first two elements of an example are read, so (input,
        target, language) triples are accepted too.
        """
        return self.group_loss([ex[0] for ex in examples], [ex[1] for ex in examples],
                               dropout_rng=dropout_rng)

    # -- inference ------------------------------------------------------------

    def encode_np(self, inputs, p=None):
        """Bridged encoder states (len(inputs), H) of tagged protoforms, as an array, on the
        untracked parameters p (made here if not given)."""
        return self._encode(self._untracked_params() if p is None else p, inputs).data

    def decoder(self, tagged_input_ids, language: str) -> _GruStepper:
        """batch_decoder of one input; language must be the one its tag names."""
        [index] = self._target_languages([tagged_input_ids])
        if self.vocab.languages[index] != language:
            raise ProtoreconError(f"decoder asked for {language!r}, but the input is tagged "
                                  f"for {self.vocab.languages[index]!r}")
        return self.batch_decoder([tagged_input_ids])


# -- training loop ------------------------------------------------------------


def _set_examples(kind, cs, vocab: Vocabulary):
    """The training examples of cognate set cs, in the order batches take them.

    An example is an (input ids, target ids) pair, and a set without a
    protoform has none.  The recon model takes one (input, protoform); the
    reflex model one (tagged protoform, reflex) per present reflex, in the
    vocabulary's language order.
    """
    if cs.protoform is None:
        return []
    if kind == "recon":
        return [(assemble_reconstruction_input(cs, vocab), vocab.encode(cs.protoform))]
    return [(assemble_reflex_input(cs.protoform, lang, vocab), vocab.encode(cs.reflexes[lang]))
            for lang in vocab.languages if lang in cs.reflexes]


def _examples(kind, dataset: Dataset, vocab: Vocabulary):
    """The training examples of every set of dataset, in set order."""
    return [ex for cs in dataset.sets for ex in _set_examples(kind, cs, vocab)]


@functools.cache
def _keep_freed_memory():
    """Keep memory that the models free in the process's heap, once per process (glibc only).

    Called when a model is made, so that training and inference alike keep
    it.  By default glibc serves blocks above a dynamic threshold with mmap
    and returns freed heap tops to the kernel, so every batch's (and every
    encoder pass's) multi-MB temporaries are faulted in afresh.  The mmap
    threshold (64 MiB) sits above the largest per-batch array at the WikiHan
    presets, the (T~45, B=128, 1018) float64 encoder input of about 47 MB;
    the trim threshold (128 MiB) above two of them, the most that are live
    at once: the dropped-out input that the tape keeps and, in the forward,
    the uniform draw of its keep mask or, in the backward, its gradient.
    Setting either one turns off the dynamic threshold, so both are set or
    neither.  Where the C library has no mallopt, or it refuses a value,
    nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc malloc.h
    if mallopt(M_MMAP_THRESHOLD, 64 << 20):
        mallopt(M_TRIM_THRESHOLD, 128 << 20)


def _greedy_val_ted(model, examples):
    """Mean token edit distance of greedy decodes of examples (at least one) against gold."""
    preds = model.greedy_decode_rows([ex[0] for ex in examples])
    total = sum(token_edit_distance(pred, ex[1]) for pred, ex in zip(preds, examples))
    return total / len(examples)


def train(model, dataset: Dataset, log=None):
    """Mini-batch Adam training with periodic greedy validation and early stop.

    The dataset must be split-tagged.  Batches count cognate sets; for the
    reflex model each set contributes one example per present reflex.  The
    examples are encoded once; each batch concatenates those of its sets.
    Returns the model (trained in place, best-validation parameters kept).
    An empty val split turns validation off: no early stop, the last epoch's
    parameters kept, no val TED recorded, and "no_val" as the stop reason.
    """
    if dataset.split_tags is None:
        raise ConfigError("dataset must be split-tagged before training")
    model.vocab.check_languages(dataset.languages)
    cfg = model.config
    train_split = dataset.subset("train")
    if not train_split.sets:
        raise TrainingError("empty train split")
    set_examples = [_set_examples(model.kind, cs, model.vocab) for cs in train_split.sets]
    if not any(set_examples):
        raise TrainingError("no set of the train split has a protoform to train on")
    val_examples = _examples(model.kind, dataset.subset("val"), model.vocab)

    longest_target = max(len(ex[1]) for exs in set_examples for ex in exs)
    model.max_decode_len = 2 * longest_target + 5
    model.history.stop_reason = "max_epochs" if val_examples else "no_val"

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
        order = rng.permutation(len(set_examples))
        scale = ad.warmup_scale(epoch, cfg.warmup_epochs)
        epoch_loss, n_batches = 0.0, 0
        for b_start in range(0, len(order), cfg.batch_size):
            batch = [ex for i in order[b_start : b_start + cfg.batch_size]
                     for ex in set_examples[i]]
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
                    model.history.stop_reason = "patience"
                    break
    if best_params is not None:
        model.load_param_arrays(best_params)
    return model


MODELS = {cls.kind: cls for cls in (ReconModel, ReflexModel)}  # kind -> model class


def new_model(kind: str, config, vocab: Vocabulary):
    """A fresh model of kind, a key of MODELS."""
    return MODELS[kind](config, vocab)
