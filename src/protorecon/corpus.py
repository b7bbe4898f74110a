"""Cognate-set datasets: TSV ingestion, vocabularies, model-input assembly, and
the one text-file reader, line splitter and writer of the package.

A dataset is a UTF-8 TSV whose header row names the protoform column first
and one daughter language per remaining column.  An optional leading ``id``
column supplies explicit ids; otherwise rows are numbered ``w1``, ``w2``, ...
Cells hold token strings (space-separated by default); an empty cell means
the reflex is missing in that language.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, SchemaError, VocabularyError

# Structural tokens.  Their ids are fixed so that every vocabulary built
# from any dataset agrees on them.
PAD, BOS, EOS, SEP, DELIM, UNK = "<pad>", "<bos>", "<eos>", "*", ":", "<unk>"
STRUCTURAL_TOKENS = (PAD, BOS, EOS, SEP, DELIM, UNK)

SPLIT_TAGS = ("train", "val", "test")


@dataclass(frozen=True)
class CognateSet:
    """One protoform (optional) plus per-language reflex token sequences.  A token is a
    non-empty string, neither SEP nor DELIM, with no whitespace (str.isspace)."""

    id: str
    protoform: tuple[str, ...] | None
    reflexes: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if not self.reflexes:
            raise SchemaError(f"cognate set {self.id!r} has no reflexes")
        for seq in (*self.reflexes.values(), self.protoform or ()):
            for tok in seq:
                if not tok:
                    raise SchemaError(f"empty token in cognate set {self.id!r}")
                if any(c.isspace() for c in tok):  # writers join tokens with " "
                    raise SchemaError(f"token {tok!r} with whitespace in cognate set {self.id!r}")
                if tok in (SEP, DELIM):
                    raise SchemaError(
                        f"structural character {tok!r} inside cognate set {self.id!r}"
                    )


@dataclass(frozen=True)
class Dataset:
    """An ordered language inventory, cognate sets, and optional split tags."""

    languages: tuple[str, ...]
    sets: tuple[CognateSet, ...]
    split_tags: dict[str, str] | None = None

    def __post_init__(self):
        ids = [cs.id for cs in self.sets]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate cognate-set ids")
        inventory = set(self.languages)
        for cs in self.sets:
            extra = set(cs.reflexes) - inventory
            if extra:
                raise SchemaError(
                    f"cognate set {cs.id!r} has reflexes outside the language "
                    f"inventory: {sorted(extra)}"
                )

    def tokens(self) -> set[str]:
        """Every token of the sets' protoforms and reflexes."""
        return {tok for cs in self.sets for seq in (cs.protoform or (), *cs.reflexes.values())
                for tok in seq}

    def subset(self, tag: str) -> "Dataset":
        if self.split_tags is None:
            raise ConfigError("dataset has no split tags")
        keep = tuple(cs for cs in self.sets if self.split_tags[cs.id] == tag)
        tags = {cs.id: tag for cs in keep}
        return Dataset(self.languages, keep, tags)


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token<->id map over structural, language-tag, and phoneme tokens.

    The id layout is fixed: STRUCTURAL_TOKENS at ids 0-5, then one tag per
    entry of languages, in that order, then the phonemes.  Every structural
    id, tag id and phoneme is derived from it.  token_to_id is derived from
    id_to_token.  A token that is not a string, a duplicated token, a
    structural token or language tag that id_to_token lacks, or one out of
    its place in the layout is a VocabularyError.
    """

    id_to_token: tuple[str, ...]
    languages: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, compare=False)

    pad_id, bos_id, eos_id, sep_id, delim_id, unk_id = range(len(STRUCTURAL_TOKENS))

    def __post_init__(self):
        if not all(isinstance(tok, str) for tok in self.id_to_token):
            raise VocabularyError("vocabulary tokens must be strings")
        token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(token_to_id) != len(self.id_to_token):
            dups = sorted({t for t in self.id_to_token if self.id_to_token.count(t) > 1})
            raise VocabularyError(f"duplicated vocabulary tokens: {dups}")
        reserved = STRUCTURAL_TOKENS + tuple(map(self.language_tag, self.languages))
        if self.id_to_token[: len(reserved)] != reserved:
            missing = [tok for tok in reserved if tok not in token_to_id]
            raise VocabularyError(
                f"vocabulary lacks the tokens {missing}" if missing else
                f"vocabulary does not open with {list(STRUCTURAL_TOKENS)} and then one tag per "
                "language: a structural token is out of place, or the languages are not in "
                "the order of their tags")
        object.__setattr__(self, "token_to_id", token_to_id)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @property
    def n_reserved(self) -> int:
        """The number of structural and language-tag ids; the phonemes' ids follow them."""
        return len(STRUCTURAL_TOKENS) + len(self.languages)

    @staticmethod
    def language_tag(language: str) -> str:
        return f"<{language}>"

    def language_tag_id(self, language: str) -> int:
        if language not in self.languages:
            raise VocabularyError(f"unknown language {language!r}")
        return len(STRUCTURAL_TOKENS) + self.languages.index(language)

    def phonemes(self) -> tuple[str, ...]:
        """The tokens that are neither structural nor language tags."""
        return self.id_to_token[self.n_reserved :]

    def tag_languages(self) -> np.ndarray:
        """Per id, the index in languages of the language it tags; -1 for every other id."""
        out = np.full(self.size, -1, dtype=np.int64)
        out[len(STRUCTURAL_TOKENS) : self.n_reserved] = np.arange(len(self.languages))
        return out

    def check_languages(self, languages):
        """Raise VocabularyError naming the languages that this vocabulary lacks."""
        unknown = sorted(set(languages) - set(self.languages))
        if unknown:
            raise VocabularyError(f"the vocabulary lacks the languages {unknown}")

    def check_tokens(self, tokens):
        """Raise VocabularyError naming the tokens that this vocabulary lacks."""
        unknown = sorted(set(tokens) - self.token_to_id.keys())
        if unknown:
            raise VocabularyError(f"the vocabulary lacks the tokens {unknown}")

    def encode(self, tokens) -> list[int]:
        out = []
        for tok in tokens:
            if tok not in self.token_to_id:
                raise VocabularyError(f"unknown token {tok!r}")
            out.append(self.token_to_id[tok])
        return out

    def decode(self, ids) -> tuple[str, ...]:
        return tuple(self.id_to_token[i] for i in ids)

    def content_hash(self) -> str:
        import hashlib

        payload = "\x00".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def _tokenize(cell: str, mode: str) -> tuple[str, ...]:
    if mode == "whitespace":
        return tuple(cell.split(" "))
    if mode == "codepoint":
        return tuple(cell)
    raise ConfigError(f"unknown tokenization mode {mode!r}")


def parse_dataset(tsv_text: str, tokenize: str = "whitespace") -> Dataset:
    """Parse a cognate-table TSV into a Dataset.

    The header's first column names the protoform column (or is literally
    ``id``, in which case the second column is the protoform column); the
    remaining columns name the daughter languages.  CRLF line ends read as LF.
    """
    lines = split_lines(tsv_text)
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise SchemaError("empty dataset file")
    header = lines[0].split("\t")
    if len(header) < 2:
        raise SchemaError("header must name a protoform column and >= 1 language")
    has_id = header[0] == "id"
    first_data = 2 if has_id else 1
    languages = tuple(header[first_data:])
    if len(set(languages)) != len(languages):
        raise SchemaError("duplicate language columns")

    sets = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise SchemaError(
                f"line {lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        set_id = cells[0] if has_id else f"w{lineno - 1}"
        proto_cell = cells[1] if has_id else cells[0]
        protoform = _tokenize(proto_cell, tokenize) if proto_cell else None
        reflexes = {}
        for lang, cell in zip(languages, cells[first_data:]):
            if cell:
                reflexes[lang] = _tokenize(cell, tokenize)
        sets.append(CognateSet(set_id, protoform, reflexes))
    return Dataset(languages, tuple(sets))


def serialize_dataset(dataset: Dataset) -> str:
    """Inverse of parse_dataset with whitespace tokens (always writes an explicit id column)."""

    def cell(seq):
        return " ".join(seq) if seq is not None else ""

    rows = ["\t".join(["id", "protoform", *dataset.languages])]
    for cs in dataset.sets:
        cells = [cs.id, cell(cs.protoform)]
        cells += [cell(cs.reflexes.get(lang)) for lang in dataset.languages]
        rows.append("\t".join(cells))
    return "\n".join(rows) + "\n"


def build_vocabulary(dataset: Dataset) -> Vocabulary:
    """Deterministic vocabulary: structural ids, language tags, sorted phonemes."""
    tags = tuple(Vocabulary.language_tag(lang) for lang in dataset.languages)
    return Vocabulary(STRUCTURAL_TOKENS + tags + tuple(sorted(dataset.tokens())), dataset.languages)


def assemble_reconstruction_input(cset: CognateSet, vocab: Vocabulary) -> list[int]:
    """Concatenate present reflexes into one id sequence.

    Layout: SEP tag(D1) DELIM d1... SEP tag(D2) DELIM d2... SEP, with
    languages in vocabulary order and missing reflexes skipped entirely.
    """
    out = [vocab.sep_id]
    for lang in vocab.languages:
        if lang not in cset.reflexes:
            continue
        out.append(vocab.language_tag_id(lang))
        out.append(vocab.delim_id)
        out.extend(vocab.encode(cset.reflexes[lang]))
        out.append(vocab.sep_id)
    if len(out) == 1:
        raise SchemaError(f"cognate set {cset.id!r} has no present reflexes")
    return out


def assemble_reflex_input(protoform, target_language: str, vocab: Vocabulary) -> list[int]:
    """Prepend the target daughter's language tag to the protoform ids."""
    return [vocab.language_tag_id(target_language)] + vocab.encode(protoform)


def split_dataset(
    dataset: Dataset,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> Dataset:
    """Deterministically shuffle by seed and partition into train/val/test."""
    if not all(0 <= r < np.inf for r in ratios):  # NaN fails both comparisons
        raise ConfigError(f"split ratios must be finite and >= 0, got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
    if seed < 0:
        raise ConfigError(f"split seed must be >= 0, not {seed}")
    n = len(dataset.sets)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(np.floor(ratios[0] * n))
    n_val = int(np.floor(ratios[1] * n))
    tags = {}
    for pos, idx in enumerate(order):
        if pos < n_train:
            tag = "train"
        elif pos < n_train + n_val:
            tag = "val"
        else:
            tag = "test"
        tags[dataset.sets[idx].id] = tag
    return replace(dataset, split_tags=tags)


def parse_split_file(tsv_text: str) -> dict[str, str]:
    """Two-column TSV (id, split tag) supplied externally; CRLF line ends read as LF."""
    tags = {}
    for lineno, line in enumerate(split_lines(tsv_text), start=1):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise SchemaError(f"split file line {lineno}: expected 2 columns")
        set_id, tag = cells
        if tag not in SPLIT_TAGS:
            raise SchemaError(f"split file line {lineno}: unknown tag {tag!r}")
        if set_id in tags:
            raise SchemaError(f"split file line {lineno}: duplicate id {set_id!r}")
        tags[set_id] = tag
    return tags


def apply_split_tags(dataset: Dataset, tags: dict[str, str]) -> Dataset:
    ids = {cs.id for cs in dataset.sets}
    missing, unknown = sorted(ids - set(tags)), sorted(set(tags) - ids)
    if missing:
        raise SchemaError(f"split file misses ids: {missing[:5]} ...")
    if unknown:
        raise SchemaError(f"split file names ids the dataset lacks: {unknown[:5]}")
    return replace(dataset, split_tags={cs.id: tags[cs.id] for cs in dataset.sets})


def serialize_split_tags(tags: dict[str, str]) -> str:
    return "".join(f"{k}\t{v}\n" for k, v in tags.items())


def split_lines(text: str) -> list[str]:
    """The lines of text, split at LF only: the line splitter of every reader.  CRLF reads as LF."""
    return text.replace("\r\n", "\n").split("\n")


def read_text(path) -> str:
    """The text of the UTF-8 file at path, without a leading byte-order mark."""
    with open(path, encoding="utf-8-sig") as f:
        return f.read()


def write_text(path, text: str):
    """Write text to path as UTF-8 with LF line ends, making its parent directory."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def read_dataset(path, tokenize, split_path=None, split_seed=None, ratios=(0.7, 0.1, 0.2)):
    """The dataset file at path, split-tagged by the split file at split_path or,
    without one, by split_dataset(ratios, split_seed); untagged if neither is given."""
    dataset = parse_dataset(read_text(path), tokenize)
    if split_path:
        return apply_split_tags(dataset, parse_split_file(read_text(split_path)))
    if split_seed is not None:
        return split_dataset(dataset, ratios, split_seed)
    return dataset
