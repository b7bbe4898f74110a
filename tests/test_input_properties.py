"""Every reader of outside input either parses it or raises a ProtoreconError.

Hypothesis draws dataset, split-file, feature-table and preset texts, and
mutated bytes of a tiny model's checkpoint.  Each reader returns a value or
raises a ProtoreconError, never another exception, and the CLI commands
that read them exit 2 or 3 on what the reader refuses.
"""

import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protorecon import models
from protorecon.cli import load_preset, main
from protorecon.corpus import (
    build_vocabulary,
    parse_dataset,
    parse_split_file,
    serialize_split_tags,
    split_dataset,
)
from protorecon.errors import ProtoreconError
from protorecon.metrics import FeatureTable
from tests.conftest import TINY_TSV, tiny_recon_config

# Pieces of text that each reader's format gives a meaning to, plus a few it does not.
PIECES = ["\t", "\n", "\r\n", "\r", " ", "  ", "id", "protoform", "token", "tone", "p", "a",
          "LangA", "LangB", "*", ":", "<unk>", "<LangA>", "train", "val", "test", "w1", "0",
          "1", "-1", "+1", "2", "yes", "é", "\x00"]


def texts(extra=()):
    return st.lists(st.sampled_from(PIECES + list(extra)), max_size=40).map("".join)


def _parses_or_refuses(read, *args):
    """read(*args), or None when it raises a ProtoreconError."""
    try:
        return read(*args)
    except ProtoreconError:
        return None


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding a valid dataset and split file."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "data.tsv").write_text(TINY_TSV, encoding="utf-8")
    dataset = split_dataset(parse_dataset(TINY_TSV), (0.5, 0.17, 0.33), seed=0)
    (root / "split.tsv").write_text(serialize_split_tags(dataset.split_tags), encoding="utf-8")
    return root


@settings(max_examples=200)
@given(text=texts(), tokenize=st.sampled_from(["whitespace", "codepoint"]))
def test_dataset_parses_or_refuses(text, tokenize):
    dataset = _parses_or_refuses(parse_dataset, text, tokenize)
    if dataset is not None:
        _parses_or_refuses(build_vocabulary, dataset)


@settings(max_examples=200)
@given(text=texts())
def test_split_file_parses_or_refuses(text):
    _parses_or_refuses(parse_split_file, text)


@settings(max_examples=200)
@given(text=texts(["token\ttone\tvoiced\n"]))
def test_feature_table_parses_or_refuses(text):
    _parses_or_refuses(FeatureTable.from_tsv, text)


def _preset_values():
    names = sorted(f.name for f in fields(models.ReflexModelConfig))
    values = st.one_of(st.integers(-2, 3), st.booleans(), st.sampled_from(["8", None, []]),
                       st.sampled_from([-1.0, 0.0, 0.5, 1e-3, 2.0, float("nan"), float("inf")]))
    return st.dictionaries(st.sampled_from(names), values, max_size=6)


@settings(max_examples=60)
@example(preset='{"seed": -1}', command="train-recon")  # numpy refuses a negative seed
@example(preset='{"validate_every": 0}', command="train-reflex")  # validating every 0 epochs
@given(preset=st.one_of(_preset_values().map(json.dumps), texts(["{", "}", '"seed": ', ","])),
       command=st.sampled_from(["train-recon", "train-reflex"]))
def test_preset_loads_or_refuses_and_training_never_crashes(files, preset, command):
    """Tiny values only (ints up to 3), so that any preset that loads trains in moments."""
    path = files / "preset.json"
    path.write_text(preset, encoding="utf-8")
    loaded = _parses_or_refuses(load_preset, str(path))
    code = main([command, "--dataset", str(files / "data.tsv"), "--split",
                 str(files / "split.tsv"), "--preset", str(path), "--out",
                 str(files / "trained.ckpt")])
    assert code in ((0, 1, 2, 3) if loaded is not None else (2,))


def _tiny_checkpoint():
    model = models.ReconModel(tiny_recon_config(), build_vocabulary(parse_dataset(TINY_TSV)))
    with tempfile.TemporaryDirectory() as root:
        model.save(Path(root) / "tiny.ckpt")
        return (Path(root) / "tiny.ckpt").read_bytes()


CHECKPOINT = _tiny_checkpoint()
HEADER_END = 16 + int.from_bytes(CHECKPOINT[12:16], "little")
RENAMED_UNK = [(CHECKPOINT.index(b'"<unk>"') + 2, ord("x"))]  # <unk> -> <xnk>


@settings(max_examples=120)
@example(mutations=RENAMED_UNK, cut=0)
@given(mutations=st.lists(st.tuples(st.one_of(st.integers(0, HEADER_END - 1),
                                              st.integers(0, len(CHECKPOINT) - 1)),
                                    st.integers(0, 255)), min_size=1, max_size=4),
       cut=st.one_of(st.just(0), st.integers(0, len(CHECKPOINT))))
def test_mutated_checkpoint_loads_or_refuses_and_decode_exits_2_or_3(files, mutations, cut):
    blob = bytearray(CHECKPOINT)
    for at, value in mutations:
        blob[at] = value
    path = files / "mutated.ckpt"
    path.write_bytes(bytes(blob[: len(blob) - cut]))
    loaded = _parses_or_refuses(models.load_checkpoint, path)
    code = main(["decode", "--dataset", str(files / "data.tsv"), "--checkpoint", str(path),
                 "--beam-size", "2", "--out", str(files / "cands.tsv")])
    assert code in ((0, 2, 3) if loaded is not None else (2, 3))
