"""Dataset parsing, vocabulary construction, input assembly, splits, and file plumbing."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protorecon
from protorecon import models
from protorecon.corpus import (
    BOS,
    DELIM,
    EOS,
    PAD,
    SEP,
    STRUCTURAL_TOKENS,
    UNK,
    CognateSet,
    Dataset,
    Vocabulary,
    apply_split_tags,
    assemble_reconstruction_input,
    assemble_reflex_input,
    build_vocabulary,
    parse_dataset,
    parse_split_file,
    read_dataset,
    read_text,
    serialize_dataset,
    serialize_split_tags,
    split_dataset,
    split_lines,
    write_text,
)
from protorecon.errors import ConfigError, SchemaError, VocabularyError
from protorecon.synthetic import generate_family
from tests.conftest import tiny_recon_config


def test_parse_basic(tiny_dataset):
    assert tiny_dataset.languages == ("LangA", "LangB")
    assert len(tiny_dataset.sets) == 6
    w1 = tiny_dataset.sets[0]
    assert w1.id == "w1"
    assert w1.protoform == ("p", "a")
    assert w1.reflexes == {"LangA": ("p", "o"), "LangB": ("b", "a")}


def test_parse_without_id_column():
    ds = parse_dataset("proto\tLangA\tLangB\np a\tp o\tb a\nt i\tt i\td i\n")
    assert [cs.id for cs in ds.sets] == ["w1", "w2"]
    assert ds.sets[0].protoform == ("p", "a")


def test_parse_crlf_equals_lf():
    from tests.conftest import TINY_TSV

    crlf = parse_dataset(TINY_TSV.replace("\n", "\r\n"))
    assert crlf == parse_dataset(TINY_TSV)
    assert crlf.languages[-1] == "LangB" and crlf.sets[0].reflexes["LangB"] == ("b", "a")


def test_parse_missing_cells(tiny_dataset):
    w6 = tiny_dataset.sets[5]
    assert "LangB" not in w6.reflexes
    assert w6.reflexes["LangA"] == ("k", "o", "p")


def test_parse_missing_protoform():
    ds = parse_dataset("proto\tLangA\n\tp o\n")
    assert ds.sets[0].protoform is None


def test_parse_codepoint_tokenization():
    ds = parse_dataset("proto\tLangA\npa\tpo\n", tokenize="codepoint")
    assert ds.sets[0].protoform == ("p", "a")


def test_parse_rejects_ragged_rows():
    with pytest.raises(SchemaError):
        parse_dataset("proto\tLangA\tLangB\np a\tp o\n")


def test_parse_rejects_duplicate_languages():
    with pytest.raises(SchemaError):
        parse_dataset("proto\tLangA\tLangA\np a\tp o\tp o\n")


def test_cognate_set_rejects_structural_characters():
    with pytest.raises(SchemaError):
        CognateSet("x", ("p", "*"), {"L": ("p",)})
    with pytest.raises(SchemaError):
        CognateSet("x", None, {"L": (":",)})


@pytest.mark.parametrize("space", [" ", "\t", "\r", "\x0c", "\x85", "\u2028", "\u3000"])
def test_cognate_set_rejects_a_token_holding_whitespace(space):
    """Writers join tokens with " " and eval splits them at any whitespace, so a token
    holding whitespace would not read back as itself."""
    with pytest.raises(SchemaError, match="whitespace"):
        CognateSet("x", (f"p{space}a",), {"L": ("p",)})
    with pytest.raises(SchemaError, match="whitespace"):
        CognateSet("x", None, {"L": ("p", space)})
    assert CognateSet(f"x{space}", ("p",), {f"L{space}": ("p",)})  # ids and languages are free


def test_dataset_rejects_a_reflex_outside_its_languages():
    with pytest.raises(SchemaError, match="outside the language inventory"):
        Dataset(("L",), (CognateSet("x", ("p",), {"L": ("p",), "M": ("b",)}),))


def test_dataset_rejects_duplicate_ids():
    a = CognateSet("x", ("p",), {"L": ("p",)})
    with pytest.raises(SchemaError):
        Dataset(("L",), (a, a))


def test_roundtrip_serialization(tiny_dataset):
    text = serialize_dataset(tiny_dataset)
    again = parse_dataset(text)
    assert again == tiny_dataset


def test_vocabulary_layout(tiny_vocab):
    # structural block first, then language tags in header order, then sorted phonemes
    assert tiny_vocab.id_to_token[: len(STRUCTURAL_TOKENS)] == STRUCTURAL_TOKENS
    n = len(STRUCTURAL_TOKENS)
    assert tiny_vocab.id_to_token[n : n + 2] == ("<LangA>", "<LangB>")
    phonemes = tiny_vocab.id_to_token[n + 2 :]
    assert list(phonemes) == sorted(phonemes)


def test_vocabulary_bijection(tiny_vocab):
    ids = tiny_vocab.encode(["p", "a", "t"])
    assert tiny_vocab.decode(ids) == ("p", "a", "t")


def test_vocabulary_unknown_token(tiny_vocab):
    with pytest.raises(VocabularyError):
        tiny_vocab.encode(["zz"])


def test_vocabulary_hash_stability(tiny_dataset, tiny_vocab):
    assert tiny_vocab.content_hash() == build_vocabulary(tiny_dataset).content_hash()


def test_assemble_reconstruction_input(tiny_dataset, tiny_vocab):
    ids = assemble_reconstruction_input(tiny_dataset.sets[0], tiny_vocab)
    toks = tiny_vocab.decode(ids)
    assert toks == ("*", "<LangA>", ":", "p", "o", "*", "<LangB>", ":", "b", "a", "*")


def test_assemble_skips_missing_reflexes(tiny_dataset, tiny_vocab):
    ids = assemble_reconstruction_input(tiny_dataset.sets[5], tiny_vocab)
    toks = tiny_vocab.decode(ids)
    assert "<LangB>" not in toks
    assert toks[0] == "*" and toks[-1] == "*"


def test_assemble_no_present_reflexes_raises(tiny_vocab):
    """A set whose only reflex is in a language outside the vocabulary has none to lay out."""
    with pytest.raises(SchemaError, match="no present reflexes"):
        assemble_reconstruction_input(CognateSet("w0", ("p",), {"LangZ": ("p",)}), tiny_vocab)


def test_assemble_reflex_input(tiny_vocab):
    ids = assemble_reflex_input(("p", "a"), "LangB", tiny_vocab)
    assert tiny_vocab.decode(ids) == ("<LangB>", "p", "a")


def test_tag_languages_inverts_language_tag_id(tiny_vocab):
    """Each language's tag maps back to its index; every other id maps to -1."""
    table = tiny_vocab.tag_languages()
    assert table.shape == (tiny_vocab.size,)
    tags = {tiny_vocab.language_tag_id(lang): i for i, lang in enumerate(tiny_vocab.languages)}
    assert table.tolist() == [tags.get(i, -1) for i in range(tiny_vocab.size)]


@settings(max_examples=40, deadline=None)
@given(n_sets=st.integers(1, 12), n_daughters=st.integers(1, 5), seed=st.integers(0, 2**16),
       data=st.data())
def test_built_vocabularies_keep_the_layout_that_lookups_gave(n_sets, n_daughters, seed, data):
    """build_vocabulary passes Vocabulary's layout check and round-trips through it, and
    each id that Vocabulary derives from the layout is the one that a token lookup gives:
    the lookups below are the definitions that the layout replaced."""
    family, _ = generate_family(n_sets=n_sets, n_daughters=n_daughters, seed=seed)
    languages = data.draw(st.permutations(family.languages))
    vocab = build_vocabulary(dataclasses.replace(family, languages=tuple(languages)))
    assert Vocabulary(vocab.id_to_token, vocab.languages) == vocab
    lookup = vocab.token_to_id
    assert (vocab.pad_id, vocab.bos_id, vocab.eos_id, vocab.sep_id, vocab.delim_id,
            vocab.unk_id) == tuple(lookup[tok] for tok in (PAD, BOS, EOS, SEP, DELIM, UNK))
    tag_ids = [lookup[Vocabulary.language_tag(lang)] for lang in languages]
    assert [vocab.language_tag_id(lang) for lang in languages] == tag_ids
    table = np.full(vocab.size, -1)
    table[tag_ids] = range(len(languages))
    assert vocab.tag_languages().tolist() == table.tolist()
    skip = set(STRUCTURAL_TOKENS) | {Vocabulary.language_tag(lang) for lang in languages}
    assert vocab.phonemes() == tuple(tok for tok in vocab.id_to_token if tok not in skip)
    banned = [lookup[tok] for tok in (PAD, BOS, SEP, DELIM, UNK)] + tag_ids
    assert models.ReconModel(tiny_recon_config(), vocab).banned_output_ids() == tuple(banned)


@pytest.mark.parametrize("tokens", [
    (BOS, PAD, EOS, SEP, DELIM, UNK, "<LangA>", "<LangB>", "a"),
    (PAD, BOS, EOS, SEP, DELIM, UNK, "<LangB>", "<LangA>", "a"),
    (PAD, BOS, EOS, SEP, DELIM, UNK, "<LangA>", "a", "<LangB>"),
    ("a", PAD, BOS, EOS, SEP, DELIM, UNK, "<LangA>", "<LangB>"),
], ids=["structural-swapped", "tags-reversed", "phoneme-between-tags", "phoneme-first"])
def test_vocabulary_refuses_tokens_out_of_their_layout(tokens):
    """Every token is present once, but not at the id that the layout gives it."""
    with pytest.raises(VocabularyError, match="languages are not in the order of their tags"):
        Vocabulary(tokens, ("LangA", "LangB"))


def test_language_tag_id_refuses_a_language_outside_languages(tiny_vocab):
    """<LangB> is still one of the tokens, a phoneme now, but LangB is no language."""
    vocab = Vocabulary(tiny_vocab.id_to_token, ("LangA",))
    assert vocab.language_tag_id("LangA") == tiny_vocab.language_tag_id("LangA")
    assert "<LangB>" in vocab.phonemes()
    with pytest.raises(VocabularyError, match="unknown language 'LangB'"):
        vocab.language_tag_id("LangB")


def test_split_sizes(tiny_dataset):
    ds = split_dataset(tiny_dataset, (0.7, 0.1, 0.2), seed=0)
    tags = list(ds.split_tags.values())
    # floor(0.7*6)=4 train, floor(0.1*6)=0 val, remainder test
    assert tags.count("train") == 4
    assert tags.count("val") == 0
    assert tags.count("test") == 2


def test_split_deterministic(tiny_dataset):
    a = split_dataset(tiny_dataset, (0.7, 0.1, 0.2), seed=5)
    b = split_dataset(tiny_dataset, (0.7, 0.1, 0.2), seed=5)
    assert a.split_tags == b.split_tags
    c = split_dataset(tiny_dataset, (0.7, 0.1, 0.2), seed=6)
    assert a.split_tags != c.split_tags or len(tiny_dataset.sets) < 4


def test_split_bad_ratios(tiny_dataset):
    for ratios in ((0.5, 0.1, 0.2), (1.2, -0.1, -0.1), (float("nan"), 0.5, 0.5),
                   (float("inf"), 0.5, 0.5)):
        with pytest.raises(ConfigError):
            split_dataset(tiny_dataset, ratios)


def test_split_refuses_a_negative_seed(tiny_dataset):
    with pytest.raises(ConfigError, match="seed"):
        split_dataset(tiny_dataset, seed=-1)


def test_split_file_roundtrip(tiny_dataset):
    ds = split_dataset(tiny_dataset, (0.7, 0.1, 0.2), seed=1)
    text = serialize_split_tags(ds.split_tags)
    tags = parse_split_file(text)
    assert tags == ds.split_tags
    assert apply_split_tags(tiny_dataset, tags).split_tags == tags


def test_split_file_crlf_equals_lf(tiny_dataset):
    text = serialize_split_tags(split_dataset(tiny_dataset, (0.7, 0.1, 0.2), seed=1).split_tags)
    assert parse_split_file(text.replace("\n", "\r\n")) == parse_split_file(text)


def test_split_file_rejects_bad_tag():
    with pytest.raises(SchemaError):
        parse_split_file("w1\tdev\n")


def test_subset(tiny_split):
    train = tiny_split.subset("train")
    assert {cs.id for cs in train.sets} == {"w1", "w2", "w3", "w4"}
    assert tiny_split.subset("test").sets[0].id == "w6"


def test_write_text_makes_the_parent_and_writes_lf(tmp_path):
    path = tmp_path / "a" / "b.tsv"
    write_text(str(path), "x\ty\nz\n")
    assert path.read_bytes() == b"x\ty\nz\n"
    assert read_text(path) == "x\ty\nz\n"


def test_read_dataset_tags_by_split_file_or_seed(tmp_path, tiny_dataset):
    data, split = tmp_path / "data.tsv", tmp_path / "split.tsv"
    write_text(str(data), serialize_dataset(tiny_dataset))
    assert read_dataset(data, "whitespace") == tiny_dataset
    seeded = split_dataset(tiny_dataset, (0.5, 0.0, 0.5), 3)
    assert read_dataset(data, "whitespace", split_seed=3, ratios=(0.5, 0.0, 0.5)) == seeded
    write_text(str(split), serialize_split_tags(seeded.split_tags))
    assert read_dataset(data, "whitespace", split, split_seed=9) == seeded


def test_a_leading_byte_order_mark_reads_as_absent(tmp_path, tiny_dataset):
    """A dataset or split file saved with a UTF-8 BOM reads equal to the same file without:
    the BOM does not hide the dataset's id column."""
    split = serialize_split_tags(split_dataset(tiny_dataset, seed=1).split_tags)
    for name, text in (("data", serialize_dataset(tiny_dataset)), ("split", split)):
        (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
        (tmp_path / f"{name}-bom.tsv").write_text("\ufeff" + text, encoding="utf-8")
    plain = read_dataset(tmp_path / "data.tsv", "whitespace", tmp_path / "split.tsv")
    assert read_dataset(tmp_path / "data-bom.tsv", "whitespace",
                        tmp_path / "split-bom.tsv") == plain
    assert read_text(tmp_path / "data-bom.tsv") == read_text(tmp_path / "data.tsv")


ALLOWED_WRITERS = {("corpus.py", "write_text"), ("checkpoint.py", "write_checkpoint")}


class _Calls(ast.NodeVisitor):
    """(innermost function, line) of each call that matches(call) holds for."""

    def __init__(self, matches):
        self.matches, self.functions, self.found = matches, [None], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node):
        if self.matches(node):
            self.found.append((self.functions[-1], node.lineno))
        self.generic_visit(node)


def _writes_a_file(call):
    """An open() in a writing mode, or a Path write."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        return not (mode is None or (isinstance(mode, ast.Constant)
                                     and set(mode.value).isdisjoint("wax+")))
    return (isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")
            and not (isinstance(func.value, ast.Name) and func.value.id == "corpus"))


def _splits_lines(call):
    """A splitlines() call, or a call that takes a CRLF string (a replace or split of line
    ends)."""
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "splitlines") or any(
        isinstance(arg, ast.Constant) and arg.value == "\r\n" for arg in call.args)


def _library_calls(matches, allowed):
    """(module, function, line) of each call in the library that matches, outside allowed
    (module, function) pairs."""
    stray = []
    for path in sorted(Path(protorecon.__file__).parent.glob("*.py")):
        visitor = _Calls(matches)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        stray += [(path.name, function, line) for function, line in visitor.found
                  if (path.name, function) not in allowed]
    return stray


def test_the_library_writes_files_only_through_its_two_writers():
    """Text goes through corpus.write_text, checkpoints through checkpoint.write_checkpoint."""
    assert _library_calls(_writes_a_file, ALLOWED_WRITERS) == []


def test_the_library_splits_lines_only_in_its_line_helper():
    """Every reader splits lines with corpus.split_lines, at LF only: str.splitlines would
    also break at \\r, \\x0b, \\x0c, \\x1c-\\x1e, U+0085, U+2028 and U+2029."""
    assert _library_calls(_splits_lines, {("corpus.py", "split_lines")}) == []
    assert split_lines("a\r\nb\x85c\u2028d\re\n") == ["a", "b\x85c\u2028d\re", ""]


LAYOUT_NAMES = {"STRUCTURAL_TOKENS", "token_to_id", "language_tag"}


def test_only_the_corpus_module_knows_the_vocabulary_layout():
    """Every other module takes its ids from Vocabulary's derived ones: none names the
    structural tokens, the token lookup or the spelling of a language tag."""
    stray = []
    for path in sorted(Path(protorecon.__file__).parent.glob("*.py")):
        if path.name == "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name", "asname")}
            stray += [(path.name, node.lineno, name) for name in sorted(names & LAYOUT_NAMES)]
    assert stray == []
