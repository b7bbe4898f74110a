"""The command-line interface: subcommands, plumbing, and exit codes."""

import dataclasses
import json
import math
import struct
from pathlib import Path

import pytest

from protorecon.cli import main
from protorecon.corpus import parse_dataset, serialize_dataset, serialize_split_tags, split_dataset
from protorecon.synthetic import generate_family

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
TINY_PRESET = {
    "embedding_size": 8, "hidden_size": 10, "feedforward_size": 10, "dropout": 0.0,
    "batch_size": 8, "lr": 0.01, "max_epochs": 2, "warmup_epochs": 0, "seed": 0,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A dataset, a split file, a preset, and trained checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    ds, _ = generate_family(n_sets=30, n_daughters=3, seed=8)
    (root / "data.tsv").write_text(serialize_dataset(ds), encoding="utf-8")
    (root / "preset.json").write_text(json.dumps(TINY_PRESET), encoding="utf-8")
    assert main(["split", "--dataset", str(root / "data.tsv"), "--split-seed", "0",
                 "--out", str(root / "split.tsv")]) == 0
    common = ["--dataset", str(root / "data.tsv"), "--split", str(root / "split.tsv"),
              "--preset", str(root / "preset.json")]
    assert main(["train-recon", *common, "--out", str(root / "recon.ckpt")]) == 0
    assert main(["train-reflex", *common, "--out", str(root / "reflex.ckpt")]) == 0
    return root


def test_ingest_roundtrip(workdir, tmp_path):
    out = tmp_path / "canon.tsv"
    assert main(["ingest", "--dataset", str(workdir / "data.tsv"),
                 "--out", str(out)]) == 0
    assert parse_dataset(out.read_text()) == parse_dataset((workdir / "data.tsv").read_text())


def test_split_output_shape(workdir):
    lines = (workdir / "split.tsv").read_text().splitlines()
    assert len(lines) == 30
    tags = [ln.split("\t")[1] for ln in lines]
    assert set(tags) <= {"train", "val", "test"}


def test_decode_lists_candidates(workdir, tmp_path):
    out = tmp_path / "cands.tsv"
    assert main(["decode", "--dataset", str(workdir / "data.tsv"),
                 "--checkpoint", str(workdir / "recon.ckpt"),
                 "--beam-size", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id\trank\tcandidate\tm"
    assert len(lines) > 30  # at least one candidate per set


def test_rerank_writes_per_set_tables(workdir, tmp_path):
    out = tmp_path / "rr"
    assert main(["rerank", "--dataset", str(workdir / "data.tsv"),
                 "--recon-checkpoint", str(workdir / "recon.ckpt"),
                 "--reflex-checkpoint", str(workdir / "reflex.ckpt"),
                 "--beam-size", "3", "--lambda", "1.26",
                 "--out", str(out)]) == 0
    assert (out / "summary.tsv").exists()
    assert (out / "syn1.tsv").exists()
    header = (out / "syn1.tsv").read_text().splitlines()[0]
    assert header.split("\t")[:3] == ["beam_rank", "candidate", "m"]


def test_eval_perfect_predictions(workdir, tmp_path, capsys):
    ds = parse_dataset((workdir / "data.tsv").read_text())
    preds = "\n".join(f"{cs.id}\t{' '.join(cs.protoform)}" for cs in ds.sets) + "\n"
    pred_path = tmp_path / "preds.tsv"
    pred_path.write_text(preds, encoding="utf-8")
    assert main(["eval", "--dataset", str(workdir / "data.tsv"),
                 "--predictions", str(pred_path), "--feature-table", "bundled"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("100.0000\t0.0000\t0.0000\t0.0000\t1.0000")


def test_gridsearch_reports_best(workdir, tmp_path, capsys):
    out = tmp_path / "grid.tsv"
    assert main(["gridsearch", "--dataset", str(workdir / "data.tsv"),
                 "--split", str(workdir / "split.tsv"),
                 "--recon-checkpoint", str(workdir / "recon.ckpt"),
                 "--reflex-checkpoint", str(workdir / "reflex.ckpt"),
                 "--k-range", "2,3", "--lambda-range", "0.5,1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k\tlambda\taccuracy"
    assert len(lines) == 1 + 4 + 1
    assert lines[-1].startswith("# best\t")


def test_compare_and_correlate(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("4\n5\n6\n")
    b.write_text("1\n2\n3\n")
    assert main(["compare", "--a", str(a), "--b", str(b),
                 "--alternative", "greater", "--resamples", "1000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p_value\tci_low\tci_high\tsignificant"
    assert float(out[1].split("\t")[0]) == pytest.approx(0.05)
    assert main(["correlate", "--a", str(a), "--b", str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[1]) == pytest.approx(1.0)


def _score_files(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("4\n5\n6\n")
    b.write_text("1\n2\n3\n")
    return ["compare", "--a", str(a), "--b", str(b), "--resamples", "1000"]


@pytest.mark.parametrize("alpha_level, verdict", [(None, "False"), ("0.1", "True")])
def test_compare_alpha_level_sets_the_verdict(tmp_path, capsys, alpha_level, verdict):
    """p = 0.05 on these files: significant at 0.1, not at the default 0.01."""
    extra = [] if alpha_level is None else ["--alpha-level", alpha_level]
    assert main(_score_files(tmp_path) + extra) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert float(row[0]) == pytest.approx(0.05) and row[3] == verdict


@pytest.mark.parametrize("flag, value", [
    ("--level", "1.5"), ("--level", "0"), ("--level", "nan"),
    ("--alpha-level", "nan"), ("--alpha-level", "2"), ("--alpha-level", "0"),
    ("--alpha-level", "inf"),
])
def test_compare_rejects_levels_outside_unit_interval(tmp_path, capsys, flag, value):
    assert main(_score_files(tmp_path) + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and captured.out == ""


@pytest.mark.parametrize("command", ["split", "train-recon", "gridsearch", "compare", "run"])
def test_a_negative_seed_exits_2_and_writes_nothing(workdir, tmp_path, capsys, command):
    """A split, bootstrap or run seed below 0 is a configuration error, not numpy's
    ValueError, and run leaves no --out directory behind."""
    data = ["--dataset", str(workdir / "data.tsv")]
    pair = ["--recon-checkpoint", str(workdir / "recon.ckpt"),
            "--reflex-checkpoint", str(workdir / "reflex.ckpt")]
    preset = str(workdir / "preset.json")
    out = tmp_path / "out"
    argv = {
        "split": ["split", *data, "--split-seed", "-1"],
        "train-recon": ["train-recon", *data, "--preset", preset, "--split-seed", "-1"],
        "gridsearch": ["gridsearch", *data, *pair, "--split-seed", "-1"],
        "compare": [*_score_files(tmp_path), "--seed", "-1"],
        "run": ["run", *data, "--preset", preset, "--reflex-preset", preset, "--seed", "-1"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and "seed" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_analyze_writes_tables(workdir, tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--dataset", str(workdir / "data.tsv"),
                 "--recon-checkpoint", str(workdir / "recon.ckpt"),
                 "--reflex-checkpoint", str(workdir / "reflex.ckpt"),
                 "--beam-size", "3", "--feature-table", "bundled",
                 "--out", str(out)]) == 0
    for name in ("behavior.tsv", "similarity.tsv", "error_rates.tsv"):
        assert (out / name).exists(), name
    behavior = (out / "behavior.tsv").read_text()
    assert behavior.splitlines()[0] == "category\tcount\tpercent"


def test_run_subcommand(workdir, tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--dataset", str(workdir / "data.tsv"),
                 "--preset", str(workdir / "preset.json"),
                 "--reflex-preset", str(workdir / "preset.json"),
                 "--seeds", "1", "--beam-size", "3", "--lambda", "1.0",
                 "--out", str(out)]) == 0
    assert (out / "aggregate.tsv").exists()
    assert (out / "seed0" / "predictions.tsv").exists()


def test_run_takes_the_bundled_feature_table(workdir, tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--dataset", str(workdir / "data.tsv"),
                 "--preset", str(workdir / "preset.json"),
                 "--reflex-preset", str(workdir / "preset.json"),
                 "--seeds", "1", "--beam-size", "3", "--feature-table", "bundled",
                 "--out", str(out)]) == 0
    assert (out / "seed0" / "similarity.tsv").exists()


def test_reranking_loaded_models_allocates_no_gradients(workdir):
    """Inference on loaded checkpoints leaves every parameter without a gradient array."""
    from protorecon import models
    from protorecon.rerank import ReflexCache, scored_beams

    recon = models.load_checkpoint(workdir / "recon.ckpt")
    reflex = models.load_checkpoint(workdir / "reflex.ckpt")
    sets = parse_dataset((workdir / "data.tsv").read_text()).sets
    assert len(list(scored_beams(recon, reflex, sets, 3, ReflexCache()))) == 30
    assert all(p.grad is None for model in (recon, reflex) for p in model.parameters())


def test_exit_code_config_error(workdir):
    # unknown preset name is a configuration problem -> exit 2
    assert main(["train-recon", "--dataset", str(workdir / "data.tsv"),
                 "--preset", "no-such-preset", "--out", "/tmp/x.ckpt"]) == 2


def test_exit_code_data_error(tmp_path):
    # missing dataset file -> exit 3
    assert main(["ingest", "--dataset", str(tmp_path / "missing.tsv")]) == 3
    # malformed dataset -> exit 3
    bad = tmp_path / "bad.tsv"
    bad.write_text("proto\tL\np a\n")
    assert main(["ingest", "--dataset", str(bad)]) == 3


def test_bundled_presets_load():
    from importlib import resources

    from protorecon.cli import load_preset
    from protorecon.models import ReconModelConfig, ReflexModelConfig, config_from_dict

    for name in ("recon_gru_bs_wikihan", "reflex_gru_wikihan"):
        preset = load_preset(name)
        assert "hidden_size" in preset and "lr" in preset
    names = [p.name[:-5] for p in (resources.files("protorecon") / "presets").iterdir()
             if p.name.endswith(".json")]
    assert len(names) == 10
    for name in names:  # every bundled preset passes the config checks
        config_from_dict(ReflexModelConfig if name.startswith("reflex") else ReconModelConfig,
                         load_preset(name))


def test_eval_reads_rerank_summary(workdir, tmp_path, capsys):
    """eval takes rerank's summary.tsv as is and scores it like a two-column file."""
    out = tmp_path / "rr"
    assert main(["rerank", "--dataset", str(workdir / "data.tsv"),
                 "--recon-checkpoint", str(workdir / "recon.ckpt"),
                 "--reflex-checkpoint", str(workdir / "reflex.ckpt"),
                 "--beam-size", "3", "--out", str(out)]) == 0
    summary = (out / "summary.tsv").read_text().splitlines()
    assert summary[0] == "id\treranked_top\ts"
    two_col = tmp_path / "preds.tsv"
    rows = [line.split("\t") for line in summary[1:]]
    two_col.write_text("".join(f"{i}\t{top}\n" for i, top, _s in rows), encoding="utf-8")
    reports = []
    for preds in (out / "summary.tsv", two_col):
        assert main(["eval", "--dataset", str(workdir / "data.tsv"),
                     "--predictions", str(preds)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert reports[0].splitlines()[0].startswith("ACC%")


def test_eval_rejects_malformed_predictions(workdir, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("syn1\tp a\tx\n", encoding="utf-8")
    assert main(["eval", "--dataset", str(workdir / "data.tsv"),
                 "--predictions", str(bad)]) == 3


def test_eval_rejects_a_repeated_prediction_id_exit_3(workdir, tmp_path, capsys):
    """Two predictions for one set are refused, not resolved by keeping the last."""
    golds = [(cs.id, " ".join(cs.protoform))
             for cs in parse_dataset((workdir / "data.tsv").read_text()).sets]
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join(f"{i}\t{p}\n" for i, p in golds) + f"{golds[0][0]}\tx\n",
                     encoding="utf-8")
    assert main(["eval", "--dataset", str(workdir / "data.tsv"),
                 "--predictions", str(preds)]) == 3
    captured = capsys.readouterr()
    assert "duplicate prediction id" in captured.err and captured.out == ""


def test_eval_rejects_a_prediction_for_an_unknown_id_exit_3(workdir, tmp_path, capsys):
    """A prediction row whose id names no set of the dataset is refused, not dropped."""
    golds = [(cs.id, " ".join(cs.protoform))
             for cs in parse_dataset((workdir / "data.tsv").read_text()).sets]
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join(f"{i}\t{p}\n" for i, p in golds) + "nosuchid\tp a\n",
                     encoding="utf-8")
    assert main(["eval", "--dataset", str(workdir / "data.tsv"),
                 "--predictions", str(preds)]) == 3
    captured = capsys.readouterr()
    assert "nosuchid" in captured.err and captured.out == ""


@pytest.mark.parametrize("tokenize, cell", [("codepoint", "pa ta"), ("whitespace", "p a\u3000t")],
                         ids=["codepoint space", "whitespace U+3000"])
def test_eval_refuses_a_token_holding_whitespace_exit_3(tmp_path, capsys, tokenize, cell):
    """eval reads predicted tokens back with str.split, so a gold token holding whitespace
    is refused: exact predictions of such a set used to score ACC 50%."""
    data, preds = tmp_path / "data.tsv", tmp_path / "preds.tsv"
    data.write_text(f"id\tproto\tA\nw1\t{cell}\tp\nw2\tpa\tp\n", encoding="utf-8")
    w2_gold = parse_dataset("id\tproto\tA\nw2\tpa\tp\n", tokenize).sets[0].protoform
    preds.write_text(f"w1\t{' '.join(cell)}\nw2\t{' '.join(w2_gold)}\n", encoding="utf-8")
    assert main(["eval", "--dataset", str(data), "--tokenize", tokenize,
                 "--predictions", str(preds)]) == 3
    captured = capsys.readouterr()
    assert "whitespace" in captured.err and captured.out == ""


def test_eval_reads_a_rerank_summary_whose_set_ids_hold_line_separators(workdir, tmp_path,
                                                                       capsys):
    """Lines end at LF only: a set id holding U+0085, U+2028 or a form feed, which
    str.splitlines breaks at, reads as one id, and eval scores rerank's summary as it scores
    the summary of the same sets under plain ids.  eval used to refuse it (exit 3)."""
    ds = parse_dataset((workdir / "data.tsv").read_text())
    seps = ("\x85", "\u2028", "\x0c")
    odd = dataclasses.replace(ds, sets=tuple(dataclasses.replace(cs, id=f"{cs.id}{seps[i % 3]}x")
                                             for i, cs in enumerate(ds.sets)))
    reports = []
    for name, dataset in (("plain", ds), ("odd", odd)):
        data = tmp_path / f"{name}.tsv"
        data.write_text(serialize_dataset(dataset), encoding="utf-8")
        assert main(["rerank", "--dataset", str(data),
                     "--recon-checkpoint", str(workdir / "recon.ckpt"),
                     "--reflex-checkpoint", str(workdir / "reflex.ckpt"),
                     "--beam-size", "3", "--out", str(tmp_path / name)]) == 0
        assert main(["eval", "--dataset", str(data),
                     "--predictions", str(tmp_path / name / "summary.tsv")]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("bad", ["six", "nan", "-inf"])
@pytest.mark.parametrize("command", ["compare", "correlate"])
def test_non_numeric_score_line_exit_3(tmp_path, capsys, command, bad):
    """A score line that is not a finite number names its file and line, with no traceback
    and no NaN result."""
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(f"4\n# comment\n5\n{bad}\n")
    b.write_text("1\n2\n3\n")
    assert main([command, "--a", str(a), "--b", str(b)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and captured.out == ""
    assert f"{a} line 4" in captured.err


def test_mismatched_checkpoint_vocabularies_exit_3(workdir, tmp_path, capsys):
    """A recon/reflex pair trained on different vocabularies is a data error."""
    from protorecon import models
    from protorecon.corpus import build_vocabulary

    other, _ = generate_family(n_sets=30, n_daughters=2, seed=8)
    other_reflex = tmp_path / "other_reflex.ckpt"
    models.ReflexModel(models.ReflexModelConfig(**TINY_PRESET), build_vocabulary(other)).save(
        other_reflex)
    pair = ["--recon-checkpoint", str(workdir / "recon.ckpt"),
            "--reflex-checkpoint", str(other_reflex)]
    data = ["--dataset", str(workdir / "data.tsv")]
    for argv in (["rerank", *data, *pair],
                 ["analyze", *data, *pair, "--out", str(tmp_path / "an")],
                 ["gridsearch", *data, "--split", str(workdir / "split.tsv"), *pair]):
        assert main(argv) == 3, argv[0]
        assert "different vocabularies" in capsys.readouterr().err


def test_rerank_and_analyze_score_empty_candidates(workdir, tmp_path):
    """A recon model that ranks EOS first yields empty candidates; both commands exit 0."""
    from protorecon import models

    recon = models.load_checkpoint(workdir / "recon.ckpt")
    recon.params["clf.b2"].data[recon.vocab.eos_id] += 10.0
    recon.save(tmp_path / "eos_recon.ckpt")
    pair = ["--recon-checkpoint", str(tmp_path / "eos_recon.ckpt"),
            "--reflex-checkpoint", str(workdir / "reflex.ckpt")]
    data = ["--dataset", str(workdir / "data.tsv"), "--beam-size", "3"]
    assert main(["rerank", *data, *pair, "--out", str(tmp_path / "rr")]) == 0
    rows = (tmp_path / "rr" / "syn1.tsv").read_text().splitlines()
    empty = [row.split("\t") for row in rows[1:] if row.split("\t")[1] == ""]
    assert empty and all(float(cells[-3]) == 0.0 for cells in empty)
    assert main(["analyze", *data, *pair, "--out", str(tmp_path / "an")]) == 0


@pytest.mark.parametrize("text", ['{"hidden_size": 10,', "[1, 2]", '"preset"', "\xff\xfe"])
def test_malformed_preset_exit_2(workdir, tmp_path, capsys, text):
    """A preset that is not valid JSON, or not a JSON object, is a configuration error."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode("latin-1"))
    data = ["--dataset", str(workdir / "data.tsv"), "--preset", str(bad)]
    assert main(["train-recon", *data, "--out", str(tmp_path / "x.ckpt")]) == 2
    assert main(["run", *data, "--seeds", "1", "--out", str(tmp_path / "run")]) == 2
    assert "preset" in capsys.readouterr().err


def test_run_rejects_preset_fields_of_the_other_model(workdir, tmp_path, capsys):
    """run validates its presets like train-recon/train-reflex: a reflex-only field exits 2."""
    preset = tmp_path / "reflex_only.json"
    preset.write_text(json.dumps({**TINY_PRESET, "num_encoder_layers": 2}), encoding="utf-8")
    assert main(["run", "--dataset", str(workdir / "data.tsv"), "--preset", str(preset),
                 "--seeds", "1", "--out", str(tmp_path / "run")]) == 2
    assert "num_encoder_layers" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _checkpoint_with(path, header_json: str, payload=b""):
    """A checkpoint container holding the given JSON text as its header."""
    from protorecon.checkpoint import FORMAT_VERSION, MAGIC

    header = header_json.encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header + payload)
    return path


def _model_checkpoint_with(path, source, edit):
    """source's checkpoint with its model header (kind, config, ...) changed by edit."""
    from protorecon.checkpoint import read_checkpoint, write_checkpoint

    arrays, header, vocab_hash, seed = read_checkpoint(source)
    edit(header)
    write_checkpoint(path, arrays, header, vocab_hash, seed)
    return path


def _checkpoint_with_arrays(path, source, edit):
    """source's checkpoint with its parameter arrays (a name -> array dict) changed by edit."""
    from protorecon.checkpoint import read_checkpoint, write_checkpoint

    arrays, header, vocab_hash, seed = read_checkpoint(source)
    edit(arrays)
    write_checkpoint(path, arrays, header, vocab_hash, seed)
    return path


def _checkpoint_listing_twice(path, source, name):
    """source's checkpoint whose header lists array name a second time, over zeros."""
    from protorecon.checkpoint import MAGIC

    blob = Path(source).read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    header = json.loads(blob[start : start + hlen])
    desc = next(d for d in header["arrays"] if d["name"] == name)
    header["arrays"].append(desc)
    zeros = bytes(8 * math.prod(desc["shape"]))
    return _checkpoint_with(path, json.dumps(header), payload=blob[start + hlen :] + zeros)


def _nan_in_first_array(arrays):
    name = next(iter(arrays))
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] = float("nan")


MALFORMED_CHECKPOINTS = {
    "no arrays": lambda p, src: _checkpoint_with(p, '{"config": {}, "vocab_hash": "h", "seed": 0}'),
    "unknown dtype": lambda p, src: _checkpoint_with(
        p, '{"arrays": [{"name": "a", "dtype": "complex128", "shape": [1]}], "config": {}, '
           '"vocab_hash": "h", "seed": 0}', payload=bytes(16)),
    "header not an object": lambda p, src: _checkpoint_with(p, "[1, 2]"),
    "no kind": lambda p, src: _model_checkpoint_with(p, src, lambda h: h.pop("kind")),
    "unknown config field": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h["config"].update(bogus=1)),
    "mistyped config value": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h["config"].update(hidden_size="10")),
    "config patience 0": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h["config"].update(patience=0)),
    "infinite max_decode_len": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h.update(max_decode_len=float("inf"))),
    "max_decode_len 0": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h.update(max_decode_len=0)),
    "negative max_decode_len": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h.update(max_decode_len=-3)),
    "fractional max_decode_len": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h.update(max_decode_len=2.7)),
    "boolean max_decode_len": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h.update(max_decode_len=True)),
    "token not a string": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h["vocab_tokens"].__setitem__(-1, 7)),
    "NaN parameter": lambda p, src: _checkpoint_with_arrays(p, src, _nan_in_first_array),
    "missing parameter array": lambda p, src: _checkpoint_with_arrays(
        p, src, lambda a: a.pop("clf.b1")),
    "misshapen parameter array": lambda p, src: _checkpoint_with_arrays(
        p, src, lambda a: a.update({"clf.b1": a["clf.b1"][:-1]})),
    "array that is no parameter": lambda p, src: _checkpoint_with_arrays(
        p, src, lambda a: a.update({"enc1.W_z": a["enc.W_z"]})),
    "array listed twice": lambda p, src: _checkpoint_listing_twice(p, src, "tok_emb"),
    "unknown kind": lambda p, src: _model_checkpoint_with(
        p, src, lambda h: h.update(kind="proto")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_exit_3(workdir, tmp_path, capsys, case):
    """A checkpoint whose header breaks the container or model layout is a data error."""
    bad = MALFORMED_CHECKPOINTS[case](tmp_path / "bad.ckpt", workdir / "recon.ckpt")
    data = ["--dataset", str(workdir / "data.tsv")]
    assert main(["decode", *data, "--checkpoint", str(bad)]) == 3
    assert main(["rerank", *data, "--recon-checkpoint", str(bad),
                 "--reflex-checkpoint", str(workdir / "reflex.ckpt")]) == 3
    err = capsys.readouterr().err
    assert err.count("data error") == 2 and "Traceback" not in err


@pytest.mark.parametrize("values", [{"hidden_size": "64"}, {"lr": "x"}, {"batch_size": True},
                                    {"dropout": False}, {"bidirectional_encoder": 1}])
def test_mistyped_preset_value_exit_2(workdir, tmp_path, capsys, values):
    """A preset value of the wrong type is a configuration error, for train and run alike."""
    preset = tmp_path / "typed.json"
    preset.write_text(json.dumps({**TINY_PRESET, **values}), encoding="utf-8")
    data = ["--dataset", str(workdir / "data.tsv")]
    assert main(["train-reflex", *data, "--preset", str(preset),
                 "--out", str(tmp_path / "x.ckpt")]) == 2
    assert main(["run", *data, "--reflex-preset", str(preset), "--seeds", "1",
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.count(repr(next(iter(values.values())))) == 2
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("values", [
    {"lr": float("nan"), "max_epochs": 1, "batch_size": 32},
    {**TINY_PRESET, "lr": -1},
    {**TINY_PRESET, "beta1": 2.0},
    {**TINY_PRESET, "beta2": 1.0},
    {**TINY_PRESET, "eps": 0},
    {**TINY_PRESET, "weight_decay": float("inf")},
    {**TINY_PRESET, "patience": -3},
    {**TINY_PRESET, "patience": 0},
    {**TINY_PRESET, "warmup_epochs": -5},
], ids=["lr NaN", "lr -1", "beta1 2", "beta2 1", "eps 0", "weight_decay inf", "patience -3",
        "patience 0", "warmup_epochs -5"])
def test_bad_optimizer_setting_exit_2(workdir, tmp_path, capsys, values):
    """An optimizer setting Adam cannot use, a patience below 1 or a negative warmup is
    refused before training, and no checkpoint is written.  Patience 0 used to act as 1,
    and a negative warmup as none."""
    preset = tmp_path / "optimizer.json"
    preset.write_text(json.dumps(values), encoding="utf-8")
    out = tmp_path / "x.ckpt"
    assert main(["train-recon", "--dataset", str(workdir / "data.tsv"), "--preset", str(preset),
                 "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_train_split_without_a_protoform_exit_1(workdir, tmp_path, capsys):
    """A train split none of whose sets has a protoform holds no training example: both
    train commands exit 1 naming the missing protoforms, and write no checkpoint.  They used
    to run every epoch with no batch and save the untrained model."""
    ds, _ = generate_family(n_sets=5, n_daughters=3, seed=8)
    tags = ("train", "train", "train", "val", "test")
    data, split, out = tmp_path / "data.tsv", tmp_path / "split.tsv", tmp_path / "x.ckpt"
    data.write_text(serialize_dataset(dataclasses.replace(ds, sets=tuple(
        dataclasses.replace(cs, protoform=None) if tag == "train" else cs
        for cs, tag in zip(ds.sets, tags)))), encoding="utf-8")
    split.write_text("".join(f"{cs.id}\t{tag}\n" for cs, tag in zip(ds.sets, tags)),
                     encoding="utf-8")
    for kind in ("recon", "reflex"):
        assert main([f"train-{kind}", "--dataset", str(data), "--split", str(split),
                     "--preset", str(workdir / "preset.json"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "has a protoform" in captured.err
        assert captured.out == "" and not out.exists()


def test_config_from_dict_accepts_ints_for_float_fields():
    from protorecon.models import ReconModelConfig, config_from_dict

    assert config_from_dict(ReconModelConfig, {"lr": 1, "dropout": 0}).lr == 1


def test_analyze_without_gold_protoforms_fails_typed(workdir, tmp_path, capsys):
    ds = parse_dataset((workdir / "data.tsv").read_text())
    no_gold = tmp_path / "no_gold.tsv"
    no_gold.write_text(serialize_dataset(dataclasses.replace(
        ds, sets=tuple(dataclasses.replace(cs, protoform=None) for cs in ds.sets))))
    assert main(["analyze", "--dataset", str(no_gold),
                 "--recon-checkpoint", str(workdir / "recon.ckpt"),
                 "--reflex-checkpoint", str(workdir / "reflex.ckpt"),
                 "--out", str(tmp_path / "an")]) == 1
    assert "no cognate set with a gold protoform" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--lambda", "-1"],
    ["run", "--beam-size", "0"],
    ["run", "--seeds", "0"],
    ["gridsearch", "--k-range", "0,2"],
    ["gridsearch", "--lambda-range=-1,0.3"],
    ["rerank", "--lambda", "nan"],
    ["rerank", "--lambda", "inf"],
    ["analyze", "--lambda", "-1"],
    ["split", "--ratios", "1.2", "-0.1", "-0.1"],
    ["split", "--ratios", "nan", "0.5", "0.5"],
], ids=" ".join)
def test_bad_settings_exit_2_before_any_work(workdir, tmp_path, capsys, argv):
    """A bad beam, rerank, seed or split setting exits 2 with a typed message and writes
    nothing: run trains no model."""
    command, *flags = argv
    pair = ["--recon-checkpoint", str(workdir / "recon.ckpt"),
            "--reflex-checkpoint", str(workdir / "reflex.ckpt")]
    preset = str(workdir / "preset.json")
    extra = {
        "run": ["--preset", preset, "--reflex-preset", preset, "--out", str(tmp_path / "run")],
        "gridsearch": [*pair, "--split", str(workdir / "split.tsv")],
        "rerank": pair,
        "analyze": [*pair, "--out", str(tmp_path / "an")],
        "decode": ["--checkpoint", str(workdir / "recon.ckpt")],
        "split": [],
    }[command]
    assert main([command, "--dataset", str(workdir / "data.tsv"), *extra, *flags]) == 2
    captured = capsys.readouterr()
    assert "configuration error:" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert captured.out == ""
    assert not list(tmp_path.iterdir())  # no seed*/recon.ckpt, no table, no split


@pytest.mark.parametrize("argv", [
    ["decode", "--beam-size", "0"],
    ["rerank", "--beam-size", "0"],
    ["rerank", "--lambda", "nan"],
    ["analyze", "--beam-size", "0"],
    ["analyze", "--lambda", "-1"],
], ids=" ".join)
def test_bad_settings_exit_2_on_a_dataset_with_no_rows(workdir, tmp_path, capsys, argv):
    """The library checks k before the first beam batch and lambda when rerank_sets is
    called: with no set to decode, a bad one still exits 2 and nothing is written."""
    command, *flags = argv
    data = tmp_path / "header.tsv"
    data.write_text((workdir / "data.tsv").read_text(encoding="utf-8").splitlines()[0] + "\n",
                    encoding="utf-8")
    checkpoints = (["--checkpoint", str(workdir / "recon.ckpt")] if command == "decode" else
                   ["--recon-checkpoint", str(workdir / "recon.ckpt"),
                    "--reflex-checkpoint", str(workdir / "reflex.ckpt")])
    assert main([command, "--dataset", str(data), *checkpoints, *flags,
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["header.tsv"]


def _unk_renamed(header):
    header["vocab_tokens"][header["vocab_tokens"].index("<unk>")] = "<unx>"


def _token_duplicated(header):
    header["vocab_tokens"][-1] = header["vocab_tokens"][-2]


def _tokens_swapped(header):
    tokens = header["vocab_tokens"]
    tokens[-1], tokens[-2] = tokens[-2], tokens[-1]


def _languages_reversed(header):
    header["languages"].reverse()


@pytest.mark.parametrize("edit, rehash, message", [
    (_unk_renamed, False, "lacks the tokens ['<unk>']"),
    (_token_duplicated, True, "duplicated vocabulary tokens"),
    (_tokens_swapped, False, "does not match its stored hash"),
    (_languages_reversed, False, "languages are not in the order of their tags"),
], ids=["unk-renamed", "token-duplicated", "tokens-swapped", "languages-reversed"])
def test_checkpoint_vocabulary_header_checked_exit_3(workdir, tmp_path, capsys, edit, rehash,
                                                     message):
    """A header vocabulary without <unk>, with a token twice, whose tokens do not hash to
    the stored vocab_hash, or whose languages are out of their tags' order is a data error.
    rehash stores the edited tokens' own hash, so that the vocabulary's check, not the hash
    check, must refuse the duplicate.  The hash covers the tokens only: reversed languages
    would decode each row under another language's index.
    """
    import hashlib

    from protorecon.checkpoint import read_checkpoint, write_checkpoint

    arrays, header, vocab_hash, seed = read_checkpoint(FIXTURES / "reflex.ckpt")
    edit(header)
    if rehash:  # what Vocabulary.content_hash gives for the edited tokens
        vocab_hash = hashlib.sha256("\x00".join(header["vocab_tokens"]).encode()).hexdigest()
    bad = tmp_path / "reflex.ckpt"
    write_checkpoint(bad, arrays, header, vocab_hash, seed)
    data = ["--dataset", str(workdir / "data.tsv")]
    assert main(["decode", *data, "--checkpoint", str(bad)]) == 3
    assert main(["rerank", *data, "--recon-checkpoint", str(FIXTURES / "recon.ckpt"),
                 "--reflex-checkpoint", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.count("data error") == 2 and err.count(message) == 2 and "Traceback" not in err


def test_checkpoint_with_a_structural_token_moved_exit_3(workdir, tmp_path, capsys):
    """A header vocabulary with <unk> moved from id 5 to the end, stored with its own hash:
    every token is there once, but each tag and phoneme id is one less than the parameters
    were trained on, so the vocabulary's layout check refuses it."""
    import hashlib

    from protorecon.checkpoint import read_checkpoint, write_checkpoint

    arrays, header, _, seed = read_checkpoint(FIXTURES / "reflex.ckpt")
    tokens = header["vocab_tokens"]
    tokens.append(tokens.pop(tokens.index("<unk>")))
    vocab_hash = hashlib.sha256("\x00".join(header["vocab_tokens"]).encode()).hexdigest()
    bad = tmp_path / "reflex.ckpt"
    write_checkpoint(bad, arrays, header, vocab_hash, seed)
    data = ["--dataset", str(workdir / "data.tsv")]
    assert main(["decode", *data, "--checkpoint", str(bad)]) == 3
    assert main(["rerank", *data, "--recon-checkpoint", str(FIXTURES / "recon.ckpt"),
                 "--reflex-checkpoint", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("a structural token is out of place") == 2
    assert captured.out == "" and "Traceback" not in captured.err


def test_decode_refuses_a_checkpoint_dimension_below_0_exit_3(workdir, tmp_path, capsys):
    """A shape of [-1] would read no bytes and move the read offset 8 bytes back, into the
    header; it is refused as a shape, before any array is read."""
    from protorecon.checkpoint import MAGIC

    blob = (workdir / "recon.ckpt").read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    header = json.loads(blob[start : start + hlen])
    header["arrays"][0]["shape"][0] = -1
    name = header["arrays"][0]["name"]
    bad = _checkpoint_with(tmp_path / "bad.ckpt", json.dumps(header), blob[start + hlen :])
    assert main(["decode", "--dataset", str(workdir / "data.tsv"),
                 "--checkpoint", str(bad)]) == 3
    captured = capsys.readouterr()
    assert f"data error: array {name!r} has shape [-1, " in captured.err
    assert "each dimension must be an int >= 0" in captured.err and captured.out == ""


def test_reflex_checkpoint_decode_cap_0_exit_3(workdir, tmp_path, capsys):
    """max_decode_len is the one source of every decode's cap: a reflex checkpoint that says
    0 would predict every reflex as empty, and rerank would exit 0 with every r at 0."""
    bad = _model_checkpoint_with(tmp_path / "reflex.ckpt", FIXTURES / "reflex.ckpt",
                                 lambda h: h.update(max_decode_len=0))
    assert main(["rerank", "--dataset", str(workdir / "data.tsv"),
                 "--recon-checkpoint", str(FIXTURES / "recon.ckpt"),
                 "--reflex-checkpoint", str(bad)]) == 3
    captured = capsys.readouterr()
    assert "max_decode_len must be an int >= 1, not 0" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("command, flag", [
    *((command, "--alpha") for command in ("decode", "rerank", "analyze", "gridsearch", "run")),
    *((command, "--max-len") for command in ("decode", "rerank", "analyze")),
])
def test_decode_overrides_are_unknown_flags_exit_2(workdir, tmp_path, capsys, command, flag):
    """A beam's alpha is the recon checkpoint's and its cap the checkpoint's max_decode_len:
    --alpha and --max-len are unknown flags, and nothing is written."""
    pair = ["--recon-checkpoint", str(workdir / "recon.ckpt"),
            "--reflex-checkpoint", str(workdir / "reflex.ckpt")]
    extra = {
        "decode": ["--checkpoint", str(workdir / "recon.ckpt")],
        "rerank": [*pair, "--out", str(tmp_path / "rr")],
        "analyze": [*pair, "--out", str(tmp_path / "an")],
        "gridsearch": [*pair, "--out", str(tmp_path / "grid.tsv")],
        "run": ["--out", str(tmp_path / "run")],
    }[command]
    value = {"--alpha": "0.5", "--max-len": "4"}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, "--dataset", str(workdir / "data.tsv"), *extra, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in captured.err and captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tone", ["yes", "true", "2", ""])
def test_feature_table_tone_other_than_0_or_1_exit_3(workdir, tmp_path, capsys, tone):
    """A tone cell is 0 or 1; anything else is a data error naming its line, not 'no tone'."""
    from importlib import resources

    lines = (resources.files("protorecon") / "data" / "feature_table.tsv").read_text(
        "utf-8").splitlines()
    cells = lines[2].split("\t")
    lines[2] = "\t".join([cells[0], tone, *cells[2:]])
    table = tmp_path / "features.tsv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = parse_dataset((workdir / "data.tsv").read_text())
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join(f"{cs.id}\t{' '.join(cs.protoform)}\n" for cs in ds.sets),
                     encoding="utf-8")
    assert main(["eval", "--dataset", str(workdir / "data.tsv"), "--predictions", str(preds),
                 "--feature-table", str(table)]) == 3
    err = capsys.readouterr().err
    assert "line 3" in err and "tone" in err and "Traceback" not in err


def _with_extra_language(path, source):
    """source's dataset with one more daughter column, X9, that every set fills."""
    lines = source.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(f"{line}\t{'X9' if i == 0 else 'a'}\n" for i, line in enumerate(lines)),
                    encoding="utf-8")
    return path


def test_dataset_language_unknown_to_the_checkpoints_exit_3_before_decoding(
        workdir, tmp_path, capsys, monkeypatch):
    """decode, rerank, analyze and gridsearch refuse a dataset language that the checkpoint
    vocabulary lacks, naming it, before any beam search; decode used to drop the column."""
    from protorecon import models

    def no_decoding(*_args, **_kwargs):
        raise AssertionError("decoded a dataset with a language unknown to the checkpoint")

    monkeypatch.setattr(models.ReconModel, "beam_search_sets", no_decoding)
    data = ["--dataset", str(_with_extra_language(tmp_path / "x9.tsv", workdir / "data.tsv"))]
    pair = ["--recon-checkpoint", str(workdir / "recon.ckpt"),
            "--reflex-checkpoint", str(workdir / "reflex.ckpt")]
    for argv in (["decode", *data, "--checkpoint", str(workdir / "recon.ckpt")],
                 ["rerank", *data, *pair],
                 ["analyze", *data, *pair, "--out", str(tmp_path / "an")],
                 ["gridsearch", *data, *pair, "--split", str(workdir / "split.tsv")]):
        assert main(argv) == 3, argv[0]
        captured = capsys.readouterr()
        assert "lacks the languages ['X9']" in captured.err and captured.out == "", argv[0]
    assert not (tmp_path / "an").exists()


@pytest.mark.parametrize("command, cell", [
    ("decode", "reflex"), ("rerank", "reflex"), ("analyze", "reflex"), ("gridsearch", "reflex"),
    ("analyze", "protoform"), ("gridsearch", "protoform"),
])
def test_dataset_token_unknown_to_the_checkpoints_exit_3_before_decoding(
        workdir, tmp_path, capsys, monkeypatch, command, cell):
    """A token that the checkpoint vocabulary lacks, in a reflex of a set that the command
    decodes or in a gold protoform that it scores, is refused, named, before any beam search
    and before anything is written."""
    from protorecon import models

    def no_decoding(*_args, **_kwargs):
        raise AssertionError("decoded a dataset with a token unknown to the checkpoint")

    monkeypatch.setattr(models.ReconModel, "beam_search_sets", no_decoding)
    val = {line.split("\t")[0] for line in (workdir / "split.tsv").read_text().splitlines()
           if line.endswith("\tval")}
    lines = (workdir / "data.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.split("\t")[0] in val)
    cells = lines[last].split("\t")
    at = 1 if cell == "protoform" else next(i for i in range(2, len(cells)) if cells[i].strip())
    cells[at] = "zz " + cells[at]
    data = tmp_path / "zz.tsv"
    data.write_text("".join(lines[:last]) + "\t".join(cells) + "".join(lines[last + 1:]),
                    encoding="utf-8")
    pair = ["--recon-checkpoint", str(workdir / "recon.ckpt"),
            "--reflex-checkpoint", str(workdir / "reflex.ckpt")]
    argv = {"decode": ["--checkpoint", str(workdir / "recon.ckpt")], "rerank": pair,
            "analyze": pair, "gridsearch": [*pair, "--split", str(workdir / "split.tsv")]}[command]
    out = tmp_path / "out"
    assert main([command, "--dataset", str(data), *argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and "'zz'" in captured.err
    assert captured.out == "" and not out.exists()


def _exit_1_case(workdir, tmp_path, command):
    """argv of a command that fails with a ProtoreconError outside the typed ones, and the
    output path that it must not write."""
    out = tmp_path / "out"
    ds = parse_dataset((workdir / "data.tsv").read_text())
    if command == "eval":
        no_gold = tmp_path / "no_gold.tsv"
        no_gold.write_text(serialize_dataset(dataclasses.replace(
            ds, sets=tuple(dataclasses.replace(cs, protoform=None) for cs in ds.sets))))
        preds = tmp_path / "preds.tsv"
        preds.write_text("".join(f"{cs.id}\ta\n" for cs in ds.sets), encoding="utf-8")
        return ["eval", "--dataset", str(no_gold), "--predictions", str(preds)], out
    if command in ("gridsearch", "train-recon"):  # a split without val, or without train
        tags = ("train", "test") if command == "gridsearch" else ("val", "test")
        split = tmp_path / "split.tsv"
        split.write_text("".join(f"{cs.id}\t{tags[i % 2]}\n" for i, cs in enumerate(ds.sets)),
                         encoding="utf-8")
        data = ["--dataset", str(workdir / "data.tsv"), "--split", str(split)]
        if command == "train-recon":
            return ["train-recon", *data, "--preset", str(workdir / "preset.json")], out
        return ["gridsearch", *data, "--recon-checkpoint", str(workdir / "recon.ckpt"),
                "--reflex-checkpoint", str(workdir / "reflex.ckpt")], out
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("" if command == "compare" else "0.5\n", encoding="utf-8")
    b.write_text("0.5\n0.25\n" if command == "compare" else "0.25\n", encoding="utf-8")
    return [command, "--a", str(a), "--b", str(b)], out


@pytest.mark.parametrize("command", ["eval", "gridsearch", "compare", "correlate", "train-recon"])
def test_other_errors_exit_1(workdir, tmp_path, capsys, command):
    """eval without a gold protoform, gridsearch on an empty val split, compare on an empty
    score file, correlate on one value and training on an empty train split fail with a
    ProtoreconError that is neither a configuration nor a data error: exit 1, nothing written."""
    argv, out = _exit_1_case(workdir, tmp_path, command)
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("text, message", [
    ("id\tproto\tA\tB\nw1\tp a\t\t\n", "has no reflexes"),
    ("id\tproto\tA\nw1\tp  a\tb\n", "empty token"),
], ids=["no reflex", "empty token"])
def test_malformed_dataset_row_exit_3(tmp_path, capsys, text, message):
    data = tmp_path / "bad.tsv"
    data.write_text(text, encoding="utf-8")
    assert main(["ingest", "--dataset", str(data)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[1:], "misses ids"),
    (lambda rows: rows + rows[:1], "duplicate id"),
    (lambda rows: rows + ["nosuchid\ttest\n"], "names ids the dataset lacks: ['nosuchid']"),
], ids=["id missing", "id twice", "id unknown"])
def test_malformed_split_file_exit_3(workdir, tmp_path, capsys, edit, message):
    """A split file must tag every set of the dataset once; training is refused otherwise."""
    split = tmp_path / "split.tsv"
    rows = (workdir / "split.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    split.write_text("".join(edit(rows)), encoding="utf-8")
    out = tmp_path / "x.ckpt"
    assert main(["train-recon", "--dataset", str(workdir / "data.tsv"), "--split", str(split),
                 "--preset", str(workdir / "preset.json"), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rerank_refuses_a_reflex_checkpoint_as_recon_exit_2(workdir, capsys):
    assert main(["rerank", "--dataset", str(workdir / "data.tsv"),
                 "--recon-checkpoint", str(workdir / "reflex.ckpt"),
                 "--reflex-checkpoint", str(workdir / "reflex.ckpt")]) == 2
    captured = capsys.readouterr()
    assert "holds a ReflexModel, expected ReconModel" in captured.err and captured.out == ""


def test_eval_refuses_a_gold_set_without_prediction_exit_3(workdir, tmp_path, capsys):
    """Every set with a gold protoform needs a prediction; a missing one is not skipped."""
    golds = [(cs.id, " ".join(cs.protoform))
             for cs in parse_dataset((workdir / "data.tsv").read_text()).sets]
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join(f"{i}\t{p}\n" for i, p in golds[1:]), encoding="utf-8")
    assert main(["eval", "--dataset", str(workdir / "data.tsv"),
                 "--predictions", str(preds)]) == 3
    captured = capsys.readouterr()
    assert f"no prediction for cognate set {golds[0][0]!r}" in captured.err
    assert captured.out == ""


def _subparsers():
    from protorecon.cli import build_parser

    [action] = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    return action.choices


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_subcommand_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: protorecon {command}")


@pytest.mark.parametrize("argv", [
    ["rerank", "--recon-checkpoint", "r.ckpt", "--reflex-checkpoint", "f.ckpt"],
    ["run", "--out", "o"],
], ids=lambda argv: argv[0])
def test_the_ablation_flag_is_gone_exit_2(argv, capsys):
    """The no-reranker ablation is --lambda 0; --ablation is an unknown flag."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--dataset", "d.tsv", "--ablation", "no-reranker"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ablation" in capsys.readouterr().err


def test_split_seeds_its_split_with_the_shared_split_seed(workdir, tmp_path, capsys):
    """split takes --split-seed, as train-* and gridsearch do, and writes split_dataset's tags
    at that seed; its old --seed is an unknown flag."""
    data = workdir / "data.tsv"
    out = tmp_path / "split.tsv"
    assert main(["split", "--dataset", str(data), "--split-seed", "3", "--out", str(out)]) == 0
    want = split_dataset(parse_dataset(data.read_text(encoding="utf-8")), seed=3)
    assert out.read_text(encoding="utf-8") == serialize_split_tags(want.split_tags)
    assert out.read_text(encoding="utf-8") != (workdir / "split.tsv").read_text(encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["split", "--dataset", str(data), "--seed", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_shared_flags_have_one_help_text_and_default():
    """A flag that several subcommands take means the same in each: one help text, one
    default.  --seed is the exception: it seeds the model in train-*, picks the one seed
    that run runs, and seeds the bootstrap in compare; --split-seed seeds the split."""
    seen = {}
    for command, parser in _subparsers().items():
        for action in parser._actions:
            for flag in action.option_strings:
                seen.setdefault(flag, {})[command] = (action.help, action.default)
    shared = {flag: by_command for flag, by_command in seen.items()
              if len(by_command) > 1 and flag != "--seed"}
    assert {"--recon-checkpoint", "--feature-table", "--split", "--split-seed",
            "--preset", "--out"} <= set(shared)
    for flag, by_command in shared.items():
        assert len(set(by_command.values())) == 1, (flag, by_command)


def test_run_defaults_are_the_experiment_config_defaults():
    """run and a library ExperimentConfig rerank at one k and one lambda when none is given."""
    from protorecon.experiment import ExperimentConfig

    defaults = {action.dest: action.default for action in _subparsers()["run"]._actions}
    config = ExperimentConfig(dataset_path="d.tsv", out_dir="o")
    assert (config.beam_size, config.lam) == (defaults["beam_size"], defaults["lam"])


@pytest.mark.parametrize("bad_id", ["../escaped", "summary", "", ".", "..", "a/b", "a\\b", "a\0b"])
def test_rerank_out_refuses_a_set_id_unfit_as_a_file_name_exit_3(
        workdir, tmp_path, capsys, monkeypatch, bad_id):
    """rerank --out names each set's TSV by its id: an id that would leave --out, overwrite
    summary.tsv or name no file is refused before any decoding, and nothing is written."""
    from protorecon import models

    def no_decoding(*_args, **_kwargs):
        raise AssertionError("decoded a dataset whose set ids cannot name files")

    monkeypatch.setattr(models.ReconModel, "beam_search_sets", no_decoding)
    lines = (workdir / "data.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    data = tmp_path / "sets" / "data.tsv"
    data.parent.mkdir()
    data.write_text(lines[0] + bad_id + lines[1][lines[1].index("\t"):] + "".join(lines[2:]),
                    encoding="utf-8")
    out = tmp_path / "sets" / "out"
    assert main(["rerank", "--dataset", str(data),
                 "--recon-checkpoint", str(workdir / "recon.ckpt"),
                 "--reflex-checkpoint", str(workdir / "reflex.ckpt"), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "cannot name a file under --out" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data.tsv", "sets"]


def _table_without(path, token):
    """The bundled feature table without token's row, written to path."""
    from importlib import resources

    lines = (resources.files("protorecon") / "data" / "feature_table.tsv").read_text(
        "utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(f"{token}\t")]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["eval", "analyze", "run"])
def test_a_feature_table_lacking_a_dataset_token_exit_3_before_any_work(
        workdir, tmp_path, capsys, monkeypatch, command):
    """eval, analyze and run refuse a feature table that lacks a token of the dataset, naming
    it: analyze before any decoding, run before any seed trains or writes a checkpoint."""
    from protorecon import models

    def no_decoding(*_args, **_kwargs):
        raise AssertionError("decoded a dataset that the feature table does not cover")

    monkeypatch.setattr(models.ReconModel, "beam_search_sets", no_decoding)
    ds = parse_dataset((workdir / "data.tsv").read_text())
    token = ds.sets[0].protoform[0]
    data = ["--dataset", str(workdir / "data.tsv"),
            "--feature-table", str(_table_without(tmp_path / "features.tsv", token))]
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join(f"{cs.id}\t{' '.join(cs.protoform)}\n" for cs in ds.sets),
                     encoding="utf-8")
    preset = str(workdir / "preset.json")
    argv = {
        "eval": ["--predictions", str(preds)],
        "analyze": ["--recon-checkpoint", str(workdir / "recon.ckpt"),
                    "--reflex-checkpoint", str(workdir / "reflex.ckpt")],
        "run": ["--preset", preset, "--reflex-preset", preset, "--seeds", "2"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *data, *argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"tokens missing from feature table: [{token!r}]" in captured.err
    assert captured.out == "" and not out.exists()
