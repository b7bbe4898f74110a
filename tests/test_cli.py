"""The command-line interface: subcommands, plumbing, and exit codes."""

import dataclasses
import json
import struct

import pytest

from protorecon.cli import main
from protorecon.corpus import parse_dataset, serialize_dataset
from protorecon.synthetic import generate_family

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
    assert main(["split", "--dataset", str(root / "data.tsv"), "--seed", "0",
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
    from protorecon.decode import BeamConfig
    from protorecon.rerank import ReflexCache, scored_beams

    recon = models.load_checkpoint(workdir / "recon.ckpt")
    reflex = models.load_checkpoint(workdir / "reflex.ckpt")
    sets = parse_dataset((workdir / "data.tsv").read_text()).sets
    assert len(list(scored_beams(recon, reflex, sets, BeamConfig(k=3), ReflexCache()))) == 30
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
    from protorecon.cli import load_preset

    for name in ("recon_gru_bs_wikihan", "reflex_gru_wikihan"):
        preset = load_preset(name)
        assert "hidden_size" in preset and "lr" in preset


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
    ["run", "--alpha", "nan"],
    ["gridsearch", "--k-range", "0,2"],
    ["gridsearch", "--lambda-range=-1,0.3"],
    ["rerank", "--lambda", "nan"],
    ["rerank", "--lambda", "inf"],
    ["rerank", "--alpha", "nan"],
    ["analyze", "--lambda", "-1"],
    ["decode", "--max-len", "0"],
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
