"""Grid search and the seeded experiment runner."""

import dataclasses
import os

import pytest

from protorecon import models
from protorecon.corpus import (
    build_vocabulary,
    serialize_dataset,
    serialize_split_tags,
    split_dataset,
)
from protorecon.errors import ConfigError, SchemaError
from protorecon.experiment import (
    DEFAULT_K_RANGE,
    DEFAULT_LAMBDA_RANGE,
    ExperimentConfig,
    grid_search,
    run_experiment,
)
from protorecon.synthetic import generate_family
from tests.conftest import tiny_recon_config, tiny_reflex_config


def test_default_grid_ranges():
    assert DEFAULT_K_RANGE == (2, 4, 6, 8, 10)
    assert len(DEFAULT_LAMBDA_RANGE) == 14
    assert DEFAULT_LAMBDA_RANGE[0] == pytest.approx(0.3)
    assert DEFAULT_LAMBDA_RANGE[-1] == pytest.approx(4.2)
    steps = [b - a for a, b in zip(DEFAULT_LAMBDA_RANGE, DEFAULT_LAMBDA_RANGE[1:])]
    assert all(s == pytest.approx(0.3) for s in steps)


def test_grid_search_tie_break_and_coverage(tiny_split):
    vocab = build_vocabulary(tiny_split)
    recon = models.train(models.ReconModel(tiny_recon_config(), vocab), tiny_split)
    reflex = models.train(models.ReflexModel(tiny_reflex_config(), vocab), tiny_split)
    result = grid_search(
        recon, reflex, tiny_split.subset("val"),
        k_range=(2, 3), lambda_range=(0.5, 1.0),
    )
    assert set(result.grid) == {(2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0)}
    # an untrained tiny model gets uniform accuracy: ties resolve to the
    # smallest k, then the smallest lambda
    best_acc = result.grid[(result.k, result.lam)]
    ties = [(k, lam) for (k, lam), acc in result.grid.items() if acc == best_acc]
    assert (result.k, result.lam) == min(ties)


def test_experiment_config_hash_sensitivity(tmp_path):
    (tmp_path / "d.tsv").write_text("proto\tA\np\tp\n", encoding="utf-8")
    d = str(tmp_path / "d.tsv")
    a = ExperimentConfig(dataset_path=d, out_dir="o")
    b = ExperimentConfig(dataset_path=d, out_dir="o")
    assert a.config_hash() == b.config_hash()
    c = ExperimentConfig(dataset_path=d, out_dir="o", lam=2.0)
    assert a.config_hash() != c.config_hash()


def test_config_stamp_names_the_files_read_not_their_paths(tmp_path):
    """The same dataset, split and feature-table bytes in two directories, under other
    names, give one stamp."""
    ds, _ = generate_family(n_sets=6, n_daughters=2, seed=1)
    texts = {"data": serialize_dataset(ds),
             "split": serialize_split_tags(split_dataset(ds, seed=0).split_tags),
             "table": "token\ttone\tvoiced\np\t0\t-1\n"}
    configs = []
    for copy in ("one", "two"):
        (tmp_path / copy).mkdir()
        for name, text in texts.items():
            (tmp_path / copy / f"{name}_{copy}.tsv").write_text(text, encoding="utf-8")
        configs.append(ExperimentConfig(
            dataset_path=str(tmp_path / copy / f"data_{copy}.tsv"), out_dir=copy,
            split_path=str(tmp_path / copy / f"split_{copy}.tsv"),
            feature_table_path=str(tmp_path / copy / f"table_{copy}.tsv")))
    assert configs[0].config_hash() == configs[1].config_hash()


def test_config_stamp_changes_when_the_dataset_at_its_path_is_edited(tmp_path):
    """An edited dataset at the same path is another run; the bundled feature table is
    named, not read from a file."""
    ds, _ = generate_family(n_sets=6, n_daughters=2, seed=1)
    path = tmp_path / "data.tsv"
    path.write_text(serialize_dataset(ds), encoding="utf-8")
    config = ExperimentConfig(dataset_path=str(path), out_dir="o", feature_table_path="bundled")
    before = config.config_hash()
    path.write_text(serialize_dataset(dataclasses.replace(ds, sets=ds.sets[1:])),
                    encoding="utf-8")
    assert config.config_hash() != before


def test_experiment_config_rejects_duplicate_seeds():
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset_path="d", out_dir="o", seeds=(1, 1))


@pytest.mark.parametrize("bad", [dict(seeds=()), dict(beam_size=0), dict(lam=-1.0),
                                 dict(lam=float("nan"))])
def test_experiment_config_rejects_bad_settings(bad):
    """Settings that every seed's rerank would refuse are refused before any training."""
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset_path="d", out_dir="o", **bad)


@pytest.mark.parametrize("ranges", [dict(k_range=(0, 2)), dict(lambda_range=(-1.0, 0.3)),
                                    dict(lambda_range=(float("nan"),)), dict(k_range=())])
def test_grid_search_checks_every_setting_before_decoding(tiny_split, monkeypatch, ranges):
    vocab = build_vocabulary(tiny_split)
    recon = models.ReconModel(tiny_recon_config(), vocab)
    reflex = models.ReflexModel(tiny_reflex_config(), vocab)
    monkeypatch.setattr(models.ReconModel, "beam_search_sets", None)  # any decode fails
    with pytest.raises(ConfigError):
        grid_search(recon, reflex, tiny_split.subset("val"), **ranges)


@pytest.fixture(scope="module")
def small_family(tmp_path_factory):
    root = tmp_path_factory.mktemp("family")
    ds, _ = generate_family(n_sets=40, n_daughters=3, seed=5)
    path = root / "family.tsv"
    path.write_text(serialize_dataset(ds), encoding="utf-8")
    return path


def _small_config(dataset_path, out_dir, **overrides):
    base = dict(
        dataset_path=str(dataset_path),
        out_dir=str(out_dir),
        recon_config=tiny_recon_config(max_epochs=2),
        reflex_config=tiny_reflex_config(max_epochs=2),
        seeds=(0,),
        beam_size=3,
        lam=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_artifacts(small_family, tmp_path):
    out = tmp_path / "run"
    config = _small_config(small_family, out)
    results, failures = run_experiment(config)
    assert failures == {}
    assert set(results) == {0}
    for name in ("aggregate.tsv",):
        assert (out / name).exists()
    seed_dir = out / "seed0"
    for name in ("recon.ckpt", "reflex.ckpt", "predictions.tsv", "metrics.tsv",
                 "metrics_beam_only.tsv", "behavior.tsv", "error_rates.tsv"):
        assert (seed_dir / name).exists(), name
    stamp = (seed_dir / "predictions.tsv").read_text().splitlines()[0]
    assert stamp.startswith("# config=") and "seed=0" in stamp


def test_run_seed_writes_each_models_training_history(small_family, tmp_path, monkeypatch):
    """recon_history.tsv and reflex_history.tsv hold the TrainingHistory of the models
    run_seed trained, behind the seed stamp."""
    trained = []
    train = models.train
    monkeypatch.setattr(models, "train", lambda *a, **k: trained.append(train(*a, **k)) or
                        trained[-1])
    run_experiment(_small_config(small_family, tmp_path / "run"))
    seed_dir = tmp_path / "run" / "seed0"
    stamp = (seed_dir / "predictions.tsv").read_text().splitlines()[0] + "\n"
    assert [m.kind for m in trained] == ["recon", "reflex"]
    for model in trained:
        text = (seed_dir / f"{model.kind}_history.tsv").read_text()
        assert text == stamp + model.history.as_tsv()
        assert len(text.splitlines()) == 2 + len(model.history.epoch_losses)


def test_run_experiment_byte_identical_reruns(small_family, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(_small_config(small_family, out))
        outs.append(out)
    for rel in ("aggregate.tsv", "seed0/predictions.tsv", "seed0/metrics.tsv",
                "seed0/recon.ckpt", "seed0/reflex.ckpt", "seed0/behavior.tsv",
                "seed0/recon_history.tsv", "seed0/reflex_history.tsv"):
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"


def test_run_experiment_no_reranker_matches_beam(small_family, tmp_path):
    """The no-reranker ablation (lambda = 0) reports the beam top-1 as the reranked output."""
    out = tmp_path / "abl"
    config = _small_config(small_family, out, lam=0.0)
    results, _ = run_experiment(config)
    assert results[0]["ACC"] == results[0]["beam_ACC"]
    for line in (out / "seed0" / "predictions.tsv").read_text().splitlines()[2:]:
        cells = line.split("\t")
        assert cells[2] == cells[3]  # beam_top == reranked_top


def test_run_experiment_multiple_seeds_aggregate(small_family, tmp_path):
    out = tmp_path / "multi"
    config = _small_config(small_family, out, seeds=(0, 1))
    results, _ = run_experiment(config)
    assert set(results) == {0, 1}
    lines = (out / "aggregate.tsv").read_text().splitlines()
    assert lines[1].split("\t")[0] == "seed"
    assert lines[-2].split("\t")[0] == "mean"
    assert lines[-1].split("\t")[0] == "std"


def test_analyze_writes_the_tables_of_run_seed(small_family, tmp_path):
    """One rerank path: for the same model pair and test sets, analyze writes the tables
    run_seed does, and rerank picks the tops that run_seed's predictions.tsv names."""
    from importlib import resources

    from protorecon.cli import main
    from protorecon.corpus import parse_dataset

    table = str(resources.files("protorecon") / "data" / "feature_table.tsv")
    config = _small_config(small_family, tmp_path / "run", feature_table_path=table)
    _, failures = run_experiment(config)
    assert failures == {}
    dataset = split_dataset(parse_dataset(small_family.read_text()))  # run's default split
    test_sets = tmp_path / "test.tsv"
    test_sets.write_text(serialize_dataset(dataset.subset("test")), encoding="utf-8")
    seed_dir = tmp_path / "run" / "seed0"
    assert main(["analyze", "--dataset", str(test_sets),
                 "--recon-checkpoint", str(seed_dir / "recon.ckpt"),
                 "--reflex-checkpoint", str(seed_dir / "reflex.ckpt"),
                 "--beam-size", str(config.beam_size), "--lambda", str(config.lam),
                 "--feature-table", table, "--out", str(tmp_path / "an")]) == 0
    for name in ("behavior.tsv", "similarity.tsv", "error_rates.tsv"):
        stamp, *run_lines = (seed_dir / name).read_text().splitlines()
        assert stamp.startswith("# config=")
        assert (tmp_path / "an" / name).read_text().splitlines() == run_lines, name

    assert main(["rerank", "--dataset", str(test_sets),
                 "--recon-checkpoint", str(seed_dir / "recon.ckpt"),
                 "--reflex-checkpoint", str(seed_dir / "reflex.ckpt"),
                 "--beam-size", str(config.beam_size), "--lambda", str(config.lam),
                 "--out", str(tmp_path / "rr")]) == 0
    _, header, *rows = (seed_dir / "predictions.tsv").read_text().splitlines()
    predictions = [dict(zip(header.split("\t"), row.split("\t"))) for row in rows]
    _, *summary = (tmp_path / "rr" / "summary.tsv").read_text().splitlines()
    assert [line.split("\t") for line in summary] == [
        [p["id"], p["reranked_top"], p["s"]] for p in predictions]
    for p in predictions:
        header, *rows = (tmp_path / "rr" / f"{p['id']}.tsv").read_text().splitlines()
        table = [dict(zip(header.split("\t"), row.split("\t"))) for row in rows]
        [top] = [row for row in table if row["rerank_rank"] == "0"]
        assert (top["candidate"], top["r"]) == (p["reranked_top"], p["r"]), p["id"]


def test_a_test_split_without_gold_is_refused_before_any_seed_trains(small_family, tmp_path,
                                                                    monkeypatch, capsys):
    """A test split none of whose sets has a gold protoform leaves nothing to score: run
    refuses it as a data error (exit 3) before the first seed, so no model trains and no
    seed directory is written.  It used to train and save both models of every seed, then
    fail each seed in write_analysis_tables and exit 1."""
    from protorecon.cli import main
    from protorecon.corpus import parse_dataset

    dataset = split_dataset(parse_dataset(small_family.read_text()))  # run's default split
    no_gold = tmp_path / "no_gold.tsv"
    no_gold.write_text(serialize_dataset(dataclasses.replace(dataset, sets=tuple(
        dataclasses.replace(cs, protoform=None) if dataset.split_tags[cs.id] == "test" else cs
        for cs in dataset.sets))), encoding="utf-8")
    monkeypatch.setattr(models, "train", None)  # any training fails
    out = tmp_path / "run"
    with pytest.raises(SchemaError, match="test split has no cognate set with a gold"):
        run_experiment(_small_config(no_gold, out, seeds=(0, 1)))
    assert main(["run", "--dataset", str(no_gold), "--seeds", "2", "--out", str(out)]) == 3
    assert "test split" in capsys.readouterr().err
    assert not out.exists()


def test_failed_seed_is_named_in_failures_tsv(small_family, tmp_path, monkeypatch):
    """A seed that fails is left out of aggregate.tsv and named in failures.tsv next to it."""
    from protorecon import experiment
    from protorecon.errors import ProtoreconError, TrainingError

    run_seed = experiment.run_seed

    def failing_seed_1(config, dataset, seed, table, log=None):
        if seed == 1:
            raise TrainingError("non-finite loss\nat epoch 0")
        return run_seed(config, dataset, seed, table, log=log)

    monkeypatch.setattr(experiment, "run_seed", failing_seed_1)
    out = tmp_path / "run"
    results, failures = run_experiment(_small_config(small_family, out, seeds=(0, 1)))
    assert set(results) == {0} and set(failures) == {1}
    stamp, *rows = (out / "failures.tsv").read_text().splitlines()
    assert stamp.startswith("# config=") and "seeds=0,1" in stamp
    assert rows == ["seed\terror", "1\tnon-finite loss at epoch 0"]
    assert [line.split("\t")[0] for line in (out / "aggregate.tsv").read_text().splitlines()[2:]
            ] == ["0", "mean", "std"]

    monkeypatch.setattr(experiment, "run_seed", lambda *a, **k: failing_seed_1(a[0], a[1], 1, a[3]))
    with pytest.raises(ProtoreconError, match="all seeds failed"):
        run_experiment(_small_config(small_family, out, seeds=(0, 1)))
    assert (out / "failures.tsv").read_text().splitlines()[2:] == [
        "0\tnon-finite loss at epoch 0", "1\tnon-finite loss at epoch 0"]

    monkeypatch.setattr(experiment, "run_seed", run_seed)
    run_experiment(_small_config(small_family, out, seeds=(0, 1)))
    assert not (out / "failures.tsv").exists()  # no seed failed: no stale file is left
