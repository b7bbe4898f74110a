"""Experiment orchestration: grid search for (k, lambda) and seeded pipelines."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import decode as dec
from . import models
from .corpus import Dataset, build_vocabulary, read_dataset, read_text, write_text
from .errors import ConfigError, ProtoreconError, SchemaError
from .metrics import FeatureTable, evaluate, load_feature_table
from .rerank import ReflexCache, check_lambda, rerank, rerank_sets, scored_beams
from .analysis import write_analysis_tables

DEFAULT_K_RANGE = (2, 4, 6, 8, 10)
DEFAULT_LAMBDA_RANGE = tuple(round(0.3 * i, 10) for i in range(1, 15))  # 0.3 .. 4.2


@dataclass(frozen=True)
class GridResult:
    k: int
    lam: float
    grid: dict  # (k, lam) -> validation accuracy


def grid_search(
    recon_model,
    reflex_model,
    val_dataset: Dataset,
    k_range=DEFAULT_K_RANGE,
    lambda_range=DEFAULT_LAMBDA_RANGE,
):
    """Reranked validation accuracy over the (k, lambda) grid.

    Beam search runs once per cognate set at max(k_range); smaller k reuse
    the truncated candidate list.  Ties prefer smaller k, then smaller
    lambda.  Every k and lambda is checked before any decoding.
    """
    if not (k_range and lambda_range):
        raise ConfigError("the k and lambda ranges must not be empty")
    for k in k_range:
        recon_model.beam_config(k)
    for lam in lambda_range:
        check_lambda(lam)
    csets = [cs for cs in val_dataset.sets if cs.protoform is not None]
    if not csets:
        raise ProtoreconError("empty validation split")
    correct = dict.fromkeys(((k, lam) for k in sorted(k_range) for lam in sorted(lambda_range)), 0)
    for cset, beam, r_values, _ in scored_beams(recon_model, reflex_model, csets, max(k_range)):
        gold = tuple(recon_model.vocab.encode(cset.protoform))
        for k, lam in correct:
            correct[(k, lam)] += rerank(beam[:k], r_values[:k], lam)[0].tokens == gold

    grid = {key: n_correct / len(csets) for key, n_correct in correct.items()}
    k, lam = max(grid, key=grid.get)  # the first best, in (k, lambda) order
    return GridResult(k=k, lam=lam, grid=grid)


@dataclass
class ExperimentConfig:
    dataset_path: str
    out_dir: str
    recon_config: models.ReconModelConfig = field(default_factory=models.ReconModelConfig)
    reflex_config: models.ReflexModelConfig = field(default_factory=models.ReflexModelConfig)
    seeds: tuple[int, ...] = (0,)
    beam_size: int = 10
    lam: float = 1.0
    split_path: str | None = None  # default: split_dataset's 70/10/20 split at seed 0
    tokenize: str = "whitespace"
    feature_table_path: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("no seeds to run")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, not {min(self.seeds)}")
        dec.BeamConfig(k=self.beam_size)  # checked before any training
        check_lambda(self.lam)

    def config_hash(self) -> str:
        fields = dataclasses.asdict(self)
        fields.pop("out_dir")  # where results land does not identify the run
        # the text of each file the run read, not its path (the packaged table: its name)
        for name in ("dataset_path", "split_path", "feature_table_path"):
            path = fields[name]
            if path is not None and (name, path) != ("feature_table_path", "bundled"):
                fields[name] = hashlib.sha256(read_text(path).encode("utf-8")).hexdigest()
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_seed(config: ExperimentConfig, dataset: Dataset, seed: int, table: FeatureTable | None,
             log=None):
    """Train, decode, rerank, and evaluate one seed; writes per-seed artifacts.

    Returns a dict of metric name -> value for aggregation.
    """
    vocab = build_vocabulary(dataset)
    stamp = f"# config={config.config_hash()} seed={seed}\n"
    seed_dir = os.path.join(config.out_dir, f"seed{seed}")
    os.makedirs(seed_dir, exist_ok=True)

    recon_cfg = dataclasses.replace(config.recon_config, seed=seed)
    reflex_cfg = dataclasses.replace(config.reflex_config, seed=seed)
    recon = models.train(models.ReconModel(recon_cfg, vocab), dataset, log=log)
    reflex = models.train(models.ReflexModel(reflex_cfg, vocab), dataset, log=log)
    for model in (recon, reflex):
        model.save(os.path.join(seed_dir, f"{model.kind}.ckpt"))
        write_text(os.path.join(seed_dir, f"{model.kind}_history.tsv"),
                   stamp + model.history.as_tsv())

    test = dataset.subset("test")
    csets = [cs for cs in test.sets if cs.protoform is not None]
    cache = ReflexCache()
    results = list(rerank_sets(recon, reflex, csets, config.beam_size, config.lam, cache))
    behaviors = write_analysis_tables(seed_dir, reflex, results, dataset.languages, table,
                                      stamp, cache)
    gold_strs = [tuple(cs.protoform) for cs in csets]
    report = evaluate([vocab.decode(reranked[0].tokens) for _, _, reranked, _ in results],
                      gold_strs, table)
    beam_report = evaluate([vocab.decode(beam[0].tokens) for _, beam, _, _ in results],
                           gold_strs, table)

    rows = ["id\tgold\tbeam_top\treranked_top\tm\tr\ts\tbehavior"]
    for (cset, beam, reranked, _), behavior in zip(results, behaviors):
        top = reranked[0]
        rows.append("\t".join([
            cset.id, " ".join(cset.protoform), " ".join(vocab.decode(beam[0].tokens)),
            " ".join(vocab.decode(top.tokens)), f"{top.m:.6f}", f"{top.r:.4f}", f"{top.s:.6f}",
            behavior.value,
        ]))
    write_text(os.path.join(seed_dir, "predictions.tsv"), stamp + "\n".join(rows) + "\n")
    write_text(os.path.join(seed_dir, "metrics.tsv"), stamp + report.as_tsv_row())
    write_text(os.path.join(seed_dir, "metrics_beam_only.tsv"), stamp + beam_report.as_tsv_row())

    return dict(ACC=report.acc, TED=report.ted, TER=report.ter, FER=report.fer, BCFS=report.bcfs,
                beam_ACC=beam_report.acc)


def run_experiment(config: ExperimentConfig, log=None):
    """Full pipeline over every seed plus a mean +- std aggregate report.

    A seed that fails with a ProtoreconError leaves the other seeds running,
    and failures.tsv (seed, error) next to aggregate.tsv names it.
    """
    dataset = read_dataset(config.dataset_path, config.tokenize, config.split_path, split_seed=0)
    table = load_feature_table(config.feature_table_path)
    if table is not None:  # refused before any seed trains, as is a test split with no gold
        table.check_tokens(dataset.tokens())
    if all(cs.protoform is None for cs in dataset.subset("test").sets):
        raise SchemaError("the test split has no cognate set with a gold protoform to score")
    stamp = f"# config={config.config_hash()} seeds={','.join(map(str, config.seeds))}\n"

    results = {}
    failures = {}
    for seed in config.seeds:
        try:
            results[seed] = run_seed(config, dataset, seed, table, log=log)
        except ProtoreconError as exc:  # other seeds proceed
            failures[seed] = str(exc)
            if log:
                log(f"seed {seed} failed: {exc}")
    failures_path = os.path.join(config.out_dir, "failures.tsv")
    if failures:
        rows = "".join(f"{seed}\t{' '.join(msg.split())}\n" for seed, msg in failures.items())
        write_text(failures_path, stamp + "seed\terror\n" + rows)
    elif os.path.exists(failures_path):  # left by an earlier run into the same directory
        os.remove(failures_path)
    if not results:
        raise ProtoreconError(f"all seeds failed: {failures}")

    metric_names = ["ACC", "TED", "TER", "FER", "BCFS", "beam_ACC"]
    lines = ["seed\t" + "\t".join(metric_names)]
    for seed in sorted(results):
        row = results[seed]
        lines.append(
            str(seed)
            + "\t"
            + "\t".join("-" if row[m] is None else f"{row[m]:.4f}" for m in metric_names)
        )
    for stat_name, fn in (("mean", np.mean), ("std", np.std)):
        cells = []
        for m in metric_names:
            vals = [results[s][m] for s in results if results[s][m] is not None]
            cells.append(f"{fn(vals):.4f}" if vals else "-")
        lines.append(stat_name + "\t" + "\t".join(cells))
    write_text(os.path.join(config.out_dir, "aggregate.tsv"), stamp + "\n".join(lines) + "\n")
    return results, failures
