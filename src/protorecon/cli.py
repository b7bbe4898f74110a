"""Command-line interface: dataset plumbing, training, decoding, evaluation.

Exit codes: 0 success, 2 configuration error, 3 data error (DATA_ERRORS), 1 any
other ProtoreconError, such as an empty train split.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

from . import models
from .corpus import (
    build_vocabulary,
    read_dataset,
    read_text,
    serialize_dataset,
    serialize_split_tags,
    split_lines,
    write_text,
)
from .errors import CheckpointError, ConfigError, ProtoreconError, SchemaError, VocabularyError
from .experiment import (
    DEFAULT_K_RANGE,
    DEFAULT_LAMBDA_RANGE,
    ExperimentConfig,
    grid_search,
    run_experiment,
)
from .metrics import evaluate, load_feature_table
from .rerank import ReflexCache, check_model_pair, format_rerank_tsv, rerank_sets
from .stats import compare, pearson_correlation, significant
from .analysis import write_analysis_tables

DATA_ERRORS = (SchemaError, VocabularyError, CheckpointError, OSError)


def _emit(text, out=None):
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def load_preset(name: str) -> dict:
    """Load a bundled hyperparameter preset by name, or a JSON file by path.

    The preset must be a JSON object; anything else is a ConfigError.
    """
    try:
        if os.path.exists(name):
            text = read_text(name)
        else:
            text = (resources.files("protorecon") / "presets" / f"{name}.json").read_text("utf-8")
        preset = json.loads(text)
    except FileNotFoundError:
        available = sorted(
            p.name[:-5]
            for p in (resources.files("protorecon") / "presets").iterdir()
            if p.name.endswith(".json")
        )
        raise ConfigError(f"unknown preset {name!r}; available: {available}") from None
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ConfigError(f"preset {name!r} is not valid JSON: {exc}") from None
    if not isinstance(preset, dict):
        raise ConfigError(f"preset {name!r} must be a JSON object, not {type(preset).__name__}")
    return preset


def _model_config(preset_name, kind: str, seed=None):
    """A kind's model config from an optional preset; see models.config_from_dict."""
    values = load_preset(preset_name) if preset_name else {}
    if seed is not None:
        values["seed"] = seed
    return models.config_from_dict(models.MODELS[kind].config_class, values)


def _load_model(path, expect):
    model = models.load_checkpoint(path)
    if not isinstance(model, expect):
        raise ConfigError(f"checkpoint {path} holds a {type(model).__name__}, "
                          f"expected {expect.__name__}")
    return model


def _load_model_pair(args):
    """The recon and reflex checkpoints of args, which must share one vocabulary."""
    recon = _load_model(args.recon_checkpoint, models.ReconModel)
    reflex = _load_model(args.reflex_checkpoint, models.ReflexModel)
    check_model_pair(recon, reflex,
                     f"checkpoints {args.recon_checkpoint} and {args.reflex_checkpoint}")
    return recon, reflex


def _read_model_dataset(args, vocab, *split):
    """The dataset of args, or its val split given split, refused before any decoding if
    vocab lacks one of its languages or a token that the command encodes: the reflexes of
    the sets it decodes, which for analyze and gridsearch are the sets with a gold
    protoform, and those protoforms, which they score."""
    ds = read_dataset(args.dataset, args.tokenize, *split)
    ds = ds.subset("val") if split else ds
    vocab.check_languages(ds.languages)
    scored = args.command in ("analyze", "gridsearch")
    decoded = [cs for cs in ds.sets if cs.protoform is not None or not scored]
    vocab.check_tokens(tok for cs in decoded for seq in cs.reflexes.values() for tok in seq)
    if scored:
        vocab.check_tokens(tok for cs in decoded for tok in cs.protoform)
    return ds


RERANK_SUMMARY_HEADER = ["id", "reranked_top", "s"]


def _parse_predictions(text):
    """id -> token tuple from a two-column TSV (comment lines ignored).

    The summary.tsv that rerank writes is accepted too: its header
    RERANK_SUMMARY_HEADER on the first row, then the tokens in column 2 of 3.
    An id given twice is a SchemaError.
    """
    lines = [ln for ln in split_lines(text) if ln.strip() and not ln.startswith("#")]
    width = 2
    if lines and lines[0].split("\t") == RERANK_SUMMARY_HEADER:
        lines, width = lines[1:], 3
    preds = {}
    for line in lines:
        parts = line.split("\t")
        if len(parts) != width:
            raise SchemaError(f"prediction rows need {width} tab-separated columns: {line!r}")
        if parts[0] in preds:
            raise SchemaError(f"duplicate prediction id {parts[0]!r}")
        preds[parts[0]] = tuple(parts[1].split())
    return preds


def _float_range(text):
    return tuple(float(v) for v in text.split(","))


def _int_range(text):
    return tuple(int(v) for v in text.split(","))


# --- subcommand handlers ---


def cmd_ingest(args):
    ds = read_dataset(args.dataset, args.tokenize)
    _emit(serialize_dataset(ds), args.out)
    print(f"{len(ds.sets)} cognate sets, {len(ds.languages)} languages", file=sys.stderr)


def cmd_split(args):
    ds = read_dataset(args.dataset, args.tokenize, split_seed=args.split_seed,
                      ratios=tuple(args.ratios))
    _emit(serialize_split_tags(ds.split_tags), args.out)


def cmd_train(args):
    ds = read_dataset(args.dataset, args.tokenize, args.split, args.split_seed)
    config = _model_config(args.preset, args.kind, args.seed)
    model = models.new_model(args.kind, config, build_vocabulary(ds))
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    model = models.train(model, ds, log=log)
    model.save(args.out)
    print(f"saved {args.kind} checkpoint to {args.out}", file=sys.stderr)


def cmd_decode(args):
    model = _load_model(args.checkpoint, models.ReconModel)
    ds = _read_model_dataset(args, model.vocab)
    lines = ["id\trank\tcandidate\tm"]
    for batch, beams in model.beam_search_sets(ds.sets, args.beam_size):
        for cset, beam in zip(batch, beams):
            lines += [f"{cset.id}\t{rank}\t{' '.join(model.vocab.decode(cand.tokens))}\t"
                      f"{cand.m:.6f}" for rank, cand in enumerate(beam)]
    _emit("\n".join(lines) + "\n", args.out)


def cmd_rerank(args):
    recon, reflex = _load_model_pair(args)
    ds = _read_model_dataset(args, recon.vocab)
    bad = [cs.id for cs in ds.sets if cs.id in ("", ".", "..", "summary")
           or any(c in cs.id for c in "/\\\0")]  # each names its TSV next to summary.tsv
    if args.out and bad:
        raise SchemaError(f"set ids that cannot name a file under --out: {bad[:5]}")
    summary = ["\t".join(RERANK_SUMMARY_HEADER)]
    for cset, _, reranked, preds in rerank_sets(recon, reflex, ds.sets, args.beam_size, args.lam):
        top = reranked[0]
        if args.out:
            write_text(os.path.join(args.out, f"{cset.id}.tsv"),
                       format_rerank_tsv(cset, reranked, dict(enumerate(preds)), recon.vocab))
        summary.append(f"{cset.id}\t{' '.join(recon.vocab.decode(top.tokens))}\t{top.s:.6f}")
    _emit("\n".join(summary) + "\n", args.out and os.path.join(args.out, "summary.tsv"))


def cmd_eval(args):
    ds = read_dataset(args.dataset, args.tokenize)
    preds = _parse_predictions(read_text(args.predictions))
    table = load_feature_table(args.feature_table)
    unknown = sorted(set(preds) - {cset.id for cset in ds.sets})
    if unknown:
        raise SchemaError(f"predictions for ids that name no cognate set: {unknown[:5]}")
    predicted, golds = [], []
    for cset in ds.sets:
        if cset.protoform is None:
            continue
        if cset.id not in preds:
            raise SchemaError(f"no prediction for cognate set {cset.id!r}")
        predicted.append(preds[cset.id])
        golds.append(tuple(cset.protoform))
    if table is not None:
        table.check_tokens(t for seq in predicted + golds for t in seq)
    report = evaluate(predicted, golds, table)
    _emit(report.as_tsv_row(), args.out)


def cmd_gridsearch(args):
    recon, reflex = _load_model_pair(args)
    val = _read_model_dataset(args, recon.vocab, args.split, args.split_seed)
    result = grid_search(recon, reflex, val,
                         k_range=args.k_range, lambda_range=args.lambda_range)
    lines = ["k\tlambda\taccuracy"]
    for (k, lam), acc in sorted(result.grid.items()):
        lines.append(f"{k}\t{lam:g}\t{acc:.4f}")
    lines.append(f"# best\t{result.k}\t{result.lam:g}")
    _emit("\n".join(lines) + "\n", args.out)
    print(f"best k={result.k} lambda={result.lam:g}", file=sys.stderr)


def _read_column(path):
    """The last tab-separated cell of each non-comment line of path, as finite numbers."""
    values = []
    for lineno, line in enumerate(split_lines(read_text(path)), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                value = float(line.split("\t")[-1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise SchemaError(f"{path} line {lineno}: not a finite number: {line!r}")
            values.append(value)
    return values


def cmd_compare(args):
    x, y = _read_column(args.a), _read_column(args.b)
    result = compare(x, y, alternative=args.alternative, n_resamples=args.resamples,
                     level=args.level, seed=args.seed)
    verdict = significant(result, alpha=args.alpha_level)
    _emit(
        "p_value\tci_low\tci_high\tsignificant\n"
        f"{result.p_value:.6g}\t{result.ci_low:.6g}\t{result.ci_high:.6g}\t{verdict}\n",
        args.out,
    )


def cmd_correlate(args):
    x, y = _read_column(args.a), _read_column(args.b)
    r = pearson_correlation(x, y)
    _emit(f"pearson_r\n{r:.6f}\n", args.out)


def cmd_analyze(args):
    recon, reflex = _load_model_pair(args)
    ds = _read_model_dataset(args, recon.vocab)
    table = load_feature_table(args.feature_table)
    if table is not None:
        table.check_tokens(ds.tokens() | set(recon.vocab.phonemes()))
    csets = [cset for cset in ds.sets if cset.protoform is not None]
    cache = ReflexCache()
    results = rerank_sets(recon, reflex, csets, args.beam_size, args.lam, cache)
    write_analysis_tables(args.out, reflex, results, ds.languages, table, cache=cache)
    print(f"analysis written to {args.out}", file=sys.stderr)


def cmd_run(args):
    seeds = tuple(range(args.seeds)) if args.seed is None else (args.seed,)
    config = ExperimentConfig(
        dataset_path=args.dataset,
        out_dir=args.out,
        recon_config=_model_config(args.preset, "recon"),
        reflex_config=_model_config(args.reflex_preset, "reflex"),
        seeds=seeds,
        beam_size=args.beam_size,
        lam=args.lam,
        split_path=args.split,
        tokenize=args.tokenize,
        feature_table_path=args.feature_table,
    )
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    results, failures = run_experiment(config, log=log)
    for seed in sorted(results):
        acc = results[seed]["ACC"]
        print(f"seed {seed}: ACC={acc:.4f}", file=sys.stderr)
    for seed, msg in failures.items():
        print(f"seed {seed} FAILED: {msg}", file=sys.stderr)


# --- parser wiring ---


def _add_common(p, out_required=False):
    p.add_argument("--dataset", required=True, help="cognate-set TSV")
    p.add_argument("--tokenize", choices=("whitespace", "codepoint"),
                   default="whitespace", help="token segmentation of cells")
    p.add_argument("--out", required=out_required, **SETTING_FLAGS["--out"])


# the flags that several subcommands share, each defined once;
# ReconModel.beam_config and check_lambda check the beam and rerank settings
SETTING_FLAGS = {
    "--beam-size": dict(type=int, default=10, help="beam size k, >= 1"),
    "--lambda": dict(dest="lam", type=float, default=1.0,
                     help="weight of r in s = m + lambda * r, finite and >= 0"),
    "--recon-checkpoint": dict(required=True, help="reconstruction-model checkpoint"),
    "--reflex-checkpoint": dict(required=True, help="reflex-model checkpoint"),
    "--feature-table": dict(default=None, help="feature TSV path, or 'bundled' (enables FER)"),
    "--split": dict(default=None, help="split-tag TSV (default: seeded 70/10/20)"),
    "--split-seed": dict(type=int, default=0, help="seed of the seeded split"),
    "--preset": dict(default=None, help="bundled preset name or JSON path (run: recon model's)"),
    "--verbose": dict(action="store_true", help="log training progress to stderr"),
    "--a": dict(required=True, help="scores of system A (one value per line)"),
    "--b": dict(required=True, help="scores of system B (one value per line)"),
    "--out": dict(default=None, help="output path"),
}


def _add_settings(p, *flags):
    for flag in flags:
        p.add_argument(flag, **SETTING_FLAGS[flag])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="protorecon",
        description="Protoform reconstruction with reflex-prediction reranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, validate, and canonicalize a dataset")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="assign train/val/test tags")
    _add_common(p)
    p.add_argument("--ratios", type=float, nargs=3, default=(0.7, 0.1, 0.2),
                   metavar=("TRAIN", "VAL", "TEST"))
    _add_settings(p, "--split-seed")
    p.set_defaults(func=cmd_split)

    for kind, help_text in (("recon", "train the reconstruction model"),
                            ("reflex", "train the reflex-prediction model")):
        p = sub.add_parser(f"train-{kind}", help=help_text)
        _add_common(p, out_required=True)
        _add_settings(p, "--split", "--split-seed", "--preset")
        p.add_argument("--seed", type=int, default=None, help="override the preset seed")
        _add_settings(p, "--verbose")
        p.set_defaults(func=cmd_train, kind=kind)

    p = sub.add_parser("decode", help="beam-search protoform candidates")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    _add_settings(p, "--beam-size")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("rerank", help="beam search plus reflex-prediction reranking")
    _add_common(p)
    _add_settings(p, "--recon-checkpoint", "--reflex-checkpoint",
                  "--beam-size", "--lambda")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="score predictions against gold protoforms")
    _add_common(p)
    p.add_argument("--predictions", required=True, help="TSV of id, predicted tokens")
    _add_settings(p, "--feature-table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gridsearch", help="search beam size and lambda on the val split")
    _add_common(p)
    _add_settings(p, "--recon-checkpoint", "--reflex-checkpoint", "--split", "--split-seed")
    p.add_argument("--k-range", type=_int_range, default=DEFAULT_K_RANGE,
                   help="comma-separated beam sizes")
    p.add_argument("--lambda-range", type=_float_range, default=DEFAULT_LAMBDA_RANGE,
                   help="comma-separated lambda values")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("compare", help="rank-sum test plus bootstrap CI on two score files")
    _add_settings(p, "--a", "--b")
    p.add_argument("--alternative", choices=("greater", "less", "two-sided"),
                   default="greater")
    p.add_argument("--alpha-level", type=float, default=0.01)
    p.add_argument("--level", type=float, default=0.99, help="CI level")
    p.add_argument("--resamples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    _add_settings(p, "--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("correlate", help="Pearson correlation between two score files")
    _add_settings(p, "--a", "--b", "--out")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("analyze", help="categorize reranking behavior and error patterns")
    _add_common(p, out_required=True)
    _add_settings(p, "--recon-checkpoint", "--reflex-checkpoint",
                  "--beam-size", "--lambda", "--feature-table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="train, decode, rerank, evaluate across seeds")
    _add_common(p, out_required=True)
    _add_settings(p, "--preset")
    p.add_argument("--reflex-preset", default=None, help="reflex-model preset")
    _add_settings(p, "--split")
    p.add_argument("--seed", type=int, default=None, help="run one specific seed")
    p.add_argument("--seeds", type=int, default=1, help="run seeds 0..N-1")
    _add_settings(p, "--beam-size", "--lambda", "--feature-table", "--verbose")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ProtoreconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
