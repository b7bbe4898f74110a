"""Acceptance suite: one test per shipped guarantee, each printing PASS/FAIL.

Run with -s (or read the captured output) to see the per-criterion lines.
The synthetic end-to-end criterion trains real models and dominates the
suite's runtime; everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from protorecon import autodiff as ad
from protorecon import decode as dec
from protorecon import models
from protorecon.corpus import (
    assemble_reconstruction_input,
    assemble_reflex_input,
    build_vocabulary,
    parse_dataset,
    split_dataset,
)
from protorecon.decode import BeamConfig, Candidate, beam_search, greedy_decode
from protorecon.metrics import (
    FeatureTable,
    bcubed_f,
    feature_edit_distance,
    token_edit_distance,
)
from protorecon.rerank import ReflexCache, reflex_accuracy, rerank
from protorecon.stats import bootstrap_ci, pearson_correlation, wilcoxon_rank_sum
from protorecon.synthetic import generate_family
from tests.conftest import (
    TINY_TSV,
    ToyStepper,
    enumerate_candidates,
    tiny_recon_config,
    tiny_reflex_config,
)
from tests.test_metrics import (
    ALPHABET,
    FEATURE_TSV,
    _bcfs_oracle,
    _fed_bruteforce,
    _random_pair,
    _ted_recursive,
)


def _report(criterion: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {description}")
    assert ok, f"criterion {criterion}: {description}"


# -- 1: reranking arithmetic on the five-candidate worked example -------------


def test_criterion_1_rerank_arithmetic():
    m = [-0.1114, -0.2711, -0.5030, -1.5533, -1.6329]
    r = [0.25, 0.25, 0.875, 0.25, 0.125]
    want_s = [0.2036, 0.0439, 0.5995, -1.2383, -1.4754]
    cands = [Candidate(tokens=(i,), m=mi, raw_logp=mi, length=2) for i, mi in enumerate(m)]
    reranked = rerank(cands, r, 1.26)
    by_beam = sorted(reranked, key=lambda c: c.beam_rank)
    s_ok = all(abs(rc.s - w) <= 5e-4 for rc, w in zip(by_beam, want_s))
    top_ok = reranked[0].beam_rank == 2 and reranked[0].rerank_rank == 0
    _report(1, "five-candidate rerank scores within 5e-4 and beam rank 2 promoted to top",
            s_ok and top_ok)


# -- 2: beam search equals exhaustive enumeration and greedy ------------------


def test_criterion_2_beam_oracles():
    rng = np.random.default_rng(20)
    exhaustive_ok = True
    for trial in range(100):
        vocab = int(rng.integers(3, 6))
        max_len = int(rng.integers(1, 5))
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        stepper = ToyStepper(vocab_size=vocab, seed=5000 + trial)
        got = beam_search(stepper, BeamConfig(k=vocab**max_len + max_len + 1,
                                              alpha=alpha, max_len=max_len))
        want = enumerate_candidates(stepper, alpha, max_len)
        if len(got) != len(want) or any(
            g.tokens != tokens or abs(g.m - m) > 1e-9
            for g, (tokens, m, _raw) in zip(got, want)
        ):
            exhaustive_ok = False
            break
    greedy_ok = all(
        beam_search(ToyStepper(5, 6000 + t), BeamConfig(k=1, alpha=1.0, max_len=4))[0].tokens
        == tuple(greedy_decode(ToyStepper(5, 6000 + t), 4))
        for t in range(50)
    )
    _report(2, "beam = exhaustive enumeration on 100 models; k=1 = greedy on 50",
            exhaustive_ok and greedy_ok)


# -- 3: model losses match central finite differences -------------------------


def test_criterion_3_gradient_checks():
    ds = parse_dataset(TINY_TSV)
    vocab = build_vocabulary(ds)
    inputs, targets = [], []
    for cs in ds.sets[:3]:
        inputs.append(assemble_reconstruction_input(cs, vocab))
        targets.append(vocab.encode(cs.protoform))
    recon = models.ReconModel(tiny_recon_config(), vocab)
    recon_err = ad.gradient_check(
        lambda: recon.batch_loss(inputs, targets)[0], recon.parameters(),
        eps=1e-4, samples_per_param=3,
    )
    batch = []
    for cs in ds.sets[:3]:
        for lang, reflex in cs.reflexes.items():
            batch.append((assemble_reflex_input(cs.protoform, lang, vocab),
                          vocab.encode(reflex), lang))
    rmodel = models.ReflexModel(tiny_reflex_config(target_gated_classifier=True), vocab)
    reflex_err = ad.gradient_check(
        lambda: rmodel.batch_loss(batch), rmodel.parameters(),
        eps=1e-4, samples_per_param=3,
    )
    _report(3, f"gradient checks on 3-set batches (recon {recon_err:.2e}, "
               f"reflex {reflex_err:.2e}) < 1e-4",
            recon_err < 1e-4 and reflex_err < 1e-4)


# -- 4: metric implementations equal their oracles ----------------------------


def test_criterion_4_metric_oracles():
    table = FeatureTable.from_tsv(FEATURE_TSV)
    rng = np.random.default_rng(40)
    ted_ok = all(
        token_edit_distance(*pair) == _ted_recursive(*pair)
        for pair in (_random_pair(rng, 6) for _ in range(500))
    )
    fed_ok = all(
        abs(feature_edit_distance(a, b, table) - _fed_bruteforce(a, b, table)) <= 1e-12
        for a, b in (_random_pair(rng, 5) for _ in range(200))
    )
    bcfs_ok = all(
        abs(bcubed_f(a, b) - _bcfs_oracle(a, b)) <= 1e-12
        for a, b in (_random_pair(rng, 5) for _ in range(200))
    )
    props_ok = True
    for _ in range(1000):
        a, b = _random_pair(rng, 4)
        c, _ = _random_pair(rng, 4)
        d = token_edit_distance(a, b)
        if not (
            d == token_edit_distance(b, a)
            and (d == 0) == (list(a) == list(b))
            and d <= token_edit_distance(a, c) + token_edit_distance(c, b)
            and abs(len(a) - len(b)) <= d <= max(len(a), len(b))
            and 0.0 <= bcubed_f(a, b) <= 1.0
        ):
            props_ok = False
            break
    _report(4, "TED/FER/BCFS equal brute-force oracles; metric properties hold",
            ted_ok and fed_ok and bcfs_ok and props_ok)


# -- 5: statistics closed forms -----------------------------------------------


def test_criterion_5_statistics():
    p = wilcoxon_rank_sum([4, 5, 6], [1, 2, 3], "greater")
    lo, hi = bootstrap_ci([2.0] * 5, [1.0] * 5, n_resamples=1000, seed=0)
    x = [1.0, 2.0, 3.0, 4.0]
    r = pearson_correlation(x, [2 * v + 1 for v in x])
    _report(5, f"exact one-sided p = {p} (want 0.05); degenerate CI [{lo}, {hi}]; "
               f"pearson(x, 2x+1) = {r}",
            abs(p - 0.05) < 1e-12 and lo == hi == 1.0 and abs(r - 1.0) < 1e-12)


# -- 6: synthetic family end to end -------------------------------------------


SYNTH_EPOCHS_REFLEX = 36
SYNTH_EPOCHS_RECON = 30


def _synth_config(cls, max_epochs, **extra):
    return cls(
        embedding_size=32, hidden_size=64, feedforward_size=64, dropout=0.0,
        batch_size=16, lr=0.005, max_epochs=max_epochs, warmup_epochs=1, seed=0,
        validate_every=4, patience=4, **extra,
    )


@pytest.mark.slow
def test_criterion_6_synthetic_end_to_end():
    start = time.time()
    dataset, _rules = generate_family(n_sets=2000, n_daughters=4, seed=0)
    dataset = split_dataset(dataset, (0.7, 0.1, 0.2), seed=0)
    vocab = build_vocabulary(dataset)

    reflex = models.train(
        models.ReflexModel(_synth_config(models.ReflexModelConfig, SYNTH_EPOCHS_REFLEX), vocab),
        dataset,
    )
    test = dataset.subset("test")
    correct = total = 0
    for cs in test.sets:
        for lang, gold in cs.reflexes.items():
            tagged = assemble_reflex_input(cs.protoform, lang, vocab)
            pred = greedy_decode(reflex.decoder(tagged, lang), reflex.max_decode_len)
            correct += tuple(pred) == tuple(vocab.encode(gold))
            total += 1
    reflex_acc = correct / total
    _report(6, f"(a) reflex test accuracy {reflex_acc:.4f} >= 0.95", reflex_acc >= 0.95)

    recon = models.train(
        models.ReconModel(_synth_config(models.ReconModelConfig, SYNTH_EPOCHS_RECON), vocab),
        dataset,
    )
    cfg = BeamConfig(k=5, alpha=1.0, max_len=recon.max_decode_len)
    cache = ReflexCache()
    beam_hits = rerank_hits = 0
    beam_lines, ablation_lines = [], []
    for cs in test.sets:
        ids = assemble_reconstruction_input(cs, vocab)
        beam = beam_search(recon.decoder(ids), cfg)
        rv = [reflex_accuracy(reflex, c.tokens, cs, cache=cache)[0] for c in beam]
        reranked = rerank(beam, rv, 1.0)
        gold = tuple(vocab.encode(cs.protoform))
        beam_hits += beam[0].tokens == gold
        rerank_hits += reranked[0].tokens == gold
        # lambda = 0 ablation must reproduce the plain beam output bitwise
        ablated = rerank(beam, rv, 0.0)
        beam_lines.append(
            "\n".join(f"{i}\t{c.tokens}\t{c.m:.12f}" for i, c in enumerate(beam))
        )
        ablation_lines.append(
            "\n".join(f"{rc.rerank_rank}\t{rc.tokens}\t{rc.m:.12f}"
                      for rc in ablated)
        )
    n = len(test.sets)
    beam_acc, rerank_acc = beam_hits / n, rerank_hits / n
    _report(6, f"(b) reranked ACC {rerank_acc:.4f} >= beam top-1 ACC {beam_acc:.4f}",
            rerank_acc >= beam_acc)
    identical = "\n".join(beam_lines).encode() == "\n".join(ablation_lines).encode()
    _report(6, "(c) lambda = 0 ablation bitwise identical to plain beam output", identical)
    elapsed = time.time() - start
    _report(6, f"synthetic end-to-end completed in {elapsed / 60:.1f} min (budget 30)",
            elapsed <= 30 * 60)


# -- 7: full-corpus results are reports, not asserted numbers -----------------


def test_criterion_7_report_shapes(tmp_path):
    """Full-scale corpus results need licensed data and a large training
    budget, so no external numbers are asserted; the pipeline must still
    emit the standard report shapes when given any dataset.
    """
    from protorecon.corpus import serialize_dataset
    from protorecon.experiment import ExperimentConfig, run_experiment

    ds, _ = generate_family(n_sets=30, n_daughters=3, seed=7)
    path = tmp_path / "d.tsv"
    path.write_text(serialize_dataset(ds), encoding="utf-8")
    out = tmp_path / "out"
    config = ExperimentConfig(
        dataset_path=str(path),
        out_dir=str(out),
        recon_config=tiny_recon_config(),
        reflex_config=tiny_reflex_config(),
        seeds=(0,),
        beam_size=3,
        lam=1.0,
    )
    run_experiment(config)
    metrics = (out / "seed0" / "metrics.tsv").read_text().splitlines()
    agg = (out / "aggregate.tsv").read_text().splitlines()
    shape_ok = (
        metrics[1] == "ACC%\tTED\tTER\tFER\tBCFS"
        and len(metrics) == 3
        and agg[1].startswith("seed\t")
        and agg[-2].startswith("mean\t")
        and agg[-1].startswith("std\t")
        and (out / "seed0" / "behavior.tsv").exists()
        and (out / "seed0" / "error_rates.tsv").exists()
    )
    _report(7, "pipeline emits per-seed metric and analysis reports of the "
               "documented shape (full-corpus numbers not asserted)", shape_ok)


# -- 8: byte-identical reruns --------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    from protorecon.cli import main
    from protorecon.corpus import serialize_dataset

    ds, _ = generate_family(n_sets=25, n_daughters=3, seed=9)
    data = tmp_path / "d.tsv"
    data.write_text(serialize_dataset(ds), encoding="utf-8")
    import json

    preset = tmp_path / "p.json"
    preset.write_text(json.dumps(dict(
        embedding_size=8, hidden_size=10, feedforward_size=10, dropout=0.1,
        batch_size=8, lr=0.01, max_epochs=2, warmup_epochs=1, seed=0,
    )), encoding="utf-8")
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        assert main(["split", "--dataset", str(data), "--split-seed", "3",
                     "--out", str(d / "split.tsv")]) == 0
        assert main(["train-recon", "--dataset", str(data),
                     "--split", str(d / "split.tsv"), "--preset", str(preset),
                     "--out", str(d / "m.ckpt")]) == 0
        assert main(["decode", "--dataset", str(data), "--checkpoint", str(d / "m.ckpt"),
                     "--beam-size", "3", "--out", str(d / "cands.tsv")]) == 0
        outputs.append(d)
    identical = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("split.tsv", "m.ckpt", "cands.tsv")
    )
    _report(8, "split/train/decode reruns with one config+seed are byte-identical",
            identical)
