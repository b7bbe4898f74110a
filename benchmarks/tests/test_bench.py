"""Tests of the benchmark itself: tracing rules, unpatching, seeded inputs.

    python3 -m pytest benchmarks/tests -q
"""

import json
import os

import pytest

from protorecon import cli, models
from protorecon.corpus import (CognateSet, Dataset, build_vocabulary, serialize_dataset,
                               split_dataset)
from protorecon.decode import Candidate
from protorecon.rerank import format_rerank_tsv, rerank
from protorecon.synthetic import generate_family

import layers
import run
import trace
import workloads as wl


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# -- tail percentile ------------------------------------------------------------


def test_tail_rank_leaves_ten_samples_beyond():
    assert trace.tail_rank(20) == (10, 50.0)
    assert trace.tail_rank(21) == (11, 100.0 * 11 / 21)
    assert trace.tail_rank(1000) == (990, 99.0)


def test_no_tail_below_the_median():
    assert trace.tail_rank(10) is None
    assert trace.tail_rank(11) is None  # the 9th percentile is no tail
    assert trace.tail_rank(19) is None


def test_span_summary_reports_tail_and_its_rank():
    stats = trace.SpanStats()
    for ms in range(1, 101):  # 1 .. 100 ms, shuffled order must not matter
        stats.durations.append(((ms * 37) % 100 + 1) / 1e3)
    stats.calls = 100
    summary = stats.summary()
    assert summary["tail_rank"] == 90 and summary["tail_pct"] == 90.0
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["p50_ms"] == pytest.approx(50.0)


def test_few_samples_have_no_tail():
    stats = trace.SpanStats()
    stats.durations.extend([0.001] * 10)
    stats.calls = 10
    summary = stats.summary()
    assert summary["tail_rank"] == 0 and summary["tail_ms"] == 0.0


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]; inner holds leaf [1.5, 2]
    tracer = trace.Tracer(clock=FakeClock([0, 1, 1.5, 2, 3, 4, 5, 10]))
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.begin("leaf")
    tracer.end(keep_span=False)
    tracer.end()
    tracer.begin("inner")
    tracer.end()
    tracer.end()
    s = tracer.summaries()
    assert s["outer"]["self_s"] == pytest.approx(7.0)
    assert s["inner"]["self_s"] == pytest.approx(2.5)
    assert s["inner"]["total_s"] == pytest.approx(3.0)
    assert s["leaf"]["self_s"] == pytest.approx(0.5)
    assert s["inner"]["calls"] == 2
    # leaf spans keep only their durations; the others keep a record with a parent
    names = {(name, parent) for _id, parent, name, _start, _end in tracer.spans}
    outer_id = next(i for i, _p, n, _s, _e in tracer.spans if n == "outer")
    assert names == {("outer", 0), ("inner", outer_id)}


# -- wrappers are removed after a traced run ---------------------------------------


def _bindings():
    """Every attribute of every protorecon module and of the wrapped classes."""
    owners = trace._package_modules("protorecon")
    owners += [owner for _n, owner, _a, _l, _t in layers.SPANS if isinstance(owner, type)]
    owners.append(layers.rerank_mod.ReflexCache)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


class TinyWorkload:
    """Both train calls and the rerank command on a tiny family."""

    def __init__(self, tmp_path):
        dataset, _ = generate_family(40, 2, seed=0)
        self.dataset = split_dataset(dataset, wl.SPLIT, 0)
        self.vocab = build_vocabulary(self.dataset)
        self.tmp = tmp_path
        self.tsv = tmp_path / "sets.tsv"
        self.tsv.write_text(serialize_dataset(self.dataset), encoding="utf-8")

    def one_pass(self, ops):
        paths = {}
        for kind, cls in wl.CONFIG_CLASSES.items():
            config = cls(embedding_size=4, hidden_size=6, feedforward_size=6, batch_size=8,
                         dropout=0.0, max_epochs=1, validate_every=1)
            model = models.train(models.new_model(kind, config, self.vocab), self.dataset)
            paths[kind] = str(self.tmp / f"{kind}.ckpt")
            model.save(paths[kind])
        code = cli.main(["rerank", "--dataset", str(self.tsv), "--recon-checkpoint",
                         paths["recon"], "--reflex-checkpoint", paths["reflex"],
                         "--beam-size", "2", "--out", str(self.tmp / "out")])
        ops.check(code == 0, "rerank")


def test_traced_run_patches_every_lookup_site_and_restores_them(tmp_path):
    before = _bindings()
    ops = run.Ops()
    tracer, plain, traced = run.run_traced(TinyWorkload(tmp_path), ops, 0)
    assert len(plain) == len(traced) == 1 and not ops.failures
    calls = {name: s["calls"] for name, s in tracer.summaries().items()}
    # one traced pass reached each layer through the name its caller uses
    for span in ("models.train", "autodiff.gru_cell", "autodiff.Tensor.backward",
                 "models.ReflexModel.group_loss", "decode.beam_search",
                 "rerank.reconstruct_reranked", "rerank.reflex_accuracy", "cli.rerank",
                 "checkpoint.read_checkpoint", "corpus.parse_dataset"):
        assert calls.get(span, 0) > 0, span
    assert calls["models.train"] == 2 and calls["cli.rerank"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert cli.reconstruct_reranked is layers.rerank_mod.reconstruct_reranked


# -- inputs are a pure function of the seed ----------------------------------------


def test_train_inputs_depend_only_on_the_seed():
    a, b, c = wl.family(3), wl.family(3), wl.family(4)
    assert serialize_dataset(a) == serialize_dataset(b) and a.split_tags == b.split_tags
    assert serialize_dataset(a) != serialize_dataset(c)
    assert len(a.subset("train").sets) == 1400


def test_infer_inputs_depend_only_on_the_seed():
    a, b, c = wl.infer_sets(3), wl.infer_sets(3), wl.infer_sets(4)
    assert serialize_dataset(a) == serialize_dataset(b)
    assert serialize_dataset(a) != serialize_dataset(c)
    assert len(a.sets) == wl.INFER_SETS and all("D1" in cs.reflexes for cs in a.sets)


def test_infer_sets_follow_the_fixture_family_rule_book():
    family, rules = generate_family(wl.FAMILY_SETS, wl.FAMILY_DAUGHTERS, seed=0)
    _one, same_rules = generate_family(1, wl.FAMILY_DAUGHTERS, seed=0)
    assert [[r.describe() for r in rules[lang]] for lang in rules] == \
        [[r.describe() for r in same_rules[lang]] for lang in same_rules]


# -- the reranking oracle over rerank's per-set TSVs -------------------------------


def _rerank_output(tmp_path, r_values=None):
    """One set's rerank TSV and its summary.tsv top, written by the program's own
    formatter; ``r_values`` replaces the reranker scores the decodes give."""
    cset = CognateSet("s1", ("a", "b"), {"D1": ("a",), "D2": ("b", "c")})
    dataset = Dataset(("D1", "D2"), (cset,))
    vocab = build_vocabulary(dataset)
    beams = [("a", "b"), ("a", "c"), ("b", "b")]
    decodes = [{"D1": ("a",), "D2": ("b",)}, {"D1": ("a",), "D2": ("b", "c")},
               {"D1": ("c",), "D2": ("c",)}]
    candidates = [Candidate(tuple(vocab.encode(b)), m=-0.1 * (i + 1), raw_logp=0.0,
                            length=len(b) + 1)
                  for i, b in enumerate(beams)]
    preds = {i: {lang: tuple(vocab.encode(seq)) for lang, seq in d.items()}
             for i, d in enumerate(decodes)}
    true_r = [0.5, 1.0, 0.0]
    reranked = rerank(candidates, true_r if r_values is None else r_values, wl.LAMBDA)
    (tmp_path / "s1.tsv").write_text(format_rerank_tsv(cset, reranked, preds, vocab))
    top = reranked[0]
    workload = run.InferWorkload("infer")
    workload.dataset = dataset
    tops = {"s1": (" ".join(vocab.decode(top.tokens)), f"{top.s:.6f}")}
    return workload, tops


def test_rerank_oracle_accepts_the_programs_reranking(tmp_path):
    workload, tops = _rerank_output(tmp_path)
    ops = run.Ops()
    recon_ted, reflex_ted = workload._check_set_tsvs(ops, str(tmp_path), tops)
    assert ops.attempted == 4 and not ops.failures
    assert recon_ted == pytest.approx((0 + 1 + 1) / 3)
    assert reflex_ted == pytest.approx((0 + 1 + 0 + 0 + 1 + 1) / 6)


def test_rerank_oracle_fails_a_reranker_that_ignores_the_reflexes(tmp_path):
    workload, tops = _rerank_output(tmp_path, r_values=[0.0, 0.0, 0.0])
    ops = run.Ops()
    workload._check_set_tsvs(ops, str(tmp_path), tops)
    assert len(ops.failures) == 2  # r, and therefore s; order and top follow the bad s
    assert all("r is not" in f or "s is not" in f for f in ops.failures)


def test_rerank_oracle_fails_a_wrong_order_and_a_wrong_top(tmp_path):
    workload, tops = _rerank_output(tmp_path)
    path = tmp_path / "s1.tsv"
    lines = path.read_text().splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    rows[0][-2], rows[1][-2] = rows[1][-2], rows[0][-2]  # swap two rerank ranks
    path.write_text("\n".join([lines[0]] + ["\t".join(r) for r in rows]) + "\n")
    ops = run.Ops()
    workload._check_set_tsvs(ops, str(tmp_path), tops)
    assert ops.attempted == 4 and len(ops.failures) == 2
    assert "order" in ops.failures[0] and "top" in ops.failures[1]


# -- the benchmark's own definition ---------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(run.env.BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, layers.unit(name)) for name in layers.metric_names()]


def test_edit_distance_oracle():
    assert run.edit_distance("kitten", "sitting") == 3
    assert run.edit_distance((), ("a", "b")) == 2
    assert run.edit_distance(("a", "b"), ("a", "b")) == 0
