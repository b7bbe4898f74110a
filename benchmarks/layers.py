"""Which program functions the traced run wraps, and the per-layer metrics.

Spans are named ``<module>.<function>`` (``<module>.<Class>.<method>`` for
methods); the module is the layer.  ``install`` wraps them all on a
``Tracer``; ``layer_metrics`` turns its spans and counters into the
per-layer metrics, normalised to one pass of the workload.
"""

from __future__ import annotations

import importlib

from protorecon import analysis, autodiff, checkpoint, cli, corpus, decode, metrics, models

rerank_mod = importlib.import_module("protorecon.rerank")  # protorecon.rerank is a function

# (span name, owner, attribute, leaf, reports a tail percentile)
SPANS = (
    ("autodiff.gru_cell", autodiff, "gru_cell", True, True),
    ("autodiff.Tensor.backward", autodiff.Tensor, "backward", False, True),
    ("autodiff.Adam.step", autodiff.Adam, "step", False, True),
    ("autodiff.gru_cell_np", autodiff, "gru_cell_np", True, True),
    ("models.train", models, "train", False, False),
    ("models.ReconModel.batch_loss", models.ReconModel, "batch_loss", False, True),
    ("models.ReflexModel.batch_loss", models.ReflexModel, "batch_loss", False, True),
    ("models.ReflexModel.group_loss", models.ReflexModel, "group_loss", False, True),
    ("models.ReconModel.encode_np", models.ReconModel, "encode_np", False, True),
    ("models.ReflexModel.encode_np", models.ReflexModel, "encode_np", False, True),
    ("decode.greedy_decode", decode, "greedy_decode", False, True),
    ("decode.beam_search", decode, "beam_search", False, True),
    ("rerank.reflex_accuracy", rerank_mod, "reflex_accuracy", False, True),
    ("rerank.reconstruct_reranked", rerank_mod, "reconstruct_reranked", False, True),
    ("analysis.per_language_error_rates", analysis, "per_language_error_rates", False, False),
    ("analysis.similarity_comparison_table", analysis, "similarity_comparison_table", False,
     False),
    ("metrics.evaluate", metrics, "evaluate", False, False),
    ("checkpoint.read_checkpoint", checkpoint, "read_checkpoint", False, False),
    ("corpus.parse_dataset", corpus, "parse_dataset", False, False),
    ("cli.rerank", cli, "cmd_rerank", False, False),
    ("cli.eval", cli, "cmd_eval", False, False),
    ("cli.analyze", cli, "cmd_analyze", False, False),
)


def _gru_flops(tracer, args, kwargs):
    """Multiply-adds of the six gate matmuls, from the operand shapes."""
    x, h = args[0].data, args[1].data
    batch, n_in = x.shape
    tracer.count("autodiff.gru_cell.flops", 2 * batch * h.shape[1] * 3 * (n_in + h.shape[1]))


def _group_rows(tracer, args, kwargs):
    tracer.count("models.reflex_rows", len(args[1]))


def _rerank_decode(tracer, args, kwargs):
    if tracer.inside("rerank.reconstruct_reranked"):
        tracer.count("rerank.decodes")


def _evaluate_items(tracer, args, kwargs):
    tracer.count("metrics.evaluate.items", len(args[0]))


def _cache_lookup(tracer, result):
    tracer.count("rerank.cache_lookups")
    if result is not None:
        tracer.count("rerank.cache_hits")


ON_CALL = {
    "autodiff.gru_cell": _gru_flops,
    "models.ReflexModel.group_loss": _group_rows,
    "decode.greedy_decode": _rerank_decode,
    "metrics.evaluate": _evaluate_items,
}


def install(tracer):
    for name, owner, attr, leaf, _tail in SPANS:
        tracer.wrap(owner, attr, name, leaf=leaf, on_call=ON_CALL.get(name))
    tracer.wrap(rerank_mod.ReflexCache, "get", "rerank.ReflexCache.get", leaf=True,
                on_return=_cache_lookup)


def metric_names() -> list:
    """Every per-layer metric name, in output order (BENCHMARK.json lists them)."""
    names = []
    for span, _owner, _attr, _leaf, tail in SPANS:
        names += [f"{span}.calls", f"{span}.self_s", f"{span}.p50_ms"]
        if tail:
            names.append(f"{span}.tail_ms")
    return names + list(DERIVED)


DERIVED = {
    "autodiff.gru_cell.gflop_per_s": "computed-GFLOP/s",
    "models.reflex_groups_per_batch": "count",
    "models.reflex_rows_per_group": "count",
    "rerank.decodes_per_set": "count",
    "rerank.cache_hit_ratio": "hits/lookups",
    "rerank.cache_lookups": "lookups/pass",
    "metrics.evaluate.ms_per_item": "ms",
    "trace_overhead_frac": "fraction",
}


SPAN_UNITS = {"calls": "calls/pass", "self_s": "s/pass", "p50_ms": "ms", "tail_ms": "ms"}


def unit(name: str) -> str:
    return DERIVED.get(name) or SPAN_UNITS[name.rsplit(".", 1)[1]]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes: int, overhead_frac: float) -> dict:
    """name -> value; calls, self time and counts are per pass of the workload."""
    spans = tracer.summaries()
    counters = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "tail_ms": 0.0}
    out = {}
    for span, _owner, _attr, _leaf, tail in SPANS:
        s = spans.get(span, empty)
        out[f"{span}.calls"] = s["calls"] / passes
        out[f"{span}.self_s"] = s["self_s"] / passes
        out[f"{span}.p50_ms"] = s["p50_ms"]
        if tail:
            out[f"{span}.tail_ms"] = s["tail_ms"]

    def total(span):
        return spans.get(span, empty)["total_s"]

    def calls(span):
        return spans.get(span, empty)["calls"]

    out["autodiff.gru_cell.gflop_per_s"] = _ratio(
        counters.get("autodiff.gru_cell.flops", 0) / 1e9, total("autodiff.gru_cell"))
    out["models.reflex_groups_per_batch"] = _ratio(
        calls("models.ReflexModel.group_loss"), calls("models.ReflexModel.batch_loss"))
    out["models.reflex_rows_per_group"] = _ratio(
        counters.get("models.reflex_rows", 0), calls("models.ReflexModel.group_loss"))
    out["rerank.decodes_per_set"] = _ratio(
        counters.get("rerank.decodes", 0), calls("rerank.reconstruct_reranked"))
    out["rerank.cache_hit_ratio"] = _ratio(
        counters.get("rerank.cache_hits", 0), counters.get("rerank.cache_lookups", 0))
    out["rerank.cache_lookups"] = counters.get("rerank.cache_lookups", 0) / passes
    out["metrics.evaluate.ms_per_item"] = 1e3 * _ratio(
        total("metrics.evaluate"), counters.get("metrics.evaluate.items", 0))
    out["trace_overhead_frac"] = overhead_frac
    return out
