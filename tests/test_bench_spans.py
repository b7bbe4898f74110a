"""The benchmark's traced run wraps program functions by name: each one must still exist,
and each counter hook must still read the argument it counts.  Short infer, train-small
and train-wide runs must check out correct."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from protorecon import models
from protorecon.corpus import build_vocabulary
from tests.conftest import tiny_reflex_config

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    """The benchmark module benchmarks/<name>.py, under a name that shadows nothing."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_target_resolves():
    """Each target is a callable in its owner's own vars(): Tracer.wrap patches only those
    names, so a method moved to a base class would leave its span reading 0."""
    layers = _load("layers")
    targets = [(name, owner, attr) for name, owner, attr, _leaf, _tail in layers.SPANS]
    # the cache-lookup counter's target
    targets.append(("rerank.ReflexCache.get", layers.rerank_mod.ReflexCache, "get"))
    missing = [name for name, owner, attr in targets if not callable(vars(owner).get(attr))]
    assert not missing


def test_reflex_row_counter_counts_every_training_example(tiny_split):
    """Over one traced epoch, the group_loss hook counts each reflex training example once."""
    layers, trace = _load("layers"), _load("trace")
    original = models.ReflexModel.group_loss
    model = models.ReflexModel(tiny_reflex_config(max_epochs=1), build_vocabulary(tiny_split))
    with trace.Tracer() as tracer:
        layers.install(tracer)
        models.train(model, tiny_split)
    assert models.ReflexModel.group_loss is original  # the tracer put the original back
    examples = models._examples("reflex", tiny_split.subset("train"), model.vocab)
    assert tracer.counters["models.reflex_rows"] == len(examples) > 0
    assert tracer.stats["models.ReflexModel.group_loss"].calls == 1  # four sets, one batch


def _smoke_run(workload):
    """A one-second untraced run of workload: its last line must say correct with no failed
    operation."""
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCHMARKS.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]


def test_infer_benchmark_smoke_run_is_correct():
    """The infer run checks every output it makes, so a wrong output shows in these tests
    first."""
    _smoke_run("infer")


def test_train_small_benchmark_smoke_run_is_correct():
    """The train-small run checks that each model's epoch ends in a finite loss and a
    finite validation TED and that a rerun saves the same checkpoint bytes.  The reflex
    model's validation decodes go through the encoder that steps each distinct state
    once, so an error or a run-dependent state there shows here."""
    _smoke_run("train-small")


def test_train_wide_benchmark_smoke_run_is_correct():
    """The train-wide run trains both models at the WikiHan presets, whose dropout is above
    0, so the gathers that drop out their own outputs in place run there with the
    benchmark's own checks: a finite loss and validation TED, and a rerun that saves the
    same checkpoint bytes."""
    _smoke_run("train-wide")
