"""The protorecon benchmark: one closed-loop client, three workloads.

    python3 benchmarks/run.py --workload train-small --seed 1 --seconds 45 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``train-small``: ``models.train`` for a fresh ReconModel, then a fresh
  ReflexModel, at the acceptance-criterion-6 sizes, one epoch plus one
  greedy validation pass each, on the criterion-6 family for the seed;
- ``train-wide``: the same calls with the bundled WikiHan presets;
- ``infer``: the ``rerank``, ``eval`` and ``analyze`` commands, called in
  process through ``protorecon.cli.main``, on new cognate sets drawn from
  the family the checkpoints in ``fixtures/`` learned.

One process issues every call, each starting when the previous one
returns, with BLAS on at most ``nproc`` threads.  A run repeats the workload
until ``--seconds`` would be exceeded, and at least twice so that reruns can
be compared byte for byte.  It sets up its inputs several times before the
first call and again before every timed call (``setup_s`` is the median).
With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes, and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import env

BLAS_THREADS = env.cap_blas_threads()
env.use_checkout_src()

from protorecon import cli, models  # noqa: E402
from protorecon.corpus import build_vocabulary, serialize_dataset  # noqa: E402

import layers  # noqa: E402
import provenance  # noqa: E402
import trace  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 3
MIN_PASSES = 2
WORK_DIR = os.path.join(env.ROOT, ".bench_work")
SPANS_DIR = os.path.join(env.ROOT, ".bench_out")
clock = time.perf_counter
# Rounding slack for the values rerank's per-set TSVs print: r to 4 decimals,
# m and s to 6 (so s - m may be off by two half-units of the 6th decimal).
R_TOL, S_TOL = 1e-4, 2e-6


class Ops:
    """Attempted and failed operations of one run, with the reasons.

    ``between_calls`` runs before each timed call, off the call's clock.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.between_calls = lambda: None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def timed_call(ops, what, fn, *args):
    """One program call, timed from a collected heap so that garbage left by
    the previous call neither costs this one time nor adds to its memory.

    Returns (result, start time, wall seconds); an exception is a failed op, reported
    with its traceback, and gives a None result.
    """
    ops.between_calls()
    gc.collect()
    start = clock()
    try:
        result = fn(*args)
    except Exception:  # noqa: BLE001 - the run goes on and reports the op as failed
        traceback.print_exc()
        ops.check(False, f"{what} raised")
        result = None
    return result, start, clock() - start


# End-to-end metrics.  Every workload reports each of them: a train workload
# through its two ``models.train`` calls, ``infer`` through ``rerank`` and
# ``analyze``, and the two TEDs through the models' own outputs.
E2E_UNITS = {
    "recon_train_or_rerank_sets_per_s": "sets/s",
    "reflex_train_or_analyze_sets_per_s": "sets/s",
    "recon_ted": "tokens",
    "reflex_ted": "tokens",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def edit_distance(a, b) -> int:
    """Levenshtein distance over token sequences (the benchmark's own oracle)."""
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, y in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (x != y))
    return row[-1]


class TrainWorkload:
    """``models.train`` for a fresh recon model, then a fresh reflex model."""

    def __init__(self, name):
        self.configs = wl.train_configs(name)
        self.walls = {kind: [] for kind in self.configs}
        self.epoch_s = {kind: [] for kind in self.configs}
        self.val_ted = {}
        self.checkpoint_sha = {}

    def setup(self, seed, work, ops):
        self.work = work
        self.dataset = wl.family(seed)
        self.vocab = build_vocabulary(self.dataset)
        self.n_train = len(self.dataset.subset("train").sets)

    def one_pass(self, ops):
        for kind, config in self.configs.items():
            model = models.new_model(kind, config, self.vocab)
            marks = []
            trained, start, wall = timed_call(ops, f"train {kind}", models.train, model,
                                              self.dataset, lambda _msg: marks.append(clock()))
            if trained is None:
                continue
            self.walls[kind].append(wall)
            self.epoch_s[kind].append(marks[0] - start if marks else math.nan)
            self._check(ops, kind, trained)

    def _check(self, ops, kind, model):
        losses = [loss for _epoch, loss in model.history.epoch_losses]
        teds = [ted for _epoch, ted in model.history.validations]
        ok = ops.check(len(losses) == 1 and all(map(math.isfinite, losses)),
                       f"train {kind}: epoch losses {losses} not one finite value")
        ok &= ops.check(len(teds) == 1 and all(map(math.isfinite, teds)),
                        f"train {kind}: validations {teds} not one finite value")
        path = os.path.join(self.work, f"{kind}.ckpt")
        model.save(path)
        digest = wl.sha256(path)
        first = self.checkpoint_sha.setdefault(kind, digest)
        ok &= ops.check(digest == first, f"train {kind}: checkpoint bytes differ between reruns")
        if ok:
            self.val_ted[kind] = teds[-1]

    def metrics(self) -> dict:
        return {
            "recon_train_or_rerank_sets_per_s": _rate(self.n_train, self.walls["recon"]),
            "reflex_train_or_analyze_sets_per_s": _rate(self.n_train, self.walls["reflex"]),
            "recon_ted": self.val_ted.get("recon", math.nan),
            "reflex_ted": self.val_ted.get("reflex", math.nan),
        }

    def notes(self) -> list:
        return [f"{kind}: {len(self.walls[kind])} models.train calls at "
                f"{_listing(self.n_train / w for w in self.walls[kind])} sets/s; first epoch "
                f"{_first(self.epoch_s[kind]):.2f} s over {self.n_train} train sets; "
                f"last validation TED {self.val_ted.get(kind, math.nan):.4f}"
                for kind in self.configs]

    def grounding(self, layer) -> list:
        return [f"{kind} training epoch ({self.n_train} sets): "
                f"{_first(self.epoch_s[kind]):.2f} s (untraced pass)" for kind in self.configs] + [
            f"reflex batch_loss graphs per batch: {layer['models.reflex_groups_per_batch']:.1f}, "
            f"{layer['models.reflex_rows_per_group']:.2f} rows each",
        ]


class InferWorkload:
    """``rerank``, ``eval`` and ``analyze`` over new cognate sets."""

    def __init__(self, _name):
        self.walls = {"rerank": [], "analyze": []}
        self.quality = {}
        self.reference = {}
        self.checkpoints = {kind: os.path.join(wl.FIXTURE_DIR, f)
                            for kind, f in wl.FIXTURES.items()}

    def setup(self, seed, work, ops):
        self.work = work
        hashes = wl.recorded_hashes()
        ops.check(set(hashes) == set(wl.FIXTURES.values()),
                  f"fixtures/{wl.SHA_FILE} lists {sorted(hashes)}")
        for kind, path in self.checkpoints.items():
            name = wl.FIXTURES[kind]
            if ops.check(wl.sha256(path) == hashes.get(name),
                         f"fixture {name} does not match its recorded sha256"):
                models.load_checkpoint(path)
        self.dataset = wl.infer_sets(seed)
        self.tsv = os.path.join(work, "sets.tsv")
        with open(self.tsv, "w", encoding="utf-8") as f:
            f.write(serialize_dataset(self.dataset))

    def _cli(self, ops, command, *extra):
        code, _start, wall = timed_call(ops, f"cli {command}", cli.main,
                                        [command, "--dataset", self.tsv, *extra])
        ops.check(code == 0, f"cli {command} returned {code}")
        return code == 0, wall

    def _model_args(self):
        return ["--recon-checkpoint", self.checkpoints["recon"],
                "--reflex-checkpoint", self.checkpoints["reflex"],
                "--beam-size", str(wl.BEAM_K), "--lambda", str(wl.LAMBDA)]

    def one_pass(self, ops):
        n = len(self.dataset.sets)
        out = tempfile.mkdtemp(dir=self.work)
        try:
            ok, wall = self._cli(ops, "rerank", *self._model_args(), "--out",
                                 os.path.join(out, "rerank"))
            if ok:
                self.walls["rerank"].append(wall)
                self._check_rerank(ops, os.path.join(out, "rerank"))
            ok, wall = self._cli(ops, "analyze", *self._model_args(),
                                 "--feature-table", "bundled", "--out",
                                 os.path.join(out, "analyze"))
            if ok:
                self.walls["analyze"].append(wall)
                behavior = _read(os.path.join(out, "analyze", "behavior.tsv"))
                counted = sum(int(row.split("\t")[1]) for row in behavior.splitlines()[1:-1])
                ops.check(counted == n, f"analyze: behavior.tsv counts {counted} of {n} sets")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_set_tsvs(self, ops, out, tops):
        """Check rerank's per-set TSVs against the reranking rule s = m + lambda * r.

        For each set: r is the share of its reflexes decoded exactly, s is
        m + lambda * r, rerank_rank orders the candidates by s descending, and
        ``tops`` (id -> summary.tsv's candidate and s) holds the row ranked 0.
        Returns the mean TED of every beam candidate to the gold protoform and
        of every decoded reflex to the attested one.
        """
        recon, reflex = [], []
        for cset in self.dataset.sets:
            lines = _read(os.path.join(out, f"{cset.id}.tsv")).splitlines()
            langs = lines[0].split("\t")[3:-3]
            rows = [line.split("\t") for line in lines[1:]]
            r_ok = s_ok = set(langs) == set(cset.reflexes)
            for cells in rows:
                decoded = {lang: cells[3 + j].split() for j, lang in enumerate(langs)}
                r = sum(decoded[lang] == list(cset.reflexes[lang]) for lang in langs) / len(
                    cset.reflexes)
                r_ok &= abs(float(cells[-3]) - r) <= R_TOL
                s_ok &= abs(float(cells[-1]) - float(cells[2]) - wl.LAMBDA * r) <= S_TOL
                recon.append(edit_distance(cells[1].split(), cset.protoform))
                reflex += [edit_distance(decoded[lang], cset.reflexes[lang]) for lang in langs]
            ops.check(r_ok, f"rerank {cset.id}: r is not the share of reflexes decoded exactly")
            ops.check(s_ok, f"rerank {cset.id}: s is not m + lambda * r")
            ranked = sorted(rows, key=lambda cells: int(cells[-2]))
            s = [float(cells[-1]) for cells in ranked]
            ops.check([int(cells[-2]) for cells in ranked] == list(range(len(rows)))
                      and all(a >= b - S_TOL for a, b in zip(s, s[1:])),
                      f"rerank {cset.id}: rerank_rank does not order the candidates by s")
            ops.check(bool(rows) and tops[cset.id] == (ranked[0][1], ranked[0][-1]),
                      f"rerank {cset.id}: summary.tsv's top is not the candidate ranked 0")
        return sum(recon) / len(recon), sum(reflex) / len(reflex)

    def _check_rerank(self, ops, out):
        # `eval` rejects rerank's own 3-column summary.tsv (see NOTES.md), so
        # the two-column predictions file is written here.
        summary = _read(os.path.join(out, "summary.tsv"))
        tops = {row[0]: (row[1], row[2])
                for row in (line.split("\t") for line in summary.splitlines()[1:])}
        preds = {i: top for i, (top, _s) in tops.items()}
        gold = {cs.id: " ".join(cs.protoform) for cs in self.dataset.sets}
        if not ops.check(list(preds) == list(gold),
                         "rerank: summary.tsv ids differ from the input"):
            return
        teds = self._check_set_tsvs(ops, out, tops)
        pred_path = os.path.join(out, "predictions.two-column")
        with open(pred_path, "w", encoding="utf-8") as f:
            f.writelines(f"{i}\t{p}\n" for i, p in preds.items())
        eval_path = os.path.join(out, "eval.out")
        ok, _wall = self._cli(ops, "eval", "--predictions", pred_path,
                              "--feature-table", "bundled", "--out", eval_path)
        if not ok:
            return
        report = _read(eval_path)
        acc = float(report.splitlines()[1].split("\t")[0])
        exact = 100 * sum(preds[i] == gold[i] for i in gold) / len(gold)
        ok = ops.check(abs(acc - exact) < 1e-3, f"eval: ACC {acc} but {exact:.4f}% of "
                       "predictions equal the gold protoform")
        outputs = {"summary.tsv": summary, "eval output": report, "per-set candidate TEDs": teds}
        for name, value in outputs.items():
            first = self.reference.setdefault(name, value)
            ok &= ops.check(value == first, f"rerank: {name} differs between reruns")
        if ok:
            self.quality = {"acc": acc, "ted": teds}

    def metrics(self) -> dict:
        recon_ted, reflex_ted = self.quality.get("ted", (math.nan, math.nan))
        n = len(self.dataset.sets)
        return {
            "recon_train_or_rerank_sets_per_s": _rate(n, self.walls["rerank"]),
            "reflex_train_or_analyze_sets_per_s": _rate(n, self.walls["analyze"]),
            "recon_ted": recon_ted,
            "reflex_ted": reflex_ted,
        }

    def notes(self) -> list:
        n = len(self.dataset.sets)
        return [f"rerank: {_listing(n / w for w in self.walls['rerank'])} sets/s; "
                f"analyze: {_listing(n / w for w in self.walls['analyze'])} sets/s",
                f"rerank_acc = {self.quality.get('acc', math.nan):.4f} % (eval ACC of the "
                f"reranked top candidates over {len(self.dataset.sets)} sets)"]

    def grounding(self, layer) -> list:
        n = len(self.dataset.sets)
        return [
            f"beam search, k={wl.BEAM_K}: {layer['decode.beam_search.p50_ms']:.2f} ms per set "
            "(traced p50)",
            f"rerank, k={wl.BEAM_K}, about 4 daughters: "
            f"{1e3 * _first(self.walls['rerank']) / n:.2f} ms per set "
            f"(untraced `rerank` command over {n} sets); "
            f"{layer['rerank.reconstruct_reranked.p50_ms']:.2f} ms (traced p50 of "
            "reconstruct_reranked)",
            f"evaluate with FER: {layer['metrics.evaluate.ms_per_item']:.3f} ms per item (traced)",
        ]


WORKLOADS = {"train-small": TrainWorkload, "train-wide": TrainWorkload, "infer": InferWorkload}


def _rate(n, walls):
    """Sets per second over all of a run's calls: ``n`` sets per call over their
    total wall time, so that every second measured counts equally."""
    return n * len(walls) / sum(walls) if walls else math.nan


def _listing(values):
    return "[" + ", ".join(f"{v:.2f}" for v in values) + "]"


def _first(values):
    return values[0] if values else math.nan


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def timed_pass(workload, ops) -> float:
    start = clock()
    workload.one_pass(ops)
    return clock() - start


def set_up(workload, seed, work, ops, reps) -> list:
    """Set the workload up ``reps`` times; returns each set-up's wall seconds."""
    walls = []
    for _ in range(reps):
        gc.collect()
        start = clock()
        workload.setup(seed, work, ops)
        walls.append(clock() - start)
    return walls


def run_passes(workload, ops, seconds):
    """Closed loop: MIN_PASSES passes, then more while the next ends within ``seconds``."""
    walls = []
    start = clock()
    while len(walls) < MIN_PASSES or clock() - start + statistics.median(walls) <= seconds:
        walls.append(timed_pass(workload, ops))
    return walls


def run_traced(workload, ops, seconds):
    """Alternate untraced and traced passes (at least one pair) for ``seconds``.

    The wrappers are in place only during traced passes.
    """
    tracer = trace.Tracer()
    plain, traced = [], []
    start = clock()
    while not traced or clock() - start + plain[-1] + traced[-1] <= seconds:
        plain.append(timed_pass(workload, ops))
        with tracer:
            layers.install(tracer)
            traced.append(timed_pass(workload, ops))
    return tracer, plain, traced


def measure(name, seed, seconds, traced, work):
    """Returns (ops, {metric: (value, unit)}, lines to print before the result)."""
    ops = Ops()
    workload = WORKLOADS[name](name)
    if not traced:
        # Set-up samples are taken before every timed call too, so that their
        # median sees the same spells of CPU contention as the calls do.
        setup_s = set_up(workload, seed, work, ops, SETUP_REPS)
        ops.between_calls = lambda: setup_s.extend(set_up(workload, seed, work, ops, SETUP_REPS))
        run_passes(workload, ops, seconds)
        values = workload.metrics()
        values["setup_s"] = statistics.median(setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return ops, {m: (values[m], unit) for m, unit in E2E_UNITS.items()}, workload.notes()

    set_up(workload, seed, work, ops, 1)
    tracer, plain, traced_walls = run_traced(workload, ops, seconds)
    overhead = statistics.median(traced_walls) / statistics.median(plain) - 1
    layer = layers.layer_metrics(tracer, len(traced_walls), overhead)
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{name}-seed{seed}.spans.jsonl")
    tracer.write_spans(spans_path)
    passes = len(traced_walls)
    notes = [f"spans written to {os.path.relpath(spans_path, env.ROOT)}",
             f"passes: {len(plain)} untraced, {passes} traced; per-pass figures below",
             f"  {'span':<36} {'calls':>10} {'self_s':>10} {'p50_ms':>9}  tail_ms (rank/of, pct)"]
    for span, s in tracer.summaries().items():
        tail = (f"{s['tail_ms']:.3f} ({s['tail_rank']}/{s['calls']}, {s['tail_pct']:.3f}%)"
                if s["tail_rank"] else f"n/a ({s['calls']} samples)")
        notes.append(f"  {span:<36} {s['calls'] / passes:>10.1f} "
                     f"{s['self_s'] / passes:>10.4f} {s['p50_ms']:>9.3f}  {tail}")
    notes.append("ROADMAP grounding rows:")
    notes += [f"  {row}" for row in workload.grounding(layer)]
    return ops, {m: (v, layers.unit(m)) for m, v in layer.items()}, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        ops, result, notes = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    info = provenance.collect(BLAS_THREADS)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("provenance " + json.dumps(info, sort_keys=True))
    for line in notes:
        print(line)
    failed = len(ops.failures)
    print(f"failed_frac = {failed / max(ops.attempted, 1):.6f} ({failed} failed / "
          f"{ops.attempted} attempted ops)")
    for metric, (value, unit) in result.items():
        print(f"{metric} = {value:.6g} {unit}")
    finite = all(math.isfinite(value) for value, _unit in result.values())
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {m: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for m, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
