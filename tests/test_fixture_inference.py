"""Reranking with the trained fixture checkpoints equals the one-row oracle.

benchmarks/fixtures holds a recon and a reflex checkpoint trained on the
seed-0 synthetic family, with their sha256 in SHA256SUMS.  On new cognate
sets derived through that family's rewrite rules these trained models give
real reflex accuracies between 0 and 1, so a defect that leaves r at 0, or
scores the wrong candidate, shows here.  scored_beams plus rerank must equal
the scalar reference beam and the one-row reflex decodes of tests/oracles.py.
On the benchmark's infer sets, the reflex encoder must step each distinct
state once and keep every state's bits, and the rerank and analyze commands
must write what the oracle computes.  The files are only read.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from protorecon import autodiff as ad
from protorecon import models
from protorecon.cli import main
from protorecon.corpus import (
    CognateSet,
    Dataset,
    assemble_reconstruction_input,
    serialize_dataset,
)
from protorecon.rerank import rerank, score_candidates, scored_beams
from protorecon.synthetic import derive, generate_family, random_protoform
from tests.conftest import GoldReflexStub
from tests.oracles import (
    beam_search_reference,
    oracle_recon_decoder,
    oracle_scores,
    padded_gru_sequence,
    rerank_ranks_reference,
)

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
N_SETS, BEAM_K, LAMBDA = 12, 10, 1.0
N_CLI_SETS, CLI_LAMBDA = 20, 4.2  # the rerank and analyze commands' infer sets and lambda


@pytest.fixture(scope="module")
def fixture_models():
    recorded = {}
    for line in (FIXTURES / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        if line.strip():
            digest, name = line.split()
            recorded[name] = digest
    pair = []
    for name in ("recon.ckpt", "reflex.ckpt"):
        data = (FIXTURES / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == recorded[name], name
        pair.append(models.load_checkpoint(FIXTURES / name))
    return pair


def _new_sets():
    """Sets whose every reflex is derived from a random protoform by the seed-0 family's rules."""
    _family, rules = generate_family(1, 4, seed=0)
    rng = np.random.default_rng(12)
    sets = []
    for i in range(N_SETS):
        proto = random_protoform(rng)
        reflexes = {lang: derive(proto, lang_rules) for lang, lang_rules in rules.items()}
        sets.append(CognateSet(f"new{i + 1}", proto, reflexes))
    return sets


def test_fixture_rerank_matches_oracle(fixture_models):
    recon, reflex = fixture_models
    config = recon.beam_config(BEAM_K)
    sets = _new_sets()
    got = list(scored_beams(recon, reflex, sets, BEAM_K))
    assert len(got) == N_SETS
    r_seen = []
    for cset, (got_cset, beam, r_values, predictions) in zip(sets, got):
        assert got_cset is cset
        want_beam = beam_search_reference(
            oracle_recon_decoder(recon, assemble_reconstruction_input(cset, recon.vocab)), config)
        assert [c.tokens for c in beam] == [c.tokens for c in want_beam]
        assert [c.m for c in beam] == pytest.approx([c.m for c in want_beam], abs=1e-9)
        want_r, want_predictions = oracle_scores(reflex, [c.tokens for c in want_beam], cset)
        assert (r_values, predictions) == (want_r, want_predictions)
        reranked, want_reranked = rerank(beam, r_values, LAMBDA), rerank(want_beam, want_r, LAMBDA)
        assert ([(c.tokens, c.r, c.beam_rank, c.rerank_rank) for c in reranked]
                == [(c.tokens, c.r, c.beam_rank, c.rerank_rank) for c in want_reranked])
        r_seen += r_values
    assert any(0.0 < r < 1.0 for r in r_seen), "no candidate with a partial reflex accuracy"


def _infer_sets(seed):
    """The sets of the benchmark's infer workload at seed, from benchmarks/workloads.py."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  FIXTURES.parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.infer_sets(seed)


def test_fixture_reflex_states_equal_stepping_every_row(fixture_models, monkeypatch):
    """Each encoder pass of the uncached reflex rows of a rerank of the infer sets of seed 3
    encodes, stepping each distinct state once and keeping only the final states, to the
    final states that stepping every row gives, bit for bit: the fixture's H = 64 makes
    every gate width a multiple of 8.  The rows are recorded without decoding them, as only
    their keys decide the cache."""
    recon, reflex = fixture_models
    calls = []
    monkeypatch.setattr(models.ReflexModel, "greedy_decode_rows",
                        lambda self, rows: calls.append(rows) or [[] for _ in rows])
    for _ in scored_beams(recon, reflex, _infer_sets(3).sets, BEAM_K):
        pass
    step = _reflex_pass_rows()
    chunks = [rows[i : i + step] for rows in calls for i in range(0, len(rows), step)]
    assert sum(map(len, chunks)) > 4000
    shared = [reflex.encode_np(chunk) for chunk in chunks]
    monkeypatch.setattr(ad, "gru_sequence", padded_gru_sequence)
    assert [h.tobytes() for h in shared] == [reflex.encode_np(chunk).tobytes()
                                              for chunk in chunks]


def _reflex_pass_rows():
    """The most rows that greedy_decode_rows encodes in one reflex encoder pass."""
    return models.ReflexModel.encode_pass_chunks * models.DECODE_CHUNK


def _distinct_states(rows):
    """(distinct encoder states of rows, padded cells): per encoder pass and level t, the
    distinct prefixes rows[:t + 1] plus the distinct suffixes rows[t:] of the rows longer
    than t, each at least 8; the padded cells are 2 * T * B per pass."""
    states = cells = 0
    for start in range(0, len(rows), _reflex_pass_rows()):
        chunk = rows[start : start + _reflex_pass_rows()]
        T = max(map(len, chunk))
        cells += 2 * T * len(chunk)
        for t in range(T):
            live = [row for row in chunk if len(row) > t]
            states += max(8, len({tuple(row[: t + 1]) for row in live}))
            states += max(8, len({tuple(row[t:]) for row in live}))
    return states, cells


def test_reflex_encoder_steps_each_distinct_state_once(fixture_models, monkeypatch):
    """The rows that gru_cell_np steps inside ReflexModel.encode_np during one
    score_candidates call equal the distinct-state count, under 28% of the padded cells."""
    recon, reflex = fixture_models
    items = [([c.tokens for c in beam], cset)
             for batch, beams in recon.beam_search_sets(_infer_sets(3).sets[:36], BEAM_K)
             for cset, beam in zip(batch, beams)]
    stepped, inside = [], []
    encode_np, gru_cell_np = models.ReflexModel.encode_np, ad.gru_cell_np

    def counting_encode_np(self, inputs, p=None):
        inside.append(True)
        try:
            return encode_np(self, inputs, p)
        finally:
            inside.pop()

    def counting_gru_cell_np(x, *args, **kwargs):
        if inside:
            stepped.append(len(x))
        return gru_cell_np(x, *args, **kwargs)

    monkeypatch.setattr(models.ReflexModel, "encode_np", counting_encode_np)
    monkeypatch.setattr(ad, "gru_cell_np", counting_gru_cell_np)
    score_candidates(reflex, items)
    keys = dict.fromkeys((tokens, language) for candidates, cset in items
                         for tokens in candidates if tokens for language in cset.reflexes)
    rows = [[reflex.vocab.language_tag_id(language), *tokens] for tokens, language in keys]
    states, cells = _distinct_states(rows)
    assert len(rows) > 2 * _reflex_pass_rows()
    assert sum(stepped) == states
    assert states < 0.28 * cells


# -- the rerank and analyze commands against the oracle ------------------------------


@pytest.fixture(scope="module")
def gold_stub_case(fixture_models, tmp_path_factory):
    """The infer sets of seed 4 in a dataset file, a reflex stub, and the oracle's results.

    The stub decodes the gold reflex for about 30% of the (beam candidate,
    language) rows, and nothing for the rest; of the gold protoform's rows,
    for 90% in even sets and 10% in odd ones, so that reranking moves the
    gold protoform up and down.  Per set the oracle holds the reference beam, its r values and
    predictions through the stub, and the rerank ranks at CLI_LAMBDA.
    """
    recon, _ = fixture_models
    vocab = recon.vocab
    dataset = _infer_sets(4)
    dataset = Dataset(dataset.languages, dataset.sets[:N_CLI_SETS])
    path = tmp_path_factory.mktemp("gold_stub") / "sets.tsv"
    path.write_text(serialize_dataset(dataset), encoding="utf-8")
    config = recon.beam_config(BEAM_K)
    rng = np.random.default_rng(7)
    beams, gold = [], {}
    for i, cset in enumerate(dataset.sets):
        beams.append(beam_search_reference(
            oracle_recon_decoder(recon, assemble_reconstruction_input(cset, vocab)), config))
        for cand in beams[-1]:
            rate = (0.1 if i % 2 else 0.9) if vocab.decode(cand.tokens) == cset.protoform else 0.3
            for language, reflex in cset.reflexes.items():
                if rng.random() < rate:
                    gold[(cand.tokens, language)] = vocab.encode(reflex)
    stub = GoldReflexStub(vocab, gold)
    oracle = []
    for cset, beam in zip(dataset.sets, beams):
        r_values, predictions = oracle_scores(stub, [c.tokens for c in beam], cset,
                                              stub.decode_row)
        ranks = rerank_ranks_reference([c.m for c in beam], r_values, CLI_LAMBDA)
        oracle.append((cset, beam, r_values, predictions, ranks))
    assert any(ranks[0] != 0 for *_, ranks in oracle), "no rerank moved a candidate"
    assert any(0 < r < 1 for _, _, r_values, _, _ in oracle for r in r_values)
    return path, stub, oracle


def _run_with_stub(monkeypatch, stub, argv):
    monkeypatch.setattr(models.ReflexModel, "greedy_decode_rows",
                        lambda self, rows: stub.greedy_decode_rows(rows))
    assert main([*argv, "--recon-checkpoint", str(FIXTURES / "recon.ckpt"),
                 "--reflex-checkpoint", str(FIXTURES / "reflex.ckpt"),
                 "--beam-size", str(BEAM_K), "--lambda", str(CLI_LAMBDA)]) == 0


def test_cli_rerank_out_matches_oracle(fixture_models, gold_stub_case, monkeypatch, tmp_path):
    """Every per-set TSV of rerank --out lists the oracle's beam, predictions, r and
    rerank_rank, and summary.tsv names the oracle's top candidate."""
    path, stub, oracle = gold_stub_case
    vocab = fixture_models[0].vocab
    _run_with_stub(monkeypatch, stub, ["rerank", "--dataset", str(path),
                                       "--out", str(tmp_path / "out")])
    summary = (tmp_path / "out" / "summary.tsv").read_text(encoding="utf-8").splitlines()
    assert len(summary) == 1 + len(oracle)
    for line, (cset, beam, r_values, predictions, ranks) in zip(summary[1:], oracle):
        langs = [lang for lang in vocab.languages if lang in cset.reflexes]
        rows = [line.split("\t") for line in (tmp_path / "out" / f"{cset.id}.tsv").read_text(
            encoding="utf-8").splitlines()]
        assert rows[0] == ["beam_rank", "candidate", "m", *langs, "r", "rerank_rank", "s"]
        assert len(rows) == 1 + len(beam)
        for i, cells in enumerate(rows[1:]):
            want = [str(i), " ".join(vocab.decode(beam[i].tokens))]
            want += [" ".join(vocab.decode(predictions[i][lang])) for lang in langs]
            want += [f"{r_values[i]:.4f}", str(ranks[i])]
            assert [*cells[:2], *cells[3:-1]] == want
        top = beam[ranks.index(0)]
        assert line.split("\t")[:2] == [cset.id, " ".join(vocab.decode(top.tokens))]


def test_cli_analyze_behavior_matches_oracle(fixture_models, gold_stub_case, monkeypatch,
                                             tmp_path):
    """analyze --out's behavior.tsv counts the oracle's categories: where the gold protoform
    sits in the beam against its rerank rank."""
    path, stub, oracle = gold_stub_case
    vocab = fixture_models[0].vocab
    _run_with_stub(monkeypatch, stub, ["analyze", "--dataset", str(path),
                                       "--out", str(tmp_path / "out")])
    counts = dict.fromkeys(["Improved", "Worsened", "Unchanged", "Not-in"], 0)
    for cset, beam, _, _, ranks in oracle:
        tokens = [vocab.decode(c.tokens) for c in beam]
        if cset.protoform not in tokens:
            counts["Not-in"] += 1
            continue
        beam_rank = tokens.index(cset.protoform)
        rank = ranks[beam_rank]
        counts["Improved" if rank < beam_rank else "Worsened" if rank > beam_rank
               else "Unchanged"] += 1
    assert counts["Improved"] and counts["Worsened"], counts
    lines = ["category\tcount\tpercent"]
    lines += [f"{name}\t{n}\t{100 * n / len(oracle):.2f}" for name, n in counts.items()]
    changed = counts["Improved"] + counts["Worsened"]
    lines.append(f"Improved/Changed\t-\t{100 * counts['Improved'] / changed:.2f}")
    assert (tmp_path / "out" / "behavior.tsv").read_text(encoding="utf-8") == "\n".join(
        lines) + "\n"
