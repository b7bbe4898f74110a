"""Reranking with the trained fixture checkpoints equals the one-row oracle.

benchmarks/fixtures holds a recon and a reflex checkpoint trained on the
seed-0 synthetic family, with their sha256 in SHA256SUMS.  On new cognate
sets derived through that family's rewrite rules these trained models give
real reflex accuracies between 0 and 1, so a defect that leaves r at 0, or
scores the wrong candidate, shows here.  scored_beams plus rerank must equal
the scalar reference beam and the one-row reflex decodes of tests/oracles.py.
The files are only read.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from protorecon import models
from protorecon.corpus import CognateSet, assemble_reconstruction_input
from protorecon.rerank import rerank, scored_beams
from protorecon.synthetic import derive, generate_family, random_protoform
from tests.oracles import beam_search_reference, oracle_recon_decoder, oracle_scores

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
N_SETS, BEAM_K, LAMBDA = 12, 10, 1.0


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
    got = list(scored_beams(recon, reflex, sets, config))
    assert len(got) == N_SETS
    r_seen = []
    for cset, (beam, r_values, predictions) in zip(sets, got):
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
