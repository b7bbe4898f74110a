"""End to end on a generated language family: train, beam-decode, rerank.

The synthetic generator applies seeded compositions of invertible rewrite
rules to random protoforms, so the mapping is exactly learnable and a small
model suffices.  Scale n_sets / max_epochs up for stronger models.
"""

import numpy as np

from protorecon import models
from protorecon.corpus import build_vocabulary, split_dataset
from protorecon.metrics import evaluate
from protorecon.rerank import ReflexCache, reconstruct_reranked
from protorecon.synthetic import generate_family

dataset, rules = generate_family(n_sets=600, n_daughters=3, seed=0)
dataset = split_dataset(dataset, (0.7, 0.1, 0.2), seed=0)
vocab = build_vocabulary(dataset)

print("sound changes of daughter D1:")
for rule in rules["D1"]:
    print("  ", rule.describe())

recon_cfg = models.ReconModelConfig(
    embedding_size=32, hidden_size=64, feedforward_size=64, dropout=0.0,
    batch_size=16, lr=0.005, max_epochs=30, warmup_epochs=1, seed=0,
)
reflex_cfg = models.ReflexModelConfig(
    embedding_size=32, hidden_size=64, feedforward_size=64, dropout=0.0,
    batch_size=16, lr=0.005, max_epochs=30, warmup_epochs=1, seed=0,
)

print("\ntraining reconstruction model ...")
recon = models.train(models.ReconModel(recon_cfg, vocab), dataset)
print("training reflex model ...")
reflex = models.train(models.ReflexModel(reflex_cfg, vocab), dataset)

test = dataset.subset("test")
cache = ReflexCache()
beam_preds, rerank_preds, golds = [], [], []
for cs in test.sets:
    # beam size 5; alpha and the longest candidate (max_decode_len) are the recon model's
    top, reranked, beam, _ = reconstruct_reranked(recon, reflex, cs, 5, lam=1.0, cache=cache)
    beam_preds.append(vocab.decode(beam[0].tokens))
    rerank_preds.append(vocab.decode(top.tokens))
    golds.append(tuple(cs.protoform))

beam_report = evaluate(beam_preds, golds)
rerank_report = evaluate(rerank_preds, golds)
print(f"\ntest sets: {len(golds)}")
print(f"beam top-1   ACC {100 * beam_report.acc:5.1f}%  TER {beam_report.ter:.3f}")
print(f"reranked     ACC {100 * rerank_report.acc:5.1f}%  TER {rerank_report.ter:.3f}")

changed = sum(b != r for b, r in zip(beam_preds, rerank_preds))
print(f"reranking changed {changed} of {len(golds)} top candidates")
