"""Inputs of the benchmark's workloads, each a pure function of the workload seed.

``train-small`` and ``train-wide`` train on the acceptance-criterion-6
family (2000 sets, 4 daughters) with a 70/10/20 split, both seeded by the
workload seed.  ``infer`` reranks new cognate sets drawn from the seed-0
family's rule book, the family the checkpoints in ``fixtures/`` learned.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from protorecon import models
from protorecon.cli import load_preset
from protorecon.corpus import CognateSet, Dataset, split_dataset
from protorecon.synthetic import derive, generate_family, random_protoform

FAMILY_SETS, FAMILY_DAUGHTERS, MISSING_RATE = 2000, 4, 0.05
SPLIT = (0.7, 0.1, 0.2)
INFER_SETS = 120
BEAM_K, LAMBDA = 10, 1.0

# Acceptance criterion 6 settings.
CRITERION6 = dict(
    embedding_size=32, hidden_size=64, feedforward_size=64, dropout=0.0,
    batch_size=16, lr=0.005, warmup_epochs=1, seed=0,
)
FIXTURE_EPOCHS = 12
ONE_EPOCH = dict(max_epochs=1, validate_every=1)
WIDE_PRESETS = {"recon": "recon_gru_bs_wikihan", "reflex": "reflex_gru_wikihan"}
CONFIG_CLASSES = {"recon": models.ReconModelConfig, "reflex": models.ReflexModelConfig}

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
FIXTURES = {"recon": "recon.ckpt", "reflex": "reflex.ckpt"}
SHA_FILE = "SHA256SUMS"


def family(seed: int) -> Dataset:
    """The split-tagged criterion-6 family for ``seed``."""
    dataset, _rules = generate_family(FAMILY_SETS, FAMILY_DAUGHTERS, seed=seed)
    return split_dataset(dataset, SPLIT, seed)


def train_configs(workload: str) -> dict:
    """kind -> model config of one ``models.train`` call in a train workload."""
    out = {}
    for kind, cls in CONFIG_CLASSES.items():
        values = dict(CRITERION6) if workload == "train-small" else load_preset(WIDE_PRESETS[kind])
        values.update(ONE_EPOCH)
        out[kind] = cls(**values)
    return out


def fixture_configs() -> dict:
    return {kind: cls(**CRITERION6, max_epochs=FIXTURE_EPOCHS, validate_every=4, patience=4)
            for kind, cls in CONFIG_CLASSES.items()}


def infer_sets(seed: int) -> Dataset:
    """New cognate sets derived through the seed-0 family's rule book.

    Daughter 1 is never missing, as in ``generate_family``; the others drop
    out at the family's missing-reflex rate.
    """
    _family, rules = generate_family(1, FAMILY_DAUGHTERS, seed=0)
    languages = tuple(rules)
    rng = np.random.default_rng(seed)
    sets = []
    for i in range(INFER_SETS):
        proto = random_protoform(rng)
        reflexes = {
            lang: derive(proto, rules[lang])
            for j, lang in enumerate(languages)
            if j == 0 or rng.random() >= MISSING_RATE
        }
        sets.append(CognateSet(f"new{i + 1}", proto, reflexes))
    return Dataset(languages, tuple(sets))


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def recorded_hashes() -> dict:
    """file name -> sha256 from fixtures/SHA256SUMS (``sha256sum`` format)."""
    out = {}
    with open(os.path.join(FIXTURE_DIR, SHA_FILE), encoding="utf-8") as f:
        for line in f:
            if line.strip():
                digest, name = line.split()
                out[name] = digest
    return out
