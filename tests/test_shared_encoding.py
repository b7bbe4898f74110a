"""Off-tape gru_sequence with ids steps each distinct state once and keeps every state.

Every row starts from one h0 row, so rows that stepped the same ids share a
state; a masked step leaves a row's state as it was.  Stepping one row per
such class, at least 8 rows a step, must give the states that stepping every
row gives.  On BLAS kernels whose row results do not depend on the other rows
from 8 rows up when the output width is a multiple of 8 (each gate width is,
at H a multiple of 8), they are bitwise equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protorecon import autodiff as ad
from protorecon import models
from protorecon.autodiff import Tensor
from protorecon.cli import load_preset
from protorecon.corpus import assemble_reflex_input, build_vocabulary
from protorecon.errors import DimensionError
from protorecon.synthetic import generate_family
from tests.oracles import padded_gru_sequence

GRU_CELL_NP = ad.gru_cell_np


@st.composite
def shared_batches(draw):
    """(ids (T, B), lengths) of rows over few ids, so that rows share prefixes and suffixes
    and a level often has 1 to 7 distinct states."""
    stems = draw(st.lists(st.lists(st.integers(0, 2), min_size=0, max_size=3),
                          min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(st.sampled_from(stems), st.lists(st.integers(0, 2),
                                                                  max_size=3),
                                   st.sampled_from(stems)),
                         min_size=8, max_size=20))
    seqs = [[*pre, *mid, *post] or [0] for pre, mid, post in rows]
    lengths = np.array([len(s) for s in seqs])
    ids = np.zeros((lengths.max(), len(seqs)), dtype=np.int64)
    for b, s in enumerate(seqs):
        ids[: len(s), b] = s
    return ids, lengths


@settings(max_examples=80)
@given(batch=shared_batches(), H=st.sampled_from([8, 16, 48]), D=st.sampled_from([5, 16]),
       reverse=st.booleans(), masked=st.booleans(), zero_h0=st.booleans(),
       seed=st.integers(0, 2**16))
def test_gru_sequence_with_ids_equals_it_without_bitwise(batch, H, D, reverse, masked, zero_h0,
                                                        seed):
    """Both directions, right-padding masks or none, and one h0 row for every row, zero or
    drawn."""
    ids, lengths = batch
    T, B = ids.shape
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(3, D))
    start = np.zeros(H) if zero_h0 else rng.normal(scale=0.5, size=H)
    h0 = Tensor(np.tile(start, (B, 1)))
    gates = (Tensor(rng.normal(size=(D, 3 * H))), Tensor(rng.normal(size=(H, 2 * H))),
             Tensor(rng.normal(size=(H, H))), Tensor(rng.normal(size=3 * H)))
    mask = (np.arange(T)[:, None] < lengths).astype(float) if masked else None
    X = Tensor(table[ids])
    want = ad.gru_sequence(X, h0, gates, mask, reverse).data
    got = ad.gru_sequence(X, h0, gates, mask, reverse, ids).data
    assert got.tobytes() == want.tobytes()


def test_gru_sequence_with_ids_refuses_unequal_h0_rows():
    """Rows share states only from one h0 row: two rows that differ in one bit are refused."""
    rng = np.random.default_rng(0)
    ids = np.zeros((2, 8), dtype=np.int64)
    gates = (Tensor(rng.normal(size=(4, 24))), Tensor(rng.normal(size=(8, 16))),
             Tensor(rng.normal(size=(8, 8))), Tensor(np.zeros(24)))
    h0 = np.zeros((8, 8))
    h0[3, 5] = np.nextafter(0.0, 1.0)
    with pytest.raises(DimensionError):
        ad.gru_sequence(Tensor(rng.normal(size=(2, 8, 4))), Tensor(h0), gates, ids=ids)


def test_gru_sequence_steps_one_row_per_class_floored_at_8(monkeypatch):
    """Ten rows of two sequences from one h0: each step runs 8 rows, one per distinct state
    padded with copies, where stepping every row runs 10."""
    stepped = []

    def counting(x, h_prev, gates, mask=None, out=None):
        stepped.append(len(x))
        return GRU_CELL_NP(x, h_prev, gates, mask, out)

    rng = np.random.default_rng(0)
    ids = np.array([[0, 1, 2]] * 5 + [[0, 2, 2]] * 5).T
    X = Tensor(rng.normal(size=(3, 4))[ids])
    gates = (Tensor(rng.normal(size=(4, 24))), Tensor(rng.normal(size=(8, 16))),
             Tensor(rng.normal(size=(8, 8))), Tensor(np.zeros(24)))
    h0 = Tensor(np.zeros((10, 8)))
    monkeypatch.setattr(ad, "gru_cell_np", counting)
    ad.gru_sequence(X, h0, gates, ids=ids)
    assert stepped == [8, 8, 8]
    stepped.clear()
    ad.gru_sequence(X, h0, gates)
    assert stepped == [10, 10, 10]


def test_wikihan_reflex_preset_decodes_the_same_tokens(monkeypatch):
    """At the 2-layer WikiHan reflex preset H = 46, so the gate widths 138, 92 and 46 are
    not multiples of 8, and a row's last output columns change with the other rows of its
    product even when every row is stepped.  Sharing changes those rows, so the states may
    differ in their last bits; they must agree to within a few ulp of the largest state,
    and the decoded tokens must be equal."""
    dataset, _ = generate_family(n_sets=40, n_daughters=4, seed=5)
    vocab = build_vocabulary(dataset)
    model = models.ReflexModel(
        models.ReflexModelConfig(**{**load_preset("reflex_gru_wikihan"), "max_epochs": 1}),
        vocab)
    model.max_decode_len = 10
    rows = [assemble_reflex_input(proto, lang, vocab)
            for cs in dataset.sets for proto in (cs.protoform, cs.protoform[:-1])
            for lang in cs.reflexes if proto]
    shared, shared_tokens = model.encode_np(rows), model.greedy_decode_rows(rows)
    monkeypatch.setattr(ad, "gru_sequence", padded_gru_sequence)
    padded, padded_tokens = model.encode_np(rows), model.greedy_decode_rows(rows)
    assert shared_tokens == padded_tokens
    assert np.abs(shared - padded).max() <= 8 * np.spacing(np.abs(padded).max())
