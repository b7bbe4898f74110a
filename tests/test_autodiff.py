"""Autodiff primitives against central finite differences, plus Adam closed forms.

mul, affine, sigmoid and narrow come from tests/oracles.py, since only the oracles use
them; their checks here keep the oracle GRU step honest.
"""

import ast
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from protorecon import autodiff as ad
from protorecon.autodiff import Tensor
from protorecon.errors import DimensionError, TrainingError
from tests.oracles import (
    affine,
    embedding_grad,
    gru_cell_six,
    masked_step,
    mul,
    narrow,
    sigmoid,
    stack_gates,
)
from tests.test_corpus import _library_calls


def _check(loss_fn, params, tol=1e-6, **kw):
    err = ad.gradient_check(loss_fn, params, **kw)
    assert err < tol, f"max relative gradient error {err:.3g}"


def _sum(t):
    # scalar reduction via matmul against ones, keeping everything on the tape
    ones_r = Tensor(np.ones((t.data.shape[1], 1)))
    ones_l = Tensor(np.ones((1, t.data.shape[0])))
    return ad.matmul(ones_l, ad.matmul(t, ones_r))


# -- primitives ---------------------------------------------------------------


def test_add_with_bias_broadcast():
    rng = np.random.default_rng(0)
    a = ad.parameter(rng.normal(size=(5, 7)), "a")
    b = ad.parameter(rng.normal(size=7), "b")
    _check(lambda: _sum(sigmoid(ad.add(a, b))), [a, b])


def test_add_refuses_a_shape_that_broadcasts_a_beyond_its_own():
    with pytest.raises(DimensionError, match="add: incompatible shapes"):
        ad.add(ad.parameter(np.zeros(3)), ad.parameter(np.zeros((2, 3))))


def test_mul_broadcast():
    rng = np.random.default_rng(1)
    a = ad.parameter(rng.normal(size=(6, 4)), "a")
    b = ad.parameter(rng.normal(size=(6, 1)), "b")
    _check(lambda: _sum(mul(a, b)), [a, b])


def test_affine():
    rng = np.random.default_rng(2)
    x = ad.parameter(rng.normal(size=(3, 8)), "x")
    _check(lambda: _sum(ad.tanh(affine(x, -2.5, 0.75))), [x])


def test_matmul():
    rng = np.random.default_rng(3)
    a = ad.parameter(rng.normal(size=(4, 6)), "a")
    b = ad.parameter(rng.normal(size=(6, 5)), "b")
    _check(lambda: _sum(ad.matmul(a, b)), [a, b])


def test_matmul_shape_mismatch():
    a = ad.parameter(np.zeros((2, 3)))
    b = ad.parameter(np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        ad.matmul(a, b)


def test_concat_and_narrow():
    rng = np.random.default_rng(4)
    a = ad.parameter(rng.normal(size=(3, 4)), "a")
    b = ad.parameter(rng.normal(size=(3, 2)), "b")

    def loss():
        c = ad.concat([a, b])
        return _sum(sigmoid(narrow(c, 2, 3)))

    _check(loss, [a, b])


def test_sigmoid_tanh():
    rng = np.random.default_rng(5)
    x = ad.parameter(rng.normal(size=(4, 4)), "x")
    _check(lambda: _sum(ad.tanh(sigmoid(x))), [x])


def test_embedding():
    rng = np.random.default_rng(6)
    table = ad.parameter(rng.normal(size=(7, 5)), "emb")
    ids = np.array([0, 3, 3, 6, 1])  # repeated row exercises gradient accumulation
    _check(lambda: _sum(ad.tanh(ad.embedding(table, ids))), [table])


@st.composite
def gathers(draw):
    """(table rows, ids): 1-D or (T, B) ids with repeats, into small and large tables."""
    rows = draw(st.sampled_from([1, 3, 17, 509, 600]))
    shape = draw(st.sampled_from([(1,), (9,), (40,), (1, 1), (7, 5), (12, 16)]))
    ids = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, min(rows, 4) - 1)
                          if draw(st.booleans()) else st.integers(0, rows - 1)))
    return rows, ids


@settings(max_examples=60)
@given(gather=gathers(), width=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_embedding_gradient_matches_add_at_oracle(gather, width, seed):
    rows, ids = gather
    rng = np.random.default_rng(seed)
    table = ad.parameter(rng.normal(size=(rows, width)), "emb")
    g = rng.normal(size=(*ids.shape, width))
    out = ad.embedding(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    (got,) = out.backward_rule(g)
    np.testing.assert_allclose(got[1], embedding_grad(table.data.shape, ids, g), rtol=0,
                               atol=1e-12 * max(1.0, np.abs(g).sum()))


@settings(max_examples=20)
@given(gather=gathers(), seed=st.integers(0, 2**16))
def test_embeddings_equal_concatenated_embeddings(gather, seed):
    rows, ids = gather
    rng = np.random.default_rng(seed)
    tok = ad.parameter(rng.normal(size=(rows, 3)), "tok")
    lang = ad.parameter(rng.normal(size=(5, 2)), "lang")
    lang_ids = ids % 5
    out = ad.embeddings([(tok, ids), (lang, lang_ids)])
    want = ad.concat([ad.embedding(tok, ids), ad.embedding(lang, lang_ids)], axis=-1)
    assert np.array_equal(out.data, want.data)
    g = rng.normal(size=out.shape)
    got_grads = dict((id(t), pg) for t, pg in out.backward_rule(g))
    want_grads = {id(tok): embedding_grad(tok.shape, ids, g[..., :3]),
                  id(lang): embedding_grad(lang.shape, lang_ids, g[..., 3:])}
    for key, want_grad in want_grads.items():
        np.testing.assert_allclose(got_grads[key], want_grad, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(g).sum()))


def test_embedding_and_reshape_gradients():
    rng = np.random.default_rng(15)
    table = ad.parameter(rng.normal(size=(4, 3, 2)), "states")  # a 3-D table: pick whole steps
    _check(lambda: _sum(ad.reshape(ad.tanh(ad.embedding(table, np.array([[3, 0], [3, 3]]))),
                                   (4, 6))), [table])


@pytest.mark.parametrize("partition", [False, True])
def test_grouped_affine_equals_gathered_affine_maps(partition):
    """One node equals a gather, matmul and bias per group, each in its rows; gradients checked."""
    rng = np.random.default_rng(19)
    x = ad.parameter(rng.normal(size=(7, 4)), "x")
    ws = [ad.parameter(rng.normal(size=(4, 3)), f"w{i}") for i in range(3)]
    bs = [ad.parameter(rng.normal(size=3), f"b{i}") for i in range(3)]
    rows = [np.array([5, 0, 2]), np.array([6]), np.array([1, 3, 4])] if partition else [None]
    groups = list(zip(rows, ws, bs))
    got = ad.grouped_affine(x, groups)
    parts = [ad.add(ad.matmul(x if r is None else ad.embedding(x, r), w), b) for r, w, b in groups]
    want = parts[0].data
    if partition:  # the groups' rows concatenated, gathered back into row order
        want = np.concatenate([part.data for part in parts])[np.argsort(np.concatenate(rows))]
    assert np.array_equal(got.data, want)
    upstream = Tensor(rng.normal(size=(3, 1)))
    _check(lambda: _sum(ad.matmul(ad.tanh(ad.grouped_affine(x, groups)), upstream)),
           [x] + [t for _, w, b in groups for t in (w, b)])


@pytest.mark.parametrize("shape", [(1, 1), (7, 4), (40, 9)])
def test_grouped_affine_of_one_all_rows_group_equals_add_of_matmul(shape):
    """One group of every row is add(matmul(x, w), b) bitwise: output and all three gradients."""
    rng = np.random.default_rng(shape[0])
    data = [rng.normal(size=shape), rng.normal(size=(shape[1], 5)), rng.normal(size=5)]
    upstream = Tensor(rng.normal(size=(5, 1)))
    results = []
    for affine_map in (lambda x, w, b: ad.grouped_affine(x, [(None, w, b)]),
                       lambda x, w, b: ad.add(ad.matmul(x, w), b)):
        tensors = [ad.parameter(array.copy()) for array in data]
        out = affine_map(*tensors)
        results.append([out.data.tobytes()])
        _sum(ad.matmul(ad.tanh(out), upstream)).backward()
        results[-1] += [t.grad.tobytes() for t in tensors]
    assert results[0] == results[1]


def _reduce(t, weights):
    """The scalar weights . t over all of t's entries, on the tape."""
    return ad.matmul(ad.reshape(t, (1, t.data.size)), Tensor(weights.reshape(-1, 1)))


# How the gathered output x reaches the loss: alone; through two consumers, as layer 0 of a
# bidirectional encoder feeds both directions; and through add, which hands one g to both
# of its parents, there to x and to a parameter y whose rule runs after x's.
_CONSUMERS = {
    "one": lambda x, y, w: _reduce(x, w),
    "two": lambda x, y, w: ad.add(_reduce(ad.tanh(x), w), _reduce(x, w[::-1].copy())),
    "add": lambda x, y, w: _reduce(ad.add(y, x), w),
    "add itself": lambda x, y, w: _reduce(ad.add(x, x), w),
}


@settings(max_examples=60)
@given(gather=gathers(), two_tables=st.booleans(), rate=st.sampled_from([0.0, 0.25, 0.6]),
       by_keep=st.booleans(), consumers=st.sampled_from(sorted(_CONSUMERS)),
       seed=st.integers(0, 2**16))
def test_embeddings_with_dropout_equal_dropout_of_embeddings(gather, two_tables, rate,
                                                             by_keep, consumers, seed):
    """The gather that drops out its own output equals ad.dropout over the plain gather, bit
    for bit: the output, each table's gradient, and the generator's next draw."""
    rows, ids = gather
    widths = (3, 2) if two_tables else (4,)
    tables = [np.random.default_rng(seed).normal(size=(rows, w)) for w in widths]
    keep = np.random.default_rng(seed + 1).random((*ids.shape, sum(widths))) >= rate
    weights = np.random.default_rng(seed + 2).normal(size=keep.size)
    results = []
    for fused in (True, False):
        params = [ad.parameter(table.copy()) for table in tables]
        y = ad.parameter(np.zeros(keep.shape))
        pairs = list(zip(params, [ids, (ids + 1) % rows]))
        rng = None if by_keep else np.random.default_rng(seed + 3)
        drop = dict(rng=rng, keep=keep if by_keep else None)
        x = (ad.embeddings(pairs, rate, **drop) if fused
             else ad.dropout(ad.embeddings(pairs), rate, **drop))
        _CONSUMERS[consumers](x, y, weights).backward()
        results.append([x.data.tobytes(), None if rng is None else rng.random(),
                        *(t.grad.tobytes() for t in [*params, y] if t.grad is not None)])
    assert results[0] == results[1]


def test_dropout_scales_like_a_float_mask():
    """Boolean keep masks times 1 / (1 - rate) give x * mask and g * mask bitwise."""
    x = ad.parameter(np.random.default_rng(5).normal(size=(6, 5)))
    mask = (np.random.default_rng(6).random(x.shape) >= 0.3) / (1.0 - 0.3)
    out = ad.dropout(x, 0.3, np.random.default_rng(6))
    assert np.array_equal(out.data, x.data * mask)
    g = np.random.default_rng(7).normal(size=x.shape)
    assert np.array_equal(out.backward_rule(g)[0][1], g * mask)


def test_dropout_mask_gradient():
    rng = np.random.default_rng(7)
    x = ad.parameter(rng.normal(size=(6, 6)), "x")
    # fixed generator per forward pass keeps the mask identical across evals
    _check(lambda: _sum(ad.dropout(x, 0.5, np.random.default_rng(42))), [x])


def test_softmax_cross_entropy():
    rng = np.random.default_rng(8)
    logits = ad.parameter(rng.normal(size=(6, 5)), "logits")
    targets = np.array([0, 1, 2, 3, 4, 0])
    weights = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])  # one masked row
    _check(lambda: ad.softmax_cross_entropy(logits, targets, weights), [logits])


@pytest.mark.parametrize("logits, targets", [(np.zeros((2, 3, 4)), [0, 1]),
                                              (np.zeros((2, 4)), [0, 1, 2])],
                         ids=["3-D logits", "one label too many"])
def test_softmax_cross_entropy_refuses_misshapen_inputs(logits, targets):
    with pytest.raises(DimensionError, match="2-D logits and row labels"):
        ad.softmax_cross_entropy(ad.parameter(logits), targets)


@pytest.mark.parametrize("weights, normalizer", [([0.0, 0.0], None), ([1.0, 1.0], 0.0)],
                         ids=["all rows masked", "zero normalizer"])
def test_softmax_cross_entropy_refuses_no_weighted_rows(weights, normalizer):
    with pytest.raises(DimensionError, match="no weighted rows"):
        ad.softmax_cross_entropy(ad.parameter(np.zeros((2, 4))), [0, 1], weights, normalizer)


def test_softmax_cross_entropy_steps_add_like_a_step_loop():
    """Runs of B rows reduced step by step, steps added in order: bitwise the loop."""
    rng = np.random.default_rng(16)
    T, B = 5, 7
    logits = ad.parameter(rng.normal(size=(T * B, 6)) * 3.0, "logits")
    targets = rng.integers(0, 6, T * B)
    weights = (rng.random(T * B) < 0.8).astype(float)
    steps = [slice(t * B, (t + 1) * B) for t in range(T)]
    total = weights.sum()
    loop = sum(float(ad.softmax_cross_entropy(Tensor(logits.data[s]), targets[s], weights[s],
                                              normalizer=total).data) for s in steps)
    got = ad.softmax_cross_entropy(logits, targets, weights, normalizer=total, steps=T)
    assert float(got.data) == loop
    want = ad.softmax_cross_entropy(logits, targets, weights, normalizer=total)
    assert float(got.data) == pytest.approx(float(want.data), rel=1e-13)
    _check(lambda: ad.softmax_cross_entropy(logits, targets, weights, normalizer=total,
                                            steps=T), [logits])


def test_softmax_cross_entropy_normalizer():
    logits = ad.parameter(np.zeros((2, 3)))
    targets = np.array([0, 1])
    loss_default = ad.softmax_cross_entropy(logits, targets)
    loss_scaled = ad.softmax_cross_entropy(logits, targets, normalizer=4.0)
    assert float(loss_default.data) == pytest.approx(np.log(3.0))
    assert float(loss_scaled.data) == pytest.approx(np.log(3.0) / 2.0)


def _gru_params(rng, n_in, n_hid, scale=1.0):
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W_{gate}"] = ad.parameter(rng.normal(size=(n_in, n_hid)) * scale, f"W_{gate}")
        params[f"U_{gate}"] = ad.parameter(rng.normal(size=(n_hid, n_hid)) * scale, f"U_{gate}")
        params[f"b_{gate}"] = ad.parameter(rng.normal(size=n_hid) * scale, f"b_{gate}")
    return params


def test_gru_cell_gradient():
    rng = np.random.default_rng(9)
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W_{gate}"] = ad.parameter(rng.normal(size=(4, 6)) * 0.5, f"W_{gate}")
        params[f"U_{gate}"] = ad.parameter(rng.normal(size=(6, 6)) * 0.5, f"U_{gate}")
        params[f"b_{gate}"] = ad.parameter(rng.normal(size=6) * 0.1, f"b_{gate}")
    x = ad.parameter(rng.normal(size=(3, 4)), "x")
    h0 = ad.parameter(rng.normal(size=(3, 6)), "h0")

    def loss():
        gates = stack_gates(params)
        h = ad.gru_cell(x, h0, gates)
        h = ad.gru_cell(ad.tanh(x), h, gates)  # two chained steps, reused weights
        return _sum(h)

    _check(loss, [x, h0] + list(params.values()), samples_per_param=3)


def test_gru_cell_masked_gradient():
    rng = np.random.default_rng(12)
    params = _gru_params(rng, 4, 6, scale=0.5)
    x = ad.parameter(rng.normal(size=(4, 4)), "x")
    h0 = ad.parameter(rng.normal(size=(4, 6)), "h0")
    masks = (np.array([1.0, 0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]))

    def loss():
        gates = stack_gates(params)
        h = ad.gru_cell(x, h0, gates, masks[0])
        h = ad.gru_cell(ad.tanh(x), h, gates, masks[1])
        return _sum(h)

    _check(loss, [x, h0] + list(params.values()), samples_per_param=3)


@pytest.mark.parametrize("mask", [None, np.array([1.0, 0.0, 1.0, 1.0, 0.0])])
def test_gru_cell_matches_six_matmul_oracle(mask):
    """The fused node equals the six-matmul primitive graph, forward and backward."""
    rng = np.random.default_rng(13)
    params = _gru_params(rng, 7, 6)
    x = ad.parameter(rng.normal(size=(5, 7)), "x")
    h0 = ad.parameter(rng.normal(size=(5, 6)), "h0")
    upstream = Tensor(rng.normal(size=(6, 1)))
    leaves = [x, h0] + list(params.values())

    def run(step):
        for p in leaves:
            p.zero_grad()
        h = step(x, h0)
        h = step(ad.tanh(x), h)
        ad.matmul(Tensor(np.ones((1, 5))), ad.matmul(h, upstream)).backward()
        return h.data, [p.grad.copy() for p in leaves]

    def fused(xx, h):
        return ad.gru_cell(xx, h, stack_gates(params), mask)

    def oracle(xx, h):
        h_new = gru_cell_six(xx, h, params)
        return h_new if mask is None else masked_step(h, h_new, mask)

    got_h, got_grads = run(fused)
    want_h, want_grads = run(oracle)
    np.testing.assert_allclose(got_h, want_h, rtol=1e-12, atol=1e-12)
    for p, got, want in zip(leaves, got_grads, want_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(),
                                   err_msg=p.name)
    if mask is not None:  # both steps are padded on these rows: the state is kept exactly
        assert np.array_equal(got_h[mask == 0], h0.data[mask == 0])


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("masked", [False, True])
def test_gru_sequence_gradient(reverse, masked):
    rng = np.random.default_rng(17)
    params = _gru_params(rng, 4, 5, scale=0.5)
    T, B = 4, 3
    X = ad.parameter(rng.normal(size=(T, B, 4)), "X")
    h0 = ad.parameter(rng.normal(size=(B, 5)), "h0")
    mask = (rng.random((T, B)) < 0.6).astype(float) if masked else None
    upstream = Tensor(rng.normal(size=(5, 1)))

    def loss():
        states = ad.gru_sequence(X, h0, stack_gates(params), mask, reverse)
        return _sum(ad.matmul(ad.reshape(ad.tanh(states), (T * B, 5)), upstream))

    _check(loss, [X, h0] + list(params.values()), samples_per_param=3)


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_sequence_matches_six_matmul_step_chain(reverse):
    """One sequence node equals a chain of primitive GRU steps, states and every gradient."""
    rng = np.random.default_rng(18)
    T, B, D, H = 6, 5, 7, 4
    params = _gru_params(rng, D, H)
    X = ad.parameter(rng.normal(size=(T, B, D)), "X")
    h0 = ad.parameter(rng.normal(size=(B, H)), "h0")
    mask = (rng.random((T, B)) < 0.7).astype(float)
    upstream = rng.normal(size=(T, B, H))
    leaves = [X, h0] + list(params.values())
    for p in leaves:
        p.zero_grad()
    states = ad.gru_sequence(X, h0, stack_gates(params), mask, reverse)
    _sum(ad.reshape(mul(states, Tensor(upstream)), (T * B, H))).backward()
    got = [p.grad.copy() for p in leaves]
    for p in leaves:
        p.zero_grad()
    h, steps = h0, [None] * T
    for t in range(T - 1, -1, -1) if reverse else range(T):
        x_t = ad.embedding(X, t)
        h = steps[t] = masked_step(h, gru_cell_six(x_t, h, params), mask[t])
    total = [_sum(mul(steps[t], Tensor(upstream[t]))) for t in range(T)]
    loss = total[0]
    for part in total[1:]:
        loss = ad.add(loss, part)
    loss.backward()
    np.testing.assert_allclose(states.data, np.stack([s.data for s in steps]), rtol=1e-12,
                               atol=1e-12)
    for p, got_grad in zip(leaves, got):
        np.testing.assert_allclose(got_grad, p.grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(p.grad).max(), err_msg=p.name)


def test_gru_cell_np_matches_tensor_path():
    rng = np.random.default_rng(10)
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W_{gate}"] = ad.parameter(rng.normal(size=(4, 6)), f"W_{gate}")
        params[f"U_{gate}"] = ad.parameter(rng.normal(size=(6, 6)), f"U_{gate}")
        params[f"b_{gate}"] = ad.parameter(rng.normal(size=6), f"b_{gate}")
    x = rng.normal(size=(2, 4))
    h0 = rng.normal(size=(2, 6))
    gates = stack_gates(params)
    t = ad.gru_cell(Tensor(x), Tensor(h0), gates)
    n = ad.gru_cell_np(x, h0, tuple(g.data for g in gates))
    assert np.allclose(t.data, n, atol=1e-12)
    assert np.allclose(gru_cell_six(Tensor(x), Tensor(h0), params).data, n, atol=1e-12)


def test_gru_cell_builds_no_node_off_the_tape():
    rng = np.random.default_rng(14)
    gates = tuple(Tensor(g.data) for g in stack_gates(_gru_params(rng, 3, 4)))
    h = ad.gru_cell(Tensor(rng.normal(size=(2, 3))), Tensor(np.zeros((2, 4))), gates)
    assert not h.parents and h.backward_rule is None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_untracked_gru_sequence_is_a_gru_cell_np_loop_bitwise(T, B, reverse, masked, seed):
    """Off the tape gru_sequence is the per-step loop that inference ran before it, bit for
    bit: each step's own x @ W, in either direction, a masked row keeping its state."""
    rng = np.random.default_rng(seed)
    gates = tuple(g.data for g in stack_gates(_gru_params(rng, 3, 4)))
    X, h0 = rng.normal(size=(T, B, 3)), rng.normal(size=(B, 4))
    mask = (rng.random((T, B)) < 0.7).astype(float) if masked else None
    got = ad.gru_sequence(Tensor(X), Tensor(h0), tuple(map(Tensor, gates)), mask, reverse)
    want, h = np.empty((T, B, 4)), h0
    for t in range(T - 1, -1, -1) if reverse else range(T):
        h = want[t] = ad.gru_cell_np(X[t].copy(), h, gates, None if mask is None else mask[t])
    assert np.array_equal(got.data, want)
    assert not got.parents and got.backward_rule is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.booleans(),
       st.sampled_from(["tape", "no mask", "mask", "mask and ids"]), st.integers(0, 2**32 - 1))
def test_final_state_is_the_last_step_of_the_full_run_bitwise(T, B, reverse, path, seed):
    """gru_sequence(..., final=True) is the state after the last step of the same run with
    every state kept, bit for bit: row T - 1, or row 0 in reverse.  Off the tape with no
    mask, a mask, or a right-padding mask and the ids that X embeds from one h0 row; on the
    tape the gradients of every input are bitwise equal too."""
    rng = np.random.default_rng(seed)
    params = _gru_params(rng, 3, 8, scale=0.7)
    ids = rng.integers(0, 3, size=(T, B))
    X = rng.normal(size=(3, 3))[ids] if path == "mask and ids" else rng.normal(size=(T, B, 3))
    h0 = np.tile(rng.normal(size=8), (B, 1)) if path == "mask and ids" else rng.normal(size=(B, 8))
    mask = None if path == "no mask" else (rng.random((T, B)) < 0.7).astype(float)
    if path == "mask and ids":  # right-padding, so that every step steps some row
        lengths = rng.integers(1, T + 1, size=B)
        lengths[0] = T
        mask = (np.arange(T)[:, None] < lengths).astype(float)
    tape = path == "tape"
    last = 0 if reverse else T - 1
    upstream = Tensor(rng.normal(size=(8, 1)))

    def run(final):
        leaves = ([ad.parameter(X, "X"), ad.parameter(h0, "h0")] if tape
                  else [Tensor(X), Tensor(h0)])
        gates = stack_gates(params) if tape else tuple(Tensor(g.data) for g in stack_gates(params))
        out = ad.gru_sequence(*leaves, gates, mask, reverse,
                              ids if path == "mask and ids" else None, final=final)
        h = out if final else ad.embedding(out, last)
        if not tape:
            assert not out.parents and out.backward_rule is None
            return h.data, []
        for p in list(params.values()):
            p.zero_grad()
        _sum(ad.matmul(ad.tanh(h), upstream)).backward()
        return h.data, [p.grad.copy() for p in leaves + list(params.values())]

    (got, got_grads), (want, want_grads) = run(True), run(False)
    assert got.shape == (B, 8)
    assert got.tobytes() == want.tobytes()
    assert len(got_grads) == len(want_grads) == (11 if tape else 0)
    for got_grad, want_grad in zip(got_grads, want_grads):
        assert got_grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("ids", [False, True])
def test_final_state_off_the_tape_keeps_no_states_array(ids):
    """One off-tape final-state pass at T = 50, B = 512, H = 64 peaks below the 13.1 MB of
    one (T, B, H) float64 array of states."""
    T, B, H = 50, 512, 64
    rng = np.random.default_rng(3)
    gates = tuple(Tensor(g.data) for g in stack_gates(_gru_params(rng, 8, H, scale=0.3)))
    row_ids = rng.integers(0, 4, size=(T, B))
    X = Tensor(rng.normal(size=(4, 8))[row_ids])
    mask = (np.arange(T)[:, None] < rng.integers(1, T + 1, size=B)).astype(float)
    h0 = Tensor(np.zeros((B, H)))
    tracemalloc.start()
    try:
        h = ad.gru_sequence(X, h0, gates, mask, ids=row_ids if ids else None, final=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.data.shape == (B, H)
    assert peak < T * B * H * 8


# -- tape nodes ---------------------------------------------------------------

_KEEP = np.random.default_rng(20).random((3, 4)) >= 0.5
_IDS = np.array([[0, 4], [2, 2]])

# Each op as a function of its tensor inputs in argument order, and those inputs' shapes.
TAPE_OPS = {
    "add": (ad.add, [(3, 4), (4,)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "reshape": (lambda x: ad.reshape(x, (4, 3)), [(3, 4)]),
    "grouped_affine": (lambda x, w0, b0, w1, b1: ad.grouped_affine(
        x, [(np.array([0, 2, 4]), w0, b0), (np.array([1, 3]), w1, b1)]),
        [(5, 4), (4, 3), (3,), (4, 3), (3,)]),
    "concat": (lambda *tensors: ad.concat(tensors), [(3, 2), (3, 4), (3, 1)]),
    "tanh": (ad.tanh, [(3, 4)]),
    "embedding": (lambda table: ad.embedding(table, _IDS), [(5, 3)]),
    "embeddings": (lambda t0, t1: ad.embeddings([(t0, _IDS), (t1, _IDS[::-1] % 4)]),
                   [(5, 3), (4, 2)]),
    "dropout": (lambda x: ad.dropout(x, 0.5, keep=_KEEP), [(3, 4)]),
    "softmax_cross_entropy": (lambda logits: ad.softmax_cross_entropy(logits, [0, 4, 2]),
                              [(3, 5)]),
    "gru_sequence": (lambda X, h0, *gates: ad.gru_sequence(
        X, h0, gates, np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])),
        [(3, 2, 4), (2, 5), (4, 15), (5, 10), (5, 5), (15,)]),
}


def _op_inputs(op, tracked=None):
    """op's inputs, drawn at their shapes: untracked, but a parameter at index tracked."""
    rng = np.random.default_rng(21)
    return [ad.parameter(rng.normal(size=shape)) if i == tracked else Tensor(rng.normal(size=shape))
            for i, shape in enumerate(TAPE_OPS[op][1])]


@pytest.mark.parametrize("op", sorted(TAPE_OPS))
def test_an_op_on_untracked_inputs_records_nothing(op):
    out = TAPE_OPS[op][0](*_op_inputs(op))
    assert out.parents == () and out.backward_rule is None


@pytest.mark.parametrize("op, tracked", [(op, i) for op in sorted(TAPE_OPS)
                                         for i in range(len(TAPE_OPS[op][1]))])
def test_an_op_with_a_tracked_input_is_a_node_over_all_its_inputs(op, tracked):
    """With one tracked input among untracked ones, an op is a node whose parents are its
    tensor inputs in argument order; backward() gives the tracked input a gradient and
    leaves every untracked input's at None."""
    inputs = _op_inputs(op, tracked)
    out = TAPE_OPS[op][0](*inputs)
    assert len(out.parents) == len(inputs) and all(map(operator.is_, out.parents, inputs))
    assert out.backward_rule is not None
    n = out.data.size
    ad.matmul(ad.reshape(out, (1, n)), Tensor(np.ones((n, 1)))).backward()
    assert [t.grad is not None for t in inputs] == [i == tracked for i in range(len(inputs))]
    assert inputs[tracked].grad.shape == inputs[tracked].shape


def _makes_a_tape_node(call):
    """A Tensor(...) call that passes parents or a backward rule, by position or keyword."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "Tensor" and (
        len(call.args) > 2 or any(isinstance(arg, ast.Starred) for arg in call.args)
        or any(k.arg in ("parents", "backward_rule", None) for k in call.keywords))


def test_every_tape_node_is_built_by_node():
    """autodiff._node is the one place where an op's output becomes a tape node, and
    Tensor.backward asks _tracked, as _node does, which parents take a gradient."""
    assert _library_calls(_makes_a_tape_node, {("autodiff.py", "_node")}) == []
    tracked_by = {(module, function) for module, function, _ in _library_calls(
        lambda call: isinstance(call.func, ast.Name) and call.func.id == "_tracked", set())}
    assert {("autodiff.py", "backward"), ("autodiff.py", "_node")} <= tracked_by


def test_backward_requires_scalar():
    x = ad.parameter(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        ad.add(x, x).backward()


def test_shared_subexpression_accumulates():
    # y = x*x + x*x: gradient must be 4x, not 2x
    x = ad.parameter(np.array([[3.0]]), "x")
    y = ad.add(mul(x, x), mul(x, x))
    y.backward()
    assert x.grad[0, 0] == pytest.approx(12.0)


def _gru_chain(steps, seed=11):
    """Loss of a GRU run for `steps` steps with shared weights, and its parameters."""
    rng = np.random.default_rng(seed)
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W_{gate}"] = ad.parameter(rng.normal(scale=0.3, size=(3, 4)), f"W_{gate}")
        params[f"U_{gate}"] = ad.parameter(rng.normal(scale=0.3, size=(4, 4)), f"U_{gate}")
        params[f"b_{gate}"] = ad.parameter(rng.normal(scale=0.3, size=4), f"b_{gate}")
    x = Tensor(rng.normal(size=(2, 3)))
    h = Tensor(np.zeros((2, 4)))
    gates = stack_gates(params)
    for _ in range(steps):
        h = ad.gru_cell(x, h, gates)
    return _sum(h), list(params.values())


def _recursive_backward(loss):
    """Tensor.backward as it was with a recursive topological sort (the order oracle)."""
    topo, seen = [], set()

    def visit(t):
        if id(t) in seen:
            return
        seen.add(id(t))
        for p in t.parents:
            visit(p)
        topo.append(t)

    visit(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    for t in reversed(topo):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t.grad is not None:
            t.grad += g
        if t.backward_rule is None:
            continue
        for parent, pg in t.backward_rule(g):
            if not (parent.requires_grad or parent.parents):
                continue
            if id(parent) in grads:
                grads[id(parent)] += pg
            else:
                grads[id(parent)] = np.array(pg)


def test_backward_long_chain_does_not_recurse():
    loss, params = _gru_chain(400)
    loss.backward()
    assert all(np.all(np.isfinite(p.grad)) and np.any(p.grad) for p in params)


def test_backward_matches_recursive_order():
    loss, params = _gru_chain(100)
    for p in params:
        p.zero_grad()  # the oracle only adds into existing gradient arrays
    _recursive_backward(loss)
    want = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    loss.backward()
    for p, w in zip(params, want):
        assert np.array_equal(p.grad, w)


def test_backward_leaves_no_reference_cycle():
    """Once the loss is dropped, reference counting alone frees the tape."""
    import gc
    import weakref

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        loss, _params = _gru_chain(5)
        node = loss.parents[1].parents[0]  # the last GRU state
        assert node.parents
        ref = weakref.ref(node.data)
        del node
        loss.backward()
        del loss
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# -- optimizer ----------------------------------------------------------------


def test_adam_first_step_closed_form():
    """One step with unit gradient moves by -lr/(1+eps), about -0.1 at lr=0.1."""
    p = ad.parameter(np.array([2.0]), "p")
    opt = ad.Adam([p], lr=0.1)
    p.grad[:] = 1.0
    opt.step()
    expected = 2.0 - 0.1 * 1.0 / (1.0 + opt.eps)
    assert p.data[0] == pytest.approx(expected, abs=1e-12)


def test_adam_two_step_recurrence():
    """Two steps with grads g1, g2 match the hand-unrolled update to 1e-12."""
    g1, g2 = 0.7, -0.3
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p = ad.parameter(np.array([1.0]), "p")
    opt = ad.Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)

    x = 1.0
    m = v = 0.0
    for t, g in enumerate((g1, g2), start=1):
        p.grad[:] = g
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert p.data[0] == pytest.approx(x, abs=1e-12)


def test_adam_rejects_nonfinite_gradient():
    p = ad.parameter(np.array([1.0]), "p")
    opt = ad.Adam([p], lr=0.1)
    p.grad[:] = np.nan
    with pytest.raises(TrainingError):
        opt.step()


def test_adam_decoupled_weight_decay():
    p = ad.parameter(np.array([1.0]), "p")
    opt = ad.Adam([p], lr=0.1, weight_decay=0.5)
    p.grad[:] = 0.0
    # zero gradient: only decay moves the weight (m_hat/(sqrt(v_hat)+eps) = 0)
    opt.step()
    assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)


def test_warmup_scale():
    assert ad.warmup_scale(0, 0) == 1.0
    assert ad.warmup_scale(0, 4) == pytest.approx(0.25)
    assert ad.warmup_scale(3, 4) == 1.0
    assert ad.warmup_scale(10, 4) == 1.0
