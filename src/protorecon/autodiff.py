"""Minimal reverse-mode autodiff over numpy arrays, plus Adam and a gradient checker.

Just enough machinery for GRU encoder-decoder models: 64-bit values, a tape
recorded per forward pass, and backward rules for the handful of primitives
the models need.  No general broadcasting beyond bias rows and column masks.
An op whose inputs are all untracked (no grad, no parents) returns a plain
Tensor before it builds a backward rule, so inference runs the training
forward on untracked parameters with no tape.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, TrainingError

_F64 = np.dtype(np.float64)


class Tensor:
    """A numpy array with an optional gradient accumulator and backward rule.

    A tensor that requires grad gets its gradient array on first use
    (zero_grad, or backward reaching it), so inference never allocates one.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_rule", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward_rule=None, name=None):
        # every op makes a Tensor, so a float64 array skips np.asarray's dtype handling
        self.data = data if type(data) is np.ndarray and data.dtype is _F64 else np.asarray(
            data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.parents = parents
        self.backward_rule = backward_rule
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0
        elif self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def backward(self):
        """Reverse-mode sweep seeding d(self)/d(self) = 1.

        The sweep consumes the graph: afterwards every node of it has no
        parents and no backward rule, so a graph is differentiated once.
        """
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar loss")
        # Iterative post-order DFS: parents before children, in the order a
        # recursive visit gives, without a recursion limit on long chains.
        topo, seen = [], {id(self)}
        stack = [(self, iter(self.parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p.parents)))
                    break
            else:
                stack.pop()
                topo.append(node)
        grads = {id(self): np.ones_like(self.data)}
        while topo:
            t = topo.pop()
            # let go of the inputs now, so that the forward's arrays are freed as the sweep goes
            rule, t.parents, t.backward_rule = t.backward_rule, (), None
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g
            if rule is None:
                continue
            for parent, pg in rule(g):
                if not (parent.requires_grad or parent.parents):
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += pg
                elif pg is g or pg.base is not None:  # may be shared: keep a copy to add into
                    grads[id(parent)] = np.array(pg)
                else:  # a fresh array that the rule made for this parent
                    grads[id(parent)] = pg

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}, name={self.name})"


def _tracked(*tensors) -> bool:
    for t in tensors:  # a plain loop: this check runs on every op, with or without a tape
        if t.requires_grad or t.parents:
            return True
    return False


def parameter(data, name=None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a 1-D bias broadcast over rows of a."""
    out = a.data + b.data
    if out.shape != a.data.shape:
        raise DimensionError(f"add: incompatible shapes {a.shape} vs {b.shape}")
    if not _tracked(a, b):
        return Tensor(out)

    def rule(g):
        gb = g.sum(axis=0) if b.data.ndim < g.ndim else g
        return ((a, g), (b, gb))

    return Tensor(out, parents=(a, b), backward_rule=rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data
    if not _tracked(a, b):
        return Tensor(out)

    def rule(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return Tensor(out, parents=(a, b), backward_rule=rule)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)
    if not _tracked(x):
        return Tensor(out)
    return Tensor(out, parents=(x,), backward_rule=lambda g: ((x, g.reshape(x.data.shape)),))


def grouped_affine(x: Tensor, groups) -> Tensor:
    """x[rows] @ w + b for each (rows, w, b) group, stacked in group order.

    rows holds distinct row indices of x, or is None for every row.  One
    node for all groups, so that the backward writes each group's rows of
    the input gradient in place: a gather per group would scatter an
    input-sized gradient per group.
    """
    xs = [x.data if rows is None else x.data[rows] for rows, _, _ in groups]
    parts = [xg @ w.data + b.data for xg, (_, w, b) in zip(xs, groups)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    params = [t for _, w, b in groups for t in (w, b)]
    if not _tracked(x, *params):
        return Tensor(out)
    ends = np.cumsum([len(xg) for xg in xs])

    def rule(g):
        gx, grads = np.zeros_like(x.data), []
        for (rows, w, b), xg, end in zip(groups, xs, ends):
            g_part = g[end - len(xg) : end]
            grads += [(w, xg.T @ g_part), (b, g_part.sum(axis=0))]
            gx[slice(None) if rows is None else rows] += g_part @ w.data.T
        return grads + [(x, gx)]

    return Tensor(out, parents=(x, *params), backward_rule=rule)


def concat(tensors, axis=1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    if not _tracked(*tensors):
        return Tensor(out)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def rule(g):
        return tuple(zip(tensors, np.split(g, splits, axis=axis)))

    return Tensor(out, parents=tuple(tensors), backward_rule=rule)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    if not _tracked(x):
        return Tensor(out)

    def rule(g):
        return ((x, g * (1.0 - out * out)),)

    return Tensor(out, parents=(x,), backward_rule=rule)


def _scatter_rows(shape, ids, g):
    """The gradient of a table of shape gathered by ids (any shape) from that gather's g.

    Sums each id's gradient rows into its table row through a one-hot
    (rows, ids) matmul, written straight into a fresh table-shaped array.
    """
    flat = ids.reshape(-1)
    one_hot = np.zeros((shape[0], flat.size))
    one_hot[flat, np.arange(flat.size)] = 1.0
    full = np.empty(shape)
    np.matmul(one_hot, g.reshape(flat.size, -1), out=full.reshape(shape[0], -1))
    return full


def embedding(table: Tensor, ids) -> Tensor:
    """Gather entries along axis 0 of a table by an int array of ids of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]
    if not _tracked(table):
        return Tensor(out)
    return Tensor(out, parents=(table,),
                  backward_rule=lambda g: ((table, _scatter_rows(table.data.shape, ids, g)),))


def embeddings(pairs) -> Tensor:
    """Gathers of 2-D tables by (table, ids) pairs of one ids shape, concatenated.

    Equals concat(..., axis=-1) of their embeddings, gathered straight into
    the one output: no array per gather stays on the tape.
    """
    pairs = [(table, np.asarray(ids, dtype=np.int64)) for table, ids in pairs]
    out = np.concatenate([table.data[ids] for table, ids in pairs], axis=-1)
    tables = [table for table, _ in pairs]
    if not _tracked(*tables):
        return Tensor(out)
    ends = np.cumsum([table.data.shape[1] for table in tables])

    def rule(g):
        return tuple((table, _scatter_rows(table.data.shape, ids,
                                           g[..., end - table.data.shape[1] : end]))
                     for (table, ids), end in zip(pairs, ends))

    return Tensor(out, parents=tuple(tables), backward_rule=rule)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None,
            keep: np.ndarray | None = None) -> Tensor:
    """Inverted dropout x * keep / (1 - rate), with boolean keep = rng.random(x.shape) >= rate.

    A keep mask drawn beforehand may be passed instead of rng, so that a
    caller can draw the masks of several dropouts in another order.
    """
    if rate <= 0.0:
        return x
    if keep is None:
        keep = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = x.data * scale
    out *= keep
    if not _tracked(x):
        return Tensor(out)

    def rule(g):
        gx = g * scale
        gx *= keep
        return ((x, gx),)

    return Tensor(out, parents=(x,), backward_rule=rule)


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, log-sum-exp stabilized (plain numpy helper)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits: Tensor, targets, weights=None, normalizer=None,
                          steps=None) -> Tensor:
    """Weighted-mean cross-entropy over rows of logits.

    targets: int array of row labels; weights: per-row nonnegative floats
    (default all ones).  Reduction is sum(w_i * nll_i) / normalizer, with
    normalizer defaulting to sum(w_i) -- the mean-over-tokens convention
    once pad rows get weight 0.  steps, a (T, n) array of row indices, splits
    the rows of a whole teacher-forced sequence into its decode steps: each
    step's rows are reduced in the order given, and the step losses added in
    step order, as a loop over steps would add them.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise DimensionError("softmax_cross_entropy expects 2-D logits and row labels")
    w = np.ones(len(targets)) if weights is None else np.asarray(weights, dtype=np.float64)
    total = w.sum() if normalizer is None else float(normalizer)
    if total <= 0:
        raise DimensionError("softmax_cross_entropy: no weighted rows")
    logp = log_softmax_rows(logits.data)
    rows = np.arange(len(targets))
    weighted = w * logp[rows, targets]
    if steps is None:
        out = -weighted.sum() / total
    else:
        out = np.array(sum(float(-weighted[step].sum() / total) for step in steps))
    if not _tracked(logits):
        return Tensor(out)

    def rule(g):
        probs = np.exp(logp)
        grad = probs * (w / total)[:, None]
        grad[rows, targets] -= w / total
        return ((logits, g.reshape(()) * grad),)

    return Tensor(out, parents=(logits,), backward_rule=rule)


def _gate_z(z, mask):
    """The update gate with padded rows (mask 0) zeroed, so that they keep h exactly."""
    return z if mask is None else z * mask[..., None]


def _gru_forward(x, h, W, U_zr, U_h, b, mask):
    """Raw-array GRU step over stacked gates: (h_next, (z|r, h_tilde)).

    With W None, x is already the step's input projection x @ W, which
    gru_sequence computes for all steps at once.  Gates are finished in
    place, and a projection made here is freed early, so that a step holds
    little more than its outputs.
    """
    H = h.shape[1]
    a = x if W is None else x @ W
    zr = h @ U_zr
    zr += a[:, : 2 * H]
    zr += b[: 2 * H]
    np.negative(zr, out=zr)
    np.exp(zr, out=zr)
    zr += 1.0
    np.divide(1.0, zr, out=zr)  # sigmoid
    h_tilde = a[:, 2 * H :].copy()
    del a
    h_tilde += (zr[:, H:] * h) @ U_h
    h_tilde += b[2 * H :]
    np.tanh(h_tilde, out=h_tilde)
    zm = _gate_z(zr[:, :H], mask)
    out = 1.0 - zm
    out *= h
    out += zm * h_tilde
    return out, (zr, h_tilde)


def gru_sequence(X: Tensor, h0: Tensor, gates, mask=None, reverse=False) -> Tensor:
    """A GRU over a whole batch of sequences as one tape node: states (T, B, H) of X (T, B, D).

    states[t] is the state after step t, which is gru_cell's step
    (_gru_forward); reverse runs the steps from T - 1 down to 0, as the
    backward direction of an encoder does.  A row whose mask (T, B) is 0 at
    a step keeps its state there.  The input projection X @ W is one GEMM
    over all steps (Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946).
    The backward is a BPTT loop over the steps; after it dW, dU_zr, dU_h
    and dX are one GEMM each over the stacked steps.
    """
    W, U_zr, U_h, b = gates
    T, B, D = X.data.shape
    H = h0.data.shape[1]
    A = (X.data.reshape(T * B, D) @ W.data).reshape(T, B, 3 * H)
    states, z, r, h_tilde = (np.empty((T, B, H)) for _ in range(4))
    order = range(T - 1, -1, -1) if reverse else range(T)
    h = h0.data
    for t in order:
        h, (zr, h_tilde[t]) = _gru_forward(A[t], h, None, U_zr.data, U_h.data, b.data,
                                           None if mask is None else mask[t])
        states[t], z[t], r[t] = h, zr[:, :H], zr[:, H:]
    del A
    if not _tracked(X, h0, *gates):
        return Tensor(states)

    def rule(g):
        ends = (states[1:], h0.data[None]) if reverse else (h0.data[None], states[:-1])
        h_prev = np.concatenate(ends)  # the state each step started from
        zm = _gate_z(z, mask)
        # dA, the pre-activation grads z|r|h, first holds the factors of the
        # step gradients that do not depend on the carried gradient, made in
        # one contiguous (T, B, H) array f at a time
        dA = np.empty((T, B, 3 * H))
        np.subtract(h_tilde, h_prev, out=dA[..., :H])
        f = np.subtract(1.0, z)
        f *= zm
        dA[..., :H] *= f
        np.subtract(1.0, r, out=f)
        f *= r
        f *= h_prev
        dA[..., H : 2 * H] = f
        np.multiply(h_tilde, h_tilde, out=f)
        np.subtract(1.0, f, out=f)
        f *= zm
        dA[..., 2 * H :] = f
        keep = np.subtract(1.0, zm, out=f)
        del zm
        dh = np.zeros((B, H))  # gradient carried back into the state of the step before
        for t in reversed(order):
            g_t = g[t] + dh
            dA[t, :, :H] *= g_t
            dA[t, :, 2 * H :] *= g_t
            drh = dA[t, :, 2 * H :] @ U_h.data.T
            dA[t, :, H : 2 * H] *= drh
            dh = g_t * keep[t] + drh * r[t] + dA[t, :, : 2 * H] @ U_zr.data.T
        dA = dA.reshape(T * B, 3 * H)
        grads = [(W, X.data.reshape(T * B, D).T @ dA),
                 (U_zr, h_prev.reshape(T * B, H).T @ dA[:, : 2 * H]),
                 (U_h, np.multiply(r, h_prev, out=keep).reshape(T * B, H).T @ dA[:, 2 * H :]),
                 (b, dA.sum(axis=0))]
        if _tracked(X):
            dX = np.empty((T, B, D))
            np.matmul(dA, W.data.T, out=dX.reshape(T * B, D))
            grads.append((X, dX))
        if _tracked(h0):
            grads.append((h0, dh))
        return grads

    return Tensor(states, parents=(X, h0, *gates), backward_rule=rule)


def gru_cell(x: Tensor, h_prev: Tensor, gates, mask=None) -> Tensor:
    """One GRU step, h_next = (1 - z) * h_prev + z * h_tilde.

    gates = (W, U_zr, U_h, b) with the gates stacked z|r|h: W = [W_z W_r W_h]
    of shape (input, 3 * hidden), U_zr = [U_z U_r] of shape (hidden,
    2 * hidden), U_h (hidden, hidden) and b = [b_z b_r b_h].  Rows whose mask
    entry is 0 (a padded step) keep h_prev.  Off the tape this is
    gru_cell_np; on it, a one-step gru_sequence.
    """
    W, U_zr, U_h, b = gates
    if not _tracked(x, h_prev, W, U_zr, U_h, b):
        return Tensor(gru_cell_np(x.data, h_prev.data, (W.data, U_zr.data, U_h.data, b.data), mask))
    states = gru_sequence(reshape(x, (1, *x.data.shape)), h_prev, gates,
                          None if mask is None else mask[None])
    return reshape(states, h_prev.data.shape)


def gru_cell_np(x: np.ndarray, h_prev: np.ndarray, gates, mask=None) -> np.ndarray:
    """gru_cell's forward on raw arrays, which gru_cell runs when nothing is tracked."""
    return _gru_forward(x, h_prev, *gates, mask)[0]


class Adam:
    """Bias-corrected Adam with optional decoupled weight decay and lr warmup."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.zero_grad()  # step() reads every gradient

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, lr_scale: float = 1.0):
        self.t += 1
        lr = self.lr * lr_scale
        for i, p in enumerate(self.params):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {p.name!r}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1**self.t)
            v_hat = self.v[i] / (1.0 - self.beta2**self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data

def warmup_scale(epoch: int, warmup_epochs: int) -> float:
    """Linear warmup from 0 over warmup_epochs, then constant 1."""
    if warmup_epochs <= 0 or epoch >= warmup_epochs:
        return 1.0
    return (epoch + 1) / warmup_epochs


def gradient_check(loss_fn, params, eps=1e-5, rng=None, samples_per_param=5):
    """Max relative error between reverse-mode and central-difference grads.

    loss_fn() rebuilds the forward graph from the current parameter values
    and returns a scalar Tensor; it must be deterministic (fix any dropout
    seed) so that the +/- eps evaluations are comparable.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        n = min(samples_per_param, flat.size)
        for idx in rng.choice(flat.size, size=n, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = float(loss_fn().data.reshape(()))
            flat[idx] = orig - eps
            f_minus = float(loss_fn().data.reshape(()))
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic = gflat[idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst
