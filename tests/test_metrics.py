"""Edit-distance, FER, and BCFS oracles plus metric properties."""

import itertools

import numpy as np
import pytest

from protorecon.errors import ProtoreconError, SchemaError
from protorecon.metrics import (
    GAP,
    FeatureTable,
    align,
    bcubed_f,
    bundled_feature_table,
    evaluate,
    feature_edit_distance,
    token_edit_distance,
)

ALPHABET = ["p", "t", "k", "a", "i"]

FEATURE_TSV = (
    "token\ttone\tf1\tf2\tf3\n"
    "p\t0\t1\t0\t-1\n"
    "t\t0\t1\t1\t-1\n"
    "k\t0\t1\t1\t1\n"
    "a\t0\t-1\t0\t0\n"
    "i\t0\t-1\t-1\t0\n"
    "˥\t1\t0\t0\t0\n"
)


@pytest.fixture(scope="module")
def table():
    return FeatureTable.from_tsv(FEATURE_TSV)


def _random_pair(rng, max_len):
    la, lb = int(rng.integers(0, max_len + 1)), int(rng.integers(0, max_len + 1))
    a = [ALPHABET[i] for i in rng.integers(0, len(ALPHABET), la)]
    b = [ALPHABET[i] for i in rng.integers(0, len(ALPHABET), lb)]
    return a, b


# -- token edit distance ------------------------------------------------------


def _ted_recursive(a, b):
    """Plain recursive Levenshtein (memoized) as an independent oracle."""
    memo = {}

    def rec(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if i == 0:
            out = j
        elif j == 0:
            out = i
        else:
            out = min(
                rec(i - 1, j) + 1,
                rec(i, j - 1) + 1,
                rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            )
        memo[(i, j)] = out
        return out

    return rec(len(a), len(b))


def test_ted_against_recursive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b = _random_pair(rng, 6)
        assert token_edit_distance(a, b) == _ted_recursive(a, b)


def test_ted_known_values():
    assert token_edit_distance([], []) == 0
    assert token_edit_distance(["p"], []) == 1
    assert token_edit_distance("kitten", "sitting") == 3


def test_ter():
    assert evaluate([["p", "a"]], [["p", "i"]]).ter == pytest.approx(0.5)
    with pytest.raises(ProtoreconError):
        evaluate([["p"]], [[]])


def test_accuracy():
    assert evaluate([("a",), ("b",)], [("a",), ("c",)]).acc == pytest.approx(0.5)
    with pytest.raises(ProtoreconError):
        evaluate([("a",)], [])


# -- feature table ------------------------------------------------------------


def test_feature_table_parsing(table):
    assert table.n_features == 3
    assert "p" in table and "z" not in table
    assert table.is_tone("˥") and not table.is_tone("p")


def test_feature_table_crlf_equals_lf(table):
    crlf = FeatureTable.from_tsv(FEATURE_TSV.replace("\n", "\r\n"))
    assert crlf.feature_names == table.feature_names == ("f1", "f2", "f3")
    assert crlf.tone_flags == table.tone_flags
    assert crlf.vectors.keys() == table.vectors.keys()
    assert all(np.array_equal(crlf.vectors[t], table.vectors[t]) for t in table.vectors)


def test_feature_table_rejects_bad_values():
    with pytest.raises(SchemaError):
        FeatureTable.from_tsv("token\ttone\tf1\np\t0\t2\n")
    with pytest.raises(SchemaError):
        FeatureTable.from_tsv("f1\tf2\n1\t0\n")


def test_feature_table_rejects_a_duplicate_token():
    with pytest.raises(SchemaError, match="line 3: duplicate token 'p'"):
        FeatureTable.from_tsv("token\ttone\tf1\np\t0\t1\np\t0\t-1\n")


def test_substitution_cost(table):
    assert table.substitution_cost("p", "p") == 0.0
    assert table.substitution_cost("p", "t") == pytest.approx(1 / 3)
    assert table.substitution_cost("p", "a") == pytest.approx(2 / 3)
    assert table.substitution_cost("a", "p") == table.substitution_cost("p", "a")
    with pytest.raises(ProtoreconError):
        table.substitution_cost("p", "zz")


def test_bundled_table_loads():
    t = bundled_feature_table()
    assert t.n_features >= 10
    for tok in ("p", "t", "k", "a", "i", "s", "l"):
        assert tok in t


# -- feature edit distance ----------------------------------------------------


def _fed_bruteforce(a, b, table):
    """Minimum alignment cost by exhausting all monotone alignments."""
    best = [np.inf]

    def rec(i, j, cost):
        if cost >= best[0]:
            return
        if i == len(a) and j == len(b):
            best[0] = min(best[0], cost)
            return
        if i < len(a) and j < len(b):
            rec(i + 1, j + 1, cost + table.substitution_cost(a[i], b[j]))
        if i < len(a):
            rec(i + 1, j, cost + 1.0)
        if j < len(b):
            rec(i, j + 1, cost + 1.0)

    rec(0, 0, 0.0)
    return best[0]


def test_fed_against_bruteforce_oracle(table):
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = _random_pair(rng, 5)
        got = feature_edit_distance(a, b, table)
        want = _fed_bruteforce(a, b, table)
        assert got == pytest.approx(want, abs=1e-12)


def test_fed_bounded_by_ted(table):
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = _random_pair(rng, 5)
        assert feature_edit_distance(a, b, table) <= token_edit_distance(a, b) + 1e-12


def test_fer(table):
    assert evaluate([["p"]], [["t"]], table).fer == pytest.approx(1 / 3)
    with pytest.raises(ProtoreconError):
        evaluate([["p"]], [[]], table)


def test_fed_unknown_token(table):
    with pytest.raises(ProtoreconError):
        feature_edit_distance(["zz"], ["p"], table)


# -- alignment and BCFS -------------------------------------------------------


def test_align_identity():
    cols = align(["p", "a"], ["p", "a"])
    assert cols == [("p", "p"), ("a", "a")]


def test_align_cost_matches_ted():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = _random_pair(rng, 5)
        cols = align(a, b)
        cost = sum(
            1 if (x is GAP or y is GAP) else (x != y) for x, y in cols
        )
        assert cost == token_edit_distance(a, b)
        # projections of the alignment reproduce the inputs
        assert [x for x, _ in cols if x is not GAP] == list(a)
        assert [y for _, y in cols if y is not GAP] == list(b)


def _bcfs_oracle(pred, gold):
    """By-definition column clustering, written independently of metrics.align."""
    cols = align(pred, gold)
    if not cols:
        return 1.0
    n = len(cols)

    def clusters(side):
        out = []
        for c in range(n):
            sym = cols[c][side]
            if sym is GAP:
                out.append({c})
            else:
                out.append({d for d in range(n) if cols[d][side] == sym})
        return out

    pc, gc = clusters(0), clusters(1)
    precision = sum(len(pc[c] & gc[c]) / len(pc[c]) for c in range(n)) / n
    recall = sum(len(pc[c] & gc[c]) / len(gc[c]) for c in range(n)) / n
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_bcfs_against_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b = _random_pair(rng, 5)
        assert bcubed_f(a, b) == pytest.approx(_bcfs_oracle(a, b), abs=1e-12)


def test_bcfs_bounds_and_identity():
    assert bcubed_f([], []) == 1.0
    assert bcubed_f(["p", "a"], ["p", "a"]) == 1.0
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = _random_pair(rng, 5)
        assert 0.0 <= bcubed_f(a, b) <= 1.0


# -- metric properties --------------------------------------------------------


def test_metric_properties(table):
    """Symmetry, triangle inequality, identity, bounds over random instances."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        a, b = _random_pair(rng, 4)
        c, _ = _random_pair(rng, 4)
        dab = token_edit_distance(a, b)
        assert dab == token_edit_distance(b, a)
        assert dab >= 0
        assert (dab == 0) == (list(a) == list(b))
        assert dab <= token_edit_distance(a, c) + token_edit_distance(c, b)
        assert abs(len(a) - len(b)) <= dab <= max(len(a), len(b))
        fab = feature_edit_distance(a, b, table)
        assert fab == pytest.approx(feature_edit_distance(b, a, table), abs=1e-12)
        assert fab >= 0
        fac = feature_edit_distance(a, c, table)
        fcb = feature_edit_distance(c, b, table)
        assert fab <= fac + fcb + 1e-12


# -- aggregate reporting ------------------------------------------------------


def test_evaluate_pooled_vs_item_mean(table):
    preds = [("p", "a"), ("t",)]
    golds = [("p", "a"), ("k", "i")]
    rep = evaluate(preds, golds, table)
    assert rep.acc == pytest.approx(0.5)
    assert rep.ted == pytest.approx(1.0)  # (0 + 2) / 2 items
    assert rep.ter == pytest.approx(2.0 / 4.0)  # pooled over gold tokens
    assert rep.fer is not None and 0 <= rep.fer <= rep.ter + 1e-12
    assert 0.0 <= rep.bcfs <= 1.0


def test_evaluate_without_feature_table():
    rep = evaluate([("p",)], [("p",)])
    assert rep.fer is None
    row = rep.as_tsv_row()
    assert "\t-\t" in row
    assert row.startswith("ACC%\tTED\tTER\tFER\tBCFS\n")


def test_evaluate_validates_lengths():
    with pytest.raises(ProtoreconError):
        evaluate([("p",)], [])
    with pytest.raises(ProtoreconError):
        evaluate([], [])


def test_perfect_predictions_all_metrics(table):
    golds = [("p", "a", "t"), ("k", "i")]
    rep = evaluate(list(golds), golds, table)
    assert rep.acc == 1.0
    assert rep.ted == 0.0
    assert rep.ter == 0.0
    assert rep.fer == 0.0
    assert rep.bcfs == 1.0
