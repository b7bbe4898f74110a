"""Evaluation metrics: ACC, TED, TER, FER, BCFS, and the articulatory feature table.

Conventions fixed here (the literature leaves them open):
- FER substitutes at cost HammingDistance(features)/F, indels cost 1, and
  normalizes by gold length; corpus TER/FER pool numerators over denominators.
- BCFS clusters the columns of a unit-cost global alignment (traceback
  preference: substitution, then deletion, then insertion); every gap column
  is its own singleton cluster.  Absolute values may carry constant offsets
  versus other BCFS implementations.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import read_text, split_lines
from .errors import ProtoreconError, SchemaError


def _edit_table(a, b, sub_cost):
    """The Levenshtein DP table of a against b: rows[i][j] is the distance of a[:i] to b[:j].

    Insertions and deletions cost 1; substituting x by y costs sub_cost(x, y).
    """
    rows = [list(range(len(b) + 1))]
    for i, x in enumerate(a, start=1):
        prev, cur = rows[-1], [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + sub_cost(x, y)))
        rows.append(cur)
    return rows


def token_edit_distance(a, b) -> int:
    """Levenshtein distance with unit costs."""
    return _edit_table(a, list(b), operator.ne)[-1][-1]


@dataclass(frozen=True)
class FeatureTable:
    """token -> articulatory feature vector in {-1, 0, +1}, plus a tone flag."""

    feature_names: tuple[str, ...]
    vectors: dict[str, np.ndarray]
    tone_flags: dict[str, bool]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def is_tone(self, token: str) -> bool:
        return self.tone_flags.get(token, False)

    def check_tokens(self, tokens):
        """Raise SchemaError naming the tokens (any iterable of them) that the table lacks."""
        missing = sorted({t for t in tokens if t not in self.vectors})
        if missing:
            raise SchemaError(f"tokens missing from feature table: {missing}")

    def substitution_cost(self, a: str, b: str) -> float:
        """Hamming distance between feature vectors, divided by F."""
        self.check_tokens((a, b))
        return float(np.count_nonzero(self.vectors[a] != self.vectors[b])) / self.n_features

    @classmethod
    def from_tsv(cls, tsv_text: str) -> "FeatureTable":
        """Header: token, tone, then one column per feature name; CRLF reads as LF."""
        lines = [ln for ln in split_lines(tsv_text) if ln]
        if not lines:
            raise SchemaError("empty feature table")
        header = lines[0].split("\t")
        if len(header) < 3 or header[0] != "token" or header[1] != "tone":
            raise SchemaError("feature table header must be: token, tone, features...")
        names = tuple(header[2:])
        vectors, tones = {}, {}
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split("\t")
            if len(cells) != len(header):
                raise SchemaError(f"feature table line {lineno}: column count mismatch")
            token = cells[0]
            if token in vectors:
                raise SchemaError(f"feature table line {lineno}: duplicate token {token!r}")
            try:
                vec = np.array([int(c) for c in cells[2:]], dtype=np.int64)
            except ValueError as exc:
                raise SchemaError(f"feature table line {lineno}: {exc}") from exc
            if not np.all(np.isin(vec, (-1, 0, 1))):
                raise SchemaError(f"feature table line {lineno}: values must be -1/0/+1")
            if cells[1] not in ("0", "1"):
                raise SchemaError(f"feature table line {lineno}: tone must be 0 or 1, "
                                  f"not {cells[1]!r}")
            vectors[token] = vec
            tones[token] = cells[1] == "1"
        return cls(names, vectors, tones)


def bundled_feature_table() -> FeatureTable:
    """Small feature table shipped with the package (common IPA + tone marks)."""
    from importlib import resources

    text = resources.files("protorecon").joinpath("data/feature_table.tsv").read_text("utf-8")
    return FeatureTable.from_tsv(text)


def load_feature_table(path: str | None) -> FeatureTable | None:
    """The feature table TSV at path; the name "bundled" is the packaged table, None is none."""
    if path is None:
        return None
    if path == "bundled":
        return bundled_feature_table()
    return FeatureTable.from_tsv(read_text(path))


def feature_edit_distance(a, b, table: FeatureTable) -> float:
    """Weighted Levenshtein: substitution = feature Hamming / F, indel = 1."""
    a, b = list(a), list(b)
    table.check_tokens(a + b)
    return float(_edit_table(a, b, table.substitution_cost)[-1][-1])


GAP = object()  # alignment gap marker; never equal to any token


def align(pred, gold):
    """Unit-cost global alignment as a list of (pred_sym|GAP, gold_sym|GAP) columns.

    Traceback is deterministic: substitution preferred over deletion (pred
    symbol against a gap) preferred over insertion (gap against gold symbol).
    """
    pred, gold = list(pred), list(gold)
    dp = _edit_table(pred, gold, operator.ne)
    cols = []
    i, j = len(pred), len(gold)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (pred[i - 1] != gold[j - 1]):
            cols.append((pred[i - 1], gold[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            cols.append((pred[i - 1], GAP))
            i -= 1
        else:
            cols.append((GAP, gold[j - 1]))
            j -= 1
    return cols[::-1]


def bcubed_f(pred, gold) -> float:
    """B-Cubed F score over alignment columns.

    Each column belongs to a pred-side cluster (columns sharing its pred
    symbol; gap columns are singletons) and a gold-side cluster defined
    analogously; per-column precision/recall is the normalized overlap of
    the two clusters, and the item score is the harmonic mean of the mean
    precision and mean recall.  Cluster sizes and overlaps are counted by
    column key, a gap keyed by its column index.
    """
    cols = align(pred, gold)
    if not cols:
        return 1.0
    keys = [((GAP, c) if p is GAP else p, (GAP, c) if g is GAP else g)
            for c, (p, g) in enumerate(cols)]
    pred_size, gold_size = Counter(p for p, _ in keys), Counter(g for _, g in keys)
    overlap = Counter(keys)
    precision = np.mean([overlap[k] / pred_size[k[0]] for k in keys])
    recall = np.mean([overlap[k] / gold_size[k[1]] for k in keys])
    # each column overlaps its own two clusters, so both means are >= 1 / len(cols)
    return float(2 * precision * recall / (precision + recall))


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate metrics over a prediction set; TER and FER are pooled."""

    acc: float
    ted: float
    ter: float
    fer: float | None
    bcfs: float

    def as_tsv_row(self) -> str:
        """Single-row TSV: ACC%, TED, TER, FER, BCFS at 4 decimals."""
        fer_cell = f"{self.fer:.4f}" if self.fer is not None else "-"
        return (
            "ACC%\tTED\tTER\tFER\tBCFS\n"
            f"{100 * self.acc:.4f}\t{self.ted:.4f}\t{self.ter:.4f}\t{fer_cell}\t{self.bcfs:.4f}\n"
        )


def evaluate(preds, golds, table: FeatureTable | None = None) -> MetricsReport:
    """All metrics over parallel prediction/gold token-sequence lists."""
    if len(preds) != len(golds):
        raise ProtoreconError("prediction/gold list length mismatch")
    if not preds:
        raise ProtoreconError("cannot evaluate an empty prediction set")
    ted_sum = gold_len_sum = fed_sum = 0.0
    exact, bcfs = 0, []
    for p, g in zip(preds, golds):
        ted_sum += token_edit_distance(p, g)
        gold_len_sum += len(g)
        if table is not None:
            fed_sum += feature_edit_distance(p, g, table)
        bcfs.append(bcubed_f(p, g))
        exact += tuple(p) == tuple(g)
    if gold_len_sum == 0:
        raise ProtoreconError("TER undefined: all gold sequences empty")
    return MetricsReport(
        acc=exact / len(preds),
        ted=ted_sum / len(preds),
        ter=ted_sum / gold_len_sum,
        fer=(fed_sum / gold_len_sum) if table is not None else None,
        bcfs=float(np.mean(bcfs)),
    )
