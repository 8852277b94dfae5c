"""Offline evaluation: rank-based AUC and mean logloss.

AUC is the Mann-Whitney statistic computed from average ranks, so it equals
the probability that a uniformly random positive outranks a uniformly random
negative, with ties counting one half. The sort is stable with ties kept in
input order, which makes results deterministic; average ranking makes the tie
order irrelevant to the value itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import ce_vec

METRICS_CSV_HEADER = "n,n_pos,n_neg,auc,logloss"


@dataclass(frozen=True)
class MetricsReport:
    """AUC, logloss and class counts for one scored dataset."""

    n: int
    n_pos: int
    n_neg: int
    auc: float
    logloss: float

    def csv_line(self) -> str:
        return (
            f"{self.n},{self.n_pos},{self.n_neg},"
            f"{self.auc:.6f},{self.logloss:.6f}"
        )


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values receiving the mean rank of their run."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    n = s.shape[0]
    # run boundaries of equal values in sorted order
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], n]
    avg = (starts + 1 + ends) / 2.0  # mean of ranks start+1 .. end
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def _check_finite(scores: np.ndarray) -> None:
    n_bad = scores.size - int(np.count_nonzero(np.isfinite(scores)))
    if n_bad:
        raise ValueError(f"{n_bad} of {scores.size} scores are not finite")


def auc(labels, scores) -> float:
    """Probability a random positive is ranked above a random negative.

    Raises ValueError if a score is NaN or infinite.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be equal-length vectors")
    _check_finite(scores)
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need at least one positive and one negative")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def logloss(labels, scores) -> float:
    """Mean per-sample cross-entropy, scores clipped into (0, 1).

    Raises ValueError if a score is NaN or infinite.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1 or labels.shape[0] < 1:
        raise ValueError("labels and scores must be equal-length nonempty vectors")
    _check_finite(scores)
    return float(ce_vec(labels, scores).mean())


def evaluate(labels, scores) -> MetricsReport:
    """Full report for one scored dataset."""
    labels = np.asarray(labels, dtype=np.float64)
    n_pos = int((labels == 1.0).sum())
    return MetricsReport(
        n=labels.shape[0],
        n_pos=n_pos,
        n_neg=labels.shape[0] - n_pos,
        auc=auc(labels, scores),
        logloss=logloss(labels, scores),
    )
