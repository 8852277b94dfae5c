"""Metrics: rank AUC against the pairwise oracle, logloss row-wise."""

import numpy as np
import pytest

from gradutils import ce_loss
from reloop.metrics import MetricsReport, auc, evaluate, logloss


def pairwise_auc(labels, scores):
    """O(n_pos * n_neg) oracle: concordant pairs, ties worth one half."""
    labels = np.asarray(labels, float)
    scores = np.asarray(scores, float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([1, 0], [0.9, 0.1]) == 1.0

    def test_full_tie(self):
        assert auc([1, 0], [0.5, 0.5]) == 0.5

    def test_four_sample_example(self):
        labels = [1, 1, 0, 0]
        scores = [0.8, 0.3, 0.6, 0.1]
        assert pairwise_auc(labels, scores) == 0.75  # 3 concordant of 4 pairs
        assert auc(labels, scores) == pytest.approx(0.75, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(ValueError, match="AUC undefined"):
            auc([1, 1], [0.2, 0.3])
        with pytest.raises(ValueError, match="AUC undefined"):
            auc([0, 0], [0.2, 0.3])

    def test_matches_pairwise_oracle_on_random_data(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 0, 1
            if trial % 2 == 0:
                scores = rng.random(n)  # continuous, ties unlikely
            else:
                scores = rng.integers(0, 4, size=n) / 3.0  # tie-heavy
            assert auc(labels, scores) == pytest.approx(
                pairwise_auc(labels, scores), abs=1e-12
            )

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, 500)
        labels[:2] = [0, 1]
        scores = rng.normal(size=500)
        base = auc(labels, scores)
        assert auc(labels, 2 * scores + 3) == pytest.approx(base, abs=1e-12)
        assert auc(labels, 1 / (1 + np.exp(-scores))) == pytest.approx(base, abs=1e-12)

    def test_complement_without_ties(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, 300)
        labels[:2] = [0, 1]
        scores = rng.permutation(300).astype(float)  # distinct scores
        assert auc(labels, scores) + auc(labels, -scores) == pytest.approx(1.0, abs=1e-12)


class TestLogloss:
    def test_examples(self):
        assert logloss([1, 0], [0.9, 0.1]) == pytest.approx(0.10536051565782628, abs=1e-9)
        assert logloss([1], [0.5]) == pytest.approx(np.log(2), abs=1e-12)

    def test_equals_row_wise_mean(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, 1000).astype(float)
        scores = rng.random(1000)
        rowwise = np.mean([ce_loss(y, p) for y, p in zip(labels, scores)])
        assert logloss(labels, scores) == pytest.approx(rowwise, abs=1e-12)

    def test_clipping_keeps_extremes_finite(self):
        assert np.isfinite(logloss([1, 0], [0.0, 1.0]))


@pytest.mark.parametrize("metric", [auc, logloss])
def test_non_finite_scores_raise_with_their_count(metric):
    with pytest.raises(ValueError, match="2 of 4 scores are not finite"):
        metric([1, 0, 1, 0], [0.9, np.nan, 0.8, np.inf])


class TestReport:
    def test_counts_and_fields(self):
        rep = evaluate([1, 0, 1, 0], [0.9, 0.2, 0.8, 0.4])
        assert (rep.n, rep.n_pos, rep.n_neg) == (4, 2, 2)
        assert rep.auc == 1.0

    def test_csv_line_format(self):
        rep = MetricsReport(n=4, n_pos=2, n_neg=2, auc=1.0, logloss=0.1234567)
        assert rep.csv_line() == "4,2,2,1.000000,0.123457"
