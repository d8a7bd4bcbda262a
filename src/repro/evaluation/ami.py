"""Adjusted and Normalized Mutual Information.

AMI follows Vinh, Epps & Bailey (2009/2010): the mutual information is
corrected by its expectation under the permutation model (EMI, computed
with the exact hypergeometric sum) and normalized by the arithmetic mean
of the marginal entropies — the same convention as scikit-learn's
default, hence comparable to the paper's numbers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.evaluation.contingency import contingency_table, entropy, mutual_information


def expected_mutual_information(rows: np.ndarray, cols: np.ndarray) -> float:
    """EMI of the permutation (hypergeometric) model, in nats.

    Exact sum over all feasible cell values; complexity
    ``O(R · C · min(a_i, b_j))``, fine for the cluster counts that occur
    in practice.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n = int(rows.sum())
    if n == 0:
        return 0.0
    log_n = np.log(n)
    # Precompute log-factorials: log(x!) = lgamma(x + 1).
    log_fact = np.fromiter(
        (math.lgamma(x + 1.0) for x in range(n + 1)), dtype=np.float64, count=n + 1
    )

    def lf(x: np.ndarray) -> np.ndarray:
        return log_fact[np.asarray(x, dtype=np.int64)]

    emi = 0.0
    for a in rows:
        a = int(a)
        if a == 0:
            continue
        for b in cols:
            b = int(b)
            if b == 0:
                continue
            start = max(1, a + b - n)
            stop = min(a, b)
            if start > stop:
                continue
            nij = np.arange(start, stop + 1, dtype=np.int64)
            term1 = (nij / n) * (np.log(nij) + log_n - np.log(a) - np.log(b))
            log_prob = (
                lf(a)
                + lf(b)
                + lf(n - a)
                + lf(n - b)
                - lf(n)
                - lf(nij)
                - lf(a - nij)
                - lf(b - nij)
                - lf(n - a - b + nij)
            )
            emi += float(np.sum(term1 * np.exp(log_prob)))
    return emi


def adjusted_mutual_information(
    labels_a: Sequence[int], labels_b: Sequence[int]
) -> float:
    """AMI with arithmetic-mean normalization (sklearn-compatible).

    Examples
    --------
    >>> round(adjusted_mutual_information([0, 0, 1, 1], [1, 1, 0, 0]), 12)
    1.0
    """
    table, rows, cols = contingency_table(labels_a, labels_b)
    h_a, h_b = entropy(rows), entropy(cols)
    # Degenerate single-cluster / all-singleton partitions.
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    mi = mutual_information(table)
    emi = expected_mutual_information(rows, cols)
    mean_h = (h_a + h_b) / 2.0
    denom = mean_h - emi
    if abs(denom) < 1e-15:
        return 0.0
    value = (mi - emi) / denom
    return float(value)


def normalized_mutual_information(
    labels_a: Sequence[int], labels_b: Sequence[int]
) -> float:
    """NMI with arithmetic-mean normalization."""
    table, rows, cols = contingency_table(labels_a, labels_b)
    h_a, h_b = entropy(rows), entropy(cols)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    mean_h = (h_a + h_b) / 2.0
    if mean_h == 0.0:
        return 0.0
    return float(mutual_information(table) / mean_h)
