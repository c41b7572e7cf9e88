"""Paired nonparametric comparison of ACC distributions and report summaries."""

import math

import numpy as np

from .errors import InvalidArgumentError

_EXACT_LIMIT = 25


def _signed_ranks(differences):
    """Midranks of |d| and the tie group sizes."""
    magnitudes = np.abs(differences)
    order = np.argsort(magnitudes, kind="stable")
    ranks = np.empty(differences.size)
    sizes = []
    i = 0
    while i < differences.size:
        j = i
        while j < differences.size and magnitudes[order[j]] == magnitudes[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)  # midrank of positions i..j-1 (1-based)
        sizes.append(j - i)
        i = j
    return ranks, np.array(sizes)


def _exact_two_sided_p(ranks, w_plus):
    """Doubling-convention exact p over all 2^n sign assignments.

    Uses a subset-sum table over doubled midranks, which stays integral
    under ties.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    n_assignments = 2.0 ** len(ranks)
    w2 = int(round(2.0 * w_plus))
    p_low = counts[: w2 + 1].sum() / n_assignments
    p_high = counts[w2:].sum() / n_assignments
    return min(1.0, 2.0 * min(p_low, p_high))


def _normal_two_sided_p(ranks, tie_sizes, w_plus):
    """Tie-corrected normal approximation with continuity correction."""
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - np.sum(
        tie_sizes.astype(float) ** 3 - tie_sizes
    ) / 48.0
    if variance <= 0:
        return 1.0
    z = (abs(w_plus - mean) - 0.5) / math.sqrt(variance)
    z = max(z, 0.0)
    return float(math.erfc(z / math.sqrt(2.0)))


def wilcoxon_signed_rank(a, b):
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped before ranking. Small samples (n <= 25)
    use the exact sign-assignment distribution, larger ones the
    tie-corrected normal approximation.

    Returns
    -------
    (statistic, p) : (float, float)
        statistic is the positive-rank sum W+. When every difference is
        zero the result is (0.0, 1.0) by convention.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidArgumentError("inputs must be 1-D arrays of equal length")
    differences = a - b
    differences = differences[differences != 0.0]
    n = differences.size
    if n == 0:
        return 0.0, 1.0
    if n < 5:
        raise InvalidArgumentError(
            f"need at least 5 non-zero differences, got {n}"
        )
    ranks, tie_sizes = _signed_ranks(differences)
    w_plus = float(ranks[differences > 0].sum())
    if n <= _EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w_plus)
    else:
        p = _normal_two_sided_p(ranks, tie_sizes, w_plus)
    return w_plus, p


def bonferroni(p_values):
    """Multiply each p by the family size and cap at 1."""
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        raise InvalidArgumentError("need at least one p-value")
    return np.minimum(1.0, p * p.size)


def summarize_report(acc_values):
    """(median, mean) of an ACC distribution; midpoint median for even n."""
    acc = np.asarray(acc_values, dtype=float)
    if acc.size == 0:
        raise InvalidArgumentError("cannot summarize an empty distribution")
    return float(np.median(acc)), float(np.mean(acc))
