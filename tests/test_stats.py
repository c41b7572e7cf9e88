import numpy as np
import pytest

from deepshore import InvalidArgumentError, bonferroni, summarize_report, wilcoxon_signed_rank
from deepshore import stats


def enumerate_two_sided_p(differences):
    """Literal 2^n enumeration oracle with the doubling convention."""
    d = np.asarray(differences, dtype=float)
    d = d[d != 0.0]
    n = d.size
    mags = np.abs(d)
    order = np.argsort(mags, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and mags[order[j]] == mags[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)
        i = j
    observed = ranks[d > 0].sum()
    w_all = np.zeros(2**n)
    for chunk_start in range(0, 2**n, 65536):
        idx = np.arange(chunk_start, min(chunk_start + 65536, 2**n), dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
        w_all[chunk_start:chunk_start + idx.size] = bits @ ranks
    p_low = np.mean(w_all <= observed + 1e-9)
    p_high = np.mean(w_all >= observed - 1e-9)
    return min(1.0, 2.0 * min(p_low, p_high))


def normal_two_sided_p(a, b):
    """The p of `wilcoxon_signed_rank`'s normal approximation, which it
    takes only above 25 non-zero differences, at any sample size."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    ranks, tie_sizes = stats._signed_ranks(d)
    return stats._normal_two_sided_p(ranks, tie_sizes, float(ranks[d > 0].sum()))


class TestWilcoxon:
    def test_identical_inputs_give_p_one(self):
        a = np.arange(10.0)
        statistic, p = wilcoxon_signed_rank(a, a)
        assert (statistic, p) == (0.0, 1.0)

    def test_six_positive_distinct_differences(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = a - np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        statistic, p = wilcoxon_signed_rank(a, b)
        assert statistic == 21.0
        assert p == pytest.approx(2.0 / 64.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_matches_enumeration_small_n(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 13))
        a = rng.standard_normal(n)
        b = a - rng.standard_normal(n) * 0.8
        _, p = wilcoxon_signed_rank(a, b)
        assert p == pytest.approx(enumerate_two_sided_p(a - b), abs=1e-10)

    def test_exact_matches_enumeration_with_ties(self):
        a = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0])
        b = np.array([2.0, 2.0, 3.0, 0.0, 3.0, 8.0, 4.0])  # tied |differences|
        _, p = wilcoxon_signed_rank(a, b)
        assert p == pytest.approx(enumerate_two_sided_p(a - b), abs=1e-10)

    def test_exact_matches_enumeration_n20(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal(20)
        b = a - (rng.standard_normal(20) * 0.5 + 0.3)
        _, p = wilcoxon_signed_rank(a, b)
        assert p == pytest.approx(enumerate_two_sided_p(a - b), rel=1e-9)

    def test_normal_approximation_close_at_n20(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(20)
        b = a - (rng.standard_normal(20) * 0.5 + 0.25)
        p_normal = normal_two_sided_p(a, b)
        p_exact = enumerate_two_sided_p(a - b)
        assert abs(p_normal - p_exact) / p_exact < 0.05

    def test_auto_switches_to_normal_for_large_n(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(200)
        b = a - rng.standard_normal(200) * 0.1
        _, p = wilcoxon_signed_rank(a, b)
        assert p == normal_two_sided_p(a, b)

    def test_few_nonzero_differences_rejected(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidArgumentError):
            wilcoxon_signed_rank(a, a - 0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            wilcoxon_signed_rank(np.ones(5), np.ones(6))

    def test_matches_scipy_on_moderate_samples(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(11)
        a = rng.standard_normal(40)
        b = a - (rng.standard_normal(40) * 0.4 + 0.1)
        _, p = wilcoxon_signed_rank(a, b)  # n > 25: the normal approximation
        ref = scipy_stats.wilcoxon(a, b, correction=True, mode="approx").pvalue
        assert p == pytest.approx(ref, rel=1e-6)


class TestBonferroni:
    def test_multiplies_and_caps(self):
        assert np.allclose(bonferroni([0.01, 0.02]), [0.02, 0.04])
        assert np.allclose(bonferroni([0.6, 0.9]), [1.0, 1.0])

    def test_single_value_unchanged(self):
        assert bonferroni([0.37])[0] == pytest.approx(0.37)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bonferroni([])


class TestSummarize:
    def test_odd_length(self):
        assert summarize_report([1.0, 2.0, 3.0]) == (2.0, 2.0)

    def test_even_length_midpoint(self):
        assert summarize_report([1.0, 2.0, 3.0, 4.0]) == (2.5, 2.5)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            summarize_report([])
