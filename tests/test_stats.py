from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import genmine
from genmine import (
    DegenerateInputError,
    InvalidInputError,
    normality_gate,
    paired_t_upper,
    shapiro_wilk,
    wilcoxon_upper,
)


class TestShapiroWilk:
    def test_three_point_line(self):
        w, p = shapiro_wilk([1.0, 2.0, 3.0])
        assert w == pytest.approx(1.0, abs=1e-6)
        assert p == 1.0

    def test_symmetric_evenly_spaced_near_one(self):
        w, _ = shapiro_wilk(np.linspace(-2, 2, 15))
        assert w > 0.95

    def test_heavy_outlier_below_critical(self):
        # one-sided outlier: W far below the 5% critical value for n=10 (~0.842)
        sample = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98, 1.01, 0.99, 25.0]
        w, p = shapiro_wilk(sample)
        assert w < 0.842
        assert p < 0.05

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(1)
        for i in range(50):
            n = int(rng.integers(3, 51))
            sample = rng.normal(size=n) if i % 2 else rng.gamma(1.5, size=n)
            w, p = shapiro_wilk(sample)
            ref = scipy_stats.shapiro(sample)
            assert w == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-4)

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateInputError):
            shapiro_wilk([2.0, 2.0, 2.0])

    def test_range_below_swilk_resolution_rejected(self):
        with pytest.raises(DegenerateInputError):
            shapiro_wilk([0.0, 5e-20, 1e-20])

    def test_size_bounds(self):
        with pytest.raises(InvalidInputError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(InvalidInputError):
            shapiro_wilk(np.arange(5001.0))


class TestPairedTUpper:
    def test_worked_example(self):
        t, p = paired_t_upper([1.0, 2.0, 3.0])
        assert t == pytest.approx(3.4641, abs=1e-4)
        assert p == pytest.approx(0.0371, abs=1e-3)

    def test_zero_mean_gives_half(self):
        t, p = paired_t_upper([-1.0, 1.0, -2.0, 2.0])
        assert t == 0.0
        assert p == 0.5

    def test_negative_differences_above_half(self):
        _, p = paired_t_upper([-3.0, -1.0, -2.0])
        assert p > 0.5

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = rng.normal(0.4, 1.0, size=int(rng.integers(2, 40)))
            t, p = paired_t_upper(d)
            ref = scipy_stats.ttest_1samp(d, 0.0, alternative="greater")
            assert t == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-4)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            paired_t_upper([1.0, 1.0, 1.0])

    def test_rounding_noise_is_zero_variance(self):
        # 0.3 - 0.2 and 0.1 differ only in the last bit
        with pytest.raises(DegenerateInputError):
            paired_t_upper([0.3 - 0.2, 0.1, 0.5 - 0.4, 0.1])


class TestWilcoxonUpper:
    def test_five_positive(self):
        w, p = wilcoxon_upper([0.5, 1.0, 2.0, 0.25, 3.0])
        assert w == 15.0
        assert p == pytest.approx(1 / 32)

    def test_fifteen_positive(self):
        _, p = wilcoxon_upper(list(range(1, 16)))
        assert p == pytest.approx(2.0**-15)

    def test_antisymmetric_large_sample_gives_half(self):
        d = [x for pair in ((v, -v) for v in range(1, 12)) for x in pair]
        assert len(d) == 22  # normal-approximation branch
        _, p = wilcoxon_upper(d)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_zeros_dropped(self):
        w_with, p_with = wilcoxon_upper([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0])
        w_without, p_without = wilcoxon_upper([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (w_with, p_with) == (w_without, p_without)

    def test_matches_reference_oracle_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = rng.normal(0.3, 1.0, size=int(rng.integers(5, 21)))
            w, p = wilcoxon_upper(d)
            ref = scipy_stats.wilcoxon(d, alternative="greater", mode="exact")
            assert w == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-4)

    def test_matches_reference_oracle_approx(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = rng.normal(0.2, 1.0, size=int(rng.integers(21, 60)))
            w, p = wilcoxon_upper(d)
            ref = scipy_stats.wilcoxon(d, alternative="greater", mode="approx", correction=False)
            assert w == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-4)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            wilcoxon_upper([0.0, 0.0, 0.0])

    def test_too_few_nonzero_rejected(self):
        with pytest.raises(InvalidInputError):
            wilcoxon_upper([1.0, 2.0, 0.0])


class TestNormalityGate:
    def test_normal_sample_takes_t_branch(self):
        rng = np.random.default_rng(5)
        d = rng.normal(0.5, 1.0, size=20)
        assert scipy_stats.shapiro(d).pvalue >= 0.05  # sanity on construction
        outcome = normality_gate(d)
        assert outcome.method == "paired_t"
        assert outcome.shapiro_p >= 0.05

    def test_non_normal_sample_takes_wilcoxon_branch(self):
        # single extreme outlier forces the Shapiro-Wilk rejection
        d = [0.1, 0.2, 0.15, 0.12, 0.18, 0.11, 0.13, 0.16, 0.14, 9.0]
        outcome = normality_gate(d)
        assert outcome.method == "wilcoxon"
        assert outcome.shapiro_p < 0.05

    def test_gate_reports_both_statistics(self):
        outcome = normality_gate([1.0, 2.0, 3.0, 2.5, 1.5])
        assert 0.0 < outcome.shapiro_w <= 1.0
        assert 0.0 <= outcome.p_value <= 1.0


def test_import_leaves_scipy_stats_unloaded():
    # The child imports the same package as this process, installed or not.
    src = str(Path(genmine.__file__).resolve().parents[1])
    code = (
        "import sys, genmine; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("call, message", [
    (lambda: shapiro_wilk([[1.0, 2.0], [3.0, 4.0]]), "sample must be one-dimensional"),
    (lambda: paired_t_upper([1.0, float("nan"), 2.0]), "differences must be finite"),
    (lambda: paired_t_upper([1.0]), "paired_t_upper requires n >= 2"),
], ids=["two_dimensional", "not_finite", "single_difference"])
def test_domain_error(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message
