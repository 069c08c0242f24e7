from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmine import (
    InvalidInputError,
    MetricsReport,
    SystemTruth,
    UniqueVariantLog,
    compute_rates,
    score_s,
    split_system,
)


def variants(prefix, n, length=1):
    return {(f"{prefix}{i}",) * length for i in range(n)}


class TestSplitSystem:
    def test_published_split_sizes(self):
        v_s = variants("v", 178)
        truth = split_system(v_s, 0.7, seed=0)
        assert len(truth.lplus) == 124
        assert len(truth.v_u) == 54

    def test_small_split(self):
        truth = split_system(variants("v", 10), 0.7, seed=1)
        assert len(truth.lplus) == 7 and len(truth.v_u) == 3

    def test_deterministic(self):
        v_s = variants("v", 40)
        a = split_system(v_s, 0.7, seed=9)
        b = split_system(v_s, 0.7, seed=9)
        assert a.lplus.variants == b.lplus.variants

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            split_system({("a",)}, 0.7, seed=0)

    def test_empty_variant_rejected(self):
        with pytest.raises(InvalidInputError):
            split_system({("a",), ("b",), ()}, 0.7, seed=0)

    def test_max_length_variant_always_observed(self):
        v_s = {("a",), ("a", "a"), ("a", "b"), ("x", "y", "z")} | variants("w", 8)
        max_len = max(len(v) for v in v_s)
        for seed in range(1000):
            truth = split_system(v_s, 0.7, seed=seed)
            assert any(len(v) == max_len for v in truth.lplus)
            assert truth.lplus.as_set() | truth.v_u == frozenset(v_s)
            assert not (truth.lplus.as_set() & truth.v_u)


class TestComputeRates:
    def _published_setup(self):
        v_s = sorted(variants("v", 178))
        lplus = v_s[:124]
        v_u = v_s[124:]
        hits_obs = lplus[:97]
        hits_unobs = v_u[:23]
        garbage = sorted(variants("g", 56))
        v_hat = set(hits_obs) | set(hits_unobs) | set(garbage)
        assert len(v_hat) == 176
        return v_hat, set(v_s), set(lplus), set(v_u)

    def test_published_rates_within_tolerance(self):
        v_hat, v_s, lplus, v_u = self._published_setup()
        report = compute_rates(v_hat, v_s, lplus, v_u)
        assert report.tp == pytest.approx(0.6818, abs=5e-3)
        assert report.tp_s == pytest.approx(0.6742, abs=5e-3)
        assert report.tp_o == pytest.approx(0.7823, abs=5e-3)
        assert report.tp_u == pytest.approx(0.4226, abs=5e-3)

    def test_count_identities_exact(self):
        v_hat, v_s, lplus, v_u = self._published_setup()
        r = compute_rates(v_hat, v_s, lplus, v_u)
        assert r.hits_system == r.hits_observed + r.hits_unobserved
        assert r.tp * r.n_sampled == pytest.approx(r.tp_s * r.n_system, abs=1e-12)
        assert r.tp_s * r.n_system == pytest.approx(
            r.tp_o * r.n_observed + r.tp_u * r.n_unobserved, abs=1e-12
        )

    def test_perfect_estimate(self):
        v_s = variants("v", 20)
        truth = split_system(v_s, 0.7, seed=0)
        r = compute_rates(v_s, v_s, truth.lplus.as_set(), truth.v_u)
        assert (r.tp, r.tp_s, r.tp_o, r.tp_u, r.fp) == (1.0, 1.0, 1.0, 1.0, 0.0)

    def test_disjoint_estimate(self):
        v_s = variants("v", 10)
        truth = split_system(v_s, 0.7, seed=0)
        r = compute_rates(variants("g", 5), v_s, truth.lplus.as_set(), truth.v_u)
        assert (r.tp, r.tp_s, r.tp_o, r.tp_u) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_estimate_gives_tp0_fp1(self):
        v_s = variants("v", 10)
        truth = split_system(v_s, 0.7, seed=0)
        r = compute_rates(set(), v_s, truth.lplus.as_set(), truth.v_u)
        assert r.tp == 0.0 and r.fp == 1.0

    def test_holdout_rate(self):
        v_s = variants("v", 10)
        truth = split_system(v_s, 0.7, seed=0)
        holdout = set(list(truth.lplus)[:2])
        r = compute_rates(holdout, v_s, truth.lplus.as_set(), truth.v_u, lplus_e=holdout)
        assert r.tp_e == 1.0

    def test_counts_dict_holds_every_count(self):
        v_s = variants("v", 10)
        truth = split_system(v_s, 0.7, seed=0)
        r = compute_rates(v_s, v_s, truth.lplus.as_set(), truth.v_u)
        assert sorted(r.counts_dict()) == [
            "hits_holdout", "hits_observed", "hits_system", "hits_unobserved",
            "n_holdout", "n_observed", "n_sampled", "n_system", "n_unobserved",
        ]
        assert r.counts_dict()["n_observed"] == len(truth.lplus)

    def test_bad_partition_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_rates(set(), variants("v", 4), variants("v", 4), variants("v", 2))


class TestScoreS:
    def test_reference_line(self):
        assert score_s(0.5, 0.5) == pytest.approx(0.7071, abs=1e-4)

    def test_perfect(self):
        assert score_s(1.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_direct_evaluation(self):
        assert score_s(0.65, 0.10) == pytest.approx(0.5303, abs=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            score_s(-0.1, 0.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_monotonicity_diagonal(self, a, b):
        assert score_s(a, b) == score_s(b, a)
        if b <= 0.99:
            assert score_s(a, min(b + 0.01, 1.0)) >= score_s(a, b)
        assert score_s(a, a) == pytest.approx(a * math.sqrt(2.0), abs=1e-12)


def truth(v_s, lplus, v_u):
    return SystemTruth(v_s=frozenset(v_s), lplus=UniqueVariantLog(tuple(lplus)),
                       v_u=frozenset(v_u))


def report(**counts):
    fields = dict(n_sampled=1, n_system=2, n_observed=1, n_unobserved=1,
                  hits_system=1, hits_observed=1, hits_unobserved=0)
    fields.update(counts)
    return MetricsReport(**fields)


class TestDomainErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: truth([("a",), ("b",)], [("a",)], []),
         "observed and unobserved parts must cover the system set"),
        (lambda: truth([("a",), ("b",)], [("a",), ("b",)], [("a",)]),
         "observed and unobserved parts must be disjoint"),
        (lambda: truth([("a",)], [("a",)], []),
         "both observed and unobserved parts must be non-empty"),
        (lambda: truth([("a",), ("a", "b")], [("a",)], [("a", "b")]),
         "observed part must contain a maximal-length variant"),
        (lambda: split_system([("a",), ("b",)], 0.4, 1),
         "ratio 0.4 leaves a degenerate split (0/2) for 2 variants"),
        (lambda: report(n_system=0), "n_system must be >= 1"),
        (lambda: report(hits_observed=0),
         "count identity violated: system hits must split"),
    ], ids=["truth_cover", "truth_disjoint", "truth_empty_part", "truth_no_longest",
            "degenerate_split", "report_no_system", "report_identity"])
    def test_bad_value(self, call, message):
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message
