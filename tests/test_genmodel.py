from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmine import (
    InvalidInputError,
    TrainConfig,
    UniqueVariantLog,
    fit_mle,
    load_checkpoint,
    refine_generator,
    sample_variant,
    save_checkpoint,
    score,
    select_model,
    train_and_select,
    train_discriminator,
)
from genmine.genmodel import END, NGramGenerator, init_scorer, scorer_loss_gradient

from .oracles import sample_variant_reference


def lplus(*variants):
    return UniqueVariantLog(tuple(tuple(v) for v in variants))


class TestFitMle:
    def test_deterministic_chain(self):
        gen = fit_mle(lplus(["a", "b"]), order=2, smoothing=0.0)
        syms = gen.symbols()
        at_start = gen.next_distribution(gen.context_of([]))
        assert at_start[syms.index("a")] == 1.0
        after_a = gen.next_distribution(gen.context_of(["a"]))
        assert after_a[syms.index("b")] == 1.0
        after_b = gen.next_distribution(gen.context_of(["a", "b"]))
        assert after_b[syms.index(END)] == 1.0

    def test_uniform_start(self):
        gen = fit_mle(lplus(["a"], ["b"]), order=1, smoothing=0.0)
        dist = gen.next_distribution((), mask_end=True)
        syms = gen.symbols()
        assert dist[syms.index("a")] == pytest.approx(0.5)
        assert dist[syms.index("b")] == pytest.approx(0.5)

    def test_smoothing_gives_positive_floor(self):
        lam = 0.25
        gen = fit_mle(lplus(["a", "b"], ["a", "c"]), order=2, smoothing=lam)
        syms = gen.symbols()
        dist = gen.next_distribution(gen.context_of(["a"]))
        n_ctx = 2.0  # two continuations observed after 'a'
        floor = lam / (n_ctx + lam * len(syms))
        assert np.all(dist >= floor - 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_mle(UniqueVariantLog(()), 2, 0.1)

    def test_max_len_from_training(self):
        gen = fit_mle(lplus(["a"], ["a", "b", "c"]), order=3, smoothing=0.1)
        assert gen.max_len == 3


class TestNormalization:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1, 1.0])
    def test_distributions_sum_to_one(self, order, smoothing):
        gen = fit_mle(lplus(["a", "b", "a"], ["b", "c"], ["a"]), order, smoothing)
        contexts = list(gen.counts)
        for ctx in contexts:
            assert gen.next_distribution(ctx).sum() == pytest.approx(1.0, abs=1e-12)

    def test_refined_generator_stays_normalized(self):
        train = lplus(["a", "b"], ["a", "c"], ["b", "c"])
        gen = fit_mle(train, 2, 0.1)
        gen2 = gen.with_added_counts([(("a", "b"), 0.4), (("c",), 0.7)])
        for ctx in gen2.counts:
            assert gen2.next_distribution(ctx).sum() == pytest.approx(1.0, abs=1e-12)


class TestSampleVariant:
    def test_deterministic_single_variant(self):
        gen = fit_mle(lplus(["a", "b"]), order=2, smoothing=0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_variant(gen, 1.0, rng) == ("a", "b")
        assert sample_variant(gen, 0.3, rng) == ("a", "b")

    def test_low_temperature_is_greedy(self):
        gen = fit_mle(lplus(["a", "b"], ["a", "c"]), order=2, smoothing=0.0)
        gen = gen.with_added_counts([(("a", "b"), 8.0)])
        rng = np.random.default_rng(1)
        draws = {sample_variant(gen, 1e-4, rng) for _ in range(50)}
        assert draws == {("a", "b")}

    def test_uniform_two_symbol_frequency(self):
        gen = fit_mle(lplus(["a"], ["b"]), order=1, smoothing=0.0)
        rng = np.random.default_rng(123)
        n = 100_000
        hits = sum(1 for _ in range(n) if sample_variant(gen, 1.0, rng)[0] == "a")
        assert abs(hits / n - 0.5) < 0.01

    def test_length_bound_holds(self):
        gen = fit_mle(lplus(["a", "a", "a"], ["a"]), order=2, smoothing=0.5)
        rng = np.random.default_rng(2)
        assert all(len(sample_variant(gen, 1.2, rng)) <= 3 for _ in range(100_000))

    def test_identical_seeds_identical_streams(self):
        gen = fit_mle(lplus(["a", "b"], ["b", "a"], ["a"]), order=2, smoothing=0.2)
        s1 = [sample_variant(gen, 1.0, np.random.default_rng(42)) for _ in range(50)]
        s2 = [sample_variant(gen, 1.0, np.random.default_rng(42)) for _ in range(50)]
        assert s1 == s2

    def test_mle_consistency_total_variation(self):
        # order = max_len suffices here: all prefixes are context-distinguishable
        variants = [["a", "b"], ["c", "d"], ["e"], ["a", "d"]]
        train = lplus(*variants)
        gen = fit_mle(train, order=2, smoothing=0.0)
        rng = np.random.default_rng(9)
        n = 100_000
        counts = Counter(sample_variant(gen, 1.0, rng) for _ in range(n))
        target = {tuple(v): 1 / len(variants) for v in variants}
        tv = 0.5 * sum(
            abs(counts.get(v, 0) / n - p) for v, p in target.items()
        ) + 0.5 * sum(c / n for v, c in counts.items() if v not in target)
        assert tv < 0.02


variant_lists = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=5).map(tuple),
    min_size=1, max_size=6, unique=True,
)


class TestCompiledSampler:
    @staticmethod
    def assert_same_stream(gen, temperature, seed, n=40):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [sample_variant(gen, temperature, rng) for _ in range(n)]
        expected = [sample_variant_reference(gen, temperature, ref_rng) for _ in range(n)]
        assert drawn == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        variants=variant_lists,
        additions=st.lists(st.tuples(
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=4).map(tuple),
            st.floats(0.1, 5.0),
        ), max_size=3),
        order=st.integers(1, 3),
        smoothing=st.sampled_from([0.0, 0.1]),
        temperature=st.sampled_from([1.0, 0.5, 1.7, 1e-4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_choice_reference(
        self, variants, additions, order, smoothing, temperature, seed
    ):
        gen = fit_mle(lplus(*variants), order=order, smoothing=smoothing)
        self.assert_same_stream(gen, temperature, seed)
        # The derived generator must not reuse the tables compiled above.
        derived = gen.with_added_counts(additions)
        self.assert_same_stream(derived, temperature, seed)
        self.assert_same_stream(replace(derived, smoothing=0.5), temperature, seed)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            NGramGenerator(order=1, smoothing=0.0, alphabet=("a",), max_len=2,
                           counts={(): {"a": 2.0, END: -1.0}})

    @pytest.mark.parametrize("row, smoothing", [
        ({"a": 1e308, "b": 1e308}, 0.0),  # finite counts whose total overflows
        ({"a": 1e308}, 1e308),
        ({"a": math.nan}, 0.0),
        ({"a": math.inf}, 0.0),
        ({"a": 1.0}, math.inf),
        ({"a": 1.0}, math.nan),
    ])
    def test_non_finite_totals_rejected(self, row, smoothing):
        with pytest.raises(InvalidInputError):
            NGramGenerator(order=1, smoothing=smoothing, alphabet=("a", "b"), max_len=2,
                           counts={(): row})


def sigmoid_clamped(raw):
    p = 0.5 * (1.0 + math.tanh(0.5 * raw))
    return min(max(p, 1e-6), 1.0 - 1e-6)


class TestScorer:
    def test_zero_scorer_gives_half(self):
        d = init_scorer([("a", "b")], max_len_ref=2)
        assert score(d, ("a", "b")) == 0.5
        assert score(d, ("z",)) == 0.5

    def test_clamp(self):
        d = init_scorer([("a",)], max_len_ref=1)
        d = replace(d, weights=tuple(1000.0 for _ in d.weights), bias=1000.0)
        assert score(d, ("a",)) == 1.0 - 1e-6
        d = replace(d, weights=tuple(-1000.0 for _ in d.weights), bias=-1000.0)
        assert score(d, ("a",)) == 1e-6

    def test_gradient_step_direction(self):
        d = init_scorer([("a",), ("b",)], max_len_ref=1)
        grad_w, grad_b, _ = scorer_loss_gradient("standard_d_logistic", d, [("a",)], [("b",)])
        lr = 0.1
        stepped = replace(
            d,
            weights=tuple(w - lr * g for w, g in zip(d.weights, grad_w)),
            bias=d.bias - lr * grad_b,
        )
        assert score(stepped, ("a",)) > 0.5 > score(stepped, ("b",))

    @settings(max_examples=40, deadline=None)
    @given(variants=variant_lists, scale=st.sampled_from([0.1, 3.0, 100.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_memoized_scores_are_exact(self, variants, scale, seed):
        d = init_scorer(variants, max_len_ref=5)
        rng = np.random.default_rng(seed)
        d = replace(d, weights=tuple(rng.normal(0.0, scale, len(d.weights)).tolist()),
                    bias=float(rng.normal(0.0, scale)))
        probes = variants + [("d", "c", "b", "a")]
        for _ in range(2):  # the second pass reads the memo
            for v in probes:
                assert score(d, v) == sigmoid_clamped(d.raw_score(v))


class TestTrainDiscriminator:
    def test_trained_scorer_has_its_own_memo(self):
        positives, negatives = [("a", "b")], [("b", "a")]
        d = init_scorer(positives + negatives, max_len_ref=2)
        assert score(d, ("a", "b")) == 0.5
        trained = train_discriminator(d, positives, negatives, TrainConfig(seed=1))
        assert score(trained, ("a", "b")) == sigmoid_clamped(trained.raw_score(("a", "b")))
        assert score(trained, ("a", "b")) > 0.5
        assert score(d, ("a", "b")) == 0.5

    def test_identical_classes_stay_near_half(self):
        variants = [("a", "b"), ("b", "a"), ("a",), ("b",)]
        d = init_scorer(variants, max_len_ref=2)
        cfg = TrainConfig(pretrain_passes=5, batch_size=8, learning_rate=0.2, seed=3)
        d = train_discriminator(d, variants, variants, cfg)
        mean_score = np.mean([score(d, v) for v in variants])
        assert abs(mean_score - 0.5) < 0.1

    def test_disjoint_alphabets_separate(self):
        pos = [("a", "b"), ("b", "a"), ("a", "a"), ("b",)]
        neg = [("x", "y"), ("y", "x"), ("x",), ("y", "y")]
        d = init_scorer(pos + neg, max_len_ref=2)
        cfg = TrainConfig(pretrain_passes=30, batch_size=8, learning_rate=0.5, seed=4)
        d = train_discriminator(d, pos, neg, cfg)
        correct = sum(score(d, v) > 0.5 for v in pos) + sum(score(d, v) < 0.5 for v in neg)
        assert correct / (len(pos) + len(neg)) > 0.95

    def test_held_out_loss_does_not_increase(self):
        rng = np.random.default_rng(5)
        pos = [tuple(rng.choice(["a", "b"], size=3)) for _ in range(40)]
        neg = [tuple(rng.choice(["x", "y"], size=3)) for _ in range(40)]
        d = init_scorer(pos + neg, max_len_ref=3)
        cfg = TrainConfig(pretrain_passes=10, batch_size=16, learning_rate=0.3, seed=5)
        _, history = train_discriminator(d, pos, neg, cfg, return_history=True)
        assert history[-1] <= history[0] * 1.05

    def test_empty_batch_rejected(self):
        d = init_scorer([("a",)], max_len_ref=1)
        with pytest.raises(InvalidInputError):
            train_discriminator(d, [], [("a",)], TrainConfig())


class TestRefineGenerator:
    def test_zero_rounds_is_identity(self):
        train = lplus(["a", "b"], ["a", "c"])
        gen = fit_mle(train, 2, 0.1)
        d = init_scorer(list(train), max_len_ref=2)
        cfg = TrainConfig(rounds=0)
        gen2, _ = refine_generator(gen, d, list(train), cfg, np.random.default_rng(0))
        assert gen2.counts == gen.counts

    def test_unreachable_threshold_keeps_generator(self):
        train = lplus(["a", "b"], ["a", "c"])
        gen = fit_mle(train, 2, 0.1)
        d = init_scorer(list(train), max_len_ref=2)
        # zero-weight scorer scores exactly 0.5 < threshold, nothing reinforced
        cfg = TrainConfig(
            rounds=1, round_samples=50, reinforce_threshold=1.0 - 1e-6,
            pretrain_passes=1, learning_rate=1e-9,
        )
        gen2, _ = refine_generator(gen, d, list(train), cfg, np.random.default_rng(0))
        assert gen2.counts == gen.counts

    def test_reinforcing_a_variant_raises_its_probability(self):
        train = lplus(["a", "b"], ["a", "c"])
        gen = fit_mle(train, 2, 0.1)
        base = gen.log_prob(("a", "c"))
        gen2 = gen.with_added_counts([(("a", "c"), 1.0)])
        assert gen2.log_prob(("a", "c")) > base

    def test_shared_bigrams_not_suppressed(self):
        # every bigram of the unobserved <a,c> occurs in the observed data,
        # so reinforcement keeps sampling (and crediting) its transitions
        train = lplus(["a", "b", "c"], ["a", "c", "b"])
        gen = fit_mle(train, 2, 0.1)
        base = gen.log_prob(("a", "c"))
        d = init_scorer(list(train), max_len_ref=3)
        cfg = TrainConfig(rounds=3, round_samples=500, seed=6)
        gen2, _ = refine_generator(gen, d, list(train), cfg, np.random.default_rng(6))
        assert gen2.log_prob(("a", "c")) >= base - 1e-9


class TestSelectModel:
    def test_lexicographic(self):
        candidates = [("g1", 0.9, 100), ("g2", 0.9, 80), ("g3", 0.8, 50)]
        assert select_model(candidates) == "g2"

    def test_single(self):
        assert select_model([("only", 0.1, 5)]) == "only"

    def test_all_equal_prefers_earliest(self):
        candidates = [("first", 0.5, 10), ("second", 0.5, 10), ("third", 0.5, 10)]
        assert select_model(candidates) == "first"

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            select_model([])


class TestTrainAndSelect:
    def test_pipeline_runs_and_snapshots(self):
        variants = [("a", "b", "c"), ("a", "c"), ("b", "c"), ("a", "b"), ("c",), ("b",)]
        cfg = TrainConfig(
            rounds=2, round_samples=100, select_sample_size=200, seed=11, pretrain_passes=1
        )
        result = train_and_select(UniqueVariantLog(tuple(variants)), cfg)
        assert len(result.candidates) == 3  # round 0 plus two refinements
        assert len(result.train) + len(result.holdout) == len(variants)
        assert result.selected_round in {c.round_index for c in result.candidates}

    def test_checkpoint_round_trip(self, tmp_path):
        variants = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]
        cfg = TrainConfig(rounds=1, round_samples=50, select_sample_size=100, seed=12)
        result = train_and_select(UniqueVariantLog(tuple(variants)), cfg)
        path = tmp_path / "model.json"
        save_checkpoint(result, path)
        back = load_checkpoint(path)
        assert back.generator.counts == result.generator.counts
        assert back.d_p.weights == pytest.approx(result.d_p.weights)
        assert back.train.variants == result.train.variants
        assert back.config == result.config
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            assert sample_variant(back.generator, 1.0, rng_a) == sample_variant(
                result.generator, 1.0, rng_b
            )
