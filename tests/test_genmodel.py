from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmine import (
    FeatureScorer,
    InvalidInputError,
    SystemSpec,
    TrainConfig,
    TrainingDivergedError,
    UniqueVariantLog,
    build_system,
    fit_mle,
    genmodel,
    load_checkpoint,
    losses,
    playout_enumerate,
    sample_variant,
    sampling,
    save_checkpoint,
    score,
    select_model,
    split_system,
    train_and_select,
    train_discriminator,
)
from genmine.genmodel import (
    END,
    START,
    CandidateEval,
    NGramGenerator,
    _refinement_step,
    init_scorer,
)
from genmine.losses import loss_gradient

from .oracles import (
    draw_batch_reference,
    featurize_reference,
    log_prob_reference,
    sample_variant_reference,
)


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

    def test_unseen_context_without_smoothing_is_uniform(self):
        gen = fit_mle(lplus(["a", "b"]), order=2, smoothing=0.0)
        assert ("z",) not in gen.counts
        assert gen.next_distribution(("z",)).tolist() == [1 / 3] * 3
        assert gen.next_distribution(("z",), mask_end=True).tolist() == [0.5, 0.5, 0.0]

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

    @pytest.mark.parametrize("order, message", [
        (1.5, "order must be an integer, got 1.5"),
        (True, "order must be an integer, got True"),
        (0, "order must be >= 1"),
    ])
    def test_order_must_be_an_integer_count(self, order, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            fit_mle(lplus(["a", "b"]), order, 0.1)

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

    @pytest.mark.parametrize("temperature, message", [
        *(pytest.param(t, "temperature must be finite and > 0", id=str(t))
          for t in (0.0, -1.0, math.inf, math.nan)),
        pytest.param(1e-320, "temperature must be >= 1e-300, got 1e-320", id="1e-320"),
    ])
    def test_temperature_must_be_finite_and_positive(self, temperature, message):
        gen = fit_mle(lplus(["a", "b"], ["b", "a", "c"]), order=2, smoothing=0.2)
        with pytest.raises(InvalidInputError, match=message):
            sample_variant(gen, temperature, np.random.default_rng(0))
        # A valid draw caches the start state at 1.0; anything with random()
        # draws as the Generator does, and a bad temperature is never cached.
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        drawn = [sample_variant(gen, 1.0, rng) for _ in range(30)]
        source = SimpleNamespace(random=twin.random)
        assert [sample_variant(gen, 1.0, source) for _ in range(30)] == drawn
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=message):
                sample_variant(gen, temperature, rng)

    @pytest.mark.parametrize("temperature", [True, np.True_])
    def test_bool_temperature_is_rejected_after_a_draw_at_one(self, temperature):
        # True equals 1.0 and hashes like it, so it finds 1.0's cached draw states.
        gen = fit_mle(lplus(["a", "b"], ["b", "a", "c"]), order=2, smoothing=0.2)
        rng = np.random.default_rng(0)
        sample_variant(gen, 1.0, rng)
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="^temperature must be a real number"):
                sample_variant(gen, temperature, rng)
        # An int is checked on its hit too, and draws from the cached states.
        states = gen._draw_states[1.0]
        sample_variant(gen, 1, rng)
        assert gen._draw_states == {1.0: states}

    def test_subnormal_temperature_is_rejected(self):
        # 1e-320 is finite and > 0, but log(p) / 1e-320 overflows.
        gen = fit_mle(lplus(["a", "b"], ["a", "c"]), order=2, smoothing=0.1)
        with pytest.raises(InvalidInputError, match="temperature must be >= 1e-300, got 1e-320"):
            sample_variant(gen, 1e-320, np.random.default_rng(0))
        assert sample_variant(gen, 1e-300, np.random.default_rng(0)) in {("a", "b"), ("a", "c")}

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

    @pytest.mark.parametrize("derive", [False, True])
    def test_two_temperatures_interleaved_on_one_stream(self, derive):
        # Each temperature walks its own draw states, also on a generator
        # drawn from at both temperatures before.
        gen = fit_mle(lplus("abc", "abd", "acbd", "db", "dcca"), order=3, smoothing=0.1)
        if derive:
            self.assert_same_stream(gen, 1.0, 5)
            self.assert_same_stream(gen, 0.5, 5)
            gen = gen.with_added_counts([(("a", "d"), 2.0), (("c", "b", "a"), 0.5)])
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        drawn, expected = [], []
        for i in range(60):
            temperature = 1.0 if i % 2 == 0 else 0.5
            drawn.append(sample_variant(gen, temperature, rng))
            expected.append(sample_variant_reference(gen, temperature, ref_rng))
        assert drawn == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            NGramGenerator(order=1, smoothing=0.0, alphabet=("a",), max_len=2,
                           counts={(): {"a": 2.0, END: -1.0}})

    @pytest.mark.parametrize("field, value, message", [
        ("order", 2.5, "order must be an integer, got 2.5"),
        ("order", 0, "order must be >= 1"),
        ("max_len", 2.5, "max_len must be an integer, got 2.5"),
        ("max_len", False, "max_len must be an integer, got False"),
        ("max_len", 0, "max_len must be >= 1"),
    ])
    def test_order_and_max_len_must_be_integer_counts(self, field, value, message):
        settings = {"order": 1, "max_len": 2, field: value}
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            NGramGenerator(smoothing=0.0, alphabet=("a",), counts={}, **settings)

    @pytest.mark.parametrize("marker", [START, END], ids=["start", "end"])
    def test_boundary_marker_in_alphabet_rejected(self, marker):
        with pytest.raises(InvalidInputError,
                           match="^alphabet must not contain the boundary markers$"):
            NGramGenerator(order=1, smoothing=0.0, alphabet=("a", marker), max_len=2, counts={})

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


LOG_PROB_TRAIN = ("abc", "ab", "ca", "bcab")
LOG_PROB_ADDED = [(("a", "c", "b"), 2.0), (("c", "c"), 0.5), (("b", "a", "b", "c", "a"), 1.0)]


def log_prob_generators(smoothings=(0.0, 0.1)):
    """Generators over orders 1-3 and ``smoothings``, before and after
    ``with_added_counts``."""
    for order, smoothing, derived in itertools.product((1, 2, 3), smoothings, (False, True)):
        gen = fit_mle(lplus(*LOG_PROB_TRAIN), order=order, smoothing=smoothing)
        if derived:
            gen = gen.with_added_counts(LOG_PROB_ADDED)
        kind = "derived" if derived else "fit"
        yield pytest.param(gen, id=f"order{order}-smoothing{smoothing}-{kind}")


def sequences(labels, max_len, min_len=1):
    return [v for n in range(min_len, max_len + 1) for v in itertools.product(labels, repeat=n)]


class TestLogProb:
    @pytest.mark.parametrize("gen", log_prob_generators())
    def test_total_mass_is_one(self, gen):
        mass = math.fsum(math.exp(gen.log_prob(v)) for v in sequences(gen.alphabet, gen.max_len))
        assert abs(mass - 1.0) <= 1e-12

    @pytest.mark.parametrize("gen", log_prob_generators())
    def test_equals_reference(self, gen):
        # every sequence up to one past the bound, over the alphabet, the
        # end marker and an unknown label, with draws in between that fill
        # slots log_prob then walks
        labels = gen.alphabet + (END, "z")
        rng = np.random.default_rng(3)
        for v in sequences(labels, gen.max_len + 1, min_len=0):
            if v == () or END in v:
                # no draw emits either: the end marker is masked at the
                # first step and is never emitted as a label
                assert gen.log_prob(v) == -math.inf
            else:
                assert gen.log_prob(v) == log_prob_reference(gen, v)
            sample_variant(gen, 1.0, rng)

    @pytest.mark.parametrize("gen", log_prob_generators(smoothings=(0.0,)))
    def test_draws_at_zero_smoothing_are_finite(self, gen):
        rng = np.random.default_rng(4)
        for _ in range(500):
            v = sample_variant(gen, 1.0, rng)
            assert math.isfinite(gen.log_prob(v)), v

    def test_variants_no_draw_emits_score_minus_inf(self):
        gen = fit_mle(lplus(("a", "b"), ("a", "c"), ("b",)), order=2, smoothing=0.1)
        assert gen.log_prob(()) == -math.inf
        assert gen.log_prob(("a", END)) == -math.inf
        assert math.isfinite(gen.log_prob(("a",)))

    def test_reads_each_state_once(self, monkeypatch):
        # log_prob walks the states draws build, reading next_distribution
        # only when it first reaches a state
        gen = fit_mle(lplus(*LOG_PROB_TRAIN), order=2, smoothing=0.1)
        calls = []
        real = NGramGenerator.next_distribution
        monkeypatch.setattr(NGramGenerator, "next_distribution",
                            lambda self, *args, **kw: calls.append(args) or real(self, *args, **kw))
        rng = np.random.default_rng(0)
        drawn = {sample_variant(gen, 1.0, rng) for _ in range(200)}
        built = len(calls)
        assert built == len(gen._draw_states[1.0])
        first = [gen.log_prob(v) for v in drawn]
        assert len(calls) == built
        for v in sequences(gen.alphabet, gen.max_len):
            gen.log_prob(v)
        # the start state and one state per context of one label
        assert len(calls) == len(gen._draw_states[1.0]) == len(gen.alphabet) + 1
        assert [gen.log_prob(v) for v in drawn] == first


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
        grad_w, grad_b, _ = loss_gradient(d.featurize(("a",)), d.featurize(("b",)), d.weights, d.bias)
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


    @pytest.mark.parametrize("vocabulary, weights, max_len_ref, message", [
        (("a", "b"), (0.0,), 1, "vocabulary and weights must have equal length"),
        (("a",), (0.0,), 0, "max_len_ref must be >= 1"),
    ])
    def test_malformed_scorer_rejected(self, vocabulary, weights, max_len_ref, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            FeatureScorer(vocabulary=vocabulary, weights=weights, bias=0.0,
                          max_len_ref=max_len_ref)


class TestFeatureRows:
    @settings(max_examples=40, deadline=None)
    @given(known=variant_lists, probes=variant_lists)
    def test_featurize_matches_the_loop_reference(self, known, probes):
        d = init_scorer(known, max_len_ref=4)
        for v in probes + [("z",), ("a", "z", "a", "z", "a")]:  # "z" is never in the vocabulary
            assert np.array_equal(d.featurize(v), featurize_reference(d, v))

    @settings(max_examples=30, deadline=None)
    @given(positives=variant_lists, negatives=st.lists(
        st.lists(st.sampled_from("abcz"), min_size=1, max_size=6).map(tuple),
        min_size=1, max_size=12))
    def test_training_matrices_are_the_stacked_rows(self, positives, negatives):
        # One minibatch holding every row in order shows the matrices the
        # trainer built; negatives repeat and carry k-grams the scorer lacks.
        seen = []

        def loss_gradient(feats_pos, feats_neg, weights, bias):
            seen.append((feats_pos, feats_neg))
            return loss_gradient_of_package(feats_pos, feats_neg, weights, bias)

        def one_batch(n_pos, n_neg, rng):
            yield np.arange(n_pos), np.arange(n_neg)

        loss_gradient_of_package = losses.loss_gradient
        d = init_scorer(positives, max_len_ref=4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(losses, "loss_gradient", loss_gradient)
            patch.setattr(genmodel, "_minibatches", one_batch)
            trained = train_discriminator(d, positives, negatives, np.random.default_rng(0))
        [(feats_pos, feats_neg)] = seen
        for variants, matrix in ((positives, feats_pos), (negatives, feats_neg)):
            assert np.array_equal(matrix, np.stack([trained.featurize(v) for v in variants]))
            assert np.array_equal(matrix, np.stack([featurize_reference(trained, v)
                                                    for v in variants]))
        assert set(trained.vocabulary) >= {f for v in negatives for f in
                                           genmodel._kgram_features(v)}


class TestTrainDiscriminator:
    def test_trained_scorer_has_its_own_memo(self):
        positives, negatives = [("a", "b")], [("b", "a")]
        d = init_scorer(positives + negatives, max_len_ref=2)
        assert score(d, ("a", "b")) == 0.5
        trained = train_discriminator(d, positives, negatives, rng=np.random.default_rng(1))
        assert score(trained, ("a", "b")) == sigmoid_clamped(trained.raw_score(("a", "b")))
        assert score(trained, ("a", "b")) > 0.5
        assert score(d, ("a", "b")) == 0.5

    @pytest.mark.parametrize("memo_limit", [genmodel.SCORE_MEMO_LIMIT, 2])
    def test_trained_memo_holds_the_negatives_exact_scores(self, monkeypatch, memo_limit):
        positives = [("a", "b"), ("a", "c")]
        negatives = [("b", "a"), ("c",), ("b", "a"), ("a", "z", "c")]
        monkeypatch.setattr(genmodel, "SCORE_MEMO_LIMIT", memo_limit)
        d = init_scorer(positives, max_len_ref=3)
        trained = train_discriminator(d, positives, negatives, rng=np.random.default_rng(2))
        assert list(trained._scores) == list(dict.fromkeys(negatives))[:memo_limit]
        for v, p in trained._scores.items():
            assert p == sigmoid_clamped(trained.raw_score(v))

    def test_identical_classes_stay_near_half(self):
        variants = [("a", "b"), ("b", "a"), ("a",), ("b",)]
        d = init_scorer(variants, max_len_ref=2)
        d = train_discriminator(d, variants, variants, rng=np.random.default_rng(3))
        mean_score = np.mean([score(d, v) for v in variants])
        assert abs(mean_score - 0.5) < 0.1

    def test_disjoint_alphabets_separate(self):
        pos = [("a", "b"), ("b", "a"), ("a", "a"), ("b",)]
        neg = [("x", "y"), ("y", "x"), ("x",), ("y", "y")]
        d = init_scorer(pos + neg, max_len_ref=2)
        d = train_discriminator(d, pos, neg, rng=np.random.default_rng(4))
        correct = sum(score(d, v) > 0.5 for v in pos) + sum(score(d, v) < 0.5 for v in neg)
        assert correct / (len(pos) + len(neg)) > 0.95

    def test_held_out_loss_does_not_increase(self):
        rng = np.random.default_rng(5)
        pos = [tuple(rng.choice(["a", "b"], size=3)) for _ in range(40)]
        neg = [tuple(rng.choice(["x", "y"], size=3)) for _ in range(40)]
        d = init_scorer(pos + neg, max_len_ref=3)
        trained = train_discriminator(d, pos, neg, rng=np.random.default_rng(5))

        def full_batch_loss(scorer):
            feats_pos = np.stack([scorer.featurize(v) for v in pos])
            feats_neg = np.stack([scorer.featurize(v) for v in neg])
            return loss_gradient(feats_pos, feats_neg, scorer.weights, scorer.bias)[2]

        assert full_batch_loss(trained) < full_batch_loss(d)

    def test_empty_batch_rejected(self):
        d = init_scorer([("a",)], max_len_ref=1)
        with pytest.raises(InvalidInputError):
            train_discriminator(d, [], [("a",)], rng=np.random.default_rng(0))

    def test_non_finite_loss_raises_with_the_history(self, monkeypatch):
        losses_seen = []

        def loss_gradient_nan_on_third(*args):
            grad_w, grad_b, value = loss_gradient(*args)
            value = math.nan if len(losses_seen) == 2 else value
            losses_seen.append(value)
            return grad_w, grad_b, value

        monkeypatch.setattr(genmodel.losses, "loss_gradient", loss_gradient_nan_on_third)
        pos = [("a",) * n for n in range(1, 41)]  # 40 rows: four minibatches
        neg = [("b",) * n for n in range(1, 41)]
        d = init_scorer(pos + neg, max_len_ref=40)
        with pytest.raises(TrainingDivergedError,
                           match="^loss became non-finite during discriminator training$") as info:
            train_discriminator(d, pos, neg, rng=np.random.default_rng(0))
        assert len(losses_seen) == 3
        assert math.isnan(info.value.diagnostics["loss"])
        assert info.value.diagnostics["history"] == losses_seen[:2]
        assert all(math.isfinite(x) for x in losses_seen[:2])


class TestRefineGenerator:
    def test_zero_rounds_is_identity(self):
        cfg = TrainConfig(rounds=0, order=2, select_sample_size=50)
        result = train_and_select(lplus(["a", "b"], ["a", "c"], ["b", "c"]), cfg)
        assert result.generator.counts == fit_mle(result.train, 2, cfg.smoothing).counts
        assert [c.round_index for c in result.candidates] == [0]

    def test_unreachable_threshold_keeps_generator(self, monkeypatch):
        train = lplus(["a", "b"], ["a", "c"])
        gen = fit_mle(train, 2, 0.1)
        d = init_scorer(list(train), max_len_ref=2)
        # no sample's score reaches the threshold, so nothing is reinforced
        monkeypatch.setattr(genmodel, "REINFORCE_THRESHOLD", 1.0 - 1e-6)
        cfg = TrainConfig(rounds=1, round_samples=50)
        gen2, d2, samples = _refinement_step(gen, d, list(train), cfg, np.random.default_rng(0))
        assert len(samples) == 50
        assert max(score(d2, v) for v in samples) < genmodel.REINFORCE_THRESHOLD
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
        rng = np.random.default_rng(6)
        gen2 = gen
        for _ in range(cfg.rounds):
            gen2, d, _ = _refinement_step(gen2, d, list(train), cfg, rng)
        assert gen2.log_prob(("a", "c")) >= base - 1e-9


def evals(*scores):
    """CandidateEvals for rounds 0, 1, ... from (tp_e, sample_count) pairs."""
    return [CandidateEval(r, tp_e, count) for r, (tp_e, count) in enumerate(scores)]


class TestSelectModel:
    def test_lexicographic(self):
        assert select_model(evals((0.9, 100), (0.9, 80), (0.8, 50))) == 1

    def test_single(self):
        assert select_model(evals((0.1, 5))) == 0

    def test_all_equal_prefers_earliest(self):
        assert select_model(evals((0.5, 10), (0.5, 10), (0.5, 10))) == 0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            select_model([])


class TestTrainAndSelect:
    def test_one_variant_rejected(self):
        with pytest.raises(InvalidInputError,
                           match="^training requires at least 2 observed variants$"):
            train_and_select(lplus(["a", "b"]), TrainConfig(rounds=0))

    def test_pipeline_runs_and_snapshots(self):
        variants = [("a", "b", "c"), ("a", "c"), ("b", "c"), ("a", "b"), ("c",), ("b",)]
        cfg = TrainConfig(rounds=2, round_samples=100, select_sample_size=200, seed=11)
        result = train_and_select(UniqueVariantLog(tuple(variants)), cfg)
        assert len(result.candidates) == 3  # round 0 plus two refinements
        assert len(result.train) + len(result.holdout) == len(variants)
        best = result.candidates[select_model(result.candidates)]
        assert result.selected_round == best.round_index

    def test_kgrams_are_built_once_per_training_that_sees_a_variant(self, monkeypatch):
        # init_scorer builds each training variant's k-grams, and each
        # discriminator training those of each distinct variant it sees;
        # scoring a round's samples afterwards reads the trained memo.
        built, seen = Counter(), Counter()
        kgram_features, train = genmodel._kgram_features, genmodel.train_discriminator

        def counted(v):
            built[v] += 1
            return kgram_features(v)

        def training(d, positives, negatives, rng):
            seen.update(set(positives) | set(negatives))
            return train(d, positives, negatives, rng)

        monkeypatch.setattr(genmodel, "_kgram_features", counted)
        monkeypatch.setattr(genmodel, "train_discriminator", training)
        variants = [("a", "b", "c"), ("a", "c"), ("b", "c"), ("a", "b"), ("c",), ("b",)]
        cfg = TrainConfig(rounds=2, round_samples=100, select_sample_size=200, seed=11)
        result = train_and_select(UniqueVariantLog(tuple(variants)), cfg)
        seen.update(result.train)
        assert built == seen
        assert sum(seen.values()) > len(set(seen))

    def test_seeded_training_stream_is_pinned(self):
        # Any change to the rng draws of a refinement round moves these
        # values; the selected snapshot comes from the last round.
        net = build_system(SystemSpec(seed=78, depth=2, alphabet_budget=8,
                                      weights={"seq": 1.0, "xor": 1.5, "loop": 0.5}))
        truth = split_system(playout_enumerate(net, max_len=None), 0.7, 7)
        cfg = TrainConfig(rounds=3, round_samples=300, select_sample_size=1000, seed=7)
        result = train_and_select(truth.lplus, cfg)
        assert result.selected_round == 3
        assert [(c.round_index, c.tp_e, c.sample_count) for c in result.candidates] == [
            (0, 1.0, 127), (1, 1.0, 125), (2, 0.8, 128), (3, 1.0, 116)
        ]
        counts = sorted((list(ctx), sorted(row.items()))
                        for ctx, row in result.generator.counts.items())
        state = json.dumps([counts, list(result.d_p.weights), result.d_p.bias])
        assert hashlib.sha256(state.encode()).hexdigest() == (
            "ff3e795f00762e8889cea601647440d0030a85f0d0ddd93d83298ae2597c57ac"
        )

    def test_settings_and_checkpoint_config_are_pinned(self, tmp_path):
        # A new training setting must be added here on purpose.
        fields = ["rounds", "select_sample_size", "temperature", "seed", "order",
                  "smoothing", "holdout_fraction", "round_samples"]
        assert list(TrainConfig.__dataclass_fields__) == fields
        cfg = TrainConfig(rounds=0, select_sample_size=20)
        path = tmp_path / "model.json"
        save_checkpoint(train_and_select(lplus(["a", "b"], ["b"], ["a"]), cfg), path)
        assert sorted(json.loads(path.read_text())["config"]) == sorted(fields)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.inf, math.nan])
    def test_temperature_must_be_finite_and_positive(self, temperature):
        with pytest.raises(InvalidInputError, match="temperature must be finite and > 0"):
            TrainConfig(temperature=temperature)

    @pytest.mark.parametrize("field, value, message", [
        ("rounds", 2.5, "rounds must be an integer, got 2.5"),
        ("rounds", -1, "rounds must be >= 0"),
        ("seed", -1, "seed must be >= 0"),
        ("seed", True, "seed must be an integer, got True"),
        ("order", 0, "order must be >= 1"),
        ("select_sample_size", 10.0, "select_sample_size must be an integer, got 10.0"),
        ("round_samples", False, "round_samples must be an integer, got False"),
    ])
    def test_counts_and_seed_must_be_exact_ints(self, field, value, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf])
    def test_smoothing_must_be_finite_and_non_negative(self, smoothing):
        with pytest.raises(InvalidInputError, match="^smoothing must be finite and >= 0$"):
            TrainConfig(smoothing=smoothing)

    @pytest.mark.parametrize("cfg", [
        TrainConfig(rounds=3, round_samples=300, select_sample_size=1000, seed=7),
        TrainConfig(rounds=2, round_samples=250, select_sample_size=700, seed=3,
                    temperature=0.7, order=2),
    ])
    def test_block_reads_match_the_scalar_path(self, monkeypatch, cfg):
        net = build_system(SystemSpec(seed=78, depth=2, alphabet_budget=8,
                                      weights={"seq": 1.0, "xor": 1.5, "loop": 0.5}))
        truth = split_system(playout_enumerate(net, max_len=None), 0.7, 7)
        result = train_and_select(truth.lplus, cfg)
        monkeypatch.setattr(sampling, "draw_batch", draw_batch_reference)
        reference = train_and_select(truth.lplus, cfg)
        assert result.generator.counts == reference.generator.counts
        assert result.d_p.vocabulary == reference.d_p.vocabulary
        assert result.d_p.weights == reference.d_p.weights
        assert result.d_p.bias == reference.d_p.bias
        assert result.candidates == reference.candidates
        assert result.selected_round == reference.selected_round

    def test_temperature_has_a_floor(self):
        with pytest.raises(InvalidInputError, match="temperature must be >= 1e-300, got 1e-320"):
            TrainConfig(temperature=1e-320)
        assert TrainConfig(temperature=1e-300).temperature == 1e-300

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
