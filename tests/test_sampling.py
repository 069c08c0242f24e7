from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmine import (
    InvalidInputError,
    SampleResult,
    sampling,
    UniqueVariantLog,
    fit_mle,
    mh_acceptance,
    mh_chain_candidate,
    mh_sample,
    naive_sample,
    sample_variant,
)

from .oracles import draw_batch_reference, mh_chain_reference, mh_sample_reference

VA, VB, VC = ("a",), ("b",), ("c",)


def constant_draw(variant):
    return lambda rng: variant


def categorical_draw(variants, probs):
    """Draws as ``rng.choice(len(variants), p=probs)`` does, stream included:
    one ``rng.random()`` bisected into the normalized cumulative sum."""
    variants = list(variants)
    cdf = np.cumsum(probs, dtype=float)
    cdf = (cdf / cdf[-1]).tolist()

    def draw(rng):
        return variants[bisect_right(cdf, rng.random())]

    return draw


class DrawLimitReached(Exception):
    pass


def limited_draw(limit=1_000):
    """A two-variant draw that raises after ``limit`` calls, so a sampler
    that should have refused its settings fails instead of running on."""
    calls = [0]

    def draw(rng):
        calls[0] += 1
        if calls[0] > limit:
            raise DrawLimitReached
        return VA if rng.random() < 0.5 else VB

    draw.calls = calls
    return draw


NOT_COUNTS = [2.5, True, math.inf, 1.0]


def ngram_chain_setup():
    """A smoothed bigram generator and a scorer that accepts some proposals."""
    gen = fit_mle(
        UniqueVariantLog((("a", "b"), ("a", "c"), ("b", "a", "c"), ("c",))), order=2,
        smoothing=0.1,
    )
    return gen, lambda v: (1 + len(v) % 3) / 4


class TestNaiveSample:
    def test_deterministic_generator_yields_singleton(self):
        lp = UniqueVariantLog((("a", "b"),))
        result = naive_sample(constant_draw(("a", "b")), lp, k=5, rng=np.random.default_rng(0))
        assert result.v_hat_s == {("a", "b")}
        assert result.v_hat_u == frozenset()
        assert result.draw_count == 5

    def test_k_one(self):
        lp = UniqueVariantLog((VA,))
        result = naive_sample(constant_draw(VB), lp, k=1, rng=np.random.default_rng(0))
        assert len(result.v_hat_s) == 1
        assert result.v_hat_u == {VB}

    def test_invalid_k(self):
        with pytest.raises(InvalidInputError):
            naive_sample(constant_draw(VA), UniqueVariantLog((VA,)), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("k", NOT_COUNTS)
    def test_non_integer_k_rejected_before_any_draw(self, k):
        draw = limited_draw()
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            naive_sample(draw, UniqueVariantLog((VA,)), k, np.random.default_rng(0))
        assert draw.calls == [0]

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=999))
    @settings(max_examples=50, deadline=None)
    def test_uniqueness_bound_and_unobserved_identity(self, k, seed):
        lp = UniqueVariantLog((VA, VB))
        draw = categorical_draw([VA, VB, VC], [0.4, 0.3, 0.3])
        result = naive_sample(draw, lp, k, np.random.default_rng(seed))
        assert len(result.v_hat_s) <= k
        assert result.v_hat_u == result.v_hat_s - {VA, VB}
        assert not (result.v_hat_u & {VA, VB})


    @pytest.mark.parametrize("k", [1, 7, 200])
    def test_matches_the_scalar_path(self, monkeypatch, k):
        gen, _ = ngram_chain_setup()
        draw = lambda rng: sample_variant(gen, 1.0, rng)
        lp = UniqueVariantLog((("a", "b"), ("c",)))
        rng = np.random.default_rng(23)
        result = naive_sample(draw, lp, k, rng)
        monkeypatch.setattr(sampling, "draw_batch", draw_batch_reference)
        ref_rng = np.random.default_rng(23)
        reference = naive_sample(draw, lp, k, ref_rng)
        assert result == reference
        assert rng.bit_generator.state == ref_rng.bit_generator.state


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]
BLOCK = sampling.UNIFORM_BLOCK


class DrawFailed(Exception):
    pass


def same_state(a, b):
    """Equality of two ``bit_generator.state`` values, whose leaves may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


class TestBlockUniforms:
    """``draw_batch`` reads its generator in blocks and leaves it where the
    same number of scalar ``random()`` calls would, the ``uint32`` buffer
    that ``integers`` fills included."""

    @staticmethod
    def twins(bit_generator):
        gens = [np.random.Generator(bit_generator(2024)) for _ in range(2)]
        for g in gens:
            g.integers(0, 10, dtype=np.uint32)  # 64-bit generators buffer the other half
        return gens

    @staticmethod
    def assert_same_position(rng, twin):
        assert same_state(rng.bit_generator.state, twin.bit_generator.state)
        assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == twin.integers(
            0, 2**32, size=3, dtype=np.uint32).tolist()
        assert rng.integers(0, 2**62) == twin.integers(0, 2**62)
        assert rng.random() == twin.random()
        assert rng.spawn(1)[0].random(3).tolist() == twin.spawn(1)[0].random(3).tolist()

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_reads_the_scalar_stream_and_repositions(self, bit_generator, n):
        rng, twin = self.twins(bit_generator)
        read = sampling.draw_batch(lambda uniforms: uniforms.random(), n, rng)
        assert read == [twin.random() for _ in range(n)]
        self.assert_same_position(rng, twin)

    @pytest.mark.parametrize("n", [0, BLOCK + 1])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_repositions_when_the_body_raises(self, bit_generator, n):
        rng, twin = self.twins(bit_generator)

        def draw(uniforms):
            for _ in range(n):
                uniforms.random()
            raise DrawFailed

        with pytest.raises(DrawFailed):
            sampling.draw_batch(draw, 1, rng)
        for _ in range(n):
            twin.random()
        self.assert_same_position(rng, twin)

    @pytest.mark.parametrize("n", [-1, 2.5, True, None])
    def test_bad_count_rejected_before_any_read(self, n):
        rng, twin = self.twins(np.random.PCG64)
        draw = limited_draw(limit=0)
        with pytest.raises(InvalidInputError, match="^n must be "):
            sampling.draw_batch(draw, n, rng)
        assert draw.calls == [0]
        self.assert_same_position(rng, twin)


class TestMhAcceptance:
    def test_equal_probabilities(self):
        assert mh_acceptance(0.37, 0.37) == 1.0

    def test_worked_ratio(self):
        assert mh_acceptance(0.9, 0.8) == pytest.approx(1 / 9 / 0.25)
        assert mh_acceptance(0.9, 0.8) == pytest.approx(0.4444, abs=1e-4)

    def test_better_proposal_always_accepted(self):
        assert mh_acceptance(0.8, 0.9) == 1.0

    def test_monotone_in_proposal(self):
        values = [mh_acceptance(0.7, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.7])
    def test_boundary_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            mh_acceptance(bad, 0.5)
        with pytest.raises(InvalidInputError):
            mh_acceptance(0.5, bad)


class TestMhChain:
    def test_constant_scorer_degenerates_to_generator(self):
        # alpha = 1 always: the chain just tracks the latest proposal
        draw = categorical_draw([VA, VB], [0.5, 0.5])
        rng = np.random.default_rng(3)
        finals = [mh_chain_candidate(draw, lambda v: 0.5, VA, 40, rng)[0] for _ in range(300)]
        freq = Counter(finals)
        assert abs(freq[VA] / 300 - 0.5) < 0.1

    def test_oracle_discriminator_recovers_target(self):
        # known target P, proposals Q, oracle D = P/(P+Q): stationary dist is P
        target = {VA: 0.7, VB: 0.2, VC: 0.1}
        proposal = {VA: 1 / 3, VB: 1 / 3, VC: 1 / 3}
        draw = categorical_draw(list(target), list(proposal.values()))
        d_p = lambda v: target[v] / (target[v] + proposal[v])
        rng = np.random.default_rng(11)
        inits = list(target)
        n = 2000
        finals = [
            mh_chain_candidate(draw, d_p, inits[i % 3], 500, rng.spawn(1)[0])[0]
            for i in range(n)
        ]
        freq = Counter(finals)
        tv = 0.5 * sum(abs(freq[v] / n - p) for v, p in target.items())
        assert tv < 0.05

    def test_strict_pseudocode_emits_raw_proposal(self):
        # the literal pseudocode emits an unevaluated fresh draw: distribution Q
        target = {VA: 0.7, VB: 0.2, VC: 0.1}
        proposal = {VA: 1 / 3, VB: 1 / 3, VC: 1 / 3}
        draw = categorical_draw(list(target), list(proposal.values()))
        d_p = lambda v: target[v] / (target[v] + proposal[v])
        rng = np.random.default_rng(11)
        inits = list(target)
        n = 2000
        finals = [
            mh_chain_candidate(
                draw, d_p, inits[i % 3], 500, rng.spawn(1)[0], strict_pseudocode=True
            )[0]
            for i in range(n)
        ]
        freq = Counter(finals)
        tv = 0.5 * sum(abs(freq[v] / n - p) for v, p in target.items())
        assert tv > 0.05  # fails the recovery bound, documenting the deviation

    @pytest.mark.parametrize("kappa", NOT_COUNTS)
    def test_non_integer_kappa_rejected_before_any_draw(self, kappa):
        draw = limited_draw()
        with pytest.raises(InvalidInputError, match="kappa must be an integer"):
            mh_chain_candidate(draw, lambda v: 0.5, VA, kappa, np.random.default_rng(0))
        assert draw.calls == [0]

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("kappa", [1, 20, 500])
    def test_direct_call_consumes_the_reference_stream(self, kappa, strict):
        gen, d_p = ngram_chain_setup()
        draw = lambda rng: sample_variant(gen, 1.0, rng)
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        for v_init in (("a", "b"), ("c",), ("a", "b"), ("b", "a", "c")):
            assert mh_chain_candidate(draw, d_p, v_init, kappa, rng, strict) == (
                mh_chain_reference(draw, d_p, v_init, kappa, ref_rng, strict)
            )
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMhSample:
    def _setup(self):
        lp = UniqueVariantLog((VA, VB))
        lp_e = UniqueVariantLog((VA,))
        draw = categorical_draw([VA, VB, VC], [0.5, 0.3, 0.2])
        d_p = lambda v: 0.5
        return lp, lp_e, draw, d_p

    def test_terminates_on_finite_support(self):
        lp, lp_e, draw, d_p = self._setup()
        result = mh_sample(draw, d_p, lp, lp_e, patience=30, kappa=5,
                           rng=np.random.default_rng(0))
        assert result.v_hat_s <= {VA, VB, VC}
        assert result.v_hat_u == result.v_hat_s - {VA, VB}

    def test_acceptance_rate_is_one_for_constant_scorer(self):
        lp, lp_e, draw, d_p = self._setup()
        result = mh_sample(draw, d_p, lp, lp_e, patience=10, kappa=5,
                           rng=np.random.default_rng(1))
        assert result.acceptance_rate == 1.0

    def test_deterministic_per_seed(self):
        lp, lp_e, draw, d_p = self._setup()
        r1 = mh_sample(draw, d_p, lp, lp_e, patience=20, kappa=5,
                       rng=np.random.default_rng(7))
        r2 = mh_sample(draw, d_p, lp, lp_e, patience=20, kappa=5,
                       rng=np.random.default_rng(7))
        assert r1 == r2

    def test_empty_holdout_rejected(self):
        lp, _, draw, d_p = self._setup()
        with pytest.raises(InvalidInputError):
            mh_sample(draw, d_p, lp, UniqueVariantLog(()), rng=np.random.default_rng(0))

    def test_draw_count_matches_chains(self):
        lp, lp_e, draw, d_p = self._setup()
        result = mh_sample(draw, d_p, lp, lp_e, patience=4, kappa=6,
                           rng=np.random.default_rng(2))
        assert result.draw_count % 6 == 0

    @pytest.mark.parametrize("value", NOT_COUNTS)
    @pytest.mark.parametrize("name", ["kappa", "patience"])
    def test_non_integer_settings_rejected_before_any_draw(self, name, value):
        lp, lp_e, _, d_p = self._setup()
        draw = limited_draw()
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            mh_sample(draw, d_p, lp, lp_e, **{name: value}, rng=np.random.default_rng(0))
        assert draw.calls == [0]

    def test_numpy_integer_settings_accepted(self):
        lp, lp_e, draw, d_p = self._setup()
        expected = mh_sample(draw, d_p, lp, lp_e, patience=3, kappa=4,
                             rng=np.random.default_rng(5))
        assert mh_sample(draw, d_p, lp, lp_e, patience=np.int64(3), kappa=np.int32(4),
                         rng=np.random.default_rng(5)) == expected

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("kappa", [1, 20, 500])
    def test_matches_the_scalar_stream_reference(self, kappa, strict):
        # Chains of 500 steps read more doubles than one UNIFORM_BLOCK holds.
        gen, d_p = ngram_chain_setup()
        draw = lambda rng: sample_variant(gen, 1.0, rng)
        lp = UniqueVariantLog((("a", "b"), ("c",)))
        lp_e = UniqueVariantLog((("a", "c"), ("b", "a", "c")))
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        result = mh_sample(draw, d_p, lp, lp_e, patience=4, kappa=kappa, rng=rng,
                           strict_pseudocode=strict)
        assert (
            result.v_hat_s, result.v_hat_u, result.draw_count, result.acceptance_rate
        ) == mh_sample_reference(draw, d_p, lp, lp_e, 4, kappa, ref_rng, strict)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (rng.bit_generator.seed_seq.n_children_spawned
                == ref_rng.bit_generator.seed_seq.n_children_spawned)


def test_sample_result_needs_unobserved_within_estimate():
    with pytest.raises(InvalidInputError) as info:
        SampleResult(v_hat_s=frozenset({VA}), v_hat_u=frozenset({VB}), draw_count=1)
    assert str(info.value) == "v_hat_u must be a subset of v_hat_s"
