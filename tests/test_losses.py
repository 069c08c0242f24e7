from __future__ import annotations

import math

import numpy as np
import pytest

from genmine import InvalidInputError
from genmine.losses import loss_gradient

from .oracles import finite_diff_gradient

LN2 = math.log(2.0)


def loss_of(raw_real, raw_fake):
    """Loss value at the given raw scores: one-hot features, zero bias."""
    raw = np.concatenate([raw_real, raw_fake]).astype(float)
    feats = np.eye(len(raw))
    return loss_gradient(feats[: len(raw_real)], feats[len(raw_real):], raw, 0.0)[2]


class TestStandardDLoss:
    def test_logistic_at_zero_raw(self):
        value = loss_of([0.0, 0.0], [0.0])
        assert value == pytest.approx(2 * LN2, abs=1e-12)

    def test_perfect_discriminator(self):
        value = loss_of([50.0, 50.0], [-50.0])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_extreme_raw_scores_stay_finite(self):
        # e^1000 overflows to a RuntimeWarning, which the suite makes an error
        value = loss_of([1000.0, -1000.0], [1000.0, -1000.0])
        assert value == 1000.0


class TestLossGradient:
    def test_matches_finite_differences(self):
        # relative error with a unit floor, as in standard gradient checking
        rng = np.random.default_rng(7)
        dim = 20
        for _ in range(20):
            n = int(rng.integers(2, 8))
            feats_pos = rng.poisson(1.0, size=(n, dim)).astype(float)
            feats_neg = rng.poisson(1.0, size=(n, dim)).astype(float)
            weights = rng.normal(0.0, 0.5, size=dim)
            bias = float(rng.normal(0.0, 0.2))
            grad_w, grad_b, _ = loss_gradient(feats_pos, feats_neg, weights, bias)
            fd_w, fd_b = finite_diff_gradient(feats_pos, feats_neg, weights, bias)
            denom = np.maximum(np.maximum(np.abs(grad_w), np.abs(fd_w)), 1.0)
            assert float(np.max(np.abs(grad_w - fd_w) / denom)) < 1e-5
            assert abs(grad_b - fd_b) / max(abs(grad_b), abs(fd_b), 1.0) < 1e-5

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            loss_gradient(np.ones((2, 3)), np.ones((2, 3)), np.zeros(2), 0.0)

    @pytest.mark.parametrize("n_real, n_fake", [(0, 2), (2, 0)])
    def test_empty_batch_rejected(self, n_real, n_fake):
        with pytest.raises(InvalidInputError) as info:
            loss_gradient(np.ones((n_real, 2)), np.ones((n_fake, 2)), np.zeros(2), 0.0)
        assert str(info.value) == "both batches must be non-empty"
