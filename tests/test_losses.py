from __future__ import annotations

import math

import numpy as np
import pytest

from genmine import InvalidInputError
from genmine.losses import LOSS_IDS, loss_gradient

from .oracles import finite_diff_gradient

LN2 = math.log(2.0)


def loss_of(loss, raw_real, raw_fake):
    """Loss value at the given raw scores: one-hot features, zero bias."""
    raw = np.concatenate([raw_real, raw_fake]).astype(float)
    feats = np.eye(len(raw))
    return loss_gradient(loss, feats[: len(raw_real)], feats[len(raw_real):], raw, 0.0)[2]


class TestStandardDLoss:
    def test_logistic_at_zero_raw(self):
        value = loss_of("standard_d_logistic", [0.0, 0.0], [0.0])
        assert value == pytest.approx(2 * LN2, abs=1e-12)

    def test_perfect_discriminator(self):
        value = loss_of("standard_d_logistic", [50.0, 50.0], [-50.0])
        assert value == pytest.approx(0.0, abs=1e-12)


class TestRelativisticLosses:
    def test_equal_scores_give_ln2(self):
        assert loss_of("relativistic_d", [0.3, -0.7], [0.3, -0.7]) == pytest.approx(LN2)

    def test_large_gap_approaches_zero(self):
        assert loss_of("relativistic_d", [50.0], [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_unit_diff(self):
        value = loss_of("relativistic_d", [1.0], [0.0])
        assert value == pytest.approx(-math.log(1 / (1 + math.exp(-1))))
        assert value == pytest.approx(0.3133, abs=1e-4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            loss_of("relativistic_d", [0.1, 0.2], [0.3])


class TestLossGradient:
    def _random_case(self, rng, loss):
        dim = 20
        n = int(rng.integers(2, 8))
        feats_pos = rng.poisson(1.0, size=(n, dim)).astype(float)
        feats_neg = rng.poisson(1.0, size=(n, dim)).astype(float)
        weights = rng.normal(0.0, 0.5, size=dim)
        bias = float(rng.normal(0.0, 0.2))
        return feats_pos, feats_neg, weights, bias

    @pytest.mark.parametrize("loss", LOSS_IDS)
    def test_matches_finite_differences(self, loss):
        # relative error with a unit floor, as in standard gradient checking
        rng = np.random.default_rng(7)
        for _ in range(20):
            feats_pos, feats_neg, weights, bias = self._random_case(rng, loss)
            grad_w, grad_b, _ = loss_gradient(loss, feats_pos, feats_neg, weights, bias)
            fd_w, fd_b = finite_diff_gradient(loss, feats_pos, feats_neg, weights, bias)
            denom = np.maximum(np.maximum(np.abs(grad_w), np.abs(fd_w)), 1.0)
            assert float(np.max(np.abs(grad_w - fd_w) / denom)) < 1e-5
            assert abs(grad_b - fd_b) / max(abs(grad_b), abs(fd_b), 1.0) < 1e-5

    def test_relativistic_sign_pushes_real_up(self):
        # zero scorer: gradient step must increase real scores relative to fake
        feats_pos = np.array([[1.0, 0.0], [1.0, 0.0]])
        feats_neg = np.array([[0.0, 1.0], [0.0, 1.0]])
        weights = np.zeros(2)
        grad_w, _, _ = loss_gradient("relativistic_d", feats_pos, feats_neg, weights, 0.0)
        step = -grad_w  # descent direction
        assert step[0] > 0 and step[1] < 0

    def test_constant_feature_cancels_for_relativistic(self):
        feats = np.ones((3, 1))
        grad_w, grad_b, _ = loss_gradient("relativistic_d", feats, feats, np.zeros(1), 0.0)
        assert grad_w[0] == pytest.approx(0.0, abs=1e-15)
        assert grad_b == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            loss_gradient("standard_d_logistic", np.ones((2, 3)), np.ones((2, 3)), np.zeros(2), 0.0)

    def test_unknown_loss_rejected(self):
        with pytest.raises(InvalidInputError):
            loss_gradient("nope", np.ones((1, 1)), np.ones((1, 1)), np.zeros(1), 0.0)
