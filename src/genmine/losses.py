"""The discriminator loss the trainer minimizes, with its gradient.

It works on the raw (pre-sigmoid) scores ``r = x @ w + b`` of the linear
scorer: the binary cross-entropy of real against generated variants,

    L_D  = -mean(log sigmoid(r_real)) - mean(log sigmoid(-r_fake))

All means use numpy summation (pairwise, numerically stable).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # log sigmoid(x) = min(x, 0) - log(1 + e^-|x|); exp never overflows
    x = np.asarray(x, dtype=float)
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def loss_gradient(
    features_real: np.ndarray,
    features_fake: np.ndarray,
    weights: np.ndarray,
    bias: float,
) -> tuple[np.ndarray, float, float]:
    """Gradient of the loss w.r.t. the linear scorer's weights and bias.

    ``features_*`` are (batch, dim) matrices of the scorer's feature map.
    Returns (weight gradient, bias gradient, loss value).
    """
    features_real = np.atleast_2d(np.asarray(features_real, dtype=float))
    features_fake = np.atleast_2d(np.asarray(features_fake, dtype=float))
    weights = np.asarray(weights, dtype=float)
    n_r, n_f = features_real.shape[0], features_fake.shape[0]
    if n_r == 0 or n_f == 0:
        raise InvalidInputError("both batches must be non-empty")
    if features_real.shape[1] != weights.shape[0] or features_fake.shape[1] != weights.shape[0]:
        raise InvalidInputError(
            f"feature dimension mismatch: {features_real.shape[1]}/{features_fake.shape[1]} "
            f"vs {weights.shape[0]} weights"
        )
    raw_real = features_real @ weights + bias
    raw_fake = features_fake @ weights + bias
    p_r, p_f = _sigmoid(raw_real), _sigmoid(raw_fake)
    g_real, g_fake = (p_r - 1.0) / n_r, p_f / n_f
    value = -np.mean(_log_sigmoid(raw_real)) - np.mean(_log_sigmoid(-raw_fake))
    grad_w = features_real.T @ g_real + features_fake.T @ g_fake
    grad_b = float(np.sum(g_real) + np.sum(g_fake))
    return grad_w, grad_b, float(value)
