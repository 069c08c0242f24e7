"""The two discriminator losses the trainer minimizes, with their gradients.

Both work on the raw (pre-sigmoid) scores ``r = x @ w + b`` of the linear
scorer.  ``standard_d_logistic`` is the binary cross-entropy of real
against generated variants:

    L_D  = -mean(log sigmoid(r_real)) - mean(log sigmoid(-r_fake))

``relativistic_d`` (Jolicoeur-Martineau, "The relativistic
discriminator", ICLR 2019) scores paired real/fake batches by their gap:

    L_Dr = -mean(log sigmoid(r_real - r_fake))

All means use numpy summation (pairwise, numerically stable).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

LOSS_IDS = ("standard_d_logistic", "relativistic_d")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # log sigmoid(x) = -softplus(-x), stable for large |x|
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))


def loss_gradient(
    loss: str,
    features_real: np.ndarray,
    features_fake: np.ndarray,
    weights: np.ndarray,
    bias: float,
) -> tuple[np.ndarray, float, float]:
    """Gradient of a loss w.r.t. the linear scorer's weights and bias.

    ``features_*`` are (batch, dim) matrices of the scorer's feature map.
    Returns (weight gradient, bias gradient, loss value).
    """
    if loss not in LOSS_IDS:
        raise InvalidInputError(f"unknown loss id {loss!r}")
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
    if loss == "standard_d_logistic":
        p_r, p_f = _sigmoid(raw_real), _sigmoid(raw_fake)
        d_real, d_fake = (p_r - 1.0) / n_r, p_f / n_f
        value = -np.mean(_log_sigmoid(raw_real)) - np.mean(_log_sigmoid(-raw_fake))
    else:
        if n_r != n_f:
            raise InvalidInputError(f"relativistic_d needs equally sized batches ({n_r} vs {n_f})")
        diff = raw_real - raw_fake
        s = _sigmoid(diff)
        d_real, d_fake = -(1 - s) / n_r, (1 - s) / n_f
        value = -np.mean(_log_sigmoid(diff))
    grad_w = features_real.T @ d_real + features_fake.T @ d_fake
    grad_b = float(np.sum(d_real) + np.sum(d_fake))
    return grad_w, grad_b, float(value)
