"""Small-sample statistical tests used by the experiment harness.

Shapiro-Wilk and the upper-tailed paired t-test come from ``scipy.stats``.
Each function first checks its input domain (one-dimensional, finite, the
supported size, not degenerate), so an inapplicable input is a domain error
and scipy is never asked for a result it would only warn about.

The upper-tailed Wilcoxon signed-rank test stays here.  Zero differences
are dropped and ties in the absolute values get average ranks.  Up to
n = 20 the p-value comes from enumerating all sign flips, which is exact
with ties; scipy's ``method="exact"`` rounds a tied statistic instead,
and its permutation fallback draws random flips above n = 13.  Above
n = 20 the normal approximation with tie correction and no continuity
correction is scipy's.

``scipy.stats`` is imported on first use inside each function: it costs
more to import than the rest of the package, and only the paired tests
of an experiment need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

# scipy's documented limit for Shapiro-Wilk; it warns above it.
SHAPIRO_MAX_N = 5000
# Shapiro-Wilk p-value at or above which the gate takes the paired t-test.
NORMALITY_ALPHA = 0.05
_WILCOXON_EXACT_MAX_N = 20


def _as_array(sample: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    return arr


def shapiro_wilk(sample: Sequence[float]) -> tuple[float, float]:
    """W statistic and normality p-value for a sample of size 3..5000."""
    x = _as_array(sample, "sample")
    n = len(x)
    if not 3 <= n <= SHAPIRO_MAX_N:
        raise InvalidInputError(f"shapiro_wilk supports 3 <= n <= {SHAPIRO_MAX_N}, got {n}")
    # scipy's swilk treats a range below 1e-19 as zero and warns.
    if np.ptp(x) < 1e-19:
        raise DegenerateInputError("shapiro_wilk requires a non-constant sample")
    from scipy import stats

    res = stats.shapiro(x)
    return float(res.statistic), float(res.pvalue)


def paired_t_upper(differences: Sequence[float]) -> tuple[float, float]:
    """t statistic and one-sided (upper tail) p-value on paired differences."""
    d = _as_array(differences, "differences")
    if len(d) < 2:
        raise InvalidInputError("paired_t_upper requires n >= 2")
    # Differences equal up to rounding have no variance to test; scipy would
    # warn of catastrophic cancellation for them.
    mean = d.mean()
    if np.max(np.abs(d - mean)) <= 10 * np.finfo(float).eps * abs(mean):
        raise DegenerateInputError("paired_t_upper requires nonzero variance")
    from scipy import stats

    res = stats.ttest_1samp(d, 0.0, alternative="greater")
    return float(res.statistic), float(res.pvalue)


def wilcoxon_upper(differences: Sequence[float]) -> tuple[float, float]:
    """W+ statistic and one-sided p-value, H1: differences shifted upward.

    Zero differences are dropped first; ties in the absolute values get
    average ranks.  The p-value is exact (full sign-flip distribution) for
    up to 20 nonzero differences and a tie-corrected normal approximation
    without continuity correction beyond that.
    """
    d = _as_array(differences, "differences")
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise DegenerateInputError("wilcoxon_upper: all differences are zero")
    if n < 5:
        raise InvalidInputError("wilcoxon_upper requires at least 5 nonzero differences")
    from scipy import stats

    if n > _WILCOXON_EXACT_MAX_N:
        # "approx" is the name scipy 1.10 takes; later releases read it as "asymptotic".
        res = stats.wilcoxon(d, alternative="greater", method="approx", correction=False)
        return float(res.statistic), float(res.pvalue)
    ranks = stats.rankdata(np.abs(d))
    w_plus = float(np.sum(ranks[d > 0.0]))
    # Average ranks are multiples of 1/2; doubling keeps everything integral.
    doubled = np.rint(2.0 * ranks).astype(int)
    counts = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:-r]
        counts = counts + shifted
    threshold = int(round(2.0 * w_plus))
    return w_plus, float(counts[threshold:].sum() / 2.0**n)


@dataclass(frozen=True)
class GateResult:
    method: str
    statistic: float
    p_value: float
    shapiro_w: float
    shapiro_p: float


def normality_gate(differences: Sequence[float]) -> GateResult:
    """Shapiro-Wilk gate: paired t when normality is plausible, else Wilcoxon."""
    w, sp = shapiro_wilk(differences)
    if sp >= NORMALITY_ALPHA:
        stat, p = paired_t_upper(differences)
        return GateResult("paired_t", stat, p, w, sp)
    stat, p = wilcoxon_upper(differences)
    return GateResult("wilcoxon", stat, p, w, sp)
