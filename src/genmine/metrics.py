"""Ground-truth bookkeeping and true-positive rate reports.

A ground truth splits a system's variant set into an observed part (the
unique variant log) and an unobserved remainder, keeping at least one
variant of maximal length observed so the length bound inferred from the
log matches the system's.

Rates are stored as exact integer count pairs; the decimal forms are
derived properties, so the count identities

    tp * |V_hat| = tp_S * |V_S|   and   tp_S * |V_S| = tp_o * |L+| + tp_u * |V_u|

hold exactly by construction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Collection

import numpy as np

from .errors import InvalidInputError, check_count, check_real
from .logs import UniqueVariantLog, Variant, check_variants

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SystemTruth:
    """A system's variant set split into observed and unobserved parts."""

    v_s: frozenset[Variant]
    lplus: UniqueVariantLog
    v_u: frozenset[Variant]

    def __post_init__(self):
        check_variants(self.v_s)
        observed = self.lplus.as_set()
        if observed | self.v_u != self.v_s:
            raise InvalidInputError("observed and unobserved parts must cover the system set")
        if observed & self.v_u:
            raise InvalidInputError("observed and unobserved parts must be disjoint")
        if not observed or not self.v_u:
            raise InvalidInputError("both observed and unobserved parts must be non-empty")
        max_len = max(len(v) for v in self.v_s)
        if not any(len(v) == max_len for v in observed):
            raise InvalidInputError("observed part must contain a maximal-length variant")


def split_system(v_s: Collection[Variant], ratio: float, seed: int) -> SystemTruth:
    """Randomly split a system variant set, floor(ratio * n) observed.

    If the random draw misses every maximal-length variant, one is swapped
    in deterministically so the observed log preserves the system's length
    bound.
    """
    ordered = sorted(set(check_variants(v_s)))
    n = len(ordered)
    if n < 2:
        raise InvalidInputError("split_system requires at least 2 variants")
    check_count("seed", seed, minimum=0)
    check_real("ratio", ratio, "(0,1)")
    n_obs = math.floor(ratio * n)
    if n_obs < 1 or n_obs >= n:
        raise InvalidInputError(
            f"ratio {ratio} leaves a degenerate split ({n_obs}/{n - n_obs}) for {n} variants"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    observed_idx = list(perm[:n_obs])
    holdout_idx = list(perm[n_obs:])
    max_len = max(len(v) for v in ordered)
    if not any(len(ordered[i]) == max_len for i in observed_idx):
        swap_in = next(i for i in holdout_idx if len(ordered[i]) == max_len)
        swap_out = observed_idx[-1]
        observed_idx[-1] = swap_in
        holdout_idx[holdout_idx.index(swap_in)] = swap_out
    lplus = UniqueVariantLog(tuple(ordered[i] for i in observed_idx))
    v_u = frozenset(ordered[i] for i in holdout_idx)
    return SystemTruth(v_s=frozenset(ordered), lplus=lplus, v_u=v_u)


@dataclass(frozen=True)
class MetricsReport:
    """Exact intersection counts of an estimate against a ground truth."""

    n_sampled: int
    n_system: int
    n_observed: int
    n_unobserved: int
    hits_system: int
    hits_observed: int
    hits_unobserved: int
    n_holdout: int = 0
    hits_holdout: int = 0

    def __post_init__(self):
        if self.n_system < 1:
            raise InvalidInputError("n_system must be >= 1")
        if self.hits_system != self.hits_observed + self.hits_unobserved:
            raise InvalidInputError("count identity violated: system hits must split")

    @property
    def tp(self) -> float:
        return self.hits_system / self.n_sampled if self.n_sampled else 0.0

    @property
    def fp(self) -> float:
        return 1.0 - self.tp

    @property
    def tp_s(self) -> float:
        return self.hits_system / self.n_system

    @property
    def tp_o(self) -> float:
        return self.hits_observed / self.n_observed if self.n_observed else 0.0

    @property
    def tp_u(self) -> float:
        return self.hits_unobserved / self.n_unobserved if self.n_unobserved else 0.0

    @property
    def tp_e(self) -> float | None:
        return self.hits_holdout / self.n_holdout if self.n_holdout else None

    @property
    def s(self) -> float:
        return score_s(self.tp, self.tp_u)

    def rates_dict(self) -> dict[str, float | None]:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "tp_s": self.tp_s,
            "tp_o": self.tp_o,
            "tp_u": self.tp_u,
            "tp_e": self.tp_e,
            "s": self.s,
        }

    def counts_dict(self) -> dict[str, int]:
        return asdict(self)


def compute_rates(
    v_hat_s: Collection[Variant],
    v_s: Collection[Variant],
    lplus: Collection[Variant],
    v_u: Collection[Variant],
    lplus_e: Collection[Variant] | None = None,
) -> MetricsReport:
    """Exact set-intersection rates of an estimated variant set.

    An empty estimate yields tp = 0 and fp = 1 rather than an error, which
    matches how models that play out nothing are reported.  Each set holds
    variants as ``logs.check_variants`` defines them.
    """
    v_hat = frozenset(check_variants(v_hat_s))
    system = frozenset(check_variants(v_s))
    observed = frozenset(check_variants(lplus))
    unobserved = frozenset(check_variants(v_u))
    if not system:
        raise InvalidInputError("compute_rates requires a non-empty system set")
    if observed | unobserved != system or (observed & unobserved):
        raise InvalidInputError("lplus and v_u must partition v_s")
    holdout = frozenset(check_variants(lplus_e)) if lplus_e is not None else frozenset()
    return MetricsReport(
        n_sampled=len(v_hat),
        n_system=len(system),
        n_observed=len(observed),
        n_unobserved=len(unobserved),
        hits_system=len(v_hat & system),
        hits_observed=len(v_hat & observed),
        hits_unobserved=len(v_hat & unobserved),
        n_holdout=len(holdout),
        hits_holdout=len(v_hat & holdout),
    )


def score_s(tp: float, tp_u: float) -> float:
    """Balanced quality/novelty score: (tp + tp_u) / sqrt(2).

    Equals the length of the projection of (tp, tp_u) onto the diagonal,
    so balanced estimators beat lopsided ones of equal norm.
    """
    for name, value in (("tp", tp), ("tp_u", tp_u)):
        check_real(name, value, "[0,1]")
    return (tp + tp_u) / SQRT2
