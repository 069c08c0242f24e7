"""System-variant estimation by naive sampling or Metropolis-Hastings.

Both procedures consume a generator through a single callable (draw one
variant given an rng) and, for MH, a probability scorer mapping a variant
to the chance it is realistic.  This keeps the built-in n-gram model and
any future sequence model interchangeable.

The MH chain uses the independent-proposal acceptance ratio

    alpha = min(1, (1/p(current) - 1) / (1/p(proposal) - 1))

and emits the final accepted chain state.  The published pseudocode this
follows instead emits one extra fresh proposal that no acceptance test
ever saw, which breaks the chain's stationarity; ``strict_pseudocode=True``
reproduces that literal behavior for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .logs import UniqueVariantLog, Variant

DrawFn = Callable[[np.random.Generator], Variant]
ProbFn = Callable[[Variant], float]

DEFAULT_CHAIN_LENGTH = 500
DEFAULT_NAIVE_DRAWS = 10_000
DEFAULT_PATIENCE = 1_000


@dataclass(frozen=True)
class SampleResult:
    """Estimated system variants and the unobserved slice thereof."""

    v_hat_s: frozenset[Variant]
    v_hat_u: frozenset[Variant]
    draw_count: int
    acceptance_rate: float | None = None

    def __post_init__(self):
        if self.v_hat_u - self.v_hat_s:
            raise InvalidInputError("v_hat_u must be a subset of v_hat_s")


def naive_sample(
    g: DrawFn,
    lplus: UniqueVariantLog,
    k: int,
    rng: np.random.Generator,
) -> SampleResult:
    """Draw ``k`` variants and keep the distinct ones.

    The observed variants are not merged into the estimate, matching the
    published sampling procedure.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    v_hat_s: set[Variant] = set()
    for _ in range(k):
        v_hat_s.add(g(rng))
    v_hat_s_frozen = frozenset(v_hat_s)
    return SampleResult(
        v_hat_s=v_hat_s_frozen,
        v_hat_u=v_hat_s_frozen - lplus.as_set(),
        draw_count=k,
    )


def mh_acceptance(p_current: float, p_proposal: float) -> float:
    """Acceptance probability driven by discriminator odds."""
    for name, p in (("p_current", p_current), ("p_proposal", p_proposal)):
        if not 0.0 < p < 1.0:
            raise InvalidInputError(f"{name} must be strictly inside (0,1), got {p}")
    return min(1.0, (1.0 / p_current - 1.0) / (1.0 / p_proposal - 1.0))


def mh_chain_candidate(
    g: DrawFn,
    d_p: ProbFn,
    v_init: Variant,
    kappa: int,
    rng: np.random.Generator,
    strict_pseudocode: bool = False,
) -> tuple[Variant, int, int]:
    """Run one chain of ``kappa`` steps; returns (candidate, #accepted, #draws).

    The candidate is the final accepted state.  Strict mode emits instead a
    fresh, never-evaluated proposal drawn after the chain finished, exactly
    as the literal pseudocode does.
    """
    if kappa < 1:
        raise InvalidInputError("kappa must be >= 1")
    v_x = v_init
    p_x = d_p(v_x)
    accepted = 0
    for _ in range(kappa):
        v_y = g(rng)
        p_y = d_p(v_y)
        alpha = mh_acceptance(p_x, p_y)
        if alpha > rng.random():
            v_x, p_x = v_y, p_y
            accepted += 1
    if strict_pseudocode:
        return g(rng), accepted, kappa + 1
    return v_x, accepted, kappa


def mh_sample(
    g: DrawFn,
    d_p: ProbFn,
    lplus: UniqueVariantLog,
    lplus_e: UniqueVariantLog,
    patience: int = DEFAULT_PATIENCE,
    kappa: int = DEFAULT_CHAIN_LENGTH,
    *,
    rng: np.random.Generator,
    strict_pseudocode: bool = False,
) -> SampleResult:
    """Collect novel variants from repeated MH chains until patience runs out.

    Each chain starts from a uniformly random holdout variant (burn-in
    avoidance) and owns an rng substream, so results do not depend on how
    chains would be scheduled.  A chain whose candidate equals its
    initializer or an already-collected variant counts against patience;
    any novel candidate resets the counter.
    """
    if len(lplus_e) == 0:
        raise InvalidInputError("mh_sample requires a non-empty holdout set")
    if patience < 1:
        raise InvalidInputError("patience must be >= 1")
    if kappa < 1:
        raise InvalidInputError("kappa must be >= 1")
    observed = lplus.as_set()
    inits = list(lplus_e)
    v_hat_s: set[Variant] = set()
    misses = 0
    draws = 0
    accepted_total = 0
    steps_total = 0
    while misses < patience:
        v_ref = inits[int(rng.integers(len(inits)))]
        chain_rng = rng.spawn(1)[0]
        candidate, accepted, chain_draws = mh_chain_candidate(
            g, d_p, v_ref, kappa, chain_rng, strict_pseudocode=strict_pseudocode
        )
        draws += chain_draws
        accepted_total += accepted
        steps_total += kappa
        if candidate != v_ref and candidate not in v_hat_s:
            v_hat_s.add(candidate)
            misses = 0
        else:
            misses += 1
    v_hat_s_frozen = frozenset(v_hat_s)
    return SampleResult(
        v_hat_s=v_hat_s_frozen,
        v_hat_u=v_hat_s_frozen - observed,
        draw_count=draws,
        acceptance_rate=accepted_total / steps_total if steps_total else 0.0,
    )
