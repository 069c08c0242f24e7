"""System-variant estimation by naive sampling or Metropolis-Hastings.

Both procedures consume a generator through a single callable (draw one
variant given a source of uniforms) and, for MH, a probability scorer
mapping a variant to the chance it is realistic.  This keeps the built-in
n-gram model and any future sequence model interchangeable.  A draw
function takes its randomness only through ``rng.random()``: it is handed
a block source, not a numpy ``Generator``, which reads the generator's
doubles ``UNIFORM_BLOCK`` at a time, the same doubles in the same order
as one scalar call each.

:func:`draw_batch` makes ``n`` draws through that source and then puts
the generator back exactly where the scalar calls would have left it, so
the next ``integers``, ``random`` or ``spawn`` gives the same values.  It
is the only code that repositions a generator: naive sampling and the
generator's refinement and selection draws all go through it.  Each MH
chain reads its own spawned generator through the same blocks without the
reposition, because its acceptance uniforms interleave with its proposals
and nothing reads that generator after the chain.

The MH chain uses the independent-proposal acceptance ratio

    alpha = min(1, (1/p(current) - 1) / (1/p(proposal) - 1))

and emits the final accepted chain state.  The published pseudocode this
follows instead emits one extra fresh proposal that no acceptance test
ever saw, which breaks the chain's stationarity; ``strict_pseudocode=True``
reproduces that literal behavior for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import length_hint
from types import SimpleNamespace
from typing import Callable, Iterator, Protocol

import numpy as np

from .errors import InvalidInputError, check_count
from .logs import UniqueVariantLog, Variant


class Uniforms(Protocol):
    """A source of uniform doubles in [0, 1), such as ``np.random.Generator``."""

    def random(self) -> float: ...


DrawFn = Callable[[Uniforms], Variant]
ProbFn = Callable[[Variant], float]

DEFAULT_CHAIN_LENGTH = 500
DEFAULT_NAIVE_DRAWS = 10_000
DEFAULT_PATIENCE = 1_000
# Doubles a block source takes from its generator per call; 64 to 256 time alike.
UNIFORM_BLOCK = 128


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

    The draws go through :func:`draw_batch`, so ``rng`` ends where ``k``
    scalar-call draws would leave it.  The observed variants are not
    merged into the estimate, matching the published sampling procedure.
    """
    check_count("k", k)
    v_hat_s_frozen = frozenset(draw_batch(g, k, rng))
    return SampleResult(
        v_hat_s=v_hat_s_frozen,
        v_hat_u=v_hat_s_frozen - lplus.as_set(),
        draw_count=k,
    )


def _odds(name: str, p: float) -> float:
    """The odds ``1/p - 1`` against a variant the discriminator scored ``p``."""
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"{name} must be strictly inside (0,1), got {p}")
    return 1.0 / p - 1.0


def mh_acceptance(p_current: float, p_proposal: float) -> float:
    """Acceptance probability driven by discriminator odds."""
    return min(1.0, _odds("p_current", p_current) / _odds("p_proposal", p_proposal))


def mh_chain_candidate(
    g: DrawFn,
    d_p: ProbFn,
    v_init: Variant,
    kappa: int,
    rng: Uniforms,
    strict_pseudocode: bool = False,
) -> tuple[Variant, int, int]:
    """Run one chain of ``kappa`` steps; returns (candidate, #accepted, #draws).

    The candidate is the final accepted state.  Strict mode emits instead a
    fresh, never-evaluated proposal drawn after the chain finished, exactly
    as the literal pseudocode does.  Each step takes the proposal's draws
    from ``rng`` and then one ``rng.random()`` for its acceptance test.
    """
    check_count("kappa", kappa)
    random = rng.random
    v_x = v_init
    odds_x = _odds("p_current", d_p(v_x))
    accepted = 0
    for _ in range(kappa):
        v_y = g(rng)
        odds_y = _odds("p_proposal", d_p(v_y))
        # mh_acceptance's alpha without its min(1, .): u < 1 always.
        if odds_x / odds_y > random():
            v_x, odds_x = v_y, odds_y
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
    check_count("patience", patience)
    check_count("kappa", kappa)
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
            g, d_p, v_ref, kappa, _block_source(chain_rng)[0],
            strict_pseudocode=strict_pseudocode,
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


def _block_source(rng: np.random.Generator) -> tuple[Uniforms, list[Iterator[float]]]:
    """``rng``'s doubles, fetched ``UNIFORM_BLOCK`` at a time, and the
    blocks fetched so far, each an iterator over its doubles.

    ``rng.random(n)`` yields exactly the doubles of ``n`` scalar calls, so
    the stream is unchanged; the doubles left in the last block are
    fetched but never read.
    """
    blocks: list[Iterator[float]] = []

    def fetch() -> Iterator[float]:
        block = iter(rng.random(UNIFORM_BLOCK).tolist())
        blocks.append(block)
        return block

    return SimpleNamespace(random=chain.from_iterable(iter(fetch, None)).__next__), blocks


def draw_batch(g: DrawFn, n: int, rng: np.random.Generator) -> list[Variant]:
    """``n`` draws of ``g`` from a block source over ``rng``, leaving ``rng``
    where ``n`` scalar-call draws would.

    Afterwards, also when a draw raises, ``rng`` gets back the state it had
    before and advances by one ``rng.random(used)``, ``used`` being the
    doubles the draws read; the doubles fetched beyond them are given back.
    """
    check_count("n", n, minimum=0)
    state = rng.bit_generator.state
    source, blocks = _block_source(rng)
    try:
        return [g(source) for _ in range(n)]
    finally:
        rng.bit_generator.state = state
        # A block is fetched only once the one before it is read to its end.
        unread = length_hint(blocks[-1]) if blocks else 0
        rng.random(UNIFORM_BLOCK * len(blocks) - unread)
