"""Conformance checking: log fitness, log precision, and generalization.

Two families of scores live here.  Log-level scores replay a variant log
on a net: token-replay fitness aggregates missing/remaining/consumed/
produced token counts over the whole log before applying the standard
``0.5*(1-m/c) + 0.5*(1-r/p)`` formula, and escaping-edges precision walks
the prefix automaton of the log comparing model-enabled continuations with
observed ones.  System-level scores are exact set ratios between a net's
playout and a known variant set.

The generalization of a net against an estimated system variant set is the
harmonic mean of log fitness and log precision measured on a log holding
each of those variants once.  Both conformance functions are parameters so
stronger metrics can be swapped in without touching the pipeline.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Collection, Iterable

from .errors import BudgetExceededError, InvalidInputError
from .logs import Variant, VariantLog
from .petri import CompiledNet, PetriNet

_CLOSURE_LIMIT = 20_000


@dataclass(frozen=True)
class ConformanceScores:
    fitness: float
    precision: float
    fitness_method: str = "token_replay"
    precision_method: str = "escaping_edges"

    def __post_init__(self):
        for name, value in (("fitness", self.fitness), ("precision", self.precision)):
            if not 0.0 <= value <= 1.0:
                raise InvalidInputError(f"{name} must be in [0,1], got {value}")


# ---------------------------------------------------------------------------
# Silent-transition closure
# ---------------------------------------------------------------------------

def _silent_closure(cn: CompiledNet, vec: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All markings reachable from ``vec`` by firing only silent transitions."""
    seen = {vec}
    frontier = [vec]
    while frontier:
        cur = frontier.pop()
        for si in cn.silent:
            if not cn.is_enabled(cur, si):
                continue
            nxt = cn.fire(cur, si)
            if nxt in seen:
                continue
            seen.add(nxt)
            if len(seen) > _CLOSURE_LIMIT:
                raise BudgetExceededError(
                    "silent-transition closure exceeded marking limit",
                    partial_count=len(seen),
                )
            frontier.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Token replay
# ---------------------------------------------------------------------------

@dataclass
class _TokenCounts:
    missing: int = 0
    remaining: int = 0
    consumed: int = 0
    produced: int = 0

    def add(self, other: "_TokenCounts") -> None:
        self.missing += other.missing
        self.remaining += other.remaining
        self.consumed += other.consumed
        self.produced += other.produced


_REPLAY_POP_LIMIT = 200_000


def _replay_variant(cn: CompiledNet, variant: Variant) -> _TokenCounts:
    """Cheapest token replay of one variant.

    Duplicate labels and silent transitions make greedy replay ambiguous,
    so the replay is a shortest-path search over (position, marking)
    states minimizing inserted-plus-leftover tokens, tie-broken by firing
    count.  A variant that can reach a final marking cleanly therefore
    always replays with zero missing and zero remaining tokens.
    """
    import heapq

    init_produced = sum(cn.initial)
    start = (0, cn.initial)
    # heap entries: (cost, firings, tiebreak, pos, marking, consumed, produced, settled)
    counter = 0
    heap = [(0, 0, counter, 0, cn.initial, 0, init_produced, None)]
    best: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {start: (0, 0)}
    pops = 0
    n = len(variant)
    while heap:
        cost, firings, _, pos, vec, consumed, produced, settled = heapq.heappop(heap)
        if settled is not None:
            miss_f, rem_f, final = settled
            return _TokenCounts(
                missing=cost - rem_f,
                remaining=rem_f,
                consumed=consumed + sum(final),
                produced=produced,
            )
        pops += 1
        if pops > _REPLAY_POP_LIMIT:
            raise BudgetExceededError(
                f"token replay exceeded {_REPLAY_POP_LIMIT} state expansions",
                partial_count=pos,
            )
        if best.get((pos, vec), (cost + 1, 0)) < (cost, firings):
            continue

        def push(cost2, firings2, pos2, vec2, consumed2, produced2):
            nonlocal counter
            key = (pos2, vec2)
            if key not in best or (cost2, firings2) < best[key]:
                best[key] = (cost2, firings2)
                counter += 1
                heapq.heappush(
                    heap, (cost2, firings2, counter, pos2, vec2, consumed2, produced2, None)
                )

        if pos == n:
            # Goal edges: settle against a final marking (or count leftovers).
            counter += 1
            if cn.finals:
                for f in cn.finals:
                    miss_f = sum(max(0, fc - mc) for fc, mc in zip(f, vec))
                    rem_f = sum(max(0, mc - fc) for fc, mc in zip(f, vec))
                    counter += 1
                    heapq.heappush(
                        heap,
                        (
                            cost + miss_f + rem_f,
                            firings,
                            counter,
                            pos,
                            vec,
                            consumed,
                            produced,
                            (miss_f, rem_f, f),
                        ),
                    )
            else:
                rem = sum(vec)
                heapq.heappush(
                    heap,
                    (cost + rem, firings, counter, pos, vec, consumed, produced, (0, rem, ())),
                )
        else:
            label = variant[pos]
            cands = cn.by_label.get(label, ())
            if not cands:
                # Unknown label: one missing-token event by convention.
                push(cost + 1, firings + 1, pos + 1, vec, consumed + 1, produced)
            # Every enabled candidate is explored (keeps clean replays exact);
            # force-firing branches only through the cheapest disabled one.
            disabled: tuple[int, int] | None = None
            for ti in cands:
                deficit = sum(1 for p in cn.pre[ti] if vec[p] < 1)
                if deficit and (disabled is None or deficit < disabled[0]):
                    disabled = (deficit, ti)
                if deficit:
                    continue
                push(
                    cost,
                    firings + 1,
                    pos + 1,
                    cn.fire(vec, ti),
                    consumed + len(cn.pre[ti]),
                    produced + len(cn.post[ti]),
                )
            if disabled is not None:
                deficit, ti = disabled
                out = list(vec)
                for p in cn.pre[ti]:
                    if out[p] >= 1:
                        out[p] -= 1
                for p in cn.post[ti]:
                    out[p] += 1
                push(
                    cost + deficit,
                    firings + 1,
                    pos + 1,
                    tuple(out),
                    consumed + len(cn.pre[ti]),
                    produced + len(cn.post[ti]),
                )
        for si in cn.silent:
            if cn.is_enabled(vec, si):
                push(
                    cost,
                    firings + 1,
                    pos,
                    cn.fire(vec, si),
                    consumed + len(cn.pre[si]),
                    produced + len(cn.post[si]),
                )
    raise BudgetExceededError("token replay found no settlement", partial_count=0)


def token_replay_fitness(net: PetriNet, lstar: VariantLog) -> float:
    """Token-based log fitness, aggregated at the log level.

    Counts are summed over all variants (with multiplicity) before the
    formula is applied; per-trace averaging would differ in the third
    decimal and is deliberately not used.
    """
    if len(lstar) == 0:
        raise InvalidInputError("token_replay_fitness requires a non-empty variant log")
    cn = CompiledNet(net)
    total = _TokenCounts()
    cache: dict[Variant, _TokenCounts] = {}
    for v in lstar:
        if v not in cache:
            cache[v] = _replay_variant(cn, v)
        total.add(cache[v])
    miss_term = 1.0 if total.consumed == 0 else 1.0 - total.missing / total.consumed
    rem_term = 1.0 if total.produced == 0 else 1.0 - total.remaining / total.produced
    return 0.5 * miss_term + 0.5 * rem_term


# ---------------------------------------------------------------------------
# Escaping-edges precision
# ---------------------------------------------------------------------------

class _TrieNode:
    __slots__ = ("children", "count")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.count = 0


def _build_prefix_trie(lstar: VariantLog) -> _TrieNode:
    root = _TrieNode()
    root.count = len(lstar)
    for v in lstar:
        node = root
        for label in v:
            node = node.children.setdefault(label, _TrieNode())
            node.count += 1
    return root


def etc_precision(net: PetriNet, lstar: VariantLog) -> float:
    """Escaping-edges log precision over the prefix automaton of the log.

    For each prefix state s (weighted by its frequency) the net offers a
    set of continuations A(s), computed over every marking reachable by
    replaying s including silent closure; labels enabled but never observed
    escape.  Prefixes the net cannot replay are truncated at the first
    failure and counted up to it.
    """
    if len(lstar) == 0:
        raise InvalidInputError("etc_precision requires a non-empty variant log")
    cn = CompiledNet(net)
    root = _build_prefix_trie(lstar)
    escaping = 0
    allowed = 0
    queue: deque[tuple[_TrieNode, frozenset[tuple[int, ...]]]] = deque(
        [(root, frozenset([cn.initial]))]
    )
    while queue:
        node, markings = queue.popleft()
        closure: set[tuple[int, ...]] = set()
        for m in markings:
            closure.update(_silent_closure(cn, m))
            if len(closure) > _CLOSURE_LIMIT:
                raise BudgetExceededError(
                    "escaping-edges replay exceeded marking limit",
                    partial_count=len(closure),
                )
        enabled_labels: set[str] = set()
        for m in closure:
            for ti in cn.enabled_indices(m):
                label = cn.transitions[ti].label
                if label is not None:
                    enabled_labels.add(label)
        observed = set(node.children)
        allowed += node.count * len(enabled_labels)
        escaping += node.count * len(enabled_labels - observed)
        for label, child in node.children.items():
            cands = cn.by_label.get(label, ())
            child_markings = {
                cn.fire(m, ti)
                for m in closure
                for ti in cands
                if cn.is_enabled(m, ti)
            }
            if child_markings:
                queue.append((child, frozenset(child_markings)))
    if allowed == 0:
        return 1.0
    return 1.0 - escaping / allowed


# ---------------------------------------------------------------------------
# System-level set ratios and the generalization score
# ---------------------------------------------------------------------------

def system_fitness(v_pn: Collection[Variant], v_s: Collection[Variant]) -> float:
    """Share of the realistic variant set the model covers."""
    v_s = frozenset(v_s)
    if not v_s:
        raise InvalidInputError("system_fitness requires a non-empty system variant set")
    return len(frozenset(v_pn) & v_s) / len(v_s)


def system_precision(v_pn: Collection[Variant], v_s: Collection[Variant]) -> float:
    """Share of the modeled variants that are realistic.

    A model playing out nothing scores 0.0 (with a warning): a net that
    models nothing is maximally unhelpful, not maximally precise.
    """
    v_pn = frozenset(v_pn)
    if not v_pn:
        warnings.warn("system_precision of an empty playout is defined as 0.0", stacklevel=2)
        return 0.0
    return len(v_pn & frozenset(v_s)) / len(v_pn)


def generalization_score(fit: float, prec: float) -> float:
    """Harmonic mean of fitness and precision; 0 when both are 0."""
    for name, value in (("fit", fit), ("prec", prec)):
        if not 0.0 <= value <= 1.0:
            raise InvalidInputError(f"{name} must be in [0,1], got {value}")
    if fit + prec == 0.0:
        return 0.0
    return 2.0 * fit * prec / (fit + prec)


@dataclass(frozen=True)
class GeneralizationResult:
    generalization: float
    scores: ConformanceScores


ConformanceFn = Callable[[PetriNet, VariantLog], float]


def model_generalization(
    net: PetriNet,
    v_hat_s: Iterable[Variant],
    fitness_fn: ConformanceFn = token_replay_fitness,
    precision_fn: ConformanceFn = etc_precision,
) -> GeneralizationResult:
    """Generalization of a net against an estimated system variant set.

    Scores a log containing each estimated variant exactly once and takes
    the harmonic mean of log fitness and log precision on it.
    """
    lstar = VariantLog(tuple(sorted(set(map(tuple, v_hat_s)))))
    if not lstar.variants:
        raise InvalidInputError("model_generalization requires a non-empty variant set")
    if not all(lstar.variants):
        raise InvalidInputError("variants must be non-empty")
    fit = fitness_fn(net, lstar)
    prec = precision_fn(net, lstar)
    scores = ConformanceScores(
        fitness=fit,
        precision=prec,
        fitness_method=getattr(fitness_fn, "__name__", "custom"),
        precision_method=getattr(precision_fn, "__name__", "custom"),
    )
    return GeneralizationResult(generalization_score(fit, prec), scores)
