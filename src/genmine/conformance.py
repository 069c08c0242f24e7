"""Conformance checking: log fitness, log precision, and generalization.

Both scores replay a variant log on a net.  Token-replay fitness
aggregates missing/remaining/consumed/produced token counts over the whole
log before applying the standard ``0.5*(1-m/c) + 0.5*(1-r/p)`` formula,
and escaping-edges precision walks the prefix automaton of the log
comparing model-enabled continuations with observed ones.  The exact set
ratios between a net's playout and a known variant set are
``metrics.compute_rates``' ``tp_s`` and ``tp``.

The generalization of a net against an estimated system variant set is the
harmonic mean of log fitness and log precision measured on a log holding
each of those variants once.  Both conformance functions are parameters so
stronger metrics can be swapped in without touching the pipeline.

Replay and precision search markings on the net's compiled form
(``PetriNet.compiled``).  Like playout, both read enabling and firing from
its one successor table, which lives as long as the net; only replay's
force-fires fire outside it.  Their own memos (replay moves, precision's
continuations per marking set) live for one call only.

Replay's heap order.  Replay is an A* search over (position, marking)
states for the least pair (cost, firings).  The heap is ordered by two A*
keys, then a depth key, then push order.  The cost key is the cost plus
a lower bound on the cost to come, and the firings key the firings plus a
lower bound on the firings to come.  On a one-token net (each transition
moves one token from one place to one place and each final marking holds
L tokens, ``CompiledNet.token_goal``) the cost bound is the token surplus
``len(marking) - L``, the firings bound is the ``n - pos`` labels left,
so up to the constant n the firings key is ``firings - pos``, and the
depth key is ``-pos``, so among ties the deepest state goes first and a
variant that replays cleanly follows one chain.  On any other net, a
built system's among them, both bounds and the depth key are 0: Dijkstra's
search in the order (cost, firings, push order), the order the reference
replay of the tests follows.  A replay move (``_Move``) holds only what it
does on the net, and ``_replay_variant`` alone works out the keys of the
state it reaches.

The pair bound is consistent: a labelled or silent move keeps the token
count, a force-fire adds one token at a cost of at least 1, and settling
costs ``missing + remaining >= len(marking) - L``; a labelled move, a
force-fire and an unknown label each add one firing and advance one
label, and a silent move adds one firing only.  So the search settles the
same least (cost, firings) pair as Dijkstra's, and on a one-token net the
counts are functions of that pair and of U, the variant's unknown labels:
``consumed = firings + L``, ``produced = len(initial) + firings - U`` and
``missing - remaining = U + L - len(initial)``.  Which tied path it
settles cannot change them.  A replay ``BudgetExceededError`` follows the
pop order: on a one-token net the search pops only states a Dijkstra
search pops before settling, stale entries and ties at the optimum aside,
so the error fires at the same pop limit as Dijkstra's or a lower one,
never a higher one, and its ``partial_count`` can differ
(``test_bench_sized_trace_net`` checks this on a trace and a dfg net).

Each prefix's work is done once per distinct set of markings.  Precision
keeps, per set of markings a prefix reaches, its visible continuations.
The first prefix to reach a set iterates its own set, as before; a later
one raises nothing, since the set's closure already fit the limit.  Its
children get the first prefix's continuation sets, equal as sets to
recomputed ones, though their iteration order, which a deeper budget
error's partial count and kind follow, may differ.  On a one-token net,
replay first walks the log's prefixes (``_clean_replays``).  A walk state
holds each marking that clean replays of a prefix reach, with the fewest
silent firings that reach it; its steps are the A*'s moves that cost
nothing, and each (state, label) step is taken once per call.  A
variant whose state holds a final marking replays cleanly, so the A* would
settle (0, ``len(v)`` plus those silent firings), and by the identities
above with U = 0 its counts are missing 0, remaining 0, consumed
``firings + L`` and produced ``len(initial) + firings``.  Only the other
variants run the A*.  A walk state of more than ``_CLOSURE_LIMIT``
markings is not stepped, and its variants fall back to the A*, so the walk
bounds its own work and no variant searches more than before; a clean
variant settles even where the A* would run out of pops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable

from .errors import BudgetExceededError, InvalidInputError, check_real
from .logs import Variant, VariantLog
from .petri import CompiledNet, PetriNet, TokenMarking

_CLOSURE_LIMIT = 20_000


@dataclass(frozen=True)
class ConformanceScores:
    fitness: float
    precision: float

    def __post_init__(self):
        for name, value in (("fitness", self.fitness), ("precision", self.precision)):
            check_real(name, value, "[0,1]")


# ---------------------------------------------------------------------------
# Silent-transition closure
# ---------------------------------------------------------------------------

def _silent_closure(cn: CompiledNet, marking: TokenMarking) -> set[TokenMarking]:
    """All markings reachable from ``marking`` by firing only silent transitions."""
    seen = {marking}
    if not cn.has_silent:
        return seen
    frontier = [marking]
    while frontier:
        cur = frontier.pop()
        for si, nxt in cn.successors(cur):
            if cn.labels[si] is not None or nxt in seen:
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

# One replay move, what it does on the net: (added cost, labels advanced,
# next marking, consumed, produced).  ``_replay_variant`` works out the heap
# keys from it.
_Move = tuple[int, int, TokenMarking, int, int]


def _overlap(a: TokenMarking, b: TokenMarking) -> int:
    """Tokens two markings have in common (multiset intersection size)."""
    i = j = common = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            common += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return common


def _replay_moves(cn: CompiledNet, label: str | None, marking: TokenMarking) -> tuple[_Move, ...]:
    """Moves out of a replay state that must next replay ``label``.

    ``label is None`` once the variant is consumed.  Order is push order:
    an unknown label's one missing-token event, then every enabled
    transition of the label, from the marking's successor row, then the
    cheapest force-fired one, then silent transitions.
    """
    moves: list[_Move] = []
    pre, post, labels = cn.pre, cn.post, cn.labels
    row = cn.successors(marking)
    if label is not None:
        cands = cn.by_label.get(label, ())
        if not cands:
            # Unknown label: one missing-token event by convention.
            moves.append((1, 1, marking, 1, 0))
        # Every enabled candidate is explored (keeps clean replays exact);
        # force-firing branches only through the cheapest disabled one.
        enabled = set()
        for ti, nxt in row:
            if labels[ti] == label:
                enabled.add(ti)
                moves.append((0, 1, nxt, len(pre[ti]), len(post[ti])))
        # A deficit of 1 is the least a disabled candidate can have, so the
        # scan stops at the first one; the earliest candidate wins ties.
        held = set(marking)
        disabled: tuple[int, int] | None = None
        for ti in cands:
            if ti in enabled:
                continue
            deficit = len(pre[ti] - held)
            if disabled is None or deficit < disabled[0]:
                disabled = (deficit, ti)
                if deficit == 1:
                    break
        if disabled is not None:
            deficit, ti = disabled
            moves.append((deficit, 1, cn.fire(marking, ti), len(pre[ti]), len(post[ti])))
    if cn.has_silent:
        for si, nxt in row:
            if labels[si] is None:
                moves.append((0, 0, nxt, len(pre[si]), len(post[si])))
    return tuple(moves)


def _replay_variant(
    cn: CompiledNet,
    variant: Variant,
    memo: dict[tuple[str | None, TokenMarking], tuple[_Move, ...]],
) -> _TokenCounts:
    """Cheapest token replay of one variant.

    Duplicate labels and silent transitions make greedy replay ambiguous,
    so the replay is a shortest-path search over (position, marking)
    states minimizing inserted-plus-leftover tokens, tie-broken by firing
    count.  A variant that can reach a final marking cleanly therefore
    always replays with zero missing and zero remaining tokens.  ``memo``
    keeps the moves out of each (next label, marking) pair; variants of
    one log share it.

    The heap order, and why it settles the same counts as Dijkstra's
    search, is set out in the module docstring.
    """
    init_produced = len(cn.initial)
    goal = cn.token_goal
    bounded = goal is not None
    start_key = len(cn.initial) - goal if bounded else 0
    # heap entries: (cost key, firings key, depth key, tiebreak, cost, pos, marking,
    # consumed, produced, settled).  On a fixed state the firings key differs
    # from the firings by a constant, so ``best`` stores (cost, firings key).
    counter = 0
    heap = [(start_key, 0, 0, counter, 0, 0, cn.initial, 0, init_produced, None)]
    best: dict[tuple[int, TokenMarking], tuple[int, int]] = {(0, cn.initial): (0, 0)}
    pops = 0
    n = len(variant)
    while heap:
        _, fkey, depth, _, cost, pos, marking, consumed, produced, settled = heappop(heap)
        if settled is not None:
            rem_f, final = settled
            return _TokenCounts(
                missing=cost - rem_f,
                remaining=rem_f,
                consumed=consumed + len(final),
                produced=produced,
            )
        pops += 1
        if pops > _REPLAY_POP_LIMIT:
            raise BudgetExceededError(
                f"token replay exceeded {_REPLAY_POP_LIMIT} state expansions",
                partial_count=pos,
            )
        if best.get((pos, marking), (cost + 1, 0)) < (cost, fkey):
            continue
        if pos == n:
            # Goal edges: settle against each final marking; without finals,
            # against the empty one, so every token left counts as remaining.
            label = None
            for f in cn.finals or ((),):
                common = _overlap(f, marking)
                rem_f = len(marking) - common
                total = cost + len(f) - common + rem_f
                counter += 1
                heappush(heap, (total, fkey, depth, counter, total, pos, marking,
                                consumed, produced, (rem_f, f)))
        else:
            label = variant[pos]
        moves = memo.get((label, marking))
        if moves is None:
            moves = memo[(label, marking)] = _replay_moves(cn, label, marking)
        for dcost, dpos, nxt, dconsumed, dproduced in moves:
            cost2, pos2 = cost + dcost, pos + dpos
            if bounded:
                # the heap keys of a one-token net (see the module docstring)
                key2, fkey2, depth2 = cost2 + len(nxt) - goal, fkey + 1 - dpos, -pos2
            else:
                key2, fkey2, depth2 = cost2, fkey + 1, 0
            state = (pos2, nxt)
            seen = best.get(state)
            if seen is None or (cost2, fkey2) < seen:
                best[state] = (cost2, fkey2)
                counter += 1
                heappush(heap, (key2, fkey2, depth2, counter, cost2, pos2, nxt,
                                consumed + dconsumed, produced + dproduced, None))
    raise BudgetExceededError("token replay found no settlement", partial_count=0)


# A state of the clean-replay walk: each marking that clean replays of one
# prefix reach, with the fewest silent firings that reach it less the
# fewest over all of them.  A step gives the next state, the fewest silent
# firings it adds, and the fewest of the state's at a final marking (None if
# it holds none); None in place of a step means no clean replay goes on.
_Walk = frozenset[tuple[TokenMarking, int]]
_WalkStep = tuple[_Walk, int, int | None]


def _walk_step(
    cn: CompiledNet,
    seeds: dict[TokenMarking, int],
    memo: dict[tuple[str | None, TokenMarking], tuple[_Move, ...]],
) -> _WalkStep | None:
    """The walk state silent moves reach from ``seeds``, each seed with its
    silent firings so far; None without seeds or past ``_CLOSURE_LIMIT``
    markings.  Level by level, so each marking keeps its fewest firings."""
    if not seeds:
        return None
    pending: dict[int, list[TokenMarking]] = {}
    for m, f in seeds.items():
        pending.setdefault(f, []).append(m)
    low = firings = min(pending)
    fewest: dict[TokenMarking, int] = {}
    frontier: list[TokenMarking] = []
    while frontier or pending:
        frontier += pending.pop(firings, ())
        reached = []
        for m in frontier:
            if m in fewest:
                continue
            fewest[m] = firings - low
            if len(fewest) > _CLOSURE_LIMIT:
                return None
            moves = memo.get((None, m))
            if moves is None:
                moves = memo[(None, m)] = _replay_moves(cn, None, m)
            reached += [nxt for _, _, nxt, _, _ in moves if nxt not in fewest]
        frontier = reached
        firings += 1
    end = min((fewest[f] for f in cn.finals if f in fewest), default=None)
    return frozenset(fewest.items()), low, end


def _clean_replays(
    cn: CompiledNet,
    lstar: VariantLog,
    memo: dict[tuple[str | None, TokenMarking], tuple[_Move, ...]],
) -> dict[Variant, _TokenCounts]:
    """Counts of the variants of ``lstar`` that replay cleanly on a one-token net.

    A walk over the variants' prefixes keeps the walk state of each (see
    ``_Walk``); each (state, label) step is taken once per call.  Labelled
    steps are the replay moves that advance a label at no cost, and silent
    steps the silent moves, from ``memo``, which the A* shares.  A variant
    whose last state holds a final marking settles with the fewest firings
    ``len(v) + silent``: missing 0, remaining 0, consumed ``firings + L``
    and produced ``len(initial) + firings``.
    """
    steps: dict[tuple[_Walk, str], _WalkStep | None] = {}
    root = _walk_step(cn, {cn.initial: 0}, memo)
    clean: dict[Variant, _TokenCounts] = {}
    for v in dict.fromkeys(lstar):
        state, silent = root, 0
        for label in v:
            if state is None:
                break
            walk = state[0]
            key = (walk, label)
            if key not in steps:
                seeds: dict[TokenMarking, int] = {}
                for m, f in walk:
                    moves = memo.get((label, m))
                    if moves is None:
                        moves = memo[(label, m)] = _replay_moves(cn, label, m)
                    for dcost, dpos, nxt, _, _ in moves:
                        if dcost == 0 and dpos == 1 and f < seeds.get(nxt, f + 1):
                            seeds[nxt] = f
                steps[key] = _walk_step(cn, seeds, memo)
            state = steps[key]
            if state is not None:
                silent += state[1]
        if state is not None and state[2] is not None:
            firings = len(v) + silent + state[2]
            clean[v] = _TokenCounts(0, 0, firings + cn.token_goal, len(cn.initial) + firings)
    return clean


def token_replay_fitness(net: PetriNet, lstar: VariantLog) -> float:
    """Token-based log fitness, aggregated at the log level.

    Counts are summed over all variants (with multiplicity) before the
    formula is applied; per-trace averaging would differ in the third
    decimal and is deliberately not used.  On a one-token net the variants
    that replay cleanly settle on one walk over the log's prefixes, and only
    the others run the A* search (see the module docstring).
    """
    if len(lstar) == 0:
        raise InvalidInputError("token_replay_fitness requires a non-empty variant log")
    cn = net.compiled
    total = _TokenCounts()
    memo: dict[tuple[str | None, TokenMarking], tuple[_Move, ...]] = {}
    with cn.search():
        cache = {} if cn.token_goal is None else _clean_replays(cn, lstar, memo)
        for v in lstar:
            if v not in cache:
                cache[v] = _replay_variant(cn, v, memo)
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
            child = node.children.get(label)
            if child is None:
                child = node.children[label] = _TrieNode()
            node = child
            node.count += 1
    return root


def etc_precision(net: PetriNet, lstar: VariantLog) -> float:
    """Escaping-edges log precision over the prefix automaton of the log.

    For each prefix state s (weighted by its frequency) the net offers a
    set of continuations A(s), computed over every marking reachable by
    replaying s including silent closure; labels enabled but never observed
    escape.  Prefixes the net cannot replay are truncated at the first
    failure and counted up to it.  Each distinct marking set's continuations
    are computed once per call; visible steps come from the net's successor
    table.
    """
    if len(lstar) == 0:
        raise InvalidInputError("etc_precision requires a non-empty variant log")
    cn = net.compiled
    root = _build_prefix_trie(lstar)
    # Visible continuations per marking set: label -> markings after firing it.
    steps: dict[frozenset[TokenMarking], dict[str, set[TokenMarking]]] = {}
    escaping = 0
    allowed = 0
    queue: deque[tuple[_TrieNode, set[TokenMarking]]] = deque([(root, {cn.initial})])
    with cn.search():
        while queue:
            node, markings = queue.popleft()
            key = frozenset(markings)
            continuations = steps.get(key)
            if continuations is None:
                closure: set[TokenMarking] = set()
                for m in markings:
                    closure.update(_silent_closure(cn, m))
                    if len(closure) > _CLOSURE_LIMIT:
                        raise BudgetExceededError(
                            "escaping-edges replay exceeded marking limit",
                            partial_count=len(closure),
                        )
                continuations = steps[key] = {}
                for m in closure:
                    for ti, nxt in cn.successors(m):
                        label = cn.labels[ti]
                        if label is not None:
                            continuations.setdefault(label, set()).add(nxt)
            allowed += node.count * len(continuations)
            escaping += node.count * len(continuations.keys() - node.children.keys())
            for label, child in node.children.items():
                if label in continuations:
                    queue.append((child, continuations[label]))
    if allowed == 0:
        return 1.0
    return 1.0 - escaping / allowed


# ---------------------------------------------------------------------------
# The generalization score
# ---------------------------------------------------------------------------

def generalization_score(fit: float, prec: float) -> float:
    """Harmonic mean of fitness and precision; 0 when both are 0."""
    for name, value in (("fit", fit), ("prec", prec)):
        check_real(name, value, "[0,1]")
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
    return GeneralizationResult(generalization_score(fit, prec), ConformanceScores(fit, prec))
