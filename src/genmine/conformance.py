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
(``PetriNet.compiled``).  Like playout, precision, the walk over the log's
prefixes and replay on a net that is not one-token read enabling and
firing from its one successor table, which lives as long as the net; only
replay's force-fires fire outside it.  On a one-token net replay moves
single tokens along the net's arc table (``CompiledNet.arcs``) and reads
and writes no successor row.  Both scorers read one walk over the log's
prefixes (``_walk_log``), taken inside the calling scorer's
``cn.search()``.  It lives for one call only: a scorer called alone takes
its own, and one ``score_log`` call, which ``model_generalization`` makes,
takes one for its two scorers, in whichever runs first.  Replay's move
memo lives for one call too.

Replay's heap order.  Replay searches (position, marking) states for the
least pair (cost, firings).  Moves are pushed in one order on every net:
an unknown label's one missing-token event, the label's enabled
transitions in ascending index, its cheapest disabled one force-fired
(the first in ``by_label`` of the least deficit), then the silent
transitions in ascending index.

On a one-token net (each transition moves one token from one place to
one place and each final marking holds L tokens,
``CompiledNet.token_goal``) replay is an A* search.  Its heap is ordered
by two A* keys, then a depth key, then push order.  The cost key is the
cost plus two lower bounds on the cost to come: the token surplus
``len(marking) - L``, and a next-label bound of 2 when no token of the
marking can fire the next label, even after silent moves
(``CompiledNet.label_places``, built on a net's first A* replay).  That
bound is 0 for an unknown label and once the variant is consumed.  A
label no token can move has to be force-fired, which costs 1 and adds a
token that the surplus then counts, so 2 is a lower bound.  The firings
key is the firings plus the ``n - pos`` labels left, less the constant n:
``firings - pos``.  The depth key is ``-pos``, so among ties the deepest
state goes first and a variant that replays cleanly follows one chain.
Its moves (``_TokenMove``) come from the arc table: each moves one token,
or, force-fired, adds one, and holds only its added cost, the labels it
advances and the marking it reaches.  Heap entries carry no token counts;
the settled (cost, firings) pair gives them (below).  On any other net, a
built system's among them, replay is Dijkstra's search in the order
(cost, firings, push order), the order the reference replay of the tests
follows.  Its moves (``_Move``) come from the successor rows and carry
the tokens they consume and produce.

The pair bound is consistent: a labelled or silent move keeps the token
count, a force-fire adds one token at a cost of at least 1, and settling
costs ``missing + remaining >= len(marking) - L``; a labelled move, a
force-fire and an unknown label each add one firing and advance one
label, and a silent move adds one firing only.  The next-label bound
keeps it so: a labelled move that costs nothing exists only where the
bound is 0; a silent move keeps the next label and moves a token to a
place whose silent reach is part of its old place's, so the bound does
not fall; a force-fire pays the 2 itself, 1 in cost and 1 in surplus; an
unknown label costs 1 from a bound of 0; and settling happens where the
bound is 0.  So the A* settles the same least (cost, firings) pair as
Dijkstra's, and on a one-token net the counts are functions of that pair
and of U, the variant's unknown labels: ``consumed = firings + L``,
``produced = len(initial) + firings - U``, ``missing + remaining = cost``
and ``missing - remaining = U + L - len(initial)``.  Which tied path it
settles cannot change them.  A replay ``BudgetExceededError`` follows the
pop order: the A* pops only states a Dijkstra search pops before
settling, stale entries and ties at the optimum aside, so the error fires
at the same pop limit as Dijkstra's or a lower one, never a higher one,
and its ``partial_count`` can differ (``test_bench_sized_trace_net``
checks this on a trace and a dfg net).

The walk over the log's prefixes.  The walk goes breadth-first over the
log's prefix trie.  It sorts the log's distinct variants once, so a trie
node is a range of that list whose variants share a prefix; a child's
range ends where a bisection on its label puts it, and a node's count is
the length of its range, or a difference of prefix sums of the variants'
multiplicities when the log repeats some.  A walk state holds each
marking that clean replays of a prefix reach, closed under silent moves,
with the fewest silent firings that reach it; each (state, label) step is
taken once per walk, and steps from equal seeds close once.  One scan of
a state's successor rows closes it and groups the markings its labelled
moves reach by label, each with the fewest silent firings before it.  The
groups' labels are precision's continuations of the prefix, so a label
enabled but never observed escapes, and a group is the seeds of the next
step: the A*'s moves that advance a label at no cost.  A step into a
state of more than ``_CLOSURE_LIMIT`` markings is not taken: the walk
stops closing it at the limit + 1, the count precision's error carries,
whatever the log's order, and replay falls back to the A* for the
variants below it, so the walk bounds its own work and no variant
searches more than before.

On a single-output net (``CompiledNet.single_output``: every transition
puts exactly one token, silent ones included), replay settles on the walk
the variants that replay cleanly.  One-token nets and the nets built
without AND blocks are such nets.  A variant whose state holds a final
marking replays cleanly, so the search would settle cost 0 with the
fewest firings F, ``len(v)`` plus the silent firings of its steps.  A
clean replay fires only enabled transitions, so its final marking holds
``len(initial) + sum|post| - sum|pre|`` tokens, and the search settles
consumed ``sum|pre| + len(final)`` and produced ``len(initial) + sum|post|``:
the two are equal.  With one output place per transition ``sum|post|`` is
F, so the counts are missing 0, remaining 0 and consumed = produced =
``len(initial) + F``, whichever tied path the search settles.  Only the
other variants run the A*.  On a net with a transition of several output
places, an AND split's, ``sum|post|`` can differ between tied paths, so
every variant runs the A*; precision reads the same walk there.  A clean
variant settles even where the A* would run out of pops.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Collection, Iterable

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
# Token replay
# ---------------------------------------------------------------------------

@dataclass
class _TokenCounts:
    missing: int = 0
    remaining: int = 0
    consumed: int = 0
    produced: int = 0


_REPLAY_POP_LIMIT = 200_000

# One replay move on a one-token net, what it does there: (added cost,
# labels advanced, next marking).  The counts come from the settled
# (cost, firings) pair (see the module docstring).
_TokenMove = tuple[int, int, TokenMarking]
# One replay move on any other net: (added cost, labels advanced, next
# marking, consumed, produced).
_Move = tuple[int, int, TokenMarking, int, int]
# Replay's move memo: the moves out of each (next label, marking) pair.
_MoveMemo = dict[tuple[str | None, TokenMarking], tuple]


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


def _arc_moves(arcs: tuple[dict, ...], label: str | None, marking: TokenMarking,
               dpos: int) -> list[_TokenMove]:
    """The moves of the transitions of ``label`` that ``marking`` enables,
    in ascending index: each moves one token from its place to its output
    place.  They cost nothing and advance ``dpos`` labels."""
    if len(marking) == 1:
        out = arcs[marking[0]].get(label)
        return [(0, dpos, (q,)) for _, q in out] if out else []
    steps = []
    for p in dict.fromkeys(marking):
        out = arcs[p].get(label)
        if out is None:
            continue
        for ti, q in out:
            if p == q:
                steps.append((ti, marking))
            else:
                nxt = list(marking)
                nxt.remove(p)
                insort(nxt, q)
                steps.append((ti, tuple(nxt)))
    if len(steps) > 1:
        steps.sort()
    return [(0, dpos, nxt) for _, nxt in steps]


def _token_moves(cn: CompiledNet, label: str | None,
                 marking: TokenMarking) -> tuple[_TokenMove, ...]:
    """Moves out of a replay state of a one-token net that must next replay
    ``label`` (None once the variant is consumed), read from the arc table.

    Push order: an unknown label's one missing-token event, then every
    enabled transition of the label in ascending index, then the first
    disabled one in ``by_label`` force-fired (each takes one token, so a
    deficit of 1 is the least there is), then silent transitions in
    ascending index.
    """
    moves: list[_TokenMove] = []
    if label is not None:
        cands = cn.by_label.get(label)
        if cands is None:
            # Unknown label: one missing-token event by convention.
            moves.append((1, 1, marking))
        else:
            moves = _arc_moves(cn.arcs, label, marking, 1)
            pre = cn.pre
            for ti in cands:
                if pre[ti].isdisjoint(marking):
                    nxt = list(marking)
                    insort(nxt, cn.post[ti][0])
                    moves.append((1, 1, tuple(nxt)))
                    break
    if cn.has_silent:
        moves += _arc_moves(cn.arcs, None, marking, 0)
    return tuple(moves)


def _replay_moves(cn: CompiledNet, label: str | None, marking: TokenMarking) -> tuple[_Move, ...]:
    """Moves out of a replay state of a net that is not one-token, in the
    push order of ``_token_moves``: enabled transitions come from the
    marking's successor row, and the cheapest disabled one fires directly.
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


def _pop_limit_error(pos: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"token replay exceeded {_REPLAY_POP_LIMIT} state expansions",
        partial_count=pos,
    )


def _replay_variant(cn: CompiledNet, variant: Variant, memo: _MoveMemo) -> _TokenCounts:
    """Cheapest token replay of one variant.

    Duplicate labels and silent transitions make greedy replay ambiguous,
    so the replay is a shortest-path search over (position, marking)
    states minimizing inserted-plus-leftover tokens, tie-broken by firing
    count.  A variant that can reach a final marking cleanly therefore
    always replays with zero missing and zero remaining tokens.  ``memo``
    keeps the moves out of each (next label, marking) pair; variants of
    one log share it.

    A one-token net runs the A* that moves single tokens, any other net
    Dijkstra's search; the module docstring sets out both heap orders and
    why they settle the same counts.
    """
    if cn.token_goal is not None:
        return _replay_tokens(cn, variant, memo)
    return _replay_markings(cn, variant, memo)


def _replay_tokens(cn: CompiledNet, variant: Variant, memo: _MoveMemo) -> _TokenCounts:
    """The A* replay of a one-token net.  Heap entries: (cost key, firings
    key, depth key, tiebreak, cost, pos, marking, settled); on a fixed state
    the firings key differs from the firings by a constant, so ``best``
    stores (cost, firings key).  The cost key is the cost plus the token
    surplus, plus 2 when the marking holds none of the places listed for
    ``variant[pos]`` in ``cn.label_places``: that label must be force-fired,
    at a cost of 1 and one more token.  The bound stays consistent, so the
    settled pair is Dijkstra's (see the module docstring)."""
    goal = cn.token_goal
    tokens = len(cn.initial)
    n = len(variant)
    # needs[pos]: the places whose token can fire variant[pos] after silent
    # moves alone; None for an unknown label and at pos == n.
    needs = [*map(cn.label_places.get, variant), None]
    key = tokens - goal
    if needs[0] is not None and needs[0].isdisjoint(cn.initial):
        key += 2
    counter = 0
    heap = [(key, 0, 0, counter, 0, 0, cn.initial, False)]
    best: dict[tuple[int, TokenMarking], tuple[int, int]] = {(0, cn.initial): (0, 0)}
    pops = 0
    while heap:
        _, fkey, depth, _, cost, pos, marking, settled = heappop(heap)
        if settled:
            # the counts of (cost, firings, U) (see the module docstring)
            firings = fkey + n
            unknown = sum(label not in cn.by_label for label in variant)
            remaining = (cost - unknown - goal + tokens) // 2
            return _TokenCounts(missing=cost - remaining, remaining=remaining,
                                consumed=firings + goal, produced=tokens + firings - unknown)
        pops += 1
        if pops > _REPLAY_POP_LIMIT:
            raise _pop_limit_error(pos)
        if best.get((pos, marking), (cost + 1, 0)) < (cost, fkey):
            continue
        if pos == n:
            label = None
            for f in cn.finals or ((),):
                total = cost + len(f) + len(marking) - 2 * _overlap(f, marking)
                counter += 1
                heappush(heap, (total, fkey, depth, counter, total, pos, marking, True))
        else:
            label = variant[pos]
        moves = memo.get((label, marking))
        if moves is None:
            moves = memo[(label, marking)] = _token_moves(cn, label, marking)
        for dcost, dpos, nxt in moves:
            cost2, pos2, fkey2 = cost + dcost, pos + dpos, fkey + 1 - dpos
            state = (pos2, nxt)
            seen = best.get(state)
            if seen is None or (cost2, fkey2) < seen:
                best[state] = (cost2, fkey2)
                counter += 1
                key = cost2 + len(nxt) - goal
                need = needs[pos2]
                if need is not None and need.isdisjoint(nxt):
                    key += 2
                heappush(heap, (key, fkey2, -pos2, counter, cost2, pos2, nxt, False))
    raise BudgetExceededError("token replay found no settlement", partial_count=0)


def _replay_markings(cn: CompiledNet, variant: Variant, memo: _MoveMemo) -> _TokenCounts:
    """Dijkstra's replay of any other net.  Heap entries: (cost, firings,
    tiebreak, pos, marking, consumed, produced, settled)."""
    counter = 0
    heap = [(0, 0, counter, 0, cn.initial, 0, len(cn.initial), None)]
    best: dict[tuple[int, TokenMarking], tuple[int, int]] = {(0, cn.initial): (0, 0)}
    pops = 0
    n = len(variant)
    while heap:
        cost, firings, _, pos, marking, consumed, produced, settled = heappop(heap)
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
            raise _pop_limit_error(pos)
        if best.get((pos, marking), (cost + 1, 0)) < (cost, firings):
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
                heappush(heap, (total, firings, counter, pos, marking,
                                consumed, produced, (rem_f, f)))
        else:
            label = variant[pos]
        moves = memo.get((label, marking))
        if moves is None:
            moves = memo[(label, marking)] = _replay_moves(cn, label, marking)
        for dcost, dpos, nxt, dconsumed, dproduced in moves:
            cost2, firings2, pos2 = cost + dcost, firings + 1, pos + dpos
            state = (pos2, nxt)
            seen = best.get(state)
            if seen is None or (cost2, firings2) < seen:
                best[state] = (cost2, firings2)
                counter += 1
                heappush(heap, (cost2, firings2, counter, pos2, nxt,
                                consumed + dconsumed, produced + dproduced, None))
    raise BudgetExceededError("token replay found no settlement", partial_count=0)


# A state of the prefix walk is the set of markings that clean replays of
# one prefix reach, each with the fewest silent firings that reach it less
# the fewest over all of them (``_Walk``).  The walk keeps one entry per
# distinct state (``_WalkState``): ``end``, the fewest of its firings at a
# final marking (None if it holds none); ``nexts``, for each label its
# markings enable, the markings that label reaches, each with the fewest
# silent firings before it (the seeds of the next step); and ``taken``, for
# each label stepped so far, the step (None past the closure limit).  A
# step is the silent firings it adds and the state it reaches.
_Walk = frozenset[tuple[TokenMarking, int]]
_WalkState = tuple[int | None, dict[str, dict[TokenMarking, int]], dict]
_Step = tuple[int, _WalkState]


def _walk_step(cn: CompiledNet, seeds: dict[TokenMarking, int],
               states: dict[_Walk, _WalkState]) -> _Step | None:
    """The step into the state silent moves reach from ``seeds``, each seed
    with its silent firings so far; None past ``_CLOSURE_LIMIT`` markings.
    Level by level, so each marking keeps its fewest firings; one scan of
    each marking's successor row both closes the state and groups its
    labelled moves.  ``states`` holds each distinct state once."""
    pending: dict[int, list[TokenMarking]] = {}
    for m, f in seeds.items():
        pending.setdefault(f, []).append(m)
    low = firings = min(pending)
    labels = cn.labels
    fewest: dict[TokenMarking, int] = {}
    nexts: dict[str, dict[TokenMarking, int]] = {}
    frontier: list[TokenMarking] = []
    while frontier or pending:
        frontier += pending.pop(firings, ())
        reached = []
        for m in frontier:
            if m in fewest:
                continue
            f = fewest[m] = firings - low
            if len(fewest) > _CLOSURE_LIMIT:
                return None
            # Markings settle in order of firings, so the first entry of a
            # next marking holds its fewest.
            for ti, nxt in cn.successors(m):
                label = labels[ti]
                if label is None:
                    if nxt not in fewest:
                        reached.append(nxt)
                elif label not in nexts:
                    nexts[label] = {nxt: f}
                elif nxt not in nexts[label]:
                    nexts[label][nxt] = f
        frontier = reached
        firings += 1
    key = frozenset(fewest.items())
    state = states.get(key)
    if state is None:
        end = min((fewest[m] for m in cn.finals if m in fewest), default=None)
        state = states[key] = (end, nexts, {})
    return low, state


@dataclass(frozen=True)
class _LogWalk:
    """What one walk over a log's prefixes gives both scorers.

    ``clean`` maps each variant that replays cleanly on a single-output net
    to its consumed (= produced) tokens; ``allowed`` and ``escaping`` are
    the escaping-edges sums; ``gave_up`` tells whether some step reached a
    state of more than ``_CLOSURE_LIMIT`` markings.
    """

    clean: dict[Variant, int]
    allowed: int
    escaping: int
    gave_up: bool


def _check_variants(variants: Collection[Variant]) -> None:
    """Variants are non-empty tuples, and their labels non-empty strings."""
    if set(map(type, variants)) - {tuple}:
        for v in variants:
            if not isinstance(v, tuple):
                raise InvalidInputError(f"variants must be tuples of labels, got {v!r}")
    if not all(variants):
        raise InvalidInputError("variants must be non-empty")
    for label in set().union(*variants):
        if not (isinstance(label, str) and label):
            raise InvalidInputError(f"variant labels must be non-empty strings, got {label!r}")


def _walk_log(cn: CompiledNet, lstar: VariantLog) -> _LogWalk:
    """One breadth-first walk over the prefix trie of ``lstar``.

    The log's distinct variants are sorted once, so a trie node is a range
    ``[lo, hi)`` of them that shares a prefix, with the walk state of the
    prefix; the variant that ends at the node, if any, sorts first, and each
    child's range ends where a bisection on its label puts it.  A node's
    count is ``hi - lo``, or a difference of prefix sums of the variants'
    multiplicities when the log repeats some.  Each (state, label) step is
    taken once per walk, and steps from equal seeds close once.

    A node adds its count times the labels its state enables to
    ``allowed``, and times those no variant continues with to ``escaping``;
    a child whose label the state does not enable is not walked, nor is one
    past ``_CLOSURE_LIMIT``, which sets ``gave_up``, as does a root state
    past it.  On a single-output net a variant that ends in a state holding
    a final marking replays cleanly with the fewest firings F, ``len(v)``
    plus its silent firings: missing 0, remaining 0 and consumed = produced
    = ``len(initial) + F`` (see the module docstring).
    """
    _check_variants(lstar)
    weights = Counter(lstar)
    vs = sorted(weights)
    sums = None if len(vs) == len(lstar) else [0, *accumulate(map(weights.__getitem__, vs))]
    settle = cn.single_output
    tokens = len(cn.initial)
    states: dict[_Walk, _WalkState] = {}
    steps: dict[_Walk, _Step | None] = {}
    clean: dict[Variant, int] = {}
    allowed = escaping = 0
    root = _walk_step(cn, {cn.initial: 0}, states)
    gave_up = root is None
    level = [] if gave_up else [(root[1], 0, 0, len(vs))]
    depth = 0
    while level:
        below = []
        at = itemgetter(depth)
        for (end, nexts, taken), silent, lo, hi in level:
            count = hi - lo if sums is None else sums[hi] - sums[lo]
            unseen = len(nexts)
            allowed += count * unseen
            if len(vs[lo]) == depth:
                if settle and end is not None:
                    clean[vs[lo]] = tokens + depth + silent + end
                lo += 1
            while lo < hi:
                label = vs[lo][depth]
                mid = hi if vs[hi - 1][depth] == label else bisect_right(vs, label, lo, hi, key=at)
                seeds = nexts.get(label)
                if seeds is not None:
                    unseen -= 1
                    step = taken.get(label)
                    if step is None and label not in taken:
                        key = frozenset(seeds.items())
                        if key not in steps:
                            steps[key] = _walk_step(cn, seeds, states)
                        step = taken[label] = steps[key]
                    if step is None:
                        gave_up = True
                    else:
                        below.append((step[1], silent + step[0], lo, mid))
                lo = mid
            escaping += count * unseen
        level = below
        depth += 1
    return _LogWalk(clean, allowed, escaping, gave_up)


# The walks ``score_log`` shares between its two scorers: the log it scores
# and, per compiled net, its walk.  Set for that one call only.
_SHARED_WALKS: ContextVar[tuple[VariantLog, dict[CompiledNet, _LogWalk]] | None] = (
    ContextVar("_SHARED_WALKS", default=None))


def _walk_of(cn: CompiledNet, lstar: VariantLog) -> _LogWalk:
    """The walk of ``lstar`` on ``cn``, taken in the calling scorer's search,
    or the one an earlier scorer of the same ``score_log`` call took."""
    shared = _SHARED_WALKS.get()
    if shared is None or shared[0] is not lstar:
        return _walk_log(cn, lstar)
    walks = shared[1]
    if cn not in walks:
        walks[cn] = _walk_log(cn, lstar)
    return walks[cn]


def token_replay_fitness(net: PetriNet, lstar: VariantLog) -> float:
    """Token-based log fitness, aggregated at the log level.

    Counts are summed over all variants (with multiplicity) before the
    formula is applied; per-trace averaging would differ in the third
    decimal and is deliberately not used.  On a single-output net the
    variants that replay cleanly settle on the walk over the log's prefixes,
    and only the others run the A* search; on any other net every variant
    does (see the module docstring).
    """
    if len(lstar) == 0:
        raise InvalidInputError("token_replay_fitness requires a non-empty variant log")
    cn = net.compiled
    memo: _MoveMemo = {}
    with cn.search():
        # (missing, remaining, consumed, produced) per distinct variant
        counts = {v: (0, 0, t, t) for v, t in _walk_of(cn, lstar).clean.items()}
        for v in lstar:
            if v not in counts:
                c = _replay_variant(cn, v, memo)
                counts[v] = (c.missing, c.remaining, c.consumed, c.produced)
    missing, remaining, consumed, produced = map(sum, zip(*map(counts.__getitem__, lstar)))
    miss_term = 1.0 if consumed == 0 else 1.0 - missing / consumed
    rem_term = 1.0 if produced == 0 else 1.0 - remaining / produced
    return 0.5 * miss_term + 0.5 * rem_term


# ---------------------------------------------------------------------------
# Escaping-edges precision
# ---------------------------------------------------------------------------

def etc_precision(net: PetriNet, lstar: VariantLog) -> float:
    """Escaping-edges log precision over the prefix automaton of the log.

    For each prefix state s (weighted by its frequency) the net offers a
    set of continuations A(s), computed over every marking reachable by
    replaying s including silent closure; labels enabled but never observed
    escape.  Prefixes the net cannot replay are truncated at the first
    failure and counted up to it.  The sums come from the walk over the
    log's prefixes, which replay shares within one ``score_log`` call.  A
    prefix state of more than ``_CLOSURE_LIMIT`` markings raises, with
    ``partial_count`` the limit + 1, whatever the log's order.
    """
    if len(lstar) == 0:
        raise InvalidInputError("etc_precision requires a non-empty variant log")
    cn = net.compiled
    with cn.search():
        walk = _walk_of(cn, lstar)
        if walk.gave_up:
            raise BudgetExceededError("escaping-edges replay exceeded marking limit",
                                      partial_count=_CLOSURE_LIMIT + 1)
    if walk.allowed == 0:
        return 1.0
    return 1.0 - walk.escaping / walk.allowed


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


def score_log(
    net: PetriNet,
    lstar: VariantLog,
    fitness_fn: ConformanceFn = token_replay_fitness,
    precision_fn: ConformanceFn = etc_precision,
) -> ConformanceScores:
    """Log fitness and log precision of ``lstar`` on ``net``, the log's
    multiplicity kept.  For this one call the default scorers, and any that
    pass this net and log on to them, share one walk over the log's
    prefixes."""
    shared = _SHARED_WALKS.set((lstar, {}))
    try:
        fit = fitness_fn(net, lstar)
        prec = precision_fn(net, lstar)
    finally:
        _SHARED_WALKS.reset(shared)
    return ConformanceScores(fit, prec)


def model_generalization(
    net: PetriNet,
    v_hat_s: Iterable[Variant],
    fitness_fn: ConformanceFn = token_replay_fitness,
    precision_fn: ConformanceFn = etc_precision,
) -> GeneralizationResult:
    """Generalization of a net against an estimated system variant set.

    Scores a log containing each estimated variant exactly once
    (``score_log``) and takes the harmonic mean of log fitness and log
    precision on it.  A variant may be any sequence of labels but a string,
    which would be read as one label per character.
    """
    given = list(v_hat_s)
    for v in given:
        if isinstance(v, str):
            raise InvalidInputError(f"variants must be tuples of labels, got {v!r}")
    variants = set(map(tuple, given))
    if not variants:
        raise InvalidInputError("model_generalization requires a non-empty variant set")
    _check_variants(variants)
    scores = score_log(net, VariantLog(tuple(sorted(variants))), fitness_fn, precision_fn)
    return GeneralizationResult(generalization_score(scores.fitness, scores.precision), scores)
