"""Labeled Petri nets with silent transitions and bounded playout.

A net is a bipartite graph of places and transitions; a marking assigns a
non-negative token count to each place.  A prefix's search state is the set
of markings it reaches, closed under silent firings; the prefix is a variant
when its state holds a final marking.  Nets without declared final markings
are played out in permissive mode: any deadlock with at least one emitted
label terminates a variant, which is what unsound discovered nets need.

Those states and their visible steps form the net's playout automaton, one
per (net, token cap), built lazily and kept with the net
(:class:`PlayoutAutomaton`), and read three ways.  :func:`playout_enumerate`
lists the variants: a first walk, level by level, counts the prefixes
reaching each state, so the budget is charged with integers; only a playout
that fits it builds its prefixes, extending all of a state's prefixes by
each of its steps in one go.  :func:`count_playout` counts the variants
without listing any (:func:`playout_extent` also gives the longest one's
length), and :func:`accepts` tests one variant by walking its labels; an
experiment's net cells take their rates from counts and membership.

Playout, token replay and escaping-edges precision all search markings
through one compiled form, :class:`CompiledNet`, built once per net
(``PetriNet.compiled``).  It stores a marking sparsely, as the sorted
tuple of the indices of the places that hold tokens, one entry per token,
so firing, enabling checks and hashing cost time in the number of tokens,
not in the number of places.  Its successor table, filled per marking on
first visit and kept with the net, is the enabling-and-firing relation
that playout and precision read, and token replay on a net that is not
one-token; a search that raises drops the rows it added.  Rows come from
one flat consumer index: per place, the transitions with that place in
their preset.  A playout automaton filters each marking's row by its token
cap once and keeps the result.  On a one-token net, where each transition
moves one token, token replay moves single tokens along a per-place arc
table instead and adds no row; a per-label table of the places that can
fire each label, built on the first replay, bounds its search.

State explosion is kept in check by a per-place token cap, a cap on the
visible sequence length, and, for enumeration, a global budget on
(marking, prefix) pairs that raises
:class:`~genmine.errors.BudgetExceededError` with the partial result count.
Every read, enumeration included, builds the automaton within
:data:`STATE_LIMIT` markings; one that would grow past it raises that error
instead, whatever the budget.  A count or membership test has no budget.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

from .errors import BudgetExceededError, InvalidInputError, check_count
from .logs import UniqueVariantLog, Variant, VariantLog, check_variants

Marking = dict[str, int]
# A marking in CompiledNet's form: sorted place indices, one per token.
TokenMarking = tuple[int, ...]

DEFAULT_TOKEN_CAP = 3
DEFAULT_BUDGET = 10_000_000
# The most markings, summed over its states, that a playout automaton may
# hold.
STATE_LIMIT = 2_000_000


@dataclass(frozen=True)
class Transition:
    """A transition; ``label is None`` marks it silent."""

    tid: str
    label: str | None


@dataclass(frozen=True)
class PetriNet:
    places: frozenset[str]
    transitions: tuple[Transition, ...]
    arcs: frozenset[tuple[str, str]]
    initial_marking: tuple[tuple[str, int], ...]
    final_markings: tuple[tuple[tuple[str, int], ...], ...]

    def __post_init__(self):
        tids = [t.tid for t in self.transitions]
        if not tids:
            raise InvalidInputError("net needs at least one transition")
        for node in (*self.places, *tids):
            if not isinstance(node, str):
                raise InvalidInputError(f"place and transition ids must be strings, got {node!r}")
        if len(set(tids)) != len(tids):
            raise InvalidInputError("transition ids must be unique")
        if self.places & set(tids):
            raise InvalidInputError("place and transition ids must not collide")
        tset = set(tids)
        for src, dst in self.arcs:
            src_is_place = src in self.places
            dst_is_place = dst in self.places
            if src_is_place == dst_is_place:
                raise InvalidInputError(f"arc {src!r}->{dst!r} must connect a place and a transition")
            if not ((src_is_place or src in tset) and (dst_is_place or dst in tset)):
                raise InvalidInputError(f"arc {src!r}->{dst!r} references unknown node")
        for which, fm in (("initial", self.initial_marking),
                          *(("final", fm) for fm in self.final_markings)):
            for p, c in fm:
                if p not in self.places:
                    raise InvalidInputError(f"bad {which} marking entry ({p!r}, {c})")
                _check_tokens(p, c)
        if sum(c for _, c in self.initial_marking) < 1:
            raise InvalidInputError("initial marking must hold at least one token")
        for t in self.transitions:
            if t.label is not None and not isinstance(t.label, str):
                raise InvalidInputError(
                    f"transition {t.tid!r} label must be a string or null, got {t.label!r}"
                )
            if t.label == "":
                raise InvalidInputError(f"transition {t.tid!r} has an empty label")

    def labels(self) -> frozenset[str]:
        """Visible activity labels of the net."""
        return frozenset(t.label for t in self.transitions if t.label is not None)

    def initial(self) -> Marking:
        return dict(self.initial_marking)

    def finals(self) -> list[Marking]:
        return [dict(fm) for fm in self.final_markings]

    @cached_property
    def compiled(self) -> CompiledNet:
        """The compiled form, built on first use and kept with the net.

        Playout, token replay and precision of one net share it.
        """
        return CompiledNet(self)


def make_net(
    places: Iterable[str],
    transitions: Iterable[tuple[str, str | None]],
    arcs: Iterable[tuple[str, str]],
    initial_marking: Mapping[str, int],
    final_markings: Iterable[Mapping[str, int]] = (),
) -> PetriNet:
    """Convenience constructor from plain containers.

    A token count must be a non-negative ``int``; zero counts are dropped.
    Arcs have weight 1, so a place or arc given twice is rejected.
    """
    places, arcs = list(places), list(arcs)
    for kind, items in (("place", places), ("arc", arcs)):
        if len(set(items)) < len(items):
            repeated = next(item for item, n in Counter(items).items() if n > 1)
            raise InvalidInputError(f"{kind} {repeated!r} is repeated")
    return PetriNet(
        places=frozenset(places),
        transitions=tuple(Transition(tid, label) for tid, label in transitions),
        arcs=frozenset(arcs),
        initial_marking=_freeze_marking(initial_marking),
        final_markings=tuple(_freeze_marking(fm) for fm in final_markings),
    )


def _check_tokens(place: str, count: int) -> None:
    """Reject a token count that is not a non-negative ``int``."""
    # bool is a subclass of int, so the type is compared exactly
    if type(count) is not int or count < 0:
        raise InvalidInputError(
            f"place {place!r} holds {count!r} tokens; expected a non-negative integer"
        )


def _freeze_marking(m: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    for p, c in m.items():
        _check_tokens(p, c)
    return tuple(sorted((p, c) for p, c in m.items() if c > 0))


# ---------------------------------------------------------------------------
# Compiled form shared by playout, token replay and escaping-edges precision
# ---------------------------------------------------------------------------

class CompiledNet:
    """Index-based view of a net with sparse markings.

    Places and transitions are numbered in sorted id order.  A marking is a
    sorted tuple of place indices with one entry per token, so two tokens
    on place 0 and one on place 3 read ``(0, 0, 3)``.  Each marking has
    exactly one such tuple, so hashing and equality cost O(tokens), not
    O(places).  Arcs carry no weights: a transition is enabled when every
    place of its preset holds a token, so only transitions next to a marked
    place are tested.  ``consumers[p]`` lists, in index order, the
    transitions with place ``p`` in their preset, and ``unconditional`` the
    empty-preset ones, which every marking enables.  ``successors`` reads
    both, and its rows are the enabling relation of playout, precision and
    token replay on a net that is not one-token.  On a one-token net
    (``token_goal`` set), ``arcs[p][label]`` lists the ``(ti, q)`` moves of
    a token on ``p``, and token replay reads it instead, so its force-fired
    markings get no row; ``label_places``, built on replay's first use,
    lists per label the places whose token can fire it after silent moves
    alone, replay's next-label bound.  ``by_label`` lists each label's
    transitions, for replay's unknown labels and force-fires.
    """

    def __init__(self, net: PetriNet):
        self.place_index = {p: i for i, p in enumerate(sorted(net.places))}
        self.transitions = sorted(net.transitions, key=lambda t: t.tid)
        index = {t.tid: i for i, t in enumerate(self.transitions)}
        pre: list[list[int]] = [[] for _ in self.transitions]
        post: list[list[int]] = [[] for _ in self.transitions]
        for src, dst in net.arcs:
            if src in net.places:
                pre[index[dst]].append(self.place_index[src])
            else:
                post[index[src]].append(self.place_index[dst])
        self.pre = tuple(frozenset(ps) for ps in pre)
        self.post = tuple(tuple(sorted(ps)) for ps in post)
        self.initial = self.encode(net.initial())
        self.finals = tuple(self.encode(fm) for fm in net.finals())
        self.labels = tuple(t.label for t in self.transitions)
        self.has_silent = None in self.labels
        # ``single_output``: every transition, silent ones included, puts
        # exactly one token, so a clean replay produces one token per firing
        # and token replay settles it on the walk over the log's prefixes.
        # A one-token net is a single-output net whose transitions each also
        # take one token and whose final markings each hold the same number
        # L of tokens (L = 0 without finals).  ``token_goal`` is L on such a
        # net and None on any other; token replay's A* bounds its search by
        # the token surplus over L.
        self.single_output = all(len(ps) == 1 for ps in self.post)
        final_sizes = {len(f) for f in self.finals} or {0}
        one_token = (self.single_output and len(final_sizes) == 1
                     and all(len(ps) == 1 for ps in self.pre))
        self.token_goal = final_sizes.pop() if one_token else None
        # On a one-token net, the arc table: ``arcs[p][label]`` lists, in
        # ascending index, each transition ``ti`` of that label (None for
        # silent ones) taking its token from place ``p``, as ``(ti, q)``
        # with ``q`` its output place; token replay moves single tokens
        # along it.  None on any other net.
        self.arcs: tuple[dict[str | None, tuple[tuple[int, int], ...]], ...] | None = None
        if one_token:
            arcs: list[dict[str | None, list[tuple[int, int]]]] = [{} for _ in self.place_index]
            for ti, label in enumerate(self.labels):
                (p,) = pre[ti]
                arcs[p].setdefault(label, []).append((ti, self.post[ti][0]))
            self.arcs = tuple({k: tuple(v) for k, v in a.items()} for a in arcs)
        # The consumer index (see the class docstring), and the labeled
        # transitions per label.
        consumers: list[list[int]] = [[] for _ in self.place_index]
        by_label: dict[str, list[int]] = {}
        for ti, label in enumerate(self.labels):
            for p in pre[ti]:
                consumers[p].append(ti)
            if label is not None:
                by_label.setdefault(label, []).append(ti)
        self.consumers = tuple(map(tuple, consumers))
        self.unconditional = tuple(ti for ti, ps in enumerate(pre) if not ps)
        self.by_label = {k: tuple(v) for k, v in by_label.items()}
        self._successors: dict[TokenMarking, tuple[tuple[int, TokenMarking], ...]] = {}
        self._playouts: dict[int | None, PlayoutAutomaton] = {}

    def encode(self, marking: Mapping[str, int]) -> TokenMarking:
        """The sorted token tuple of a ``{place: count}`` marking."""
        tokens: list[int] = []
        for p, c in marking.items():
            if p not in self.place_index:
                raise InvalidInputError(f"marking references unknown place {p!r}")
            tokens += [self.place_index[p]] * c
        tokens.sort()
        return tuple(tokens)

    def fire(self, marking: TokenMarking, ti: int) -> TokenMarking:
        """The marking after ``ti`` fires.

        A preset place without a token gives nothing up, which is how token
        replay force-fires a disabled transition; every other caller fires
        only enabled transitions.
        """
        out = list(marking)
        for p in self.pre[ti]:
            if p in out:
                out.remove(p)
        out += self.post[ti]
        out.sort()
        return tuple(out)

    def successors(self, marking: TokenMarking) -> tuple[tuple[int, TokenMarking], ...]:
        """``(transition index, next marking)`` per enabled transition, in
        ascending index order; worked out once per marking and kept."""
        row = self._successors.get(marking)
        if row is None:
            held = set(marking)
            cands = set(self.unconditional)
            for p in held:
                cands.update(self.consumers[p])
            pre = self.pre
            row = self._successors[marking] = tuple(
                (ti, self.fire(marking, ti)) for ti in sorted(cands) if pre[ti] <= held
            )
        return row

    @cached_property
    def label_places(self) -> dict[str, frozenset[int]] | None:
        """On a one-token net, for each label the places whose token can
        fire it after silent moves alone: the preset places of its
        transitions and every place with a silent path to one.  Built on
        first use and kept; None on any other net."""
        if self.arcs is None:
            return None
        silent_into: list[list[int]] = [[] for _ in self.arcs]
        for p, out in enumerate(self.arcs):
            for _, q in out.get(None, ()):
                silent_into[q].append(p)
        table = {}
        for label, tis in self.by_label.items():
            found = set().union(*(self.pre[ti] for ti in tis))
            frontier = list(found)
            while frontier:
                for p in silent_into[frontier.pop()]:
                    if p not in found:
                        found.add(p)
                        frontier.append(p)
            table[label] = frozenset(found)
        return table

    def playout(self, token_cap: int | None) -> PlayoutAutomaton:
        """The playout automaton at ``token_cap``, created empty on first
        use and kept with the net."""
        auto = self._playouts.get(token_cap)
        if auto is None:
            auto = self._playouts[token_cap] = PlayoutAutomaton(self, token_cap)
        return auto

    @contextmanager
    def search(self):
        """Scope one search: if it raises, the successor rows it added go.
        Rows are only ever appended, so the newest ones are the search's."""
        rows_at_entry = len(self._successors)
        try:
            yield
        except BaseException:
            while len(self._successors) > rows_at_entry:
                self._successors.popitem()
            raise


def _exceeds_cap(marking: TokenMarking, cap: int) -> bool:
    """Whether some place holds more than ``cap`` tokens (runs are adjacent)."""
    if len(marking) <= cap:
        return False
    return any(marking[i] == marking[i + cap] for i in range(len(marking) - cap))


class _Overflow(Exception):
    """A silent closure or the automaton grew past :data:`STATE_LIMIT`."""


class PlayoutAutomaton:
    """A net's playout automaton at one token cap, built lazily and kept.

    It is the subset construction of the net's labelled reachability graph
    within the cap.  A state is a set of markings closed under silent
    firings, numbered in the order it was first reached; state 0 is the
    closure of the initial marking.  ``records[i]`` tells whether a prefix
    reaching state ``i`` is a variant: the state holds a final marking, or,
    on a net without finals, a deadlock (a marking with no successor at
    all, even past the cap).  ``steps[i]`` maps each visible label to the
    next state, in the order the labels first occur among the state's
    markings; it is None until a walk first needs it.  ``rows`` keeps each
    marking's cap-filtered successors: whether it is a deadlock, its
    (label, next marking) steps and its silent next markings.  The states
    hold at most :data:`STATE_LIMIT` markings in all.

    The automaton holds no reference to its net: every method that builds
    takes the :class:`CompiledNet`, so a dropped net is freed at once.
    States, steps and rows are only added; :func:`_within_state_limit`
    scopes a read so that a raise removes what the read added.
    """

    def __init__(self, cn: CompiledNet, token_cap: int | None):
        self.token_cap = token_cap
        self.finals = frozenset(cn.finals)
        self.rows: dict[TokenMarking, tuple] = {}
        self.index: dict[frozenset[TokenMarking], int] = {}
        self.states: list[frozenset[TokenMarking]] = []
        self.records: list[bool] = []
        self.steps: list[dict[str, int] | None] = []
        self.held = 0  # markings over all states
        self._filled: list[int] = []  # states whose steps the current call built

    def _row(self, cn: CompiledNet, marking: TokenMarking) -> tuple:
        row = self.rows.get(marking)
        if row is None:
            succ = cn.successors(marking)
            cap = self.token_cap
            visible, silent = [], []
            for ti, nxt in succ:
                if cap is None or not _exceeds_cap(nxt, cap):
                    label = cn.labels[ti]
                    if label is None:
                        silent.append(nxt)
                    else:
                        visible.append((label, nxt))
            row = self.rows[marking] = (not succ, tuple(visible), tuple(silent))
        return row

    def _state(self, cn: CompiledNet, seeds: set[TokenMarking]) -> int:
        """The number of the closure of ``seeds`` under silent firings.  A
        closure, or a new state, that takes the automaton past
        :data:`STATE_LIMIT` markings raises :class:`_Overflow`."""
        if cn.has_silent:
            todo = list(seeds)
            while todo:
                for nxt in self._row(cn, todo.pop())[2]:
                    if nxt not in seeds:
                        seeds.add(nxt)
                        if len(seeds) > STATE_LIMIT:
                            raise _Overflow
                        todo.append(nxt)
        state = frozenset(seeds)
        i = self.index.get(state)
        if i is None:
            if self.held + len(state) > STATE_LIMIT:
                raise _Overflow
            i = self.index[state] = len(self.states)
            self.states.append(state)
            self.records.append(not self.finals.isdisjoint(state) if self.finals
                                else any(self._row(cn, m)[0] for m in state))
            self.steps.append(None)
            self.held += len(state)
        return i

    def expand(self, cn: CompiledNet, i: int) -> dict[str, int]:
        """Build and return state ``i``'s steps."""
        by_label: dict[str, set[TokenMarking]] = {}
        for m in self.states[i]:
            for label, nxt in self._row(cn, m)[1]:
                targets = by_label.get(label)
                if targets is None:
                    by_label[label] = {nxt}
                else:
                    targets.add(nxt)
        steps = self.steps[i] = {
            label: self._state(cn, targets) for label, targets in by_label.items()
        }
        self._filled.append(i)
        return steps


@contextmanager
def _within_state_limit(cn: CompiledNet, auto: PlayoutAutomaton):
    """Scope one read of ``auto``, building state 0 if it is not there yet.
    An automaton that would pass :data:`STATE_LIMIT` markings raises
    :class:`BudgetExceededError`.  A read that raises leaves the automaton
    as it found it, and the successor table too (``cn.search()``)."""
    states, rows = len(auto.states), len(auto.rows)
    auto._filled.clear()
    try:
        with cn.search():
            if not states:
                auto._state(cn, {cn.initial})
            yield
    except BaseException as exc:
        for state in auto.states[states:]:
            del auto.index[state]
            auto.held -= len(state)
        for lst in (auto.states, auto.records, auto.steps):
            del lst[states:]
        for i in auto._filled:
            if i < states:
                auto.steps[i] = None
        while len(auto.rows) > rows:
            auto.rows.popitem()
        if isinstance(exc, _Overflow):
            raise BudgetExceededError(
                f"playout automaton exceeded {STATE_LIMIT} markings", partial_count=0
            ) from None
        raise
    finally:
        auto._filled.clear()


def _levels(cn: CompiledNet, auto: PlayoutAutomaton, max_len: int | None):
    """Yield, for each prefix length from 0 up to ``max_len``, the map from
    each state to the number of prefixes of that length reaching it, in the
    order the walk first reached the states.  A level is built only when
    asked for, expanding the states no call has expanded yet, so run the
    walk within :func:`_within_state_limit`."""
    steps = auto.steps
    level, depth = {0: 1}, 0
    while level:
        yield level
        if depth == max_len:
            return
        reached: dict[int, int] = {}
        for s, count in level.items():
            nexts = steps[s]
            if nexts is None:
                nexts = auto.expand(cn, s)
            for nxt in nexts.values():
                reached[nxt] = reached.get(nxt, 0) + count
        level, depth = reached, depth + 1


def _check_bounds(max_len: int | None, token_cap: int | None) -> None:
    if max_len is not None:
        check_count("max_len", max_len)
    if token_cap is not None:
        check_count("token_cap", token_cap)


def playout_enumerate(
    net: PetriNet,
    max_len: int | None,
    token_cap: int | None = DEFAULT_TOKEN_CAP,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[Variant]:
    """Enumerate every variant the net can play out within the bounds.

    A prefix's search state is the set of markings it reaches, closed under
    silent firings; firings past ``token_cap`` and visible steps past
    ``max_len`` are pruned.  A non-empty prefix is recorded when its state
    holds a final marking or, on a net without declared finals, a deadlock
    (permissive mode).  The states and their steps are those of the net's
    :class:`PlayoutAutomaton` at ``token_cap``, kept with the net, so a
    later call on the same net reads what an earlier one built.

    Two passes walk the states level by level, one level per prefix length.
    The first counts: a level maps each state to the number of prefixes of
    that length reaching it, and builds the steps a walk needs that no call
    has built yet.  Each prefix reaches one state, so a recording state's
    count counts distinct variants.  Only when the first pass fits the
    budget does the second build the prefixes, extending each state's list
    by each of its steps and merging the lists by next state.

    The budget counts (marking, prefix) pairs: a state costs its size once
    per prefix reaching it, and each level is charged in full before the
    next one is built.  So a playout fits its budget exactly when a search
    over pairs would.  ``partial_count`` counts the variants whose pairs fit
    before the budget ran out, charging the states of each level in the
    order the walk first reached them.  Whatever the budget, the automaton
    is built within :data:`STATE_LIMIT` markings, as for
    :func:`count_playout`.  A call that raises leaves the automaton as it
    found it.
    """
    _check_bounds(max_len, token_cap)
    check_count("budget", budget)
    cn = net.compiled
    auto = cn.playout(token_cap)
    states, records, steps = auto.states, auto.records, auto.steps
    charged = recorded = 0
    with _within_state_limit(cn, auto):
        for depth, level in enumerate(_levels(cn, auto, max_len)):
            for s, count in level.items():
                size = len(states[s])
                recording = depth > 0 and records[s]
                if charged + size * count > budget:
                    fit = (budget - charged) // size if recording else 0
                    raise BudgetExceededError(
                        f"playout exceeded budget of {budget} expansions",
                        partial_count=recorded + fit,
                    )
                charged += size * count
                if recording:
                    recorded += count

    # The budget held: build the prefixes from the automaton alone.  Each
    # one is built once, from its parent, so the recorded list has no
    # repeats.
    results: list[Variant] = []
    prefixes_at: dict[int, list[Variant]] = {0: [()]}
    depth = 0
    while prefixes_at:
        below_max = max_len is None or depth < max_len
        extended: dict[int, list[Variant]] = {}
        while prefixes_at:
            s, prefixes = prefixes_at.popitem()
            if records[s] and depth:
                results += prefixes
            if not below_max:
                continue
            for label, nxt in steps[s].items():
                grown_prefixes = [p + (label,) for p in prefixes]
                merged = extended.get(nxt)
                if merged is None:
                    extended[nxt] = grown_prefixes
                else:
                    merged += grown_prefixes
        prefixes_at, depth = extended, depth + 1
    return frozenset(results)


def count_playout(net: PetriNet, max_len: int | None,
                  token_cap: int | None = DEFAULT_TOKEN_CAP) -> int:
    """The number of variants :func:`playout_enumerate` lists, counted on
    the net's playout automaton without listing any.

    With a ``max_len``, a walk over lengths maps each state to the number of
    prefixes reaching it.  Without one, the count is :func:`playout_extent`'s,
    and an infinite playout raises :class:`InvalidInputError`.  No budget
    applies: an automaton past :data:`STATE_LIMIT` markings raises
    :class:`BudgetExceededError`.
    """
    _check_bounds(max_len, token_cap)
    if max_len is None:
        return playout_extent(net, token_cap)[0]
    cn = net.compiled
    auto = cn.playout(token_cap)
    records = auto.records
    with _within_state_limit(cn, auto):
        levels = _levels(cn, auto, max_len)
        next(levels)  # the empty prefix is no variant
        return sum(count for level in levels for s, count in level.items() if records[s])


def playout_extent(net: PetriNet, token_cap: int | None = DEFAULT_TOKEN_CAP) -> tuple[int, int]:
    """The variant count and the longest variant's length (0 if there is
    none) of the net's playout without a length bound.

    A dynamic program over the automaton's reachable states from which a
    recording state is reachable (the live states); if a cycle is among
    them the playout is infinite, and :class:`InvalidInputError` says so.
    The automaton is built within :data:`STATE_LIMIT`, as in
    :func:`count_playout`.
    """
    _check_bounds(None, token_cap)
    cn = net.compiled
    auto = cn.playout(token_cap)
    records, steps = auto.records, auto.steps
    with _within_state_limit(cn, auto):
        seen, todo = {0}, [0]
        while todo:
            s = todo.pop()
            nexts = steps[s]
            if nexts is None:
                nexts = auto.expand(cn, s)
            for nxt in nexts.values():
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    preds: dict[int, list[int]] = {s: [] for s in seen}
    for s in seen:
        for nxt in steps[s].values():
            preds[nxt].append(s)
    live = {s for s in seen if records[s]}
    todo = list(live)
    while todo:
        for p in preds[todo.pop()]:
            if p not in live:
                live.add(p)
                todo.append(p)
    # Settle each live state once all its live next states are settled.
    waiting = {s: sum(nxt in live for nxt in steps[s].values()) for s in live}
    ready = [s for s, n in waiting.items() if not n]
    paths: dict[int, int] = {}
    longest: dict[int, int] = {}
    while ready:
        s = ready.pop()
        nexts = [nxt for nxt in steps[s].values() if nxt in live]
        paths[s] = records[s] + sum(paths[nxt] for nxt in nexts)
        longest[s] = max((longest[nxt] + 1 for nxt in nexts), default=0)
        for p in preds[s]:
            if p in live:
                waiting[p] -= 1
                if not waiting[p]:
                    ready.append(p)
    if len(paths) < len(live):
        raise InvalidInputError(
            "the playout is infinite: a cycle of its automaton reaches an accepting "
            "state; give max_len"
        )
    if 0 not in live:
        return 0, 0
    return paths[0] - records[0], longest[0]


def _walk(auto: PlayoutAutomaton, variant: Variant, cn: CompiledNet | None = None) -> int | None:
    """The state ``variant`` reaches, or None if it reaches no marking.
    Without ``cn`` nothing is built, and a step not built yet gives -1."""
    s = 0
    for label in variant:
        nexts = auto.steps[s]
        if nexts is None:
            if cn is None:
                return -1
            nexts = auto.expand(cn, s)
        s = nexts.get(label)
        if s is None:
            return None
    return s


def accepts(net: PetriNet, variant: Variant, max_len: int | None = None,
            token_cap: int | None = DEFAULT_TOKEN_CAP) -> bool:
    """Whether :func:`playout_enumerate` with these bounds lists ``variant``,
    read by walking its labels through the net's playout automaton.  Steps
    no walk has needed yet are built within :data:`STATE_LIMIT`, as in
    :func:`count_playout`."""
    _check_bounds(max_len, token_cap)
    if not variant or (max_len is not None and len(variant) > max_len):
        return False
    cn = net.compiled
    auto = cn.playout(token_cap)
    s = _walk(auto, variant) if auto.states else -1
    if s == -1:
        # a step no walk has needed yet: walk again, building what is missing
        with _within_state_limit(cn, auto):
            s = _walk(auto, variant, cn)
    return s is not None and auto.records[s]


# ---------------------------------------------------------------------------
# Baseline model constructors
# ---------------------------------------------------------------------------

def trace_model(lplus: UniqueVariantLog) -> PetriNet:
    """Overfitting baseline: one isolated chain per observed variant.

    Its playout (at sufficient length, uncapped) equals the input exactly.
    """
    if len(lplus) == 0:
        raise InvalidInputError("trace_model requires a non-empty variant log")
    places = {"p_src", "p_sink"}
    transitions: list[tuple[str, str | None]] = []
    arcs: list[tuple[str, str]] = []
    for vi, v in enumerate(sorted(lplus.as_set())):
        prev_place = "p_src"
        for j, label in enumerate(v):
            tid = f"t_{vi}_{j}"
            transitions.append((tid, label))
            arcs.append((prev_place, tid))
            if j == len(v) - 1:
                arcs.append((tid, "p_sink"))
            else:
                mid = f"p_{vi}_{j}"
                places.add(mid)
                arcs.append((tid, mid))
                prev_place = mid
    return make_net(places, transitions, arcs, {"p_src": 1}, [{"p_sink": 1}])


def flower_model(alphabet: Iterable[str]) -> PetriNet:
    """Maximally imprecise baseline: any label, any order, any length."""
    labels = sorted(set(alphabet))
    if not labels:
        raise InvalidInputError("flower_model requires a non-empty alphabet")
    transitions = [(f"t_{label}", label) for label in labels]
    arcs = []
    for label in labels:
        arcs.append(("p_pool", f"t_{label}"))
        arcs.append((f"t_{label}", "p_pool"))
    return make_net({"p_pool"}, transitions, arcs, {"p_pool": 1}, [{"p_pool": 1}])


def dfg_discover(lstar: VariantLog | UniqueVariantLog) -> PetriNet:
    """Directly-follows baseline miner.

    The net is the state machine of the directly-follows graph: one place
    per activity ("just did a"), one labeled transition per DF edge, and a
    silent exit per observed end activity.  Every variant of the input is
    replayable by construction; the closure of the DF relation may play out
    more.
    """
    variants = check_variants(lstar)
    if not variants:
        raise InvalidInputError("dfg_discover requires a non-empty variant log")
    starts: set[str] = set()
    ends: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    activities: set[str] = set()
    for v in variants:
        starts.add(v[0])
        ends.add(v[-1])
        activities.update(v)
        pairs.update(zip(v, v[1:]))
    places = {"p_start", "p_end"} | {f"p_{a}" for a in activities}
    transitions: list[tuple[str, str | None]] = []
    arcs: list[tuple[str, str]] = []
    for a in sorted(starts):
        tid = f"t_enter_{a}"
        transitions.append((tid, a))
        arcs += [("p_start", tid), (tid, f"p_{a}")]
    for a, b in sorted(pairs):
        tid = f"t_step_{a}_{b}"
        transitions.append((tid, b))
        arcs += [(f"p_{a}", tid), (tid, f"p_{b}")]
    for a in sorted(ends):
        tid = f"t_exit_{a}"
        transitions.append((tid, None))
        arcs += [(f"p_{a}", tid), (tid, "p_end")]
    return make_net(places, transitions, arcs, {"p_start": 1}, [{"p_end": 1}])


# ---------------------------------------------------------------------------
# PN JSON interchange format
# ---------------------------------------------------------------------------

def net_to_dict(net: PetriNet) -> dict:
    return {
        "places": sorted(net.places),
        "transitions": [
            {"id": t.tid, "label": t.label}
            for t in sorted(net.transitions, key=lambda t: t.tid)
        ],
        "arcs": [
            {"from": src, "to": dst} for src, dst in sorted(net.arcs)
        ],
        "initial_marking": {p: c for p, c in net.initial_marking},
        "final_markings": [{p: c for p, c in fm} for fm in net.final_markings],
    }


def net_from_dict(data: Mapping) -> PetriNet:
    """Build a net from :func:`net_to_dict` output.

    A missing or mistyped field (a token count that is not a non-negative
    integer, a name that is not a string) raises :class:`InvalidInputError`.
    """
    try:
        if not isinstance(data["places"], list):
            raise InvalidInputError(f"places must be a list, got {data['places']!r}")
        return make_net(
            places=data["places"],
            transitions=[(t["id"], t.get("label")) for t in data["transitions"]],
            arcs=[(a["from"], a["to"]) for a in data["arcs"]],
            initial_marking=data["initial_marking"],
            final_markings=data.get("final_markings", []),
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"malformed net JSON: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed net JSON: {exc!r}") from exc


def save_net(net: PetriNet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(net_to_dict(net), indent=2, sort_keys=True) + "\n")


def load_net(path: str | Path) -> PetriNet:
    """Read a net written by :func:`save_net`; a file that is not JSON raises
    :class:`InvalidInputError`."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise InvalidInputError(f"malformed net JSON in {str(path)!r}: {exc!r}") from exc
    return net_from_dict(data)
