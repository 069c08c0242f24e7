"""Labeled Petri nets with silent transitions and bounded playout.

A net is a bipartite graph of places and transitions; a marking assigns a
non-negative token count to each place.  Playout walks the visible label
sequences depth-first.  A prefix's search state is the set of markings it
reaches, closed under silent firings, so each prefix is visited once however
many markings it reaches; the prefix is recorded when its state holds a
final marking.  Nets without declared final markings are played out in
permissive mode: any deadlock with at least one emitted label terminates a
variant, which is what unsound discovered nets need.

Playout, token replay and escaping-edges precision all search markings
through one compiled form, :class:`CompiledNet`, built once per net
(``PetriNet.compiled``).  It stores a marking sparsely, as the sorted
tuple of the indices of the places that hold tokens, one entry per token,
so firing, enabling checks and hashing cost time in the number of tokens,
not in the number of places.  Its successor table, filled per marking on
first visit and kept with the net, is the one enabling-and-firing relation
all three searches read; a search that raises drops the rows it added.
Rows come from one flat consumer index: per place, the transitions with
that place in their preset.  Playout filters each marking's row by the
token cap once per call, and token replay takes the moves of the label it
replays from the row.

State explosion is kept in check three ways: a per-place token cap, a cap
on the visible sequence length, and a global budget on (marking, prefix)
pairs that raises :class:`~genmine.errors.BudgetExceededError` with the
partial result count.
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
from .logs import UniqueVariantLog, Variant, VariantLog

Marking = dict[str, int]
# A marking in CompiledNet's form: sorted place indices, one per token.
TokenMarking = tuple[int, ...]

DEFAULT_TOKEN_CAP = 3
DEFAULT_BUDGET = 10_000_000


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
    place are checked.  ``consumers[p]`` lists, in index order, the
    transitions with place ``p`` in their preset, and ``unconditional`` the
    empty-preset ones, which every marking enables.  ``successors`` reads
    both, and its rows are the one enabling relation of playout, token
    replay and precision.  ``by_label`` lists each label's transitions, for
    replay's unknown labels and force-fires.
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
        # A one-token net moves one token from one place to one place per
        # firing, silent transitions included, and each of its final
        # markings holds the same number L of tokens (L = 0 without finals).
        # ``token_goal`` is L on such a net and None on any other; token
        # replay bounds its search by the token surplus over L.
        final_sizes = {len(f) for f in self.finals} or {0}
        one_token = len(final_sizes) == 1 and all(
            len(ps) == 1 for ps in self.pre + self.post
        )
        self.token_goal = final_sizes.pop() if one_token else None
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


class _PlayoutRows(dict):
    """One playout call's rows: marking -> (whether it is a deadlock, its
    visible (label, next marking) steps, its silent next markings), each
    next marking within the token cap; a row is worked out on first lookup.
    A marking whose successors all exceed the cap is not a deadlock."""

    def __init__(self, cn: CompiledNet, token_cap: int | None):
        super().__init__()
        self.cn = cn
        self.token_cap = token_cap

    def __missing__(self, marking: TokenMarking):
        cn, token_cap = self.cn, self.token_cap
        succ = cn.successors(marking)
        visible, silent = [], []
        for ti, nxt in succ:
            if token_cap is None or not _exceeds_cap(nxt, token_cap):
                label = cn.labels[ti]
                if label is None:
                    silent.append(nxt)
                else:
                    visible.append((label, nxt))
        row = self[marking] = (not succ, tuple(visible), tuple(silent))
        return row


def playout_enumerate(
    net: PetriNet,
    max_len: int | None,
    token_cap: int | None = DEFAULT_TOKEN_CAP,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[Variant]:
    """Enumerate every variant the net can play out within the bounds.

    DFS over emitted prefixes, each pushed once, by its parent.  A prefix's
    search state is the set of markings it reaches, closed under silent
    firings; firings past ``token_cap`` and visible steps past ``max_len``
    are pruned.  A non-empty prefix is recorded when its state holds a final
    marking or, on a net without declared finals, a deadlock (permissive
    mode).  Per call, each marking's row is filtered by the cap once, and
    each distinct state works out once whether it records and, when a
    prefix below ``max_len`` needs them, its visible steps.

    The budget counts (marking, prefix) pairs: a popped prefix costs the
    size of its state, and a silent closure raises as soon as the pairs
    charged so far plus its size pass the budget.  So a playout fits its
    budget exactly when a search over pairs would.  ``partial_count`` counts
    the variants recorded before the budget ran out, in this prefix order.
    """
    if max_len is not None:
        check_count("max_len", max_len)
    if token_cap is not None:
        check_count("token_cap", token_cap)
    check_count("budget", budget)
    cn = net.compiled
    finals = set(cn.finals)
    rows = _PlayoutRows(cn, token_cap)
    # state -> [whether it records, its (label, next state) steps or None]
    memo: dict[frozenset[TokenMarking], list] = {}
    results: set[Variant] = set()
    charged = 0

    def over_budget() -> BudgetExceededError:
        return BudgetExceededError(
            f"playout exceeded budget of {budget} expansions",
            partial_count=len(results),
        )

    def silent_closure(markings: set[TokenMarking]) -> frozenset[TokenMarking]:
        """The markings and all that silent firings reach from them."""
        todo = list(markings)
        while todo:
            for nxt in rows[todo.pop()][2]:
                if nxt not in markings:
                    markings.add(nxt)
                    if charged + len(markings) > budget:
                        raise over_budget()
                    todo.append(nxt)
        return frozenset(markings)

    # without silent transitions every set of markings is closed
    close = silent_closure if cn.has_silent else frozenset
    with cn.search():
        stack = [(close({cn.initial}), ())]
        while stack:
            state, prefix = stack.pop()
            charged += len(state)
            if charged > budget:
                raise over_budget()
            entry = memo.get(state)
            if entry is None:
                records = (not finals.isdisjoint(state) if finals
                           else any(rows[m][0] for m in state))
                entry = memo[state] = [records, None]
            if entry[0] and prefix:
                results.add(prefix)
            if max_len is not None and len(prefix) >= max_len:
                continue
            steps = entry[1]
            if steps is None:
                by_label: dict[str, set[TokenMarking]] = {}
                for m in state:
                    for label, nxt in rows[m][1]:
                        reached = by_label.get(label)
                        if reached is None:
                            by_label[label] = {nxt}
                        else:
                            reached.add(nxt)
                steps = entry[1] = [
                    (label, close(reached)) for label, reached in by_label.items()
                ]
            for label, nxt in steps:
                stack.append((nxt, prefix + (label,)))
    return frozenset(results)


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
    if len(lstar) == 0:
        raise InvalidInputError("dfg_discover requires a non-empty variant log")
    if not all(lstar):
        raise InvalidInputError("dfg_discover requires non-empty variants")
    starts: set[str] = set()
    ends: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    activities: set[str] = set()
    for v in lstar:
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
