"""Seeded block-structured ground-truth net builder.

Systems are workflow nets assembled recursively from sequence, exclusive
choice, parallel, and bounded-loop blocks between an entry and an exit
place.  Parallel blocks route through silent split/join transitions; loop
repetition is paid from a token budget place, so every built net reaches a
final marking and its variant set is finite regardless of playout bounds.

Construction is a pure function of the spec: equal specs yield identical
nets, labels included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import BuildError, InvalidInputError, check_count
from .petri import DEFAULT_TOKEN_CAP, PetriNet, make_net, playout_extent

OPERATORS = ("seq", "xor", "and", "loop")

_MAX_FINAL_COMBOS = 256


@dataclass(frozen=True)
class SystemSpec:
    """Recipe for one ground-truth system."""

    seed: int
    depth: int = 3
    weights: Mapping[str, float] = field(
        default_factory=lambda: {"seq": 1.0, "xor": 1.0, "and": 0.4, "loop": 0.2}
    )
    alphabet_budget: int = 24
    loop_unroll: int = 2
    fanout_min: int = 2
    fanout_max: int = 3
    silent_skip: bool = False
    duplicate_label: bool = False

    def __post_init__(self):
        for name, minimum in (("seed", 0), ("depth", 0), ("alphabet_budget", 1),
                              ("loop_unroll", 1), ("fanout_min", 2), ("fanout_max", 2)):
            check_count(name, getattr(self, name), minimum)
        if self.depth > 6:
            raise InvalidInputError("depth must be in 0..6")
        if self.loop_unroll > DEFAULT_TOKEN_CAP:
            raise InvalidInputError(
                f"loop_unroll must be in 1..{DEFAULT_TOKEN_CAP} to survive capped playout"
            )
        if self.fanout_min > self.fanout_max:
            raise InvalidInputError("need 2 <= fanout_min <= fanout_max")
        unknown = set(self.weights) - set(OPERATORS)
        if unknown:
            raise InvalidInputError(f"unknown operators in weights: {sorted(unknown)}")
        values = [float(self.weights.get(op, 0.0)) for op in OPERATORS]
        if any(v < 0 for v in values) or not 0 < sum(values) < math.inf:
            raise InvalidInputError("weights must be non-negative with a positive finite sum")


class _Builder:
    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self.labels_used = 0
        self.counter = itertools.count(1)
        self.places: set[str] = {"p_start", "p_end"}
        self.transitions: list[tuple[str, str | None]] = []
        self.arcs: list[tuple[str, str]] = []
        self.loop_budgets: list[str] = []
        self.leaf_sites: list[tuple[str, str, str]] = []  # (entry, exit, label)

    def fresh_label(self) -> str:
        if self.labels_used >= self.spec.alphabet_budget:
            raise BuildError(
                f"alphabet budget of {self.spec.alphabet_budget} labels exhausted"
            )
        self.labels_used += 1
        return f"a{self.labels_used:02d}"

    def fresh_place(self) -> str:
        name = f"p{next(self.counter)}"
        self.places.add(name)
        return name

    def add_transition(self, label: str | None, entry: str, exit_: str, kind: str) -> str:
        tid = f"t{next(self.counter)}_{kind}"
        self.transitions.append((tid, label))
        self.arcs += [(entry, tid), (tid, exit_)]
        return tid

    def pick_operator(self) -> str:
        weights = np.array([float(self.spec.weights.get(op, 0.0)) for op in OPERATORS])
        probs = weights / weights.sum()
        return OPERATORS[int(self.rng.choice(len(OPERATORS), p=probs))]

    def fanout(self) -> int:
        return int(self.rng.integers(self.spec.fanout_min, self.spec.fanout_max + 1))

    def build(self, entry: str, exit_: str, depth: int) -> None:
        if depth <= 0:
            label = self.fresh_label()
            self.add_transition(label, entry, exit_, "leaf")
            self.leaf_sites.append((entry, exit_, label))
            return
        op = self.pick_operator()
        if op == "seq":
            k = self.fanout()
            cur = entry
            for i in range(k):
                nxt = exit_ if i == k - 1 else self.fresh_place()
                self.build(cur, nxt, depth - 1)
                cur = nxt
        elif op == "xor":
            for _ in range(self.fanout()):
                self.build(entry, exit_, depth - 1)
        elif op == "and":
            k = self.fanout()
            split = f"t{next(self.counter)}_split"
            join = f"t{next(self.counter)}_join"
            self.transitions += [(split, None), (join, None)]
            self.arcs.append((entry, split))
            self.arcs.append((join, exit_))
            for _ in range(k):
                b_in = self.fresh_place()
                b_out = self.fresh_place()
                self.arcs += [(split, b_in), (b_out, join)]
                self.build(b_in, b_out, depth - 1)
        elif op == "loop":
            self.build(entry, exit_, depth - 1)
            budget = self.fresh_place()
            self.loop_budgets.append(budget)
            redo = self.add_transition(self.fresh_label(), exit_, entry, "redo")
            self.arcs.append((budget, redo))
        else:  # pragma: no cover
            raise BuildError(f"unhandled operator {op!r}")

    def inject_edge_cases(self) -> None:
        if self.spec.silent_skip and self.leaf_sites:
            entry, exit_, _ = self.leaf_sites[0]
            self.add_transition(None, entry, exit_, "skip")
        if self.spec.duplicate_label and self.leaf_sites:
            entry, exit_, label = self.leaf_sites[-1]
            self.add_transition(label, entry, exit_, "dup")

    def finish(self) -> PetriNet:
        self.inject_edge_cases()
        initial = {"p_start": 1}
        for budget in self.loop_budgets:
            initial[budget] = self.spec.loop_unroll
        combos = (self.spec.loop_unroll + 1) ** len(self.loop_budgets)
        if combos > _MAX_FINAL_COMBOS:
            raise BuildError(
                f"{len(self.loop_budgets)} loops would need {combos} final markings; "
                "reduce loop weight or unroll bound"
            )
        finals = []
        for residuals in itertools.product(
            range(self.spec.loop_unroll + 1), repeat=len(self.loop_budgets)
        ):
            fm = {"p_end": 1}
            for place, tokens in zip(self.loop_budgets, residuals):
                if tokens:
                    fm[place] = tokens
            finals.append(fm)
        return make_net(self.places, self.transitions, self.arcs, initial, finals)


def build_system(spec: SystemSpec) -> PetriNet:
    """Construct the workflow net described by the spec."""
    builder = _Builder(spec)
    builder.build("p_start", "p_end", spec.depth)
    return builder.finish()


@dataclass(frozen=True)
class ComplexityProfile:
    alphabet_size: int
    max_variant_len: int
    variant_count: int


def complexity_profile(net: PetriNet) -> ComplexityProfile:
    """Alphabet size, longest variant length and variant count of the net's
    unbounded playout at the default token cap.

    Both come from the net's playout automaton, counted without listing a
    variant; an infinite playout raises :class:`InvalidInputError`, and an
    automaton past ``petri.STATE_LIMIT`` markings
    :class:`BudgetExceededError`.
    """
    variant_count, max_variant_len = playout_extent(net, DEFAULT_TOKEN_CAP)
    return ComplexityProfile(len(net.labels()), max_variant_len, variant_count)
